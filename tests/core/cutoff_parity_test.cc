// The lookahead pick and the minimax solver, pinned against their naive
// references (the suite is named for the cutoff-pruned scan these cases
// first pinned; every candidate is now scored in full):
//   - PickClass returns the class an argmax over naive SimulateLabel
//     scores returns, serially and at 1/2/8 threads, for every objective —
//     Tsallis α < 0 (not monotone in the pruning counts) included;
//   - full session transcripts are byte-identical to a session driven by
//     that naive argmax;
//   - the minimax solver agrees with a naive reference solver that
//     rescans every class and keys its memo on CanonicalKey strings.

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/jim.h"
#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "support/core_views.h"
#include "support/parallel_for_calls.h"
#include "support/simulate_label.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

namespace jim::core {
namespace {

// Like the other parity suites, run with the invariant auditor on: every
// JIM_AUDIT checkpoint (engine construction and labeling) re-derives the
// knowledge-cache/worklist contracts while these assertions run.
const bool kAuditInvariantsOn = [] {
  ::jim::util::SetAuditInvariants(true);
  return true;
}();

workload::SyntheticWorkload MakeWorkload(uint64_t seed, size_t tuples = 300,
                                         size_t attrs = 6) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_attributes = attrs;
  spec.num_tuples = tuples;
  spec.domain_size = 4;
  spec.goal_constraints = 2;
  return workload::MakeSyntheticWorkload(spec, rng);
}

/// Every objective with its α: Tsallis α < 0 is not monotone in the
/// pruning counts, which no part of the scan may rely on.
std::vector<std::pair<LookaheadStrategy::Objective, double>> AllObjectives() {
  return {{LookaheadStrategy::Objective::kMinMax, 1.0},
          {LookaheadStrategy::Objective::kExpected, 1.0},
          {LookaheadStrategy::Objective::kEntropy, 1.0},
          {LookaheadStrategy::Objective::kEntropy, -0.5}};
}

TEST(CutoffParityTest, PickMatchesExhaustiveAcrossThreadCounts) {
  for (uint64_t seed : {3u, 7u, 14u, 21u, 77u, 159u}) {
    const auto workload = MakeWorkload(seed);
    const InferenceEngine engine(workload.instance);
    ASSERT_FALSE(engine.InformativeClasses().empty());

    for (const auto& [objective, alpha] : AllObjectives()) {
      NaiveLookaheadStrategy naive(objective, alpha);
      const size_t reference = naive.PickClass(engine);

      LookaheadStrategy serial(objective, alpha);
      serial.set_thread_pool(nullptr);
      EXPECT_EQ(serial.PickClass(engine), reference) << "seed=" << seed;

      for (size_t threads : {1u, 2u, 8u}) {
        exec::ThreadPool pool(threads);
        LookaheadStrategy pooled(objective, alpha);
        pooled.set_thread_pool(&pool);
        size_t pick = 0;
        const uint64_t calls = exec::ParallelForCallsDuring(
            [&] { pick = pooled.PickClass(engine); });
        EXPECT_EQ(calls > 0, threads > 1) << "threads=" << threads;
        EXPECT_EQ(pick, reference)
            << "seed=" << seed << " threads=" << threads;
      }
    }
  }
}

TEST(CutoffParityTest, TranscriptsMatchExhaustiveAcrossThreadCounts) {
  for (uint64_t seed : {11u, 97u}) {
    const auto workload = MakeWorkload(seed);

    NaiveLookaheadStrategy naive(LookaheadStrategy::Objective::kEntropy);
    const SessionResult reference =
        RunSession(core::MakeRelationStore(workload.instance),
                   workload.goal, naive);
    ASSERT_TRUE(reference.identified_goal);

    auto transcript = [](const SessionResult& result) {
      std::vector<std::tuple<size_t, size_t, Label, size_t>> t;
      for (const SessionStep& step : result.steps) {
        t.emplace_back(step.class_id, step.tuple_index, step.label,
                       step.pruned_tuples);
      }
      return t;
    };

    for (size_t threads : {1u, 2u, 8u}) {
      exec::ThreadPool pool(threads);
      LookaheadStrategy pooled(LookaheadStrategy::Objective::kEntropy);
      pooled.set_thread_pool(&pool);
      // The engine is built outside the counted region: only the
      // strategy's scans count.
      InferenceEngine engine(workload.instance);
      ExactOracle oracle(workload.goal);
      SessionResult result;
      const uint64_t calls = exec::ParallelForCallsDuring([&] {
        result = RunSessionOnEngine(engine, workload.goal, pooled, oracle);
      });
      EXPECT_EQ(calls > 0, threads > 1) << "threads=" << threads;
      EXPECT_EQ(transcript(result), transcript(reference))
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

/// The naive minimax: full-engine rescan per node from the class partitions,
/// an InferenceState copy per answer branch, a string memo key. Kept here
/// as the oracle the library's solver must agree with.
class NaiveMinimaxReference {
 public:
  explicit NaiveMinimaxReference(const InferenceEngine& engine)
      : engine_(engine) {}

  size_t Solve(const InferenceState& state) {
    const std::string key = CanonicalKey(state);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    std::vector<size_t> live;
    for (size_t c = 0; c < engine_.num_classes(); ++c) {
      if (engine_.class_status(c) != ClassStatus::kInformative) continue;
      if (state.Classify(engine_.ClassPartition(c)) ==
          TupleClassification::kInformative) {
        live.push_back(c);
      }
    }
    size_t best = live.empty() ? 0 : SIZE_MAX;
    for (size_t c : live) {
      size_t worst = 0;
      for (Label label : {Label::kPositive, Label::kNegative}) {
        InferenceState next = state;
        JIM_CHECK_OK(
            ApplyLabel(next, engine_.ClassPartition(c), label));
        worst = std::max(worst, Solve(next));
      }
      best = std::min(best, 1 + worst);
      if (best == 1) break;
    }
    memo_.emplace(key, best);
    return best;
  }

 private:
  const InferenceEngine& engine_;
  std::unordered_map<std::string, size_t> memo_;
};

TEST(CutoffParityTest, TrailMinimaxMatchesNaiveReference) {
  // Small instances keep the naive reference tractable.
  {
    auto instance = workload::Figure1InstancePtr();
    const InferenceEngine engine(instance);
    NaiveMinimaxReference naive(engine);
    EXPECT_EQ(OptimalWorstCaseQuestions(engine),
              naive.Solve(engine.state()));
  }
  for (uint64_t seed : {1u, 9u}) {
    util::Rng rng(seed);
    workload::SyntheticSpec spec;
    spec.num_attributes = 4;
    spec.num_tuples = 25;
    spec.domain_size = 3;
    spec.goal_constraints = 1;
    const auto workload = workload::MakeSyntheticWorkload(spec, rng);
    const InferenceEngine engine(workload.instance);
    NaiveMinimaxReference naive(engine);
    EXPECT_EQ(OptimalWorstCaseQuestions(engine), naive.Solve(engine.state()))
        << "seed=" << seed;
  }
}

TEST(CutoffParityTest, OptimalStrategyScoresUnchangedOnFigure1) {
  // End-to-end: the rewritten solver drives OptimalStrategy::Score; its
  // per-candidate worst cases must match state-copy recomputation.
  auto instance = workload::Figure1InstancePtr();
  const InferenceEngine engine(instance);
  OptimalStrategy strategy;
  const std::vector<size_t>& candidates = engine.InformativeClasses();
  const std::vector<double> scores = strategy.Score(engine, candidates);
  ASSERT_EQ(scores.size(), candidates.size());
  NaiveMinimaxReference naive(engine);
  for (size_t i = 0; i < candidates.size(); ++i) {
    size_t worst = 0;
    for (Label label : {Label::kPositive, Label::kNegative}) {
      InferenceState next = engine.state();
      ASSERT_TRUE(
          ApplyLabel(next, engine.ClassPartition(candidates[i]), label)
              .ok());
      worst = std::max(worst, naive.Solve(next));
    }
    EXPECT_EQ(scores[i], -static_cast<double>(worst)) << "candidate " << i;
  }
}

}  // namespace
}  // namespace jim::core
