// Cutoff-pruned lookahead and the minimax solver, pinned against their
// exhaustive references:
//   - PickClass with cutoff pruning returns the exact class the exhaustive
//     argmax returns, serially and at 1/2/8 threads;
//   - full session transcripts are byte-identical either way;
//   - bound soundness: every skipped candidate's true score is ≤ the bound
//     it was skipped under (the cutoff never discards a potential winner);
//   - the minimax solver agrees with a naive reference solver that
//     rescans every class and keys its memo on CanonicalKey strings.

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/jim.h"
#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "support/core_views.h"
#include "support/parallel_for_calls.h"
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

std::vector<LookaheadStrategy::Objective> AllObjectives() {
  return {LookaheadStrategy::Objective::kMinMax,
          LookaheadStrategy::Objective::kExpected,
          LookaheadStrategy::Objective::kEntropy};
}

TEST(CutoffParityTest, PickMatchesExhaustiveAcrossThreadCounts) {
  for (uint64_t seed : {3u, 14u, 159u}) {
    const auto workload = MakeWorkload(seed);
    const InferenceEngine engine(workload.instance);
    ASSERT_FALSE(engine.InformativeClasses().empty());

    for (auto objective : AllObjectives()) {
      LookaheadStrategy exhaustive(objective);
      exhaustive.set_thread_pool(nullptr);
      exhaustive.set_cutoff_enabled(false);
      const size_t reference = exhaustive.PickClass(engine);

      LookaheadStrategy serial(objective);
      serial.set_thread_pool(nullptr);
      EXPECT_EQ(serial.PickClass(engine), reference) << "seed=" << seed;

      for (size_t threads : {1u, 2u, 8u}) {
        exec::ThreadPool pool(threads);
        LookaheadStrategy pruned(objective);
        pruned.set_thread_pool(&pool);
        ASSERT_TRUE(pruned.cutoff_enabled());
        size_t pick = 0;
        const uint64_t calls = exec::ParallelForCallsDuring(
            [&] { pick = pruned.PickClass(engine); });
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

    LookaheadStrategy exhaustive(LookaheadStrategy::Objective::kEntropy);
    exhaustive.set_thread_pool(nullptr);
    exhaustive.set_cutoff_enabled(false);
    const SessionResult reference =
        RunSession(core::MakeRelationStore(workload.instance),
                   workload.goal, exhaustive);
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
      LookaheadStrategy pruned(LookaheadStrategy::Objective::kEntropy);
      pruned.set_thread_pool(&pool);
      // The engine is built outside the counted region: only the
      // strategy's scans count.
      InferenceEngine engine(workload.instance);
      ExactOracle oracle(workload.goal);
      SessionResult result;
      const uint64_t calls = exec::ParallelForCallsDuring([&] {
        result = RunSessionOnEngine(engine, workload.goal, pruned, oracle);
      });
      EXPECT_EQ(calls > 0, threads > 1) << "threads=" << threads;
      EXPECT_EQ(transcript(result), transcript(reference))
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(CutoffParityTest, SkippedBoundsAreSoundAndSkipsHappen) {
  // Drive whole sessions serially with the cutoff on; at every decision,
  // recompute each skipped candidate's true score exhaustively and check it
  // against the bound it was skipped under. Winners can then never be lost:
  // a skip needs true ≤ bound < some computed score ≤ max.
  size_t total_skips = 0;
  size_t total_evaluated = 0;
  for (uint64_t seed : {5u, 23u}) {
    for (auto objective : AllObjectives()) {
      const auto workload = MakeWorkload(seed);
      InferenceEngine engine(workload.instance);
      ExactOracle oracle(workload.goal);
      LookaheadStrategy pruned(objective);
      pruned.set_thread_pool(nullptr);

      while (!engine.IsDone()) {
        const size_t pick = pruned.PickClass(engine);
        total_evaluated += pruned.last_evaluated();
        for (const LookaheadStrategy::CutoffSkip& skip :
             pruned.last_skips()) {
          ++total_skips;
          const auto both = engine.SimulateLabelBoth(skip.class_id);
          const double truth = pruned.ObjectiveValue(
              both.positive.pruned_tuples, both.negative.pruned_tuples);
          EXPECT_LE(truth, skip.bound)
              << "unsound bound for class " << skip.class_id << " (seed "
              << seed << ")";
          EXPECT_NE(skip.class_id, pick)
              << "the picked class cannot have been skipped";
        }
        const size_t tuple = engine.tuple_class(pick).tuple_indices.front();
        const Label answer =
            oracle.LabelFor(engine.store().DecodeTuple(tuple));
        ASSERT_TRUE(engine.SubmitClassLabel(pick, answer).ok());
      }
    }
  }
  EXPECT_GT(total_evaluated, 0u);
  // The optimization must actually fire on these workloads, not just stay
  // sound vacuously.
  EXPECT_GT(total_skips, 0u) << "cutoff never skipped a candidate";
}

TEST(CutoffParityTest, CutoffDisablesItselfForNonMonotoneObjectives) {
  const auto workload = MakeWorkload(7);
  const InferenceEngine engine(workload.instance);
  // Tsallis α ≤ 0 is not monotone in the pruning counts; the cutoff must
  // fall back to the exhaustive path (and record no skips).
  LookaheadStrategy negative_alpha(LookaheadStrategy::Objective::kEntropy,
                                   /*alpha=*/-0.5);
  negative_alpha.set_thread_pool(nullptr);
  LookaheadStrategy reference(LookaheadStrategy::Objective::kEntropy,
                              /*alpha=*/-0.5);
  reference.set_thread_pool(nullptr);
  reference.set_cutoff_enabled(false);
  EXPECT_EQ(negative_alpha.PickClass(engine), reference.PickClass(engine));
  EXPECT_TRUE(negative_alpha.last_skips().empty());
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
