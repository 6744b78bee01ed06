// Determinism guarantee of the parallel execution subsystem: lookahead
// decisions and full session transcripts are identical at 1, 2, and 8
// threads. This is the contract that lets --threads be a pure latency knob
// everywhere (benches, demo, batch runs).

#include <memory>
#include <vector>

#include "core/jim.h"
#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/parallel_for_calls.h"
#include "util/rng.h"
#include "workload/synthetic.h"
#include "workload/travel.h"
#include "util/check.h"

namespace jim::core {
namespace {

// Parity suites run with the invariant auditor on (see util/check.h): every
// JIM_AUDIT checkpoint inside the engine re-derives its CheckInvariants
// contract while the parity assertions run, so a divergence is caught at
// the mutation that introduced it, not at the final transcript diff.
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

TEST(ParallelParityTest, ScoreIsBitwiseIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {3u, 14u, 159u}) {
    const auto workload = MakeWorkload(seed);
    const InferenceEngine engine(workload.instance);
    const std::vector<size_t>& candidates = engine.InformativeClasses();
    ASSERT_FALSE(candidates.empty());

    for (auto objective : {LookaheadStrategy::Objective::kMinMax,
                           LookaheadStrategy::Objective::kExpected,
                           LookaheadStrategy::Objective::kEntropy}) {
      LookaheadStrategy serial(objective);
      serial.set_thread_pool(nullptr);
      const std::vector<double> reference =
          serial.Score(engine, candidates);

      for (size_t threads : {1u, 2u, 8u}) {
        exec::ThreadPool pool(threads);
        LookaheadStrategy parallel(objective);
        parallel.set_thread_pool(&pool);
        std::vector<double> scores;
        const uint64_t calls = exec::ParallelForCallsDuring(
            [&] { scores = parallel.Score(engine, candidates); });
        EXPECT_EQ(calls > 0, threads > 1) << "threads=" << threads;
        ASSERT_EQ(scores.size(), reference.size());
        for (size_t i = 0; i < scores.size(); ++i) {
          // Bitwise equality, not approximate: the parallel path runs the
          // same arithmetic per candidate, just elsewhere.
          EXPECT_EQ(scores[i], reference[i])
              << "seed=" << seed << " threads=" << threads << " i=" << i;
        }
      }
    }
  }
}

TEST(ParallelParityTest, PickClassIsIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {7u, 21u, 77u}) {
    const auto workload = MakeWorkload(seed);
    const InferenceEngine engine(workload.instance);

    LookaheadStrategy serial(LookaheadStrategy::Objective::kEntropy);
    serial.set_thread_pool(nullptr);
    const size_t reference = serial.PickClass(engine);

    for (size_t threads : {1u, 2u, 8u}) {
      exec::ThreadPool pool(threads);
      LookaheadStrategy parallel(LookaheadStrategy::Objective::kEntropy);
      parallel.set_thread_pool(&pool);
      size_t pick = 0;
      const uint64_t calls = exec::ParallelForCallsDuring(
          [&] { pick = parallel.PickClass(engine); });
      EXPECT_EQ(calls > 0, threads > 1) << "threads=" << threads;
      EXPECT_EQ(pick, reference) << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(ParallelParityTest, SampledCandidateCapMatchesSerialPath) {
  // max_candidates smaller than the worklist exercises the strided
  // subsample in both paths; the -inf slots and the sampled scores must line
  // up exactly. The cap is just wide enough for the pool to be used, and
  // seven attributes give a worklist more than twice that wide.
  const size_t max_candidates = kParallelLookaheadMinCandidates + 1;
  const auto workload = MakeWorkload(42, /*tuples=*/500, /*attrs=*/7);
  const InferenceEngine engine(workload.instance);
  const std::vector<size_t>& candidates = engine.InformativeClasses();
  ASSERT_GT(candidates.size(), 2 * max_candidates);

  LookaheadStrategy serial(LookaheadStrategy::Objective::kEntropy,
                           /*alpha=*/1.0, max_candidates);
  serial.set_thread_pool(nullptr);
  const std::vector<double> reference = serial.Score(engine, candidates);

  exec::ThreadPool pool(8);
  LookaheadStrategy parallel(LookaheadStrategy::Objective::kEntropy,
                             /*alpha=*/1.0, max_candidates);
  parallel.set_thread_pool(&pool);
  std::vector<double> scores;
  EXPECT_GT(exec::ParallelForCallsDuring(
                [&] { scores = parallel.Score(engine, candidates); }),
            0u);
  EXPECT_EQ(scores, reference);
}

/// The full transcript of a mode-4 session: every asked class, shown tuple,
/// answer, and pruning count.
std::vector<std::tuple<size_t, size_t, Label, size_t>> Transcript(
    const SessionResult& result) {
  std::vector<std::tuple<size_t, size_t, Label, size_t>> transcript;
  for (const SessionStep& step : result.steps) {
    transcript.emplace_back(step.class_id, step.tuple_index, step.label,
                            step.pruned_tuples);
  }
  return transcript;
}

TEST(ParallelParityTest, FullSessionTranscriptsIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {11u, 97u}) {
    const auto workload = MakeWorkload(seed);

    LookaheadStrategy serial(LookaheadStrategy::Objective::kEntropy);
    serial.set_thread_pool(nullptr);
    const SessionResult reference =
        RunSession(core::MakeRelationStore(workload.instance),
                   workload.goal, serial);
    ASSERT_TRUE(reference.identified_goal);

    for (size_t threads : {1u, 2u, 8u}) {
      exec::ThreadPool pool(threads);
      LookaheadStrategy parallel(LookaheadStrategy::Objective::kEntropy);
      parallel.set_thread_pool(&pool);
      // The engine is built outside the counted region: only the
      // strategy's scans count.
      InferenceEngine engine(workload.instance);
      ExactOracle oracle(workload.goal);
      SessionResult result;
      const uint64_t calls = exec::ParallelForCallsDuring([&] {
        result = RunSessionOnEngine(engine, workload.goal, parallel, oracle);
      });
      EXPECT_EQ(calls > 0, threads > 1) << "threads=" << threads;
      EXPECT_EQ(result.interactions, reference.interactions);
      EXPECT_EQ(result.identified_goal, reference.identified_goal);
      EXPECT_EQ(Transcript(result), Transcript(reference))
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(ParallelParityTest, MetricsAndTracingNeverPerturbTranscripts) {
  // The observability determinism contract: with the metrics registry hot
  // and a tracer attached, every transcript is byte-for-byte the one a
  // metrics-off run produces, at every thread count. Metrics observe the
  // session; they must never steer it.
  const bool metrics_were_enabled = obs::MetricsEnabled();
  const auto workload = MakeWorkload(11);

  obs::SetMetricsEnabled(false);
  LookaheadStrategy serial(LookaheadStrategy::Objective::kEntropy);
  serial.set_thread_pool(nullptr);
  const SessionResult reference =
      RunSession(core::MakeRelationStore(workload.instance),
                 workload.goal, serial);
  ASSERT_TRUE(reference.identified_goal);

  obs::SetMetricsEnabled(true);
  for (size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool pool(threads);
    LookaheadStrategy parallel(LookaheadStrategy::Objective::kEntropy);
    parallel.set_thread_pool(&pool);
    obs::SessionTracer tracer;
    ExactOracle oracle(workload.goal);
    SessionOptions options;
    options.tracer = &tracer;
    InferenceEngine engine(workload.instance);
    SessionResult result;
    const uint64_t calls = exec::ParallelForCallsDuring([&] {
      result = RunSessionOnEngine(engine, workload.goal, parallel, oracle,
                                  options);
    });
    EXPECT_EQ(calls > 0, threads > 1) << "threads=" << threads;
    EXPECT_EQ(Transcript(result), Transcript(reference))
        << "threads=" << threads;
    EXPECT_EQ(tracer.steps().size(), reference.steps.size());
  }
  obs::SetMetricsEnabled(metrics_were_enabled);
}

TEST(ParallelParityTest, Figure1SessionTranscriptParity) {
  // The paper's own instance, end to end. Its worklist is below
  // kParallelLookaheadMinCandidates, so the pooled runs score serially; the
  // case still pins that handing a strategy a pool never moves a pick.
  auto instance = workload::Figure1InstancePtr();
  const auto goal =
      JoinPredicate::Parse(instance->schema(), workload::kQ2).value();

  LookaheadStrategy serial(LookaheadStrategy::Objective::kMinMax);
  serial.set_thread_pool(nullptr);
  const SessionResult reference = RunSession(core::MakeRelationStore(instance),
                                             goal, serial);

  for (size_t threads : {2u, 8u}) {
    exec::ThreadPool pool(threads);
    LookaheadStrategy parallel(LookaheadStrategy::Objective::kMinMax);
    parallel.set_thread_pool(&pool);
    const SessionResult result = RunSession(core::MakeRelationStore(instance),
                                            goal, parallel);
    EXPECT_EQ(Transcript(result), Transcript(reference));
  }
}

}  // namespace
}  // namespace jim::core
