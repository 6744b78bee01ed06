#include "core/strategies.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/session.h"
#include "exec/thread_pool.h"
#include "lattice/enumeration.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "support/parallel_for_calls.h"
#include "support/simulate_label.h"
#include "util/rng.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

namespace jim::core {
namespace {

TEST(StrategyFactoryTest, KnownNamesConstruct) {
  for (const std::string& name : KnownStrategyNames()) {
    const auto strategy = MakeStrategy(name);
    ASSERT_TRUE(strategy.ok()) << name;
    EXPECT_EQ((*strategy)->name(), name);
  }
  EXPECT_FALSE(MakeStrategy("no-such-strategy").ok());
}

// The headline property, swept over every strategy: a full session against
// an honest oracle always terminates and identifies the goal up to
// instance-equivalence, on randomized workloads.
class StrategyIdentifiesGoal
    : public ::testing::TestWithParam<std::string> {};

TEST_P(StrategyIdentifiesGoal, OnRandomWorkloads) {
  const std::string name = GetParam();
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    util::Rng rng(seed);
    workload::SyntheticSpec spec;
    spec.num_attributes = 5 + seed % 3;
    spec.num_tuples = 80;
    spec.domain_size = 3 + seed % 4;
    spec.goal_constraints = seed % 4;
    const auto workload = workload::MakeSyntheticWorkload(spec, rng);

    // The optimal strategy is exponential; keep its instances tiny.
    if (name == "optimal" && spec.num_attributes > 5) continue;

    auto strategy = MakeStrategy(name, seed * 13 + 1).value();
    const SessionResult result =
        RunSession(core::MakeRelationStore(workload.instance),
                   workload.goal, *strategy);
    EXPECT_TRUE(result.identified_goal)
        << name << " seed=" << seed << " goal=" << workload.goal.ToString();
    // Never more questions than tuple classes.
    InferenceEngine probe(workload.instance);
    EXPECT_LE(result.interactions, probe.num_classes());
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyIdentifiesGoal,
                         ::testing::ValuesIn(KnownStrategyNames()));

TEST(LocalStrategyTest, DeterministicAndDirectional) {
  const auto instance = workload::Figure1InstancePtr();
  InferenceEngine engine(instance);
  LocalStrategy bottom_up(LocalStrategy::Direction::kBottomUp);
  LocalStrategy top_down(LocalStrategy::Direction::kTopDown);
  const size_t bu1 = bottom_up.PickClass(engine);
  const size_t bu2 = bottom_up.PickClass(engine);
  EXPECT_EQ(bu1, bu2);  // fully deterministic

  // bottom-up picks a minimal-rank knowledge class; top-down a maximal one.
  const auto rank_of = [&](size_t cls) {
    return engine.state()
        .theta_p()
        .Meet(engine.ClassPartition(cls))
        .Rank();
  };
  const size_t td = top_down.PickClass(engine);
  EXPECT_LE(rank_of(bu1), rank_of(td));
  // On Figure 1: ⊥-classes have rank 0; {T,C}{A,D} has rank 2.
  EXPECT_EQ(rank_of(bu1), 0u);
  EXPECT_EQ(rank_of(td), 2u);
}

TEST(RandomStrategyTest, SameSeedSameSequence) {
  const auto instance = workload::Figure1InstancePtr();
  const auto goal =
      JoinPredicate::Parse(instance->schema(), workload::kQ2).value();
  RandomStrategy a(99);
  RandomStrategy b(99);
  const auto result_a = RunSession(core::MakeRelationStore(instance), goal, a);
  const auto result_b = RunSession(core::MakeRelationStore(instance), goal, b);
  ASSERT_EQ(result_a.steps.size(), result_b.steps.size());
  for (size_t i = 0; i < result_a.steps.size(); ++i) {
    EXPECT_EQ(result_a.steps[i].class_id, result_b.steps[i].class_id);
  }
}

TEST(RandomStrategyTest, PickIsTupleWeighted) {
  // On Figure 1, classes have sizes {3,3,2,2,1,1}; over many picks the
  // 3-tuple classes must be chosen roughly 3x as often as 1-tuple ones.
  const auto instance = workload::Figure1InstancePtr();
  InferenceEngine engine(instance);
  RandomStrategy strategy(7);
  std::vector<size_t> counts(engine.num_classes(), 0);
  for (int i = 0; i < 6000; ++i) {
    ++counts[strategy.PickClass(engine)];
  }
  for (size_t c = 0; c < engine.num_classes(); ++c) {
    const double expected =
        6000.0 * static_cast<double>(engine.tuple_class(c).size()) / 12.0;
    EXPECT_NEAR(static_cast<double>(counts[c]), expected, expected * 0.35)
        << "class " << c;
  }
}

TEST(LookaheadStrategyTest, PicksTheBiggestGuaranteedPrune) {
  const auto instance = workload::Figure1InstancePtr();
  InferenceEngine engine(instance);
  LookaheadStrategy minmax(LookaheadStrategy::Objective::kMinMax);
  const size_t pick = minmax.PickClass(engine);
  // Verify it maximizes min(n+, n-) over all informative classes.
  const auto informative = engine.InformativeClasses();
  auto score = [&](size_t cls) {
    const auto plus = SimulateLabel(engine, cls, Label::kPositive);
    const auto minus = SimulateLabel(engine, cls, Label::kNegative);
    return std::min(plus.pruned_tuples, minus.pruned_tuples);
  };
  const size_t best = score(pick);
  for (size_t cls : informative) {
    EXPECT_LE(score(cls), best) << "class " << cls << " beats the pick";
  }
}

TEST(LookaheadStrategyTest, EntropyAlphaOneEqualsShannonLimit) {
  // α→1 (Tsallis) must converge to the Shannon branch: the two strategies
  // should rank Figure 1's classes identically.
  const auto instance = workload::Figure1InstancePtr();
  InferenceEngine engine(instance);
  LookaheadStrategy shannon(LookaheadStrategy::Objective::kEntropy, 1.0);
  LookaheadStrategy near_one(LookaheadStrategy::Objective::kEntropy,
                             1.0 + 1e-7);
  const auto candidates = engine.InformativeClasses();
  const auto s1 = shannon.Score(engine, candidates);
  const auto s2 = near_one.Score(engine, candidates);
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_NEAR(s1[i], s2[i], 1e-3) << "candidate " << i;
  }
}

TEST(LookaheadStrategyTest, CandidateCapStillPicksScoredCandidate) {
  util::Rng rng(21);
  workload::SyntheticSpec spec;
  spec.num_attributes = 6;
  spec.num_tuples = 400;
  spec.domain_size = 3;
  const auto workload = workload::MakeSyntheticWorkload(spec, rng);
  InferenceEngine engine(workload.instance);
  LookaheadStrategy capped(LookaheadStrategy::Objective::kExpected,
                           /*alpha=*/1.0, /*max_candidates=*/8);
  // Must not crash and must return an informative class.
  const size_t pick = capped.PickClass(engine);
  EXPECT_EQ(engine.class_status(pick), ClassStatus::kInformative);
}

TEST(LookaheadStrategyTest, NarrowWorklistsNeverReachThePool) {
  // Figure 1's worklist is below kParallelLookaheadMinCandidates: waking a
  // pool would cost more than the scan, so even a 4-thread pool scores
  // serially, for PickClass and Score alike.
  const InferenceEngine engine(workload::Figure1InstancePtr());
  ASSERT_LT(engine.InformativeClasses().size(),
            kParallelLookaheadMinCandidates);
  exec::ThreadPool pool(4);
  LookaheadStrategy strategy(LookaheadStrategy::Objective::kEntropy);
  strategy.set_thread_pool(&pool);
  EXPECT_EQ(exec::ParallelForCallsDuring([&] {
              strategy.PickClass(engine);
              strategy.Score(engine, engine.InformativeClasses());
            }),
            0u);
}

TEST(LookaheadStrategyTest, EveryScoreEvaluatesExactlyTheSampledCandidates) {
  // The impact-scan counter contract: one PickClass or one Score scans each
  // sampled candidate exactly once, so each adds min(|informative|,
  // max_candidates) to engine.simulate_label_both and reports the same
  // count through last_evaluated(). Checked on Figure 1 and a synthetic
  // instance, serially and on a pool, before and after labels (so the
  // antichain is non-empty too).
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  const auto scans = [&registry] {
    return registry.CounterValue(obs::kCounterEngineSimulateLabelBoth);
  };
  util::Rng rng(77);
  workload::SyntheticSpec spec;
  spec.num_attributes = 6;
  spec.num_tuples = 3000;
  spec.domain_size = 4;
  const auto synthetic = workload::MakeSyntheticWorkload(spec, rng);
  exec::ThreadPool pool(2);
  for (const auto& instance :
       {workload::Figure1InstancePtr(), synthetic.instance}) {
    for (const size_t max_candidates : {size_t{0}, size_t{5}, size_t{256}}) {
      for (exec::ThreadPool* scoring_pool :
           {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
        InferenceEngine engine(instance);
        LookaheadStrategy strategy(LookaheadStrategy::Objective::kMinMax,
                                   /*alpha=*/1.0, max_candidates);
        strategy.set_thread_pool(scoring_pool);
        for (int step = 0; step < 3 && !engine.IsDone(); ++step) {
          const std::vector<size_t> candidates = engine.InformativeClasses();
          const size_t sampled =
              max_candidates == 0
                  ? candidates.size()
                  : std::min(candidates.size(), max_candidates);

          const uint64_t before_pick = scans();
          const size_t pick = strategy.PickClass(engine);
          const uint64_t after_pick = scans();
          EXPECT_EQ(after_pick - before_pick, sampled);
          EXPECT_EQ(strategy.last_evaluated(), sampled);

          strategy.Score(engine, candidates);
          EXPECT_EQ(scans() - after_pick, sampled);
          EXPECT_EQ(strategy.last_evaluated(), sampled);

          ASSERT_TRUE(engine
                          .SubmitClassLabel(pick, step % 2 == 0
                                                      ? Label::kNegative
                                                      : Label::kPositive)
                          .ok());
        }
      }
    }
  }
  obs::SetMetricsEnabled(was_enabled);
}

TEST(TopKTest, OrderedPrefixAndBounds) {
  const auto instance = workload::Figure1InstancePtr();
  InferenceEngine engine(instance);
  LookaheadStrategy strategy(LookaheadStrategy::Objective::kMinMax);
  const auto top3 = strategy.TopK(engine, 3);
  ASSERT_EQ(top3.size(), 3u);
  const auto top10 = strategy.TopK(engine, 10);
  EXPECT_EQ(top10.size(), 6u);  // only 6 classes exist
  // TopK(k) is a prefix of TopK(k') for k < k' (stable sort).
  for (size_t i = 0; i < top3.size(); ++i) {
    EXPECT_EQ(top3[i], top10[i]);
  }
  // The best class equals PickClass (same scores, same tie-breaking).
  LookaheadStrategy fresh(LookaheadStrategy::Objective::kMinMax);
  EXPECT_EQ(top10[0], fresh.PickClass(engine));
}

TEST(OptimalStrategyTest, WorstCaseOnFigure1) {
  const auto instance = workload::Figure1InstancePtr();
  InferenceEngine engine(instance);
  const size_t worst = OptimalWorstCaseQuestions(engine);
  // 6 classes: identification always possible within 6 questions; and at
  // least 2 are needed to separate the hypotheses of Figure 1.
  EXPECT_GE(worst, 2u);
  EXPECT_LE(worst, 6u);

  // The minimax guarantee: for EVERY goal, a session driven by the optimal
  // strategy uses at most `worst` interactions.
  lat::VisitAllPartitions(5, [&](const lat::Partition& goal_partition) {
    const JoinPredicate goal(instance->schema(), goal_partition);
    OptimalStrategy strategy;
    const auto result = RunSession(core::MakeRelationStore(instance),
                                   goal, strategy);
    EXPECT_LE(result.interactions, worst)
        << "goal " << goal_partition.ToString();
    EXPECT_TRUE(result.identified_goal);
    return true;
  });
}

TEST(OptimalStrategyTest, NoHeuristicBeatsOptimalWorstCase) {
  const auto instance = workload::Figure1InstancePtr();
  InferenceEngine probe(instance);
  const size_t optimal_worst = OptimalWorstCaseQuestions(probe);
  for (const std::string& name :
       {std::string("local-bottom-up"), std::string("local-top-down"),
        std::string("lookahead-minmax"), std::string("lookahead-entropy")}) {
    // Worst case of the heuristic over all goals.
    size_t heuristic_worst = 0;
    lat::VisitAllPartitions(5, [&](const lat::Partition& goal_partition) {
      const JoinPredicate goal(instance->schema(), goal_partition);
      auto strategy = MakeStrategy(name, 5).value();
      const auto result = RunSession(core::MakeRelationStore(instance),
                                     goal, *strategy);
      heuristic_worst = std::max(heuristic_worst, result.interactions);
      return true;
    });
    EXPECT_GE(heuristic_worst, optimal_worst) << name;
  }
}

}  // namespace
}  // namespace jim::core
