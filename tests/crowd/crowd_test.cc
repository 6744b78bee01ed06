#include <gtest/gtest.h>

#include "core/jim.h"
#include "crowd/baselines.h"
#include "crowd/crowd_join.h"
#include "util/rng.h"
#include "workload/setgame.h"
#include "workload/travel.h"

namespace jim::crowd {
namespace {

TEST(MajorityErrorRateTest, KnownValues) {
  EXPECT_DOUBLE_EQ(MajorityErrorRate(1, 0.1), 0.1);
  // 3 workers at p=0.1: p^3 + 3 p^2 (1-p) = 0.001 + 0.027 = 0.028.
  EXPECT_NEAR(MajorityErrorRate(3, 0.1), 0.028, 1e-12);
  EXPECT_DOUBLE_EQ(MajorityErrorRate(3, 0.0), 0.0);
  EXPECT_NEAR(MajorityErrorRate(3, 0.5), 0.5, 1e-12);
  // More workers help: strictly decreasing for p < 0.5.
  EXPECT_LT(MajorityErrorRate(5, 0.2), MajorityErrorRate(3, 0.2));
  EXPECT_LT(MajorityErrorRate(7, 0.2), MajorityErrorRate(5, 0.2));
}

TEST(CrowdJimTest, PerfectWorkersIdentifyGoal) {
  auto instance = workload::Figure1InstancePtr();
  const auto goal =
      core::JoinPredicate::Parse(instance->schema(), workload::kQ2).value();
  auto strategy = core::MakeStrategy("lookahead-entropy").value();
  CrowdOptions options;
  options.worker_error_rate = 0.0;
  const CrowdRunResult result =
      RunCrowdJim(instance, goal, *strategy, options);
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.majority_errors, 0u);
  EXPECT_EQ(result.worker_answers, result.questions * 3);
  EXPECT_DOUBLE_EQ(result.total_cost,
                   static_cast<double>(result.worker_answers) * 0.05);
}

TEST(CrowdJimTest, CostIsFractionOfLabelEverything) {
  auto instance = workload::Figure1InstancePtr();
  const auto goal =
      core::JoinPredicate::Parse(instance->schema(), workload::kQ1).value();
  auto strategy = core::MakeStrategy("lookahead-entropy").value();
  CrowdOptions options;
  options.worker_error_rate = 0.0;
  const auto jim_run = RunCrowdJim(instance, goal, *strategy, options);
  const auto naive = RunLabelEverything(instance, goal, options);
  EXPECT_EQ(naive.questions, instance->num_rows());
  EXPECT_LT(jim_run.questions, naive.questions);
  EXPECT_LT(jim_run.total_cost, naive.total_cost);
  EXPECT_TRUE(naive.correct);
}

TEST(CrowdJimTest, NoisySessionsStillTerminate) {
  auto instance = workload::Figure1InstancePtr();
  const auto goal =
      core::JoinPredicate::Parse(instance->schema(), workload::kQ2).value();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto strategy = core::MakeStrategy("lookahead-entropy", seed).value();
    CrowdOptions options;
    options.worker_error_rate = 0.35;
    options.seed = seed;
    const auto result = RunCrowdJim(instance, goal, *strategy, options);
    EXPECT_GE(result.questions, 1u);
    EXPECT_LE(result.questions, 12u);
  }
}

TEST(TransitiveBaselineTest, PerfectWorkersRecoverClustering) {
  const rel::Relation cards = workload::AllSetCards();
  util::Rng rng(1);
  auto pair_instance = workload::SetPairInstance(0, rng);
  const auto goal = core::JoinPredicate::Parse(pair_instance->schema(),
                                               "Left.Color=Right.Color")
                        .value();
  CrowdOptions options;
  options.worker_error_rate = 0.0;
  const auto result = RunTransitiveCrowdJoin(cards, goal, options);
  EXPECT_TRUE(result.correct);
  // Transitivity must save a lot: far fewer questions than all pairs.
  const size_t all_pairs = 81 * 80 / 2;
  EXPECT_LT(result.questions, all_pairs / 2);
  // But it still needs at least n - #clusters positive merges plus
  // inter-cluster negatives: 81 - 3 = 78 merges minimum.
  EXPECT_GE(result.questions, 78u);
}

TEST(TransitiveBaselineTest, BeatsAllPairsInQuestions) {
  const rel::Relation cards = workload::AllSetCards();
  util::Rng rng(2);
  auto pair_instance = workload::SetPairInstance(0, rng);
  const auto goal = core::JoinPredicate::Parse(pair_instance->schema(),
                                               "Left.Number=Right.Number")
                        .value();
  CrowdOptions options;
  options.worker_error_rate = 0.0;
  const auto transitive = RunTransitiveCrowdJoin(cards, goal, options);
  // Asking every pair of the 81 cards costs 81·80/2 questions.
  EXPECT_LT(transitive.questions, 81u * 80u / 2u);
  EXPECT_TRUE(transitive.correct);
}

TEST(TransitiveBaselineTest, AccountingIsConsistent) {
  const rel::Relation cards = workload::AllSetCards();
  util::Rng rng(3);
  auto pair_instance = workload::SetPairInstance(0, rng);
  const auto goal = core::JoinPredicate::Parse(pair_instance->schema(),
                                               "Left.Shading=Right.Shading")
                        .value();
  CrowdOptions options;
  options.workers_per_question = 5;
  options.price_per_answer = 0.02;
  options.worker_error_rate = 0.05;
  const auto result = RunTransitiveCrowdJoin(cards, goal, options);
  EXPECT_EQ(result.worker_answers, result.questions * 5);
  EXPECT_NEAR(result.total_cost,
              static_cast<double>(result.worker_answers) * 0.02, 1e-9);
}

TEST(CrowdComparisonTest, JimBeatsBothBaselinesOnQuestions) {
  // The paper's pitch, as a testable inequality (perfect workers).
  const rel::Relation cards = workload::AllSetCards();
  util::Rng rng(4);
  auto pair_instance = workload::SetPairInstance(0, rng);
  const auto goal = core::JoinPredicate::Parse(pair_instance->schema(),
                                               "Left.Color=Right.Color")
                        .value();
  CrowdOptions options;
  options.worker_error_rate = 0.0;
  auto strategy = core::MakeStrategy("lookahead-entropy").value();
  const auto jim_run = RunCrowdJim(pair_instance, goal, *strategy, options);
  const auto transitive = RunTransitiveCrowdJoin(cards, goal, options);
  const auto naive = RunLabelEverything(pair_instance, goal, options);
  EXPECT_TRUE(jim_run.correct);
  EXPECT_LT(jim_run.questions, transitive.questions);
  EXPECT_LT(transitive.questions, naive.questions);
}

}  // namespace
}  // namespace jim::crowd
