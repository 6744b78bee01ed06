#include "core/oracle.h"

#include <gtest/gtest.h>

#include "core/session.h"
#include "support/noisy_oracle.h"
#include "util/rng.h"
#include "workload/travel.h"

namespace jim::core {
namespace {

TEST(ExactOracleTest, MatchesGoalExactly) {
  const auto instance = workload::Figure1InstancePtr();
  const auto goal =
      JoinPredicate::Parse(instance->schema(), workload::kQ1).value();
  ExactOracle oracle(goal);
  for (size_t t = 0; t < instance->num_rows(); ++t) {
    const Label expected = goal.Selects(instance->row(t))
                               ? Label::kPositive
                               : Label::kNegative;
    EXPECT_EQ(oracle.LabelFor(instance->row(t)), expected) << "tuple " << t;
  }
}

TEST(NoisyOracleTest, ZeroNoiseEqualsExact) {
  const auto instance = workload::Figure1InstancePtr();
  const auto goal =
      JoinPredicate::Parse(instance->schema(), workload::kQ2).value();
  ExactOracle exact(goal);
  NoisyOracle noisy(goal, 0.0, /*seed=*/1);
  for (size_t t = 0; t < instance->num_rows(); ++t) {
    EXPECT_EQ(noisy.LabelFor(instance->row(t)),
              exact.LabelFor(instance->row(t)));
  }
}

TEST(NoisyOracleTest, FlipRateMatchesErrorRate) {
  const auto instance = workload::Figure1InstancePtr();
  const auto goal =
      JoinPredicate::Parse(instance->schema(), workload::kQ2).value();
  ExactOracle exact(goal);
  NoisyOracle noisy(goal, 0.25, /*seed=*/99);
  size_t flips = 0;
  const size_t trials = 20000;
  for (size_t i = 0; i < trials; ++i) {
    const rel::Tuple& tuple = instance->row(i % instance->num_rows());
    if (noisy.LabelFor(tuple) != exact.LabelFor(tuple)) ++flips;
  }
  EXPECT_NEAR(static_cast<double>(flips) / static_cast<double>(trials), 0.25,
              0.02);
}

TEST(NoisyOracleTest, DeterministicPerSeed) {
  const auto instance = workload::Figure1InstancePtr();
  const auto goal =
      JoinPredicate::Parse(instance->schema(), workload::kQ2).value();
  NoisyOracle a(goal, 0.4, 7);
  NoisyOracle b(goal, 0.4, 7);
  for (int i = 0; i < 200; ++i) {
    const rel::Tuple& tuple = instance->row(static_cast<size_t>(i) % 12);
    EXPECT_EQ(a.LabelFor(tuple), b.LabelFor(tuple));
  }
}

TEST(LabelHelpersTest, NegateAndToString) {
  EXPECT_EQ(Negate(Label::kPositive), Label::kNegative);
  EXPECT_EQ(Negate(Label::kNegative), Label::kPositive);
  EXPECT_EQ(LabelToString(Label::kPositive), "+");
  EXPECT_EQ(LabelToString(Label::kNegative), "-");
}

}  // namespace
}  // namespace jim::core
