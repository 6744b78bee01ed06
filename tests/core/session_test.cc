#include "core/session.h"

#include <gtest/gtest.h>

#include "support/core_views.h"
#include "support/noisy_oracle.h"
#include "util/rng.h"
#include "workload/setgame.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

namespace jim::core {
namespace {

struct Fixture {
  Fixture()
      : instance(workload::Figure1InstancePtr()),
        goal(JoinPredicate::Parse(instance->schema(), workload::kQ2)
                 .value()) {}
  std::shared_ptr<const rel::Relation> instance;
  JoinPredicate goal;
};

// All four interaction modes identify the goal with an honest user.
class ModeTest : public ::testing::TestWithParam<int> {};

TEST_P(ModeTest, IdentifiesGoal) {
  const Fixture fixture;
  for (uint64_t user_seed : {1u, 9u, 77u}) {
    auto strategy = MakeStrategy("lookahead-entropy", 3).value();
    ExactOracle oracle(fixture.goal);
    SessionOptions options;
    options.mode = static_cast<InteractionMode>(GetParam());
    options.user_seed = user_seed;
    const SessionResult result =
        RunSession(core::MakeRelationStore(fixture.instance), fixture.goal,
                   *strategy, oracle, options);
    EXPECT_TRUE(result.identified_goal) << "user_seed=" << user_seed;
    EXPECT_EQ(result.interactions, result.steps.size());
    EXPECT_GE(result.interactions, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ModeTest, ::testing::Values(1, 2, 3, 4));

TEST(SessionTest, ParseInteractionModeIsStrict) {
  EXPECT_EQ(ParseInteractionMode("1").value(), InteractionMode::kLabelAll);
  EXPECT_EQ(ParseInteractionMode("4").value(),
            InteractionMode::kMostInformative);
  EXPECT_FALSE(ParseInteractionMode("0").ok());
  EXPECT_FALSE(ParseInteractionMode("5").ok());
  EXPECT_FALSE(ParseInteractionMode("2x").ok());  // no partial parses
  EXPECT_FALSE(ParseInteractionMode("abc").ok());
  EXPECT_FALSE(ParseInteractionMode("").ok());
  EXPECT_FALSE(ParseInteractionMode("99999999999999999999").ok());
}

TEST(SessionTest, Mode1CanWasteEffortOthersCannot) {
  const Fixture fixture;
  for (int mode = 2; mode <= 4; ++mode) {
    auto strategy = MakeStrategy("lookahead-entropy", 5).value();
    ExactOracle oracle(fixture.goal);
    SessionOptions options;
    options.mode = static_cast<InteractionMode>(mode);
    const auto result = RunSession(core::MakeRelationStore(fixture.instance),
                                   fixture.goal, *strategy,
                                   oracle, options);
    EXPECT_EQ(result.wasted_interactions, 0u) << "mode " << mode;
  }
  // Mode 1 wastes effort for most seeds; find one quickly.
  bool wasted_somewhere = false;
  for (uint64_t seed = 1; seed < 20; ++seed) {
    auto strategy = MakeStrategy("lookahead-entropy", 5).value();
    ExactOracle oracle(fixture.goal);
    SessionOptions options;
    options.mode = InteractionMode::kLabelAll;
    options.user_seed = seed;
    const auto result = RunSession(core::MakeRelationStore(fixture.instance),
                                   fixture.goal, *strategy,
                                   oracle, options);
    if (result.wasted_interactions > 0) {
      wasted_somewhere = true;
      break;
    }
  }
  EXPECT_TRUE(wasted_somewhere);
}

TEST(SessionTest, StepsRecordPruning) {
  const Fixture fixture;
  auto strategy = MakeStrategy("lookahead-entropy").value();
  const auto result = RunSession(core::MakeRelationStore(fixture.instance),
                                 fixture.goal, *strategy);
  size_t total_pruned = 0;
  for (const auto& step : result.steps) {
    total_pruned += step.pruned_tuples;
  }
  // Every tuple ends up labeled or pruned.
  EXPECT_EQ(total_pruned, fixture.instance->num_rows());
}

TEST(SessionTest, TopKModeRespectsK) {
  const Fixture fixture;
  // k=1 must behave exactly like mode 4 with the same strategy.
  auto strategy_a = MakeStrategy("lookahead-minmax").value();
  ExactOracle oracle(fixture.goal);
  SessionOptions options;
  options.mode = InteractionMode::kTopK;
  options.top_k = 1;
  const auto topk = RunSession(core::MakeRelationStore(fixture.instance),
                               fixture.goal, *strategy_a,
                               oracle, options);
  auto strategy_b = MakeStrategy("lookahead-minmax").value();
  options.mode = InteractionMode::kMostInformative;
  const auto most = RunSession(core::MakeRelationStore(fixture.instance),
                               fixture.goal, *strategy_b,
                               oracle, options);
  ASSERT_EQ(topk.steps.size(), most.steps.size());
  for (size_t i = 0; i < topk.steps.size(); ++i) {
    EXPECT_EQ(topk.steps[i].class_id, most.steps[i].class_id);
  }
}

TEST(SessionTest, NoisyOracleSessionTerminates) {
  const Fixture fixture;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    auto strategy = MakeStrategy("lookahead-entropy", seed).value();
    NoisyOracle oracle(fixture.goal, /*error_rate=*/0.3, seed);
    SessionOptions options;
    const auto result = RunSession(core::MakeRelationStore(fixture.instance),
                                   fixture.goal, *strategy, oracle, options);
    // Termination and a well-formed result are guaranteed; identification
    // is not (the oracle lies).
    EXPECT_TRUE(result.result.has_value());
    EXPECT_GE(result.interactions, 1u);
  }
}

TEST(SessionTest, EmptyGoalAndFullGoalAreInferable) {
  const Fixture fixture;
  for (const char* goal_text : {"", "From=To && To=Airline && City=Discount"}) {
    const auto goal =
        JoinPredicate::Parse(fixture.instance->schema(), goal_text).value();
    auto strategy = MakeStrategy("lookahead-entropy").value();
    const auto result = RunSession(core::MakeRelationStore(fixture.instance),
                                   goal, *strategy);
    EXPECT_TRUE(result.identified_goal) << "goal '" << goal_text << "'";
  }
}

TEST(SessionTest, JsonExportIsWellFormed) {
  const Fixture fixture;
  auto strategy = MakeStrategy("lookahead-entropy").value();
  const auto result = RunSession(core::MakeRelationStore(fixture.instance),
                                 fixture.goal, *strategy);
  const std::string json = SessionResultToJson(result);
  // Spot-check structure (a full JSON parser is out of scope).
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"interactions\":" +
                      std::to_string(result.interactions)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"identified_goal\":true"), std::string::npos);
  EXPECT_NE(json.find("\"steps\":["), std::string::npos);
  // One step object per interaction.
  size_t count = 0;
  for (size_t pos = json.find("\"tuple\":"); pos != std::string::npos;
       pos = json.find("\"tuple\":", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, result.interactions);
}

TEST(SessionTest, LargerInstanceFewQuestions) {
  // The headline scalability property on a mid-size instance: the question
  // count is tiny relative to the instance.
  util::Rng rng(2);
  auto instance = workload::SetPairInstance(/*sample_size=*/0, rng);
  const auto goal = workload::SameColorAndShadingGoal(instance->schema());
  auto strategy = MakeStrategy("lookahead-entropy").value();
  const auto result = RunSession(core::MakeRelationStore(instance),
                                 goal, *strategy);
  EXPECT_TRUE(result.identified_goal);
  EXPECT_LE(result.interactions, 20u);
  EXPECT_EQ(instance->num_rows(), 6561u);
}

}  // namespace
}  // namespace jim::core
