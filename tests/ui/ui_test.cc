#include <sstream>

#include <gtest/gtest.h>

#include "core/jim.h"
#include "ui/console_ui.h"
#include "ui/demo_runner.h"
#include "workload/travel.h"

namespace jim::ui {
namespace {

TEST(RenderInstanceTest, ShowsMarkersAndGraysOut) {
  core::InferenceEngine engine(workload::Figure1InstancePtr());
  ASSERT_TRUE(engine.SubmitTupleLabel(2, core::Label::kPositive).ok());
  RenderOptions options;
  options.color = false;
  const std::string out = RenderInstance(engine, options);
  // Explicit label on row 3; its class-mate row 4 is grayed "(+)".
  EXPECT_NE(out.find("| 3  | +  "), std::string::npos) << out;
  EXPECT_NE(out.find("| 4  | (+)"), std::string::npos) << out;
  // Informative rows show '?'.
  EXPECT_NE(out.find("| 1  | ?  "), std::string::npos) << out;
}

TEST(RenderInstanceTest, ColorModeEmitsAnsi) {
  core::InferenceEngine engine(workload::Figure1InstancePtr());
  ASSERT_TRUE(engine.SubmitTupleLabel(2, core::Label::kPositive).ok());
  RenderOptions options;
  options.color = true;
  const std::string out = RenderInstance(engine, options);
  EXPECT_NE(out.find("\x1b[32m"), std::string::npos);  // green label
  EXPECT_NE(out.find("\x1b[90m"), std::string::npos);  // gray rows
}

TEST(RenderInstanceTest, RespectsMaxRows) {
  core::InferenceEngine engine(workload::Figure1InstancePtr());
  RenderOptions options;
  options.max_rows = 3;
  const std::string out = RenderInstance(engine, options);
  EXPECT_NE(out.find("(9 more tuples)"), std::string::npos);
}

TEST(RenderTupleTest, NameValuePairs) {
  const auto instance = workload::Figure1InstancePtr();
  EXPECT_EQ(RenderTuple(*instance, 2),
            "From=Paris, To=Lille, Airline=AF, City=Lille, Discount=AF");
}

TEST(RenderProgressTest, CountsAddUp) {
  core::InferenceEngine engine(workload::Figure1InstancePtr());
  ASSERT_TRUE(engine.SubmitTupleLabel(11, core::Label::kPositive).ok());
  const std::string out = RenderProgress(engine);
  EXPECT_NE(out.find("1 of 12 tuples labeled"), std::string::npos) << out;
  EXPECT_NE(out.find("3 grayed out"), std::string::npos) << out;
  EXPECT_NE(out.find("interactions so far: 1"), std::string::npos) << out;
}

TEST(SavingsChartTest, ReportsSavings) {
  const std::string out = RenderSavingsChart(
      {{"1-label-all", 10}, {"4-most-informative", 4}});
  EXPECT_NE(out.find("saves 60%"), std::string::npos) << out;
  EXPECT_NE(out.find("1-label-all"), std::string::npos);
}

TEST(SavingsChartTest, EmptyAndTiedInputs) {
  EXPECT_EQ(RenderSavingsChart({}), "");
  const std::string tied = RenderSavingsChart({{"a", 5}, {"b", 5}});
  EXPECT_EQ(tied.find("saves"), std::string::npos);
}

TEST(ConsoleDemoTest, Mode4ScriptedSessionInfersQ2) {
  // Answers for Q2 against the lookahead question order (-,+,-,-), plus a
  // 'p' progress request in the middle to exercise the command parser.
  std::istringstream in("-\n+\np\n-\n-\n");
  std::ostringstream out;
  DemoOptions options;
  options.strategy = "lookahead-entropy";
  options.render.color = false;
  const auto result = RunConsoleDemo(workload::Figure1StorePtr(),
                                     std::move(options), in, out);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToSqlWhere(), "To = City AND Airline = Discount");
  EXPECT_NE(out.str().find("inferred join query"), std::string::npos);
}

TEST(ConsoleDemoTest, Mode2FreeLabelingByRow) {
  // Label rows 3+, 7-, 8- (the paper's identifying set for Q2).
  std::istringstream in("3 +\n7 -\n8 -\n");
  std::ostringstream out;
  DemoOptions options;
  options.mode = core::InteractionMode::kGrayOut;
  options.render.color = false;
  const auto result = RunConsoleDemo(workload::Figure1StorePtr(),
                                     std::move(options), in, out);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToSqlWhere(), "To = City AND Airline = Discount");
}

TEST(ConsoleDemoTest, AutoOracleRunsUnattended) {
  for (int mode = 1; mode <= 4; ++mode) {
    std::istringstream in("");
    std::ostringstream out;
    const auto instance = workload::Figure1InstancePtr();
    DemoOptions options;
    options.mode = static_cast<core::InteractionMode>(mode);
    options.render.color = false;
    options.auto_oracle = std::make_unique<core::ExactOracle>(
        core::JoinPredicate::Parse(instance->schema(), workload::kQ2)
            .value());
    const auto result =
        RunConsoleDemo(core::MakeRelationStore(instance), std::move(options),
                       in, out);
    ASSERT_TRUE(result.ok()) << "mode " << mode << ": "
                             << result.status().ToString();
    EXPECT_TRUE(core::InstanceEquivalent(
        *instance, *result,
        core::JoinPredicate::Parse(instance->schema(), workload::kQ2)
            .value()))
        << "mode " << mode;
  }
}

TEST(ConsoleDemoTest, QuitAndEofAreHandled) {
  {
    std::istringstream in("q\n");
    std::ostringstream out;
    DemoOptions options;
    options.render.color = false;
    const auto result = RunConsoleDemo(workload::Figure1StorePtr(),
                                       std::move(options), in, out);
    EXPECT_FALSE(result.ok());
  }
  {
    std::istringstream in("");
    std::ostringstream out;
    DemoOptions options;
    options.render.color = false;
    const auto result = RunConsoleDemo(workload::Figure1StorePtr(),
                                       std::move(options), in, out);
    EXPECT_FALSE(result.ok());
  }
}

TEST(ConsoleDemoTest, GarbageInputIsReprompted) {
  // Garbage, an out-of-range row, then the real labels (mode 2).
  std::istringstream in("wat\n99 +\n3 +\n7 -\n8 -\n");
  std::ostringstream out;
  DemoOptions options;
  options.mode = core::InteractionMode::kGrayOut;
  options.render.color = false;
  const auto result = RunConsoleDemo(workload::Figure1StorePtr(),
                                     std::move(options), in, out);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(out.str().find("could not parse"), std::string::npos);
  EXPECT_NE(out.str().find("row number out of range"), std::string::npos);
}

TEST(ConsoleDemoTest, UnknownStrategyErrors) {
  std::istringstream in("");
  std::ostringstream out;
  DemoOptions options;
  options.strategy = "definitely-not-a-strategy";
  const auto result = RunConsoleDemo(workload::Figure1StorePtr(),
                                     std::move(options), in, out);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace jim::ui
