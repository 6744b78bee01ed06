#include "obs/trace.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/jim.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

namespace jim::obs {
namespace {

workload::SyntheticWorkload MakeWorkload(uint64_t seed) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_attributes = 5;
  spec.num_tuples = 80;
  spec.domain_size = 4;
  spec.goal_constraints = 2;
  return workload::MakeSyntheticWorkload(spec, rng);
}

core::SessionResult RunTraced(const workload::SyntheticWorkload& workload,
                              SessionTracer* tracer,
                              core::InteractionMode mode =
                                  core::InteractionMode::kMostInformative) {
  auto strategy = core::MakeStrategy("local-bottom-up", /*seed=*/3).value();
  core::ExactOracle oracle(workload.goal);
  core::SessionOptions options;
  options.mode = mode;
  options.tracer = tracer;
  core::InferenceEngine engine(workload.instance);
  return core::RunSessionOnEngine(engine, workload.goal, *strategy, oracle,
                                  options);
}

TEST(SessionTracerTest, StepsMirrorTheSessionResult) {
  const auto workload = MakeWorkload(31);
  SessionTracer tracer;
  const core::SessionResult result = RunTraced(workload, &tracer);

  EXPECT_TRUE(tracer.ended());
  EXPECT_EQ(tracer.interactions(), result.interactions);
  EXPECT_EQ(tracer.wasted_interactions(), result.wasted_interactions);
  EXPECT_EQ(tracer.identified_goal(), result.identified_goal);
  EXPECT_EQ(tracer.total_seconds(), result.total_seconds);
  ASSERT_EQ(tracer.steps().size(), result.steps.size());
  for (size_t i = 0; i < result.steps.size(); ++i) {
    const TraceStep& traced = tracer.steps()[i];
    const core::SessionStep& step = result.steps[i];
    EXPECT_EQ(traced.step, i);
    EXPECT_EQ(traced.class_id, step.class_id);
    EXPECT_EQ(traced.tuple_index, step.tuple_index);
    EXPECT_EQ(traced.positive, step.label == core::Label::kPositive);
    EXPECT_TRUE(traced.accepted);
    EXPECT_EQ(traced.pruned_classes, step.pruned_classes);
    EXPECT_EQ(traced.pruned_tuples, step.pruned_tuples);
    // Propagation only ever shrinks the worklist.
    EXPECT_EQ(traced.worklist_before - traced.worklist_after,
              traced.pruned_classes);
  }
  EXPECT_EQ(tracer.meta().strategy, "local-bottom-up");
  EXPECT_EQ(tracer.meta().mode, "4-most-informative");
  EXPECT_EQ(tracer.meta().num_tuples, 80u);
  EXPECT_GT(tracer.meta().num_classes, 0u);
}

TEST(SessionTracerTest, TracingDoesNotPerturbTheSession) {
  const auto workload = MakeWorkload(57);
  SessionTracer tracer;
  const core::SessionResult traced = RunTraced(workload, &tracer);
  const core::SessionResult untraced = RunTraced(workload, nullptr);

  ASSERT_EQ(traced.steps.size(), untraced.steps.size());
  for (size_t i = 0; i < traced.steps.size(); ++i) {
    EXPECT_EQ(traced.steps[i].class_id, untraced.steps[i].class_id);
    EXPECT_EQ(traced.steps[i].tuple_index, untraced.steps[i].tuple_index);
    EXPECT_EQ(traced.steps[i].label, untraced.steps[i].label);
    EXPECT_EQ(traced.steps[i].pruned_tuples, untraced.steps[i].pruned_tuples);
  }
  EXPECT_EQ(traced.interactions, untraced.interactions);
  EXPECT_EQ(traced.identified_goal, untraced.identified_goal);
}

TEST(SessionTracerTest, JsonCarriesMetaStepsAndResult) {
  const auto workload = MakeWorkload(31);
  SessionTracer tracer;
  const core::SessionResult result = RunTraced(workload, &tracer);

  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"session\":{\"strategy\":\"local-bottom-up\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"mode\":\"4-most-informative\""), std::string::npos);
  EXPECT_NE(json.find("\"steps\":[{\"step\":0,"), std::string::npos);
  EXPECT_NE(json.find("\"result\":{\"identified_goal\":"), std::string::npos);
  EXPECT_NE(json.find(util::StrFormat("\"interactions\":%zu",
                                      result.interactions)),
            std::string::npos)
      << json;
}

TEST(SessionTracerTest, SimulateCountsFollowTheMetricsToggle) {
  const bool was_enabled = MetricsEnabled();
  const auto workload = MakeWorkload(31);

  // Lookahead strategies spend SimulateLabelBoth calls per question; with
  // metrics on, the per-step counter delta shows up in the trace.
  const auto run_lookahead = [&workload](SessionTracer& tracer) {
    auto strategy = core::MakeStrategy("lookahead-entropy").value();
    if (auto* lookahead =
            dynamic_cast<core::LookaheadStrategy*>(strategy.get())) {
      lookahead->set_thread_pool(nullptr);
    }
    core::ExactOracle oracle(workload.goal);
    core::SessionOptions options;
    options.tracer = &tracer;
    core::InferenceEngine engine(workload.instance);
    return core::RunSessionOnEngine(engine, workload.goal, *strategy, oracle,
                                    options);
  };

  SetMetricsEnabled(true);
  SessionTracer with_metrics;
  run_lookahead(with_metrics);
  ASSERT_FALSE(with_metrics.steps().empty());
  EXPECT_GT(with_metrics.steps()[0].simulate_label_calls, 0u);

  SetMetricsEnabled(false);
  SessionTracer without_metrics;
  run_lookahead(without_metrics);
  ASSERT_EQ(without_metrics.steps().size(), with_metrics.steps().size());
  for (const TraceStep& step : without_metrics.steps()) {
    EXPECT_EQ(step.simulate_label_calls, 0u);
  }
  // The decisions themselves are unaffected by the toggle.
  for (size_t i = 0; i < with_metrics.steps().size(); ++i) {
    EXPECT_EQ(with_metrics.steps()[i].class_id,
              without_metrics.steps()[i].class_id);
  }

  SetMetricsEnabled(was_enabled);
}

}  // namespace
}  // namespace jim::obs
