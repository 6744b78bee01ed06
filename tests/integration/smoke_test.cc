// Build-system smoke test: exercises one path through every layer the
// examples link against (workload → relational → lattice → core inference →
// strategy → session), so a link regression in any library component fails
// this single fast test rather than only surfacing in the example binaries.

#include <gtest/gtest.h>

#include "core/jim.h"
#include "lattice/partition.h"
#include "util/json_writer.h"
#include "workload/travel.h"

namespace jim {
namespace {

TEST(SmokeTest, Figure1InferenceEndToEnd) {
  // The paper's Figure 1 instance: 12 tuples over the FlightHotel schema.
  auto instance = workload::Figure1InstancePtr();
  ASSERT_EQ(instance->num_rows(), 12u);

  const auto goal =
      core::JoinPredicate::Parse(instance->schema(), workload::kQ2).value();
  auto strategy = core::MakeStrategy("lookahead-entropy").value();
  const auto result = core::RunSession(core::MakeRelationStore(instance),
                                       goal, *strategy);

  EXPECT_TRUE(result.identified_goal);
  EXPECT_GT(result.interactions, 0u);
  EXPECT_LE(result.interactions, instance->num_rows());
}

TEST(SmokeTest, BenchJsonWriterProducesBalancedOutput) {
  // The bench harness depends on JsonWriter producing well-formed output;
  // keep that contract pinned here too, next to the end-to-end path.
  util::JsonWriter json;
  json.BeginObject();
  json.KeyValue("benchmark", "smoke");
  json.Key("results");
  json.BeginArray();
  json.BeginObject();
  json.KeyValue("name", "noop");
  json.KeyValue("ns_per_op", 1.5);
  json.EndObject();
  json.EndArray();
  json.EndObject();
  EXPECT_EQ(json.str(),
            "{\"benchmark\":\"smoke\",\"results\":"
            "[{\"name\":\"noop\",\"ns_per_op\":1.5}]}");
}

}  // namespace
}  // namespace jim
