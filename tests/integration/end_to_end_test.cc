// Cross-module integration tests: catalog → universal table → interactive
// inference → SQL → evaluation, plus randomized end-to-end sweeps that chain
// every subsystem the way the examples do.

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/jim.h"
#include "crowd/crowd_join.h"
#include "query/universal_table.h"
#include "relational/csv_io.h"
#include "util/rng.h"
#include "workload/setgame.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"
#include "workload/travel.h"

namespace jim {
namespace {

TEST(EndToEnd, CsvRoundTripThenInference) {
  // Load Figure 1 from a CSV file and infer — storage must be transparent
  // to the engine.
  const std::string path = ::testing::TempDir() + "/figure1.csv";
  std::ofstream(path) << "From,To,Airline,City,Discount\n"
                         "Paris,Lille,AF,NYC,AA\n"
                         "Paris,Lille,AF,Paris,None\n"
                         "Paris,Lille,AF,Lille,AF\n"
                         "Lille,NYC,AA,NYC,AA\n"
                         "Lille,NYC,AA,Paris,None\n"
                         "Lille,NYC,AA,Lille,AF\n"
                         "NYC,Paris,AA,NYC,AA\n"
                         "NYC,Paris,AA,Paris,None\n"
                         "NYC,Paris,AA,Lille,AF\n"
                         "Paris,NYC,AF,NYC,AA\n"
                         "Paris,NYC,AF,Paris,None\n"
                         "Paris,NYC,AF,Lille,AF\n";
  auto reloaded = rel::LoadRelationFromCsvFile(path, "FlightHotel");
  ASSERT_TRUE(reloaded.ok());
  auto instance = std::make_shared<const rel::Relation>(*std::move(reloaded));
  const rel::Relation figure1 = workload::Figure1Instance();
  ASSERT_EQ(instance->num_rows(), figure1.num_rows());
  for (size_t r = 0; r < figure1.num_rows(); ++r) {
    EXPECT_EQ(rel::TupleRepresentationKey(instance->row(r)),
              rel::TupleRepresentationKey(figure1.row(r)))
        << "row " << r;
  }

  const auto goal =
      core::JoinPredicate::Parse(instance->schema(), workload::kQ2).value();
  auto strategy = core::MakeStrategy("lookahead-entropy").value();
  const auto result = core::RunSession(core::MakeRelationStore(instance),
                                       goal, *strategy);
  EXPECT_TRUE(result.identified_goal);
  std::remove(path.c_str());
}

TEST(EndToEnd, TpchUniversalTableInferenceToSql) {
  util::Rng rng(14);
  workload::TpchSpec spec;
  spec.num_customers = 15;
  spec.num_orders = 25;
  const rel::Catalog catalog = workload::MakeTpchCatalog(spec, rng);

  query::UniversalTableOptions options;
  options.sample_cap = 2000;
  const auto table =
      query::UniversalTable::Build(catalog, {"customer", "orders"}, options)
          .value();
  const auto goal =
      core::JoinPredicate::Parse(table.schema(),
                                 "customer.c_custkey = orders.o_custkey")
          .value();
  auto strategy = core::MakeStrategy("lookahead-entropy").value();
  const auto session = core::RunSession(table.store(), goal, *strategy);
  ASSERT_TRUE(session.identified_goal);

  const query::JoinQuery query = table.ToJoinQuery(*session.result);
  const auto sql = query.ToSql(catalog).value();
  EXPECT_NE(sql.find("customer.c_custkey = orders.o_custkey"),
            std::string::npos)
      << sql;
  // The inferred join, executed, equals the FK join: one row per order.
  EXPECT_EQ(query.Evaluate(catalog).value().num_rows(), spec.num_orders);
}

TEST(EndToEnd, RandomizedWorkloadsAcrossAllStrategies) {
  // The paper's core guarantee, stress-tested: for random instances and
  // random goals, every strategy identifies the goal up to
  // instance-equivalence, never asking more questions than there are
  // classes.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed * 31);
    workload::SyntheticSpec spec;
    spec.num_attributes = 4 + seed % 4;
    spec.num_tuples = 60 + 40 * (seed % 3);
    spec.domain_size = 2 + seed % 5;
    spec.goal_constraints = seed % 3;
    const auto workload = workload::MakeSyntheticWorkload(spec, rng);
    core::InferenceEngine probe(workload.instance);
    for (const std::string& name :
         {std::string("random"), std::string("local-top-down"),
          std::string("lookahead-entropy")}) {
      auto strategy = core::MakeStrategy(name, seed).value();
      const auto result =
          core::RunSession(core::MakeRelationStore(workload.instance),
                           workload.goal, *strategy);
      ASSERT_TRUE(result.identified_goal)
          << name << " failed on seed " << seed;
      EXPECT_LE(result.interactions, probe.num_classes());
    }
  }
}

TEST(EndToEnd, InferenceResultIsCanonicalMaximal) {
  // JIM returns θ_P — the maximal consistent predicate. Every other
  // consistent predicate must be instance-equivalent and contained in it.
  util::Rng rng(77);
  workload::SyntheticSpec spec;
  spec.num_attributes = 4;
  spec.num_tuples = 50;
  spec.domain_size = 3;
  spec.goal_constraints = 1;
  const auto workload = workload::MakeSyntheticWorkload(spec, rng);
  auto strategy = core::MakeStrategy("lookahead-minmax").value();
  const auto result =
      core::RunSession(core::MakeRelationStore(workload.instance),
                       workload.goal, *strategy);
  ASSERT_TRUE(result.identified_goal);
  // The goal refines the returned θ_P (maximality).
  EXPECT_TRUE(
      workload.goal.partition().Refines(result.result->partition()));
}

TEST(EndToEnd, SetGameCrowdPipeline) {
  // Pictures + crowd + inference together: sampled pair instance, noisy
  // majority-voted workers, full identification check.
  util::Rng rng(55);
  auto instance = workload::SetPairInstance(/*sample_size=*/800, rng);
  const auto goal = workload::SameColorAndShadingGoal(instance->schema());
  auto strategy = core::MakeStrategy("lookahead-entropy").value();
  crowd::CrowdOptions options;
  options.worker_error_rate = 0.05;
  options.workers_per_question = 5;
  options.seed = 20;
  const auto result = crowd::RunCrowdJim(instance, goal, *strategy, options);
  EXPECT_GE(result.questions, 3u);
  EXPECT_LE(result.questions, 40u);
  // With 5-way voting at 5% error the run is overwhelmingly likely correct;
  // assert at least that accounting holds and the result exists.
  EXPECT_EQ(result.worker_answers, result.questions * 5);
}

TEST(EndToEnd, SelfJoinInferenceOverUniversalTable) {
  // Connecting flights: infer Flights.To = Flights.From over a self-join.
  const rel::Catalog catalog = workload::TravelCatalog();
  const auto table =
      query::UniversalTable::Build(catalog, {"Flights", "Flights"}).value();
  EXPECT_EQ(table.num_tuples(), 16u);
  const auto goal =
      core::JoinPredicate::Parse(table.schema(),
                                 "Flights_1.To = Flights_2.From")
          .value();
  auto strategy = core::MakeStrategy("lookahead-entropy").value();
  const auto session = core::RunSession(table.store(), goal, *strategy);
  ASSERT_TRUE(session.identified_goal);
  const auto query = table.ToJoinQuery(*session.result);
  EXPECT_EQ(query.Evaluate(catalog).value().num_rows(), 5u);
}

}  // namespace
}  // namespace jim
