#include <set>

#include <gtest/gtest.h>

#include "core/jim.h"
#include "query/universal_table.h"
#include "util/rng.h"
#include "workload/setgame.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"
#include "workload/travel.h"

namespace jim::workload {
namespace {

TEST(TravelTest, Figure1IsExact) {
  const rel::Relation instance = Figure1Instance();
  ASSERT_EQ(instance.num_rows(), 12u);
  ASSERT_EQ(instance.num_attributes(), 5u);
  EXPECT_EQ(instance.schema().Names(),
            (std::vector<std::string>{"From", "To", "Airline", "City",
                                      "Discount"}));
  // Every row of Figure 1, in order.
  const char* expected[][5] = {
      {"Paris", "Lille", "AF", "NYC", "AA"},
      {"Paris", "Lille", "AF", "Paris", "None"},
      {"Paris", "Lille", "AF", "Lille", "AF"},
      {"Lille", "NYC", "AA", "NYC", "AA"},
      {"Lille", "NYC", "AA", "Paris", "None"},
      {"Lille", "NYC", "AA", "Lille", "AF"},
      {"NYC", "Paris", "AA", "NYC", "AA"},
      {"NYC", "Paris", "AA", "Paris", "None"},
      {"NYC", "Paris", "AA", "Lille", "AF"},
      {"Paris", "NYC", "AF", "NYC", "AA"},
      {"Paris", "NYC", "AF", "Paris", "None"},
      {"Paris", "NYC", "AF", "Lille", "AF"},
  };
  for (size_t r = 0; r < 12; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(instance.row(r)[c].AsString(), expected[r][c])
          << "row " << r + 1 << " column " << c;
    }
  }
}

TEST(TravelTest, CatalogProductIsFigure1) {
  const rel::Catalog catalog = TravelCatalog();
  EXPECT_EQ(catalog.Get("Flights").value()->num_rows(), 4u);
  EXPECT_EQ(catalog.Get("Hotels").value()->num_rows(), 3u);
}

TEST(TravelTest, LargeInstanceShape) {
  util::Rng rng(1);
  const rel::Catalog catalog = LargeTravelCatalog(
      /*num_flights=*/20, /*num_hotels=*/10, /*num_cities=*/5,
      /*num_airlines=*/3, rng);
  const rel::Relation& flights = *catalog.Get("Flights").value();
  const rel::Relation& hotels = *catalog.Get("Hotels").value();
  EXPECT_EQ(flights.num_rows(), 20u);
  EXPECT_EQ(hotels.num_rows(), 10u);
  EXPECT_EQ(flights.num_attributes() + hotels.num_attributes(), 5u);
  // From ≠ To by construction.
  for (const auto& row : flights.rows()) {
    EXPECT_FALSE(row[0].Equals(row[1]));
  }
}

TEST(SyntheticTest, RandomPartitionHasRequestedRank) {
  util::Rng rng(2);
  for (size_t n : {3u, 5u, 8u}) {
    for (size_t rank = 0; rank < n; ++rank) {
      const lat::Partition p = RandomPartitionWithRank(n, rank, rng);
      EXPECT_EQ(p.Rank(), rank) << "n=" << n;
    }
  }
}

TEST(SyntheticTest, WorkloadShapeAndGoalSatisfaction) {
  util::Rng rng(3);
  SyntheticSpec spec;
  spec.num_attributes = 6;
  spec.num_tuples = 500;
  spec.domain_size = 5;
  spec.goal_constraints = 2;
  spec.goal_satisfaction_rate = 0.3;
  const SyntheticWorkload workload = MakeSyntheticWorkload(spec, rng);
  EXPECT_EQ(workload.instance->num_rows(), 500u);
  EXPECT_EQ(workload.instance->num_attributes(), 6u);
  EXPECT_EQ(workload.goal.NumConstraints(), 2u);
  // At least roughly the requested fraction satisfies the goal.
  const size_t selected =
      workload.goal.SelectedRows(*workload.instance).Count();
  EXPECT_GT(selected, 100u);
  EXPECT_LT(selected, 350u);
}

TEST(SyntheticTest, PlantedGoalIsInferable) {
  util::Rng rng(4);
  SyntheticSpec spec;
  spec.num_attributes = 5;
  spec.num_tuples = 150;
  spec.domain_size = 4;
  spec.goal_constraints = 2;
  const SyntheticWorkload workload = MakeSyntheticWorkload(spec, rng);
  auto strategy = core::MakeStrategy("lookahead-entropy").value();
  const auto result =
      core::RunSession(core::MakeRelationStore(workload.instance),
                       workload.goal, *strategy);
  EXPECT_TRUE(result.identified_goal);
}

TEST(SyntheticTest, ExplicitGoalPartitionIsUsed) {
  util::Rng rng(5);
  SyntheticSpec spec;
  spec.num_attributes = 4;
  const lat::Partition goal = lat::Partition::FromLabels({0, 0, 1, 1});
  const SyntheticWorkload workload = MakeSyntheticWorkload(spec, goal, rng);
  EXPECT_EQ(workload.goal.partition(), goal);
}

TEST(TpchTest, CatalogShapeAndKeys) {
  util::Rng rng(6);
  const TpchSpec spec;
  const rel::Catalog catalog = MakeTpchCatalog(spec, rng);
  EXPECT_EQ(catalog.Names().size(), 8u);
  const rel::Relation& nation = *catalog.Get("nation").value();
  EXPECT_EQ(nation.num_rows(), spec.num_nations);
  const rel::Relation& orders = *catalog.Get("orders").value();
  EXPECT_EQ(orders.num_rows(), spec.num_orders);
  const rel::Relation& lineitem = *catalog.Get("lineitem").value();
  EXPECT_EQ(lineitem.num_rows(),
            spec.num_orders * spec.num_lineitems_per_order);

  // Foreign keys reference existing keys: every o_custkey is a c_custkey.
  std::set<int64_t> custkeys;
  for (const auto& row : catalog.Get("customer").value()->rows()) {
    custkeys.insert(row[0].AsInt64());
  }
  for (const auto& row : orders.rows()) {
    EXPECT_TRUE(custkeys.count(row[1].AsInt64())) << "dangling o_custkey";
  }
  // Every n_regionkey is a real region.
  std::set<int64_t> regionkeys;
  for (const auto& row : catalog.Get("region").value()->rows()) {
    regionkeys.insert(row[0].AsInt64());
  }
  for (const auto& row : nation.rows()) {
    EXPECT_TRUE(regionkeys.count(row[2].AsInt64())) << "dangling n_regionkey";
  }
}

TEST(TpchTest, ScenariosParseAgainstTheirUniversalTables) {
  util::Rng rng(7);
  const rel::Catalog catalog = MakeTpchCatalog({}, rng);
  for (const TpchScenario& scenario : TpchScenarios()) {
    query::UniversalTableOptions options;
    options.sample_cap = 2000;
    const auto table =
        query::UniversalTable::Build(catalog, scenario.relations, options);
    ASSERT_TRUE(table.ok()) << scenario.name;
    const auto goal =
        core::JoinPredicate::Parse(table->schema(), scenario.goal);
    ASSERT_TRUE(goal.ok()) << scenario.name << ": "
                           << goal.status().ToString();
    EXPECT_EQ(goal->NumConstraints(), scenario.goal_constraints)
        << scenario.name;
  }
}

TEST(SetGameTest, DeckIsComplete) {
  const rel::Relation cards = AllSetCards();
  EXPECT_EQ(cards.num_rows(), 81u);
  // All combinations distinct.
  std::set<std::string> seen;
  for (const auto& row : cards.rows()) {
    std::string key;
    for (const auto& value : row) key += value.AsString() + "|";
    EXPECT_TRUE(seen.insert(key).second);
  }
}

TEST(SetGameTest, PairInstanceShapes) {
  util::Rng rng(8);
  EXPECT_EQ(SetPairInstance(0, rng)->num_rows(), 6561u);
  EXPECT_EQ(SetPairInstance(500, rng)->num_rows(), 500u);
  EXPECT_EQ(SetPairInstance(0, rng)->num_attributes(), 8u);
}

TEST(SetGameTest, SameColorAndShadingGoalSelectsCorrectPairs) {
  util::Rng rng(9);
  auto instance = SetPairInstance(0, rng);
  const auto goal = SameColorAndShadingGoal(instance->schema());
  // P(same color) = 27/81 per side match: #pairs = 81*81/9 = 729 per
  // feature; same color AND same shading: 81*81/9 = 729.
  EXPECT_EQ(goal.SelectedRows(*instance).Count(), 729u);
}

TEST(SetGameTest, AllFifteenGoals) {
  util::Rng rng(10);
  auto instance = SetPairInstance(0, rng);
  const auto goals = AllFeatureMatchGoals(instance->schema());
  ASSERT_EQ(goals.size(), 15u);
  // Sorted by constraint count: 4 singles, 6 doubles, 4 triples, 1 quad.
  EXPECT_EQ(goals.front().predicate.NumConstraints(), 1u);
  EXPECT_EQ(goals.back().predicate.NumConstraints(), 4u);
  // The all-features goal selects exactly the diagonal (81 identical pairs).
  EXPECT_EQ(goals.back().predicate.SelectedRows(*instance).Count(), 81u);
}

}  // namespace
}  // namespace jim::workload
