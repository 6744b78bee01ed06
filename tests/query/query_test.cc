#include "query/join_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/jim.h"
#include "query/universal_table.h"
#include "relational/join.h"
#include "support/materialize.h"
#include "util/rng.h"
#include "workload/tpch.h"
#include "workload/travel.h"

namespace jim::query {
namespace {

TEST(JoinQueryTest, SqlRendering) {
  const rel::Catalog catalog = workload::TravelCatalog();
  JoinQuery query({"Flights", "Hotels"});
  // Flights.To = Hotels.City
  query.AddEquality(QualifiedColumn{0, 1}, QualifiedColumn{1, 0});
  EXPECT_EQ(query.ToSql(catalog).value(),
            "SELECT * FROM Flights, Hotels WHERE Flights.To = Hotels.City;");
}

TEST(JoinQueryTest, SqlWithoutConditionsIsCrossProduct) {
  const rel::Catalog catalog = workload::TravelCatalog();
  JoinQuery query({"Flights", "Hotels"});
  EXPECT_EQ(query.ToSql(catalog).value(),
            "SELECT * FROM Flights, Hotels;");
}

TEST(JoinQueryTest, SelfJoinGetsAliases) {
  const rel::Catalog catalog = workload::TravelCatalog();
  JoinQuery query({"Flights", "Flights"});
  // Flights_1.To = Flights_2.From (connecting flights)
  query.AddEquality(QualifiedColumn{0, 1}, QualifiedColumn{1, 0});
  EXPECT_EQ(query.ToSql(catalog).value(),
            "SELECT * FROM Flights AS Flights_1, Flights AS Flights_2 WHERE "
            "Flights_1.To = Flights_2.From;");
}

TEST(JoinQueryTest, EvaluateMatchesManualJoin) {
  const rel::Catalog catalog = workload::TravelCatalog();
  JoinQuery query({"Flights", "Hotels"});
  query.AddEquality(QualifiedColumn{0, 1}, QualifiedColumn{1, 0});
  const auto result = query.Evaluate(catalog).value();
  // Manual: hash join on To = City.
  const auto manual =
      rel::HashJoin(*catalog.Get("Flights").value(),
                    *catalog.Get("Hotels").value(), {{1, 0}})
          .value();
  EXPECT_EQ(result.num_rows(), manual.num_rows());
  EXPECT_EQ(result.num_rows(), 4u);  // Q1 selects 4 of the 12 pairs
}

TEST(JoinQueryTest, EvaluateSelfJoin) {
  const rel::Catalog catalog = workload::TravelCatalog();
  JoinQuery query({"Flights", "Flights"});
  query.AddEquality(QualifiedColumn{0, 1}, QualifiedColumn{1, 0});
  const auto result = query.Evaluate(catalog).value();
  // Connecting flights in Figure 1's flight set:
  // P->L + L->N, L->N + N->P, N->P + P->L, N->P + P->N, P->N + N->P.
  EXPECT_EQ(result.num_rows(), 5u);
}

TEST(JoinQueryTest, EvaluateWithIntraRelationEquality) {
  const rel::Catalog catalog = workload::TravelCatalog();
  JoinQuery query({"Hotels"});
  // City = Discount never holds in the Figure 1 hotels.
  query.AddEquality(QualifiedColumn{0, 0}, QualifiedColumn{0, 1});
  EXPECT_EQ(query.Evaluate(catalog).value().num_rows(), 0u);
}

TEST(JoinQueryTest, ErrorsOnUnknownRelationOrColumn) {
  const rel::Catalog catalog = workload::TravelCatalog();
  JoinQuery unknown({"Nope"});
  EXPECT_FALSE(unknown.ToSql(catalog).ok());
  EXPECT_FALSE(unknown.Evaluate(catalog).ok());
  JoinQuery bad_column({"Flights", "Hotels"});
  bad_column.AddEquality(QualifiedColumn{0, 9}, QualifiedColumn{1, 0});
  EXPECT_FALSE(bad_column.ToSql(catalog).ok());
}

TEST(UniversalTableTest, TravelFullProduct) {
  const rel::Catalog catalog = workload::TravelCatalog();
  const auto table =
      UniversalTable::Build(catalog, {"Flights", "Hotels"}).value();
  EXPECT_EQ(table.num_tuples(), 12u);
  EXPECT_FALSE(table.is_sampled());
  EXPECT_EQ(table.full_product_size(), 12u);
  EXPECT_EQ(table.num_attributes(), 5u);
  // Provenance: attribute 0 is Flights' column 0 and attribute 4 is Hotels'
  // column 1, as the translation back to a join query reads it.
  JoinQuery query({"Flights", "Hotels"});
  query.AddEquality(QualifiedColumn{0, 0}, QualifiedColumn{1, 1});
  const core::JoinPredicate predicate(
      table.schema(), lat::Partition::FromPairs(5, {{0, 4}}).value());
  EXPECT_EQ(table.ToJoinQuery(predicate).ToSql(catalog).value(),
            query.ToSql(catalog).value());
  // Schema is qualified.
  EXPECT_EQ(table.schema().Names()[0], "Flights.From");
  // The factorized table decodes to exactly the Figure 1 instance.
  EXPECT_EQ(Materialize(table).num_rows(), 12u);
}

TEST(UniversalTableTest, SamplingKicksInAboveCap) {
  util::Rng rng(1);
  workload::TpchSpec spec;
  const rel::Catalog catalog = workload::MakeTpchCatalog(spec, rng);
  UniversalTableOptions options;
  options.sample_cap = 500;
  const auto table =
      UniversalTable::Build(catalog, {"customer", "orders"}, options).value();
  EXPECT_TRUE(table.is_sampled());
  EXPECT_LE(table.num_tuples(), 500u);
  EXPECT_EQ(table.full_product_size(), 50u * 100u);
}

TEST(UniversalTableTest, RoundTripPredicateToQuery) {
  const rel::Catalog catalog = workload::TravelCatalog();
  const auto table =
      UniversalTable::Build(catalog, {"Flights", "Hotels"}).value();
  const auto predicate =
      core::JoinPredicate::Parse(
          table.schema(),
          "Flights.To = Hotels.City && Flights.Airline = Hotels.Discount")
          .value();
  const JoinQuery query = table.ToJoinQuery(predicate);
  const auto sql = query.ToSql(catalog).value();
  // Both relations, in order, and exactly two join conditions.
  EXPECT_EQ(sql.rfind("SELECT * FROM Flights, Hotels WHERE ", 0), 0u) << sql;
  ASSERT_EQ(std::count(sql.begin(), sql.end(), '='), 2) << sql;
  EXPECT_NE(sql.find("Flights.To = Hotels.City"), std::string::npos);
  EXPECT_NE(sql.find("Flights.Airline = Hotels.Discount"), std::string::npos);
  // Evaluating the query equals filtering the universal table by the
  // predicate — both on codes and on the decoded rows.
  const auto evaluated = query.Evaluate(catalog).value();
  EXPECT_EQ(evaluated.num_rows(),
            predicate.SelectedRows(*table.store()).Count());
  EXPECT_EQ(evaluated.num_rows(),
            predicate.SelectedRows(Materialize(table)).Count());
}

TEST(UniversalTableTest, EndToEndInferenceOnSources) {
  // The full pipeline: catalog -> universal table -> inference -> SQL.
  const rel::Catalog catalog = workload::TravelCatalog();
  const auto table =
      UniversalTable::Build(catalog, {"Flights", "Hotels"}).value();
  const auto goal = core::JoinPredicate::Parse(table.schema(),
                                               "Flights.To = Hotels.City")
                        .value();
  auto strategy = core::MakeStrategy("lookahead-entropy").value();
  const auto session = core::RunSession(table.store(), goal, *strategy);
  ASSERT_TRUE(session.identified_goal);
  const JoinQuery query = table.ToJoinQuery(*session.result);
  EXPECT_EQ(query.Evaluate(catalog).value().num_rows(), 4u);
}

TEST(UniversalTableTest, BuildErrors) {
  const rel::Catalog catalog = workload::TravelCatalog();
  EXPECT_FALSE(UniversalTable::Build(catalog, {}).ok());
  EXPECT_FALSE(UniversalTable::Build(catalog, {"Missing"}).ok());
}

}  // namespace
}  // namespace jim::query
