#include "core/join_predicate.h"

#include <gtest/gtest.h>

#include "lattice/enumeration.h"
#include "support/core_views.h"
#include "support/refinements.h"
#include "util/rng.h"
#include "workload/travel.h"

namespace jim::core {
namespace {

rel::Schema TravelSchema() {
  return rel::Schema::FromNames({"From", "To", "Airline", "City", "Discount"});
}

TEST(ParseTest, SingleEquality) {
  const auto p = JoinPredicate::Parse(TravelSchema(), "To=City").value();
  EXPECT_EQ(p.NumConstraints(), 1u);
  EXPECT_EQ(p.partition().labels()[1], p.partition().labels()[3]);
}

TEST(ParseTest, ConjunctionsInAllSpellings) {
  const auto expected =
      JoinPredicate::Parse(TravelSchema(), "To=City && Airline=Discount")
          .value();
  // Note: "\x88" must end its literal — a following [0-9a-fA-F] character
  // would be swallowed into the hex escape.
  for (const char* text :
       {"To=City AND Airline=Discount", "To=City and Airline=Discount",
        "To=City & Airline=Discount", "To = City &&  Airline = Discount",
        "To\xE2\x89\x88" "City \xE2\x88\xA7 Airline=Discount"}) {
    const auto parsed = JoinPredicate::Parse(TravelSchema(), text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed->partition(), expected.partition()) << text;
  }
}

TEST(ParseTest, EmptyIsEmptyPredicate) {
  const auto p = JoinPredicate::Parse(TravelSchema(), "").value();
  EXPECT_TRUE(p.IsEmptyPredicate());
  EXPECT_EQ(p.ToString(), "(empty predicate)");
  EXPECT_EQ(p.ToSqlWhere(), "TRUE");
}

TEST(ParseTest, TransitiveChains) {
  const auto p =
      JoinPredicate::Parse(TravelSchema(), "From=To && To=City").value();
  // From ~ City by transitivity.
  EXPECT_EQ(p.partition().labels()[0], p.partition().labels()[3]);
  EXPECT_EQ(p.NumConstraints(), 2u);
}

TEST(ParseTest, Errors) {
  EXPECT_FALSE(JoinPredicate::Parse(TravelSchema(), "To=Nowhere").ok());
  EXPECT_FALSE(JoinPredicate::Parse(TravelSchema(), "To City").ok());
  EXPECT_FALSE(JoinPredicate::Parse(TravelSchema(), "To=City=From").ok());
}

TEST(SelectsTest, ChecksEqualities) {
  const auto p = JoinPredicate::Parse(TravelSchema(), "To=City").value();
  using rel::Value;
  EXPECT_TRUE(p.Selects({Value("a"), Value("b"), Value("c"), Value("b"),
                         Value("e")}));
  EXPECT_FALSE(p.Selects({Value("a"), Value("b"), Value("c"), Value("x"),
                          Value("e")}));
}

TEST(SelectsTest, NullsNeverSatisfyEqualities) {
  const auto p = JoinPredicate::Parse(TravelSchema(), "To=City").value();
  using rel::Value;
  EXPECT_FALSE(
      p.Selects({Value("a"), Value(), Value("c"), Value(), Value("e")}));
}

TEST(SelectsTest, EmptyPredicateSelectsEverything) {
  const auto p = JoinPredicate::Parse(TravelSchema(), "").value();
  using rel::Value;
  EXPECT_TRUE(p.Selects({Value(), Value(), Value(), Value(), Value()}));
}

TEST(ContainmentTest, MoreConstraintsMeansContained) {
  const auto q1 = JoinPredicate::Parse(TravelSchema(), "To=City").value();
  const auto q2 =
      JoinPredicate::Parse(TravelSchema(), "To=City && Airline=Discount")
          .value();
  const auto empty = JoinPredicate::Parse(TravelSchema(), "").value();
  EXPECT_TRUE(q2.ContainedIn(q1));
  EXPECT_TRUE(q1.ContainedIn(empty));
  EXPECT_TRUE(q2.ContainedIn(empty));
  EXPECT_FALSE(empty.ContainedIn(q1));
  EXPECT_TRUE(q1.ContainedIn(q1));
}

TEST(TuplePartitionTest, GroupsEqualValues) {
  using rel::Value;
  const auto part = TuplePartition(
      {Value("x"), Value("y"), Value("x"), Value("z"), Value("y")});
  EXPECT_EQ(part.ToString(), "{0,2|1,4|3}");
}

TEST(TuplePartitionTest, NullsAreSingletons) {
  using rel::Value;
  const auto part = TuplePartition({Value(), Value(), Value("x")});
  EXPECT_EQ(part, lat::Singletons(3));
}

TEST(TuplePartitionTest, MixedTypesNeverGroup) {
  using rel::Value;
  const auto part =
      TuplePartition({Value(int64_t{1}), Value(1.0), Value("1")});
  EXPECT_EQ(part, lat::Singletons(3));
}

TEST(TuplePartitionTest, AllEqualIsTop) {
  using rel::Value;
  const auto part = TuplePartition({Value("a"), Value("a"), Value("a")});
  EXPECT_EQ(part, lat::Partition::Top(3));
}

// The defining property:  θ selects t  ⇔  θ ≤ Part(t).
TEST(TuplePartitionTest, SelectionCharacterization) {
  util::Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    rel::Tuple tuple;
    for (int a = 0; a < 5; ++a) {
      // In-place construction: moving a temporary Value trips GCC 12's
      // variant/string -Wmaybe-uninitialized false positive under -Werror.
      tuple.emplace_back(rng.UniformInt(0, 2));
    }
    const lat::Partition part = TuplePartition(tuple);
    lat::VisitAllPartitions(5, [&](const lat::Partition& theta) {
      const JoinPredicate predicate{TravelSchema(), theta};
      EXPECT_EQ(predicate.Selects(tuple), theta.Refines(part))
          << theta.ToString();
      return true;
    });
  }
}

TEST(InstanceEquivalenceTest, OnFigure1) {
  const auto instance = workload::Figure1Instance();
  const auto q1 = JoinPredicate::Parse(instance.schema(), workload::kQ1).value();
  const auto q2 = JoinPredicate::Parse(instance.schema(), workload::kQ2).value();
  EXPECT_FALSE(InstanceEquivalent(instance, q1, q2));
  EXPECT_TRUE(InstanceEquivalent(instance, q1, q1));
  // From≈To selects nothing in Figure 1, like From≈To∧Airline≈Discount.
  const auto none1 =
      JoinPredicate::Parse(instance.schema(), "From=To").value();
  const auto none2 =
      JoinPredicate::Parse(instance.schema(), "From=To && Airline=Discount")
          .value();
  EXPECT_TRUE(InstanceEquivalent(instance, none1, none2));
}

TEST(RenderingTest, ToStringAndSql) {
  const auto q2 =
      JoinPredicate::Parse(TravelSchema(), "To=City && Airline=Discount")
          .value();
  EXPECT_EQ(q2.ToString(),
            "To\xE2\x89\x88"
            "City \xE2\x88\xA7 Airline\xE2\x89\x88"
            "Discount");
  EXPECT_EQ(q2.ToSqlWhere(), "To = City AND Airline = Discount");
}

}  // namespace
}  // namespace jim::core
