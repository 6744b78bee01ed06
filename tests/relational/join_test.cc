#include "relational/join.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "relational/operators.h"
#include "util/rng.h"

namespace jim::rel {
namespace {

Relation MakeLeft() {
  Relation r{"L", Schema::FromNames({"k", "a"})};
  const char* rows[][2] = {{"1", "x"}, {"2", "y"}, {"2", "z"}, {"3", "w"}};
  for (const auto& row : rows) {
    EXPECT_TRUE(r.AddRow({Value(row[0]), Value(row[1])}).ok());
  }
  return r;
}

Relation MakeRight() {
  Relation r{"R", Schema::FromNames({"k", "b"})};
  const char* rows[][2] = {{"2", "p"}, {"2", "q"}, {"3", "r"}, {"4", "s"}};
  for (const auto& row : rows) {
    EXPECT_TRUE(r.AddRow({Value(row[0]), Value(row[1])}).ok());
  }
  return r;
}

/// Canonical multiset of rows for order-insensitive comparison.
std::vector<std::string> Canonical(const Relation& relation) {
  std::vector<std::string> rows;
  for (const Tuple& row : relation.rows()) {
    std::string key;
    for (const Value& value : row) {
      key += value.ToString();
      key.push_back('\x1f');
    }
    rows.push_back(std::move(key));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(JoinTest, NestedLoopBasic) {
  const auto result =
      NestedLoopJoin(MakeLeft(), MakeRight(), {{0, 0}}).value();
  // k=2: 2×2 pairs; k=3: 1×1. Total 5.
  EXPECT_EQ(result.num_rows(), 5u);
  EXPECT_EQ(result.num_attributes(), 4u);
}

TEST(JoinTest, AllAlgorithmsAgreeOnExample) {
  const Relation left = MakeLeft();
  const Relation right = MakeRight();
  const auto nl = NestedLoopJoin(left, right, {{0, 0}}).value();
  const auto hash = HashJoin(left, right, {{0, 0}}).value();
  EXPECT_EQ(Canonical(nl), Canonical(hash));
}

TEST(JoinTest, NullKeysNeverMatch) {
  Relation left{"L", Schema::FromNames({"k"})};
  ASSERT_TRUE(left.AddRow({Value()}).ok());
  ASSERT_TRUE(left.AddRow({Value("a")}).ok());
  Relation right{"R", Schema::FromNames({"k"})};
  ASSERT_TRUE(right.AddRow({Value()}).ok());
  ASSERT_TRUE(right.AddRow({Value("a")}).ok());
  for (const auto& result :
       {NestedLoopJoin(left, right, {{0, 0}}).value(),
        HashJoin(left, right, {{0, 0}}).value()}) {
    EXPECT_EQ(result.num_rows(), 1u);  // only "a"–"a"
  }
}

TEST(JoinTest, CompositeKeys) {
  Relation left{"L", Schema::FromNames({"x", "y"})};
  ASSERT_TRUE(left.AddRow({Value("1"), Value("a")}).ok());
  ASSERT_TRUE(left.AddRow({Value("1"), Value("b")}).ok());
  Relation right{"R", Schema::FromNames({"x", "y"})};
  ASSERT_TRUE(right.AddRow({Value("1"), Value("a")}).ok());
  ASSERT_TRUE(right.AddRow({Value("1"), Value("c")}).ok());
  const JoinKeys keys = {{0, 0}, {1, 1}};
  EXPECT_EQ(HashJoin(left, right, keys).value().num_rows(), 1u);
}

TEST(JoinTest, KeyValidation) {
  EXPECT_FALSE(HashJoin(MakeLeft(), MakeRight(), {{7, 0}}).ok());
  EXPECT_FALSE(HashJoin(MakeLeft(), MakeRight(), {{0, 7}}).ok());
}

TEST(JoinTest, QualifiersInOutputSchema) {
  JoinOptions options;
  options.left_qualifier = "L";
  options.right_qualifier = "R";
  const auto result =
      HashJoin(MakeLeft(), MakeRight(), {{0, 0}}, options).value();
  EXPECT_EQ(result.schema().Names(),
            (std::vector<std::string>{"L.k", "L.a", "R.k", "R.b"}));
}

TEST(CrossProductTest, SizesAndOrder) {
  const auto product = CrossProduct(MakeLeft(), MakeRight()).value();
  EXPECT_EQ(product.num_rows(), 16u);
  // Left-major order: first 4 rows share the first left row.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(product.row(i)[0].AsString(), "1");
  }
}

TEST(CrossProductTest, SampledRespectsCapAndMembership) {
  util::Rng rng(3);
  const Relation left = MakeLeft();
  const Relation right = MakeRight();
  const auto sample = SampledCrossProduct(left, right, 5, rng).value();
  EXPECT_EQ(sample.num_rows(), 5u);
  // Every sampled row must be a genuine product row.
  const auto full = Canonical(CrossProduct(left, right).value());
  for (const std::string& row : Canonical(sample)) {
    EXPECT_TRUE(std::binary_search(full.begin(), full.end(), row));
  }
  // No duplicates (sampling without replacement).
  auto rows = Canonical(sample);
  EXPECT_EQ(std::unique(rows.begin(), rows.end()), rows.end());
}

TEST(CrossProductTest, SampleLargerThanProductReturnsAll) {
  util::Rng rng(4);
  const auto sample =
      SampledCrossProduct(MakeLeft(), MakeRight(), 1000, rng).value();
  EXPECT_EQ(sample.num_rows(), 16u);
}

// Property test: the hash join agrees with the nested-loop reference on
// random inputs,
// swept over domain sizes (join selectivities) and key counts.
class JoinAlgorithmsAgree
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(JoinAlgorithmsAgree, OnRandomInputs) {
  const auto [domain, num_keys] = GetParam();
  util::Rng rng(1000 + static_cast<uint64_t>(domain) * 31 +
                static_cast<uint64_t>(num_keys));
  for (int trial = 0; trial < 8; ++trial) {
    auto make_random = [&](const char* name, size_t rows) {
      Relation r{name, Schema::FromNames({"k1", "k2", "v"})};
      for (size_t i = 0; i < rows; ++i) {
        // ~10% NULL keys exercise SQL semantics.
        auto field = [&]() {
          return rng.Bernoulli(0.1)
                     ? Value()
                     : Value(std::to_string(rng.UniformInt(0, domain - 1)));
        };
        EXPECT_TRUE(
            r.AddRow({field(), field(), Value(std::to_string(i))}).ok());
      }
      return r;
    };
    const Relation left = make_random("L", 30);
    const Relation right = make_random("R", 25);
    JoinKeys keys;
    for (int k = 0; k < num_keys; ++k) {
      keys.emplace_back(static_cast<size_t>(k), static_cast<size_t>(k));
    }
    const auto nl = NestedLoopJoin(left, right, keys).value();
    const auto hash = HashJoin(left, right, keys).value();
    EXPECT_EQ(Canonical(nl), Canonical(hash));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Selectivities, JoinAlgorithmsAgree,
    ::testing::Combine(::testing::Values(2, 5, 20),   // domain size
                       ::testing::Values(1, 2)));      // composite key width

TEST(OperatorsTest, SelectFilters) {
  const Relation left = MakeLeft();
  const Relation selected = Select(left, [](const Tuple& row) {
    return row[0].AsString() == "2";
  });
  EXPECT_EQ(selected.num_rows(), 2u);
}

TEST(OperatorsTest, RenameRequalifies) {
  const Relation renamed = RenameRelation(MakeLeft(), "Q");
  EXPECT_EQ(renamed.name(), "Q");
  EXPECT_EQ(renamed.schema().Names(),
            (std::vector<std::string>{"Q.k", "Q.a"}));
  EXPECT_EQ(renamed.num_rows(), 4u);
}

}  // namespace
}  // namespace jim::rel
