#include "relational/value.h"

#include <gtest/gtest.h>

namespace jim::rel {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{42}).AsInt64(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
  EXPECT_EQ(Value(std::string("hi")).type(), ValueType::kString);
}

TEST(ValueTest, StrictEquality) {
  EXPECT_TRUE(Value(int64_t{1}).Equals(Value(int64_t{1})));
  EXPECT_FALSE(Value(int64_t{1}).Equals(Value(int64_t{2})));
  EXPECT_TRUE(Value("a").Equals(Value("a")));
  EXPECT_FALSE(Value("a").Equals(Value("b")));
  // Cross-type: never equal, even numerically.
  EXPECT_FALSE(Value(int64_t{1}).Equals(Value(1.0)));
  EXPECT_FALSE(Value("1").Equals(Value(int64_t{1})));
}

TEST(ValueTest, NullNeverEqualsAnything) {
  // SQL semantics: NULL = NULL is not true; a join never matches on NULLs.
  EXPECT_FALSE(Value().Equals(Value()));
  EXPECT_FALSE(Value().Equals(Value(int64_t{0})));
  EXPECT_FALSE(Value(int64_t{0}).Equals(Value()));
}

TEST(ValueTest, HashConsistentWithEquals) {
  EXPECT_EQ(Value(int64_t{7}).Hash(), Value(int64_t{7}).Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
  EXPECT_NE(Value(int64_t{7}).Hash(), Value(7.0).Hash());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{-3}).ToString(), "-3");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value("Paris").ToString(), "Paris");
}

TEST(ParseValueAsTest, TypedParsing) {
  EXPECT_EQ(ParseValueAs("42", ValueType::kInt64).AsInt64(), 42);
  EXPECT_DOUBLE_EQ(ParseValueAs("2.5", ValueType::kDouble).AsDouble(), 2.5);
  EXPECT_EQ(ParseValueAs("hi", ValueType::kString).AsString(), "hi");
  EXPECT_TRUE(ParseValueAs("", ValueType::kInt64).is_null());
  EXPECT_TRUE(ParseValueAs("", ValueType::kString).is_null());
}

}  // namespace
}  // namespace jim::rel
