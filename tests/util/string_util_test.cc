#include "util/string_util.h"

#include <gtest/gtest.h>

namespace jim::util {
namespace {

TEST(SplitTest, BasicAndEdgeCases) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(JoinTest, RoundTripsWithSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(StripWhitespaceTest, AllSides) {
  EXPECT_EQ(StripWhitespace("  hi  "), "hi");
  EXPECT_EQ(StripWhitespace("\t\nhi"), "hi");
  EXPECT_EQ(StripWhitespace("hi"), "hi");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("a b"), "a b");
}

TEST(CaseTest, ToLower) {
  EXPECT_EQ(ToLower("MiXeD 123"), "mixed 123");
}

TEST(AffixTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("lookahead-minmax", "lookahead"));
  EXPECT_FALSE(StartsWith("local", "lookahead"));
  EXPECT_TRUE(EndsWith("test.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "test.csv"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
  // Long outputs are not truncated.
  const std::string long_out = StrFormat("%0512d", 7);
  EXPECT_EQ(long_out.size(), 512u);
}

TEST(ParseInt64Test, ValidAndInvalid) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-17").value(), -17);
  EXPECT_EQ(ParseInt64("  8 ").value(), 8);
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("4x").ok());
  EXPECT_FALSE(ParseInt64("4.5").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(ParseDoubleTest, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-2e3").value(), -2000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("7").value(), 7.0);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(FormatDoubleTest, Compact) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(1234560), "1.23456e+06");
}

}  // namespace
}  // namespace jim::util
