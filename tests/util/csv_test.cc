#include "util/csv.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace jim::util {
namespace {

TEST(ParseCsvLineTest, PlainFields) {
  using Record = std::vector<std::string>;
  using Records = std::vector<Record>;
  EXPECT_EQ(ParseCsv("a,b,c").value(), (Records{{"a", "b", "c"}}));
  EXPECT_EQ(ParseCsv("a").value(), (Records{{"a"}}));
  EXPECT_EQ(ParseCsv("").value(), Records{});
  EXPECT_EQ(ParseCsv("a,,c").value(), (Records{{"a", "", "c"}}));
}

TEST(ParseCsvLineTest, QuotedFields) {
  using Record = std::vector<std::string>;
  using Records = std::vector<Record>;
  EXPECT_EQ(ParseCsv(R"("a,b",c)").value(), (Records{{"a,b", "c"}}));
  EXPECT_EQ(ParseCsv(R"("he said ""hi""",x)").value(),
            (Records{{"he said \"hi\"", "x"}}));
  EXPECT_EQ(ParseCsv(R"("")").value(), (Records{{""}}));
}

TEST(ParseCsvLineTest, Errors) {
  EXPECT_FALSE(ParseCsv(R"("unterminated)").ok());
  EXPECT_FALSE(ParseCsv(R"(ab"cd)").ok());
}

TEST(ParseCsvTest, MultipleRecords) {
  const auto records = ParseCsv("a,b\nc,d\ne,f\n").value();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(records[2], (std::vector<std::string>{"e", "f"}));
}

TEST(ParseCsvTest, CrLfAndNoTrailingNewline) {
  const auto records = ParseCsv("a,b\r\nc,d").value();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], (std::vector<std::string>{"c", "d"}));
}

TEST(ParseCsvTest, QuotedNewlineInsideField) {
  const auto records = ParseCsv("a,\"line1\nline2\"\nb,c\n").value();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0][1], "line1\nline2");
}

TEST(ParseCsvTest, SkipsUtf8Bom) {
  const auto records = ParseCsv("\xEF\xBB\xBFx,y\n").value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0][0], "x");
}

TEST(FileIoTest, WriteThenRead) {
  const std::string path = ::testing::TempDir() + "/jim_csv_test.txt";
  std::ofstream(path, std::ios::binary) << "hello\nworld";
  EXPECT_EQ(ReadFileToString(path).value(), "hello\nworld");
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileIsNotFound) {
  const auto result = ReadFileToString("/nonexistent/path/file.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace jim::util
