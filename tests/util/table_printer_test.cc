#include "util/table_printer.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/json_writer.h"

namespace jim::util {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "n"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| name      | n  |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 22 |"), std::string::npos);
  // Frame: header rule + top + bottom.
  EXPECT_NE(out.find("+-----------+----+"), std::string::npos);
}

TEST(TablePrinterTest, RightAlignment) {
  TablePrinter table({"v"});
  table.SetAlignments({Align::kRight});
  table.AddRow({"1"});
  table.AddRow({"100"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("|   1 |"), std::string::npos);
  EXPECT_NE(out.find("| 100 |"), std::string::npos);
}

TEST(TablePrinterTest, SeparatorInsertsRule) {
  TablePrinter table({"x"});
  table.AddRow({"a"});
  table.AddSeparator();
  table.AddRow({"b"});
  const std::string out = table.ToString();
  // 5 rules: top, under-header, separator, bottom... = count '+---+' lines.
  size_t rules = 0;
  for (size_t pos = out.find("+---+"); pos != std::string::npos;
       pos = out.find("+---+", pos + 1)) {
    ++rules;
  }
  EXPECT_EQ(rules, 4u);
}

TEST(BarChartTest, ScalesBars) {
  const std::string chart =
      BarChart({{"big", 10.0}, {"half", 5.0}, {"zero", 0.0}}, 10);
  EXPECT_NE(chart.find("big  |########## 10"), std::string::npos);
  EXPECT_NE(chart.find("half |##### 5"), std::string::npos);
  EXPECT_NE(chart.find("zero | 0"), std::string::npos);
}

TEST(JsonWriterTest, ObjectsArraysAndEscaping) {
  JsonWriter json;
  json.BeginObject()
      .KeyValue("name", "va\"lue")
      .KeyValue("count", int64_t{42})
      .KeyValue("ratio", 0.5)
      .KeyValue("flag", true)
      .Key("items")
      .BeginArray()
      .Value(int64_t{1})
      .Value(int64_t{2})
      .EndArray()
      .EndObject();
  EXPECT_EQ(json.str(),
            R"({"name":"va\"lue","count":42,"ratio":0.5,"flag":true,"items":[1,2]})");
}

TEST(JsonWriterTest, NestedStructures) {
  JsonWriter json;
  json.BeginArray();
  for (int64_t i = 0; i < 2; ++i) {
    json.BeginObject().KeyValue("i", i).EndObject();
  }
  json.EndArray();
  EXPECT_EQ(json.str(), R"([{"i":0},{"i":1}])");
}

TEST(JsonWriterTest, EscapesControlCharacters) {
  JsonWriter json;
  json.BeginObject().KeyValue("s", "a\tb\nc").EndObject();
  EXPECT_EQ(json.str(), R"({"s":"a\tb\nc"})");
}

}  // namespace
}  // namespace jim::util
