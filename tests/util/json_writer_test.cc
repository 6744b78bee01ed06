#include "util/json_writer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace jim::util {
namespace {

TEST(JsonWriterTest, FlatObject) {
  JsonWriter json;
  json.BeginObject()
      .KeyValue("name", "jim")
      .KeyValue("tuples", int64_t{42})
      .KeyValue("done", true)
      .EndObject();
  EXPECT_EQ(json.str(), R"({"name":"jim","tuples":42,"done":true})");
}

TEST(JsonWriterTest, NestedObjectsAndArrays) {
  JsonWriter json;
  json.BeginObject();
  json.Key("meta").BeginObject().KeyValue("threads", int64_t{4}).EndObject();
  json.Key("results").BeginArray();
  json.BeginObject().KeyValue("arg", int64_t{1}).EndObject();
  json.BeginObject().KeyValue("arg", int64_t{2}).EndObject();
  json.EndArray();
  json.Key("buckets").BeginArray();
  json.BeginArray().Value(int64_t{1}).Value(int64_t{3}).EndArray();
  json.BeginArray().Value(int64_t{7}).Value(int64_t{1}).EndArray();
  json.EndArray();
  json.EndObject();
  EXPECT_EQ(json.str(),
            R"({"meta":{"threads":4},"results":[{"arg":1},{"arg":2}],)"
            R"("buckets":[[1,3],[7,1]]})");
}

TEST(JsonWriterTest, EmptyContainers) {
  JsonWriter json;
  json.BeginObject();
  json.Key("empty_object").BeginObject().EndObject();
  json.Key("empty_array").BeginArray().EndArray();
  json.EndObject();
  EXPECT_EQ(json.str(), R"({"empty_object":{},"empty_array":[]})");
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndWhitespaceControls) {
  JsonWriter json;
  json.BeginObject().KeyValue("k\"ey", "a\\b\n\r\tc").EndObject();
  EXPECT_EQ(json.str(), "{\"k\\\"ey\":\"a\\\\b\\n\\r\\tc\"}");
}

TEST(JsonWriterTest, EscapesOtherControlCharsAsUnicode) {
  // Control characters without a short escape get the \u00XX form.
  JsonWriter json;
  json.Value(std::string_view("\x01\x1f", 2));
  EXPECT_EQ(json.str(), "\"\\u0001\\u001f\"");
}

TEST(JsonWriterTest, PassesUtf8Through) {
  // Multi-byte UTF-8 is valid JSON string content as-is: every byte of a
  // multi-byte sequence is >= 0x80, so the control-char escape never fires.
  JsonWriter json;
  json.Value("héllo — 世界");
  EXPECT_EQ(json.str(), "\"héllo — 世界\"");
}

TEST(JsonWriterTest, NumberFormats) {
  JsonWriter json;
  json.BeginArray()
      .Value(int64_t{-9007199254740993})
      .Value(size_t{1234567890})
      .Value(0.5)
      .Value(false)
      .EndArray();
  EXPECT_EQ(json.str(), "[-9007199254740993,1234567890,0.5,false]");
}

TEST(JsonWriterTest, DoubleRoundTripsThroughTenSignificantDigits) {
  // %.10g keeps ten significant digits — enough that parsing the emitted
  // text recovers the value to bench-comparison precision.
  const double values[] = {3.141592653589793, 1e-9, 12345678.9, 0.1};
  for (const double v : values) {
    JsonWriter json;
    json.Value(v);
    const double parsed = std::strtod(json.str().c_str(), nullptr);
    EXPECT_NEAR(parsed, v, std::abs(v) * 1e-9) << json.str();
  }
}

TEST(JsonWriterTest, TopLevelScalarAndChaining) {
  JsonWriter json;
  json.Value("just a string");
  EXPECT_EQ(json.str(), R"("just a string")");

  JsonWriter chained;
  chained.BeginArray().Value(int64_t{1}).Value("two").Value(3.0).EndArray();
  EXPECT_EQ(chained.str(), R"([1,"two",3])");
}

}  // namespace
}  // namespace jim::util
