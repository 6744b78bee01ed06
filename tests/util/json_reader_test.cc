// util::ParseJson is the daemon's request parser: every byte a client can
// send flows through it, so it must accept exactly JSON and fail typed on
// everything else — no crash, no silent coercion.

#include "util/json_reader.h"

#include <string>

#include "gtest/gtest.h"
#include "util/json_writer.h"

namespace jim::util {
namespace {

TEST(JsonReaderTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->AsBool());
  EXPECT_FALSE(ParseJson("false")->AsBool());
  EXPECT_EQ(ParseJson("42")->AsInt64(), 42);
  EXPECT_EQ(ParseJson("-7")->AsInt64(), -7);
  EXPECT_TRUE(ParseJson("2.5")->is_number());
  EXPECT_TRUE(ParseJson("1e3")->is_number());
  EXPECT_EQ(ParseJson("\"hi\"")->AsString(), "hi");
}

TEST(JsonReaderTest, IntegerAndDoubleViewsAgree) {
  JsonValue v = ParseJson("42").value();
  EXPECT_TRUE(v.is_int());
  EXPECT_TRUE(v.is_number());
  JsonValue d = ParseJson("42.5").value();
  EXPECT_FALSE(d.is_int());
  EXPECT_TRUE(d.is_number());
}

TEST(JsonReaderTest, ParsesNestedContainers) {
  auto parsed = ParseJson(
      R"({"a":[1,2,{"b":"c"}],"d":{"e":null},"f":true})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& root = *parsed;
  ASSERT_TRUE(root.is_object());
  const JsonValue* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->is_array());
  EXPECT_TRUE(root.Find("d")->Find("e")->is_null());
  EXPECT_TRUE(root.GetBool("f", false));
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(JsonReaderTest, StringEscapes) {
  EXPECT_EQ(ParseJson(R"("a\"b\\c\/d\n\t\r\b\f")")->AsString(),
            "a\"b\\c/d\n\t\r\b\f");
  // \uXXXX including a surrogate pair (𝄞 = U+1D11E).
  EXPECT_EQ(ParseJson(R"("\u0041\u00e9\u20ac")")->AsString(),
            "A\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(ParseJson(R"("\ud834\udd1e")")->AsString(),
            "\xF0\x9D\x84\x9E");
}

TEST(JsonReaderTest, GetHelpersFallBack) {
  JsonValue v = ParseJson(R"({"s":"x","n":3,"b":true})").value();
  EXPECT_EQ(v.GetString("s", "d"), "x");
  EXPECT_EQ(v.GetString("missing", "d"), "d");
  EXPECT_EQ(v.GetInt("n", 9), 3);
  EXPECT_EQ(v.GetInt("missing", 9), 9);
  EXPECT_TRUE(v.GetBool("b", false));
  // Wrong kind falls back rather than aborting.
  EXPECT_EQ(v.GetInt("s", 9), 9);
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "   ", "{", "[1,", "tru", "01", "1.", "+1", "\"unterminated",
        "\"bad\\q\"", "{\"a\"}", "{\"a\":1,}", "[1 2]", "nullx", "1 2",
        "{\"a\":}", "\"\\ud834\"", "\"\x01\""}) {
    auto parsed = ParseJson(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
}

TEST(JsonReaderTest, RejectsPathologicalNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  auto parsed = ParseJson(deep);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(JsonReaderTest, RoundTripsJsonWriterOutput) {
  JsonWriter writer;
  writer.BeginObject();
  writer.KeyValue("ok", true);
  writer.KeyValue("n", int64_t{-12});
  writer.KeyValue("s", "a \"quoted\" value\nline two");
  writer.Key("list");
  writer.BeginArray();
  writer.Value(int64_t{1});
  writer.Value("two");
  writer.EndArray();
  writer.EndObject();
  auto parsed = ParseJson(writer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->GetBool("ok", false));
  EXPECT_EQ(parsed->GetInt("n", 0), -12);
  EXPECT_EQ(parsed->GetString("s", ""), "a \"quoted\" value\nline two");
  EXPECT_TRUE(parsed->Find("list")->is_array());
}

}  // namespace
}  // namespace jim::util
