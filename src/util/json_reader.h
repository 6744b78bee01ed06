#ifndef JIM_UTIL_JSON_READER_H_
#define JIM_UTIL_JSON_READER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/status.h"

namespace jim::util {

/// A parsed JSON document. The serving protocol (src/serve/) is
/// newline-delimited JSON, so the repo needs a reader to pair with
/// util::JsonWriter; this one is deliberately small: recursive descent,
/// typed kInvalidArgument errors naming the offset, objects backed by a
/// std::map.
///
/// An integral number token that fits int64 reports is_int() and AsInt64().
/// The protocol reads no other number and no array element, so those are
/// parsed and validated but not stored: any other number is a bare
/// is_number(), and an array a bare is_array().
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Int(int64_t n);
  /// A number that is not an int64 (fractional, exponent or out of range).
  static JsonValue Number();
  static JsonValue Str(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_int() const { return kind_ == Kind::kNumber && int_valid_; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; calling one against the wrong kind aborts (programming
  /// error, same contract as StatusOr::value).
  bool AsBool() const;
  int64_t AsInt64() const;
  const std::string& AsString() const;

  std::map<std::string, JsonValue>& MutableObject();

  /// Object member lookup: nullptr when absent or when this is not an
  /// object. The pointer is into this value — do not outlive it.
  const JsonValue* Find(std::string_view key) const;

  /// Convenience lookups with defaults, for flat request/response objects.
  /// A present-but-wrong-kind member returns the fallback too; protocol
  /// code that must distinguish uses Find().
  std::string GetString(std::string_view key, std::string_view fallback) const;
  int64_t GetInt(std::string_view key, int64_t fallback) const;
  bool GetBool(std::string_view key, bool fallback) const;

 private:
  Kind kind_;
  bool bool_ = false;
  bool int_valid_ = false;
  int64_t int_ = 0;
  std::string string_;
  std::map<std::string, JsonValue> object_;
};

/// Parses one JSON document; the whole input (modulo surrounding
/// whitespace) must be consumed. Errors are kInvalidArgument naming the
/// byte offset. Nesting deeper than 64 levels is rejected.
StatusOr<JsonValue> ParseJson(std::string_view text);

}  // namespace jim::util

#endif  // JIM_UTIL_JSON_READER_H_
