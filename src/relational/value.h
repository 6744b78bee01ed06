#ifndef JIM_RELATIONAL_VALUE_H_
#define JIM_RELATIONAL_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

namespace jim::rel {

/// Runtime type of a Value.
enum class ValueType { kNull = 0, kInt64 = 1, kDouble = 2, kString = 3 };

std::string_view ValueTypeToString(ValueType type);

/// A dynamically typed SQL-style value: NULL, INT64, DOUBLE, or STRING.
///
/// Equality is *strict*: values of different types never compare equal
/// (columns get a single inferred type on load, so cross-type joins are not
/// meaningful), and NULL ≠ NULL, matching SQL join semantics — a tuple never
/// satisfies an equality on NULLs.
class Value {
 public:
  /// NULL value.
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }

  ValueType type() const {
    return static_cast<ValueType>(data_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }

  /// Payload accessors. Calling the wrong one aborts (programming error).
  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Strict typed equality; NULL is not equal to anything, itself included.
  bool Equals(const Value& other) const;

  size_t Hash() const;

  /// Unquoted rendering ("NULL", "42", "3.14", "Paris").
  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) { return a.Equals(b); }

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Parses `text` as the given type. Empty text parses as NULL.
/// Returns NULL (not an error) for empty strings of any type.
Value ParseValueAs(std::string_view text, ValueType type);

}  // namespace jim::rel

#endif  // JIM_RELATIONAL_VALUE_H_
