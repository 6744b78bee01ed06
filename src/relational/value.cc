#include "relational/value.h"

#include <functional>

#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace jim::rel {

std::string_view ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

bool Value::Equals(const Value& other) const {
  if (type() != other.type()) return false;
  switch (type()) {
    case ValueType::kNull:
      return false;  // SQL semantics: NULL = NULL is not true.
    case ValueType::kInt64:
      return AsInt64() == other.AsInt64();
    case ValueType::kDouble:
      return AsDouble() == other.AsDouble();
    case ValueType::kString:
      return AsString() == other.AsString();
  }
  return false;
}

size_t Value::Hash() const {
  size_t seed = static_cast<size_t>(type());
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      util::HashCombine(seed, AsInt64());
      break;
    case ValueType::kDouble:
      util::HashCombine(seed, AsDouble());
      break;
    case ValueType::kString:
      util::HashCombine(seed, AsString());
      break;
  }
  return seed;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble:
      return util::FormatDouble(AsDouble());
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

Value ParseValueAs(std::string_view text, ValueType type) {
  if (text.empty()) return Value::Null();
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt64: {
      auto parsed = util::ParseInt64(text);
      JIM_CHECK(parsed.ok()) << "not an int64: '" << std::string(text) << "'";
      return Value(*parsed);
    }
    case ValueType::kDouble: {
      auto parsed = util::ParseDouble(text);
      JIM_CHECK(parsed.ok()) << "not a double: '" << std::string(text) << "'";
      return Value(*parsed);
    }
    case ValueType::kString:
      return Value(std::string(text));
  }
  return Value::Null();
}

}  // namespace jim::rel
