#include "util/json_reader.h"

#include <cerrno>
#include <cstdlib>

#include "util/string_util.h"

namespace jim::util {
namespace {

constexpr size_t kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    SkipWhitespace();
    JsonValue value;
    RETURN_IF_ERROR(ParseValue(0, value));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(std::string_view what) const {
    return InvalidArgumentError(
        StrFormat("json: %s at offset %zu", std::string(what).c_str(), pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(size_t depth, JsonValue& out) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        std::string s;
        RETURN_IF_ERROR(ParseString(s));
        out = JsonValue::Str(std::move(s));
        return OkStatus();
      }
      case 't':
        return ParseLiteral("true", JsonValue::Bool(true), out);
      case 'f':
        return ParseLiteral("false", JsonValue::Bool(false), out);
      case 'n':
        return ParseLiteral("null", JsonValue::Null(), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view word, JsonValue value, JsonValue& out) {
    if (text_.substr(pos_, word.size()) != word) {
      return Error("invalid literal");
    }
    pos_ += word.size();
    out = std::move(value);
    return OkStatus();
  }

  Status ParseObject(size_t depth, JsonValue& out) {
    ++pos_;  // '{'
    out = JsonValue::Object();
    auto& members = out.MutableObject();
    SkipWhitespace();
    if (Consume('}')) return OkStatus();
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected string key");
      }
      std::string key;
      RETURN_IF_ERROR(ParseString(key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      SkipWhitespace();
      JsonValue member;
      RETURN_IF_ERROR(ParseValue(depth + 1, member));
      members[std::move(key)] = std::move(member);
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return OkStatus();
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(size_t depth, JsonValue& out) {
    ++pos_;  // '['
    out = JsonValue::Array();
    auto& elements = out.MutableArray();
    SkipWhitespace();
    if (Consume(']')) return OkStatus();
    while (true) {
      SkipWhitespace();
      JsonValue element;
      RETURN_IF_ERROR(ParseValue(depth + 1, element));
      elements.push_back(std::move(element));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return OkStatus();
      return Error("expected ',' or ']'");
    }
  }

  Status ParseString(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return OkStatus();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          uint32_t cp = 0;
          RETURN_IF_ERROR(ParseHex4(cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require the paired low surrogate.
            if (!Consume('\\') || !Consume('u')) {
              return Error("unpaired surrogate");
            }
            uint32_t low = 0;
            RETURN_IF_ERROR(ParseHex4(low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
  }

  Status ParseHex4(uint32_t& out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      uint32_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
      out = (out << 4) | digit;
    }
    return OkStatus();
  }

  static void AppendUtf8(uint32_t cp, std::string& out) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseNumber(JsonValue& out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    if (pos_ >= text_.size() ||
        !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
      return Error("invalid number");
    }
    // JSON forbids leading zeros: "0" is fine, "01" is not.
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9') {
      return Error("invalid number");
    }
    bool integral = true;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        return Error("invalid number");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        return Error("invalid number");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      auto parsed = ParseInt64(token);
      if (parsed.ok()) {
        out = JsonValue::Int(*parsed);
        return OkStatus();
      }
      // Out-of-int64-range integral token: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || errno == ERANGE) {
      return Error("number out of range");
    }
    out = JsonValue::Double(d);
    return OkStatus();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Int(int64_t n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.int_valid_ = true;
  v.int_ = n;
  v.double_ = static_cast<double>(n);
  return v;
}

JsonValue JsonValue::Double(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.double_ = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::AsBool() const {
  if (!is_bool()) std::abort();
  return bool_;
}

int64_t JsonValue::AsInt64() const {
  if (!is_int()) std::abort();
  return int_;
}

const std::string& JsonValue::AsString() const {
  if (!is_string()) std::abort();
  return string_;
}

std::vector<JsonValue>& JsonValue::MutableArray() {
  if (!is_array()) std::abort();
  return array_;
}

std::map<std::string, JsonValue>& JsonValue::MutableObject() {
  if (!is_object()) std::abort();
  return object_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

std::string JsonValue::GetString(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_string()) return std::string(fallback);
  return member->AsString();
}

int64_t JsonValue::GetInt(std::string_view key, int64_t fallback) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_int()) return fallback;
  return member->AsInt64();
}

bool JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_bool()) return fallback;
  return member->AsBool();
}

StatusOr<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace jim::util
