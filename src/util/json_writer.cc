#include "util/json_writer.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace jim::util {

void JsonWriter::MaybeComma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (need_comma_) out_.push_back(',');
}

void JsonWriter::Escape(std::string_view text) {
  out_.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\r':
        out_ += "\\r";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out_ += StrFormat("\\u%04x", c);
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_.push_back('{');
  stack_.push_back('o');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  JIM_CHECK(!stack_.empty() && stack_.back() == 'o');
  stack_.pop_back();
  out_.push_back('}');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_.push_back('[');
  stack_.push_back('a');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  JIM_CHECK(!stack_.empty() && stack_.back() == 'a');
  stack_.pop_back();
  out_.push_back(']');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view name) {
  JIM_CHECK(!stack_.empty() && stack_.back() == 'o');
  MaybeComma();
  Escape(name);
  out_.push_back(':');
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view text) {
  MaybeComma();
  Escape(text);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(const char* text) {
  return Value(std::string_view(text));
}

JsonWriter& JsonWriter::Value(int64_t number) {
  MaybeComma();
  out_ += std::to_string(number);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(size_t number) {
  return Value(static_cast<int64_t>(number));
}

JsonWriter& JsonWriter::Value(double number) {
  MaybeComma();
  out_ += StrFormat("%.10g", number);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(bool flag) {
  MaybeComma();
  out_ += flag ? "true" : "false";
  need_comma_ = true;
  return *this;
}

}  // namespace jim::util
