#ifndef JIM_UTIL_JSON_WRITER_H_
#define JIM_UTIL_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace jim::util {

/// Streaming JSON emitter used to dump machine-readable bench results
/// alongside the human-readable tables. Produces compact, valid JSON;
/// nesting is the caller's responsibility (unbalanced Begin/End pairs are
/// caught by a depth check in End*).
class JsonWriter {
 public:
  JsonWriter() = default;

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits the key of a key/value pair inside an object.
  JsonWriter& Key(std::string_view name);

  JsonWriter& Value(std::string_view text);
  JsonWriter& Value(const char* text);
  JsonWriter& Value(int64_t number);
  JsonWriter& Value(size_t number);
  JsonWriter& Value(double number);
  JsonWriter& Value(bool flag);

  /// Shorthand: Key(name) then Value(v).
  template <typename T>
  JsonWriter& KeyValue(std::string_view name, const T& v) {
    Key(name);
    return Value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void MaybeComma();
  void Escape(std::string_view text);

  std::string out_;
  // Tracks whether a value has been written at each nesting level.
  std::string stack_;  // 'o' = object, 'a' = array
  bool need_comma_ = false;
  bool after_key_ = false;
};

}  // namespace jim::util

#endif  // JIM_UTIL_JSON_WRITER_H_
