#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace jim::util {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(input.substr(start));
      break;
    }
    parts.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result.append(sep);
    result.append(parts[i]);
  }
  return result;
}

std::string_view StripWhitespace(std::string_view input) {
  size_t begin = 0;
  while (begin < input.size() &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  size_t end = input.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string ToLower(std::string_view input) {
  std::string result(input);
  for (char& c : result) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return result;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string result;
  if (needed > 0) {
    result.resize(static_cast<size_t>(needed));
    std::vsnprintf(result.data(), result.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return result;
}

StatusOr<int64_t> ParseInt64(std::string_view text) {
  std::string buffer(StripWhitespace(text));
  if (buffer.empty()) {
    return InvalidArgumentError("cannot parse empty string as int64");
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buffer.c_str(), &end, 10);
  if (errno == ERANGE) {
    return OutOfRangeError("int64 out of range: '" + buffer + "'");
  }
  if (end != buffer.c_str() + buffer.size()) {
    return InvalidArgumentError("trailing characters in int64: '" + buffer + "'");
  }
  return static_cast<int64_t>(value);
}

StatusOr<double> ParseDouble(std::string_view text) {
  std::string buffer(StripWhitespace(text));
  if (buffer.empty()) {
    return InvalidArgumentError("cannot parse empty string as double");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (errno == ERANGE) {
    return OutOfRangeError("double out of range: '" + buffer + "'");
  }
  if (end != buffer.c_str() + buffer.size()) {
    return InvalidArgumentError("trailing characters in double: '" + buffer + "'");
  }
  return value;
}

std::string FormatDouble(double value) {
  std::string text = StrFormat("%.6g", value);
  return text;
}

}  // namespace jim::util
