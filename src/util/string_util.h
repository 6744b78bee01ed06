#ifndef JIM_UTIL_STRING_UTIL_H_
#define JIM_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace jim::util {

/// Splits `input` on `delim`. Empty fields are preserved:
/// Split("a,,b", ',') == {"a", "", "b"}; Split("", ',') == {""}.
std::vector<std::string> Split(std::string_view input, char delim);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view input);

/// ASCII lower-casing.
std::string ToLower(std::string_view input);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Strict integer / double parsing: the whole string must be consumed.
StatusOr<int64_t> ParseInt64(std::string_view text);
StatusOr<double> ParseDouble(std::string_view text);

/// Formats a double compactly (up to 6 significant digits, no trailing
/// zeros), matching how values print in examples and bench tables.
std::string FormatDouble(double value);

}  // namespace jim::util

#endif  // JIM_UTIL_STRING_UTIL_H_
