#ifndef JIM_UTIL_CSV_H_
#define JIM_UTIL_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace jim::util {

/// RFC-4180-style CSV support: fields containing the delimiter, quotes, or
/// newlines are double-quoted; embedded quotes are doubled ("").

/// Parses a whole document. Handles quoted fields spanning multiple lines.
/// Skips a UTF-8 BOM and ignores a final empty line.
StatusOr<std::vector<std::vector<std::string>>> ParseCsv(
    std::string_view content, char delim = ',');

/// Reads an entire file into a string.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace jim::util

#endif  // JIM_UTIL_CSV_H_
