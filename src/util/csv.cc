#include "util/csv.h"

#include <fstream>
#include <sstream>

namespace jim::util {

StatusOr<std::vector<std::vector<std::string>>> ParseCsv(
    std::string_view content, char delim) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  bool field_was_quoted = false;
  bool any_char_in_record = false;

  auto end_field = [&]() {
    fields.push_back(std::move(current));
    current.clear();
    field_was_quoted = false;
  };
  auto end_record = [&]() {
    end_field();
    records.push_back(std::move(fields));
    fields.clear();
    any_char_in_record = false;
  };

  // Skip a UTF-8 byte-order mark.
  if (content.size() >= 3 && content[0] == '\xEF' && content[1] == '\xBB' &&
      content[2] == '\xBF') {
    content.remove_prefix(3);
  }

  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < content.size() && content[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
      any_char_in_record = true;
      continue;
    }
    if (c == '"') {
      if (!current.empty() || field_was_quoted) {
        return InvalidArgumentError(
            "unexpected quote inside unquoted CSV field");
      }
      in_quotes = true;
      field_was_quoted = true;
      any_char_in_record = true;
    } else if (c == delim) {
      end_field();
      any_char_in_record = true;
    } else if (c == '\r' && i + 1 < content.size() && content[i + 1] == '\n') {
      // Normalized below by the '\n' branch.
      continue;
    } else if (c == '\n') {
      end_record();
    } else {
      current.push_back(c);
      any_char_in_record = true;
    }
  }
  if (in_quotes) {
    return InvalidArgumentError("unterminated quoted CSV field");
  }
  // Emit the final record unless the input ended with a newline and the
  // trailing record is completely empty.
  if (any_char_in_record || !fields.empty()) end_record();
  return records;
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return NotFoundError("cannot open file: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

}  // namespace jim::util
