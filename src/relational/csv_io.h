#ifndef JIM_RELATIONAL_CSV_IO_H_
#define JIM_RELATIONAL_CSV_IO_H_

#include <string>
#include <string_view>

#include "relational/relation.h"
#include "util/status.h"

namespace jim::rel {

/// Builds a relation from CSV text. The first record is the header (attribute
/// names). Column types are inferred: a column where every non-empty field
/// parses as an integer is INT64; else if every non-empty field parses as a
/// number it is DOUBLE; otherwise STRING. Empty fields load as NULL.
util::StatusOr<Relation> RelationFromCsv(std::string_view name,
                                         std::string_view csv_content,
                                         char delim = ',');

/// Loads a relation from a CSV file; the relation name defaults to the file
/// basename without extension when `name` is empty.
util::StatusOr<Relation> LoadRelationFromCsvFile(const std::string& path,
                                                 std::string_view name = "",
                                                 char delim = ',');

}  // namespace jim::rel

#endif  // JIM_RELATIONAL_CSV_IO_H_
