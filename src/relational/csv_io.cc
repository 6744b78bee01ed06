#include "relational/csv_io.h"

#include "util/csv.h"
#include "util/string_util.h"

namespace jim::rel {

namespace {

ValueType InferColumnType(const std::vector<std::vector<std::string>>& records,
                          size_t column) {
  bool all_int = true;
  bool all_double = true;
  bool any_value = false;
  for (size_t r = 1; r < records.size(); ++r) {
    if (column >= records[r].size()) continue;
    const std::string& field = records[r][column];
    if (field.empty()) continue;
    any_value = true;
    if (all_int && !util::ParseInt64(field).ok()) all_int = false;
    if (all_double && !util::ParseDouble(field).ok()) all_double = false;
    if (!all_int && !all_double) break;
  }
  if (!any_value) return ValueType::kString;
  if (all_int) return ValueType::kInt64;
  if (all_double) return ValueType::kDouble;
  return ValueType::kString;
}

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  return base;
}

}  // namespace

util::StatusOr<Relation> RelationFromCsv(std::string_view name,
                                         std::string_view csv_content,
                                         char delim) {
  auto records = util::ParseCsv(csv_content, delim);
  if (!records.ok()) return records.status();
  if (records->empty()) {
    return util::InvalidArgumentError("CSV has no header record");
  }
  const std::vector<std::string>& header = (*records)[0];

  std::vector<Attribute> attributes;
  attributes.reserve(header.size());
  for (size_t c = 0; c < header.size(); ++c) {
    std::string column_name(util::StripWhitespace(header[c]));
    if (column_name.empty()) {
      return util::InvalidArgumentError(
          util::StrFormat("empty attribute name in CSV column %zu", c));
    }
    attributes.push_back(
        Attribute{std::move(column_name), InferColumnType(*records, c), ""});
  }

  Relation relation{std::string(name), Schema(std::move(attributes))};
  relation.Reserve(records->size() - 1);
  for (size_t r = 1; r < records->size(); ++r) {
    const auto& record = (*records)[r];
    if (record.size() != header.size()) {
      return util::InvalidArgumentError(util::StrFormat(
          "CSV record %zu has %zu fields, header has %zu", r, record.size(),
          header.size()));
    }
    Tuple row;
    row.reserve(record.size());
    for (size_t c = 0; c < record.size(); ++c) {
      row.push_back(ParseValueAs(record[c], relation.schema().attribute(c).type));
    }
    RETURN_IF_ERROR(relation.AddRow(std::move(row)));
  }
  return relation;
}

util::StatusOr<Relation> LoadRelationFromCsvFile(const std::string& path,
                                                 std::string_view name,
                                                 char delim) {
  ASSIGN_OR_RETURN(std::string content, util::ReadFileToString(path));
  const std::string relation_name =
      name.empty() ? Basename(path) : std::string(name);
  return RelationFromCsv(relation_name, content, delim);
}

}  // namespace jim::rel
