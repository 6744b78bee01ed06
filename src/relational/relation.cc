#include "relational/relation.h"

#include <algorithm>

#include "util/string_util.h"
#include "util/table_printer.h"

namespace jim::rel {

util::Status Relation::AddRow(Tuple row) {
  if (row.size() != schema_.num_attributes()) {
    return util::InvalidArgumentError(util::StrFormat(
        "row arity %zu does not match schema arity %zu of relation '%s'",
        row.size(), schema_.num_attributes(), name_.c_str()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null() && row[i].type() != schema_.attribute(i).type) {
      return util::InvalidArgumentError(util::StrFormat(
          "value of type %s in column '%s' of type %s",
          std::string(ValueTypeToString(row[i].type())).c_str(),
          schema_.attribute(i).QualifiedName().c_str(),
          std::string(ValueTypeToString(schema_.attribute(i).type)).c_str()));
    }
  }
  rows_.push_back(std::move(row));
  return util::OkStatus();
}

std::string TupleRepresentationKey(const Tuple& tuple) {
  std::string key;
  for (const Value& value : tuple) {
    // Each field is length-prefixed so the key is unambiguous even when a
    // string payload contains the separator characters: concatenating the
    // keys of two tuples equals the key of the concatenated tuple, which is
    // what lets the factorized universal table dedup per source and still
    // match a whole-tuple dedup byte for byte.
    const std::string payload = value.ToString();
    key += static_cast<char>('0' + static_cast<int>(value.type()));
    key += std::to_string(payload.size());
    key.push_back(':');
    key += payload;
  }
  return key;
}

std::string Relation::ToString(size_t max_rows) const {
  util::TablePrinter printer(schema_.Names());
  const size_t limit = std::min(max_rows, rows_.size());
  for (size_t r = 0; r < limit; ++r) {
    std::vector<std::string> cells;
    cells.reserve(rows_[r].size());
    for (const Value& value : rows_[r]) {
      cells.push_back(value.ToString());
    }
    printer.AddRow(std::move(cells));
  }
  std::string out = name_.empty() ? "" : (name_ + " " + schema_.ToString() + "\n");
  out += printer.ToString();
  if (limit < rows_.size()) {
    out += util::StrFormat("... (%zu more rows)\n", rows_.size() - limit);
  }
  return out;
}

}  // namespace jim::rel
