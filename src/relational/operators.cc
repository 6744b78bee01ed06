#include "relational/operators.h"

namespace jim::rel {

Relation Select(const Relation& input, const RowPredicate& predicate,
                std::string result_name) {
  Relation result{result_name.empty() ? input.name() : std::move(result_name),
                  input.schema()};
  for (const Tuple& row : input.rows()) {
    if (predicate(row)) result.AddRowUnchecked(row);
  }
  return result;
}

Relation RenameRelation(const Relation& input, std::string new_name) {
  std::vector<Attribute> attributes = input.schema().attributes();
  for (Attribute& attribute : attributes) {
    attribute.qualifier = new_name;
  }
  Relation result{std::move(new_name), Schema(std::move(attributes))};
  result.Reserve(input.num_rows());
  for (const Tuple& row : input.rows()) {
    result.AddRowUnchecked(row);
  }
  return result;
}

}  // namespace jim::rel
