#include "support/materialize.h"

#include <string>
#include <unordered_set>

namespace jim::rel {

Relation Deduplicated(const Relation& relation) {
  Relation kept{relation.name(), relation.schema()};
  std::unordered_set<std::string> seen;
  for (const Tuple& row : relation.rows()) {
    if (seen.insert(TupleRepresentationKey(row)).second) {
      kept.AddRowUnchecked(row);
    }
  }
  return kept;
}

}  // namespace jim::rel

namespace jim::query {

rel::Relation Materialize(const UniversalTable& table) {
  const core::TupleStore& store = *table.store();
  rel::Relation relation{"universal", store.schema()};
  relation.Reserve(store.num_tuples());
  for (size_t t = 0; t < store.num_tuples(); ++t) {
    relation.AddRowUnchecked(store.DecodeTuple(t));
  }
  return relation;
}

}  // namespace jim::query
