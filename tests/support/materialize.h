#ifndef JIM_TESTS_SUPPORT_MATERIALIZE_H_
#define JIM_TESTS_SUPPORT_MATERIALIZE_H_

#include "query/universal_table.h"
#include "relational/relation.h"

namespace jim::rel {

/// `relation` without its duplicate rows (by rel::TupleRepresentationKey:
/// NULLs count as identical here, unlike join semantics). Keeps first
/// occurrences in order.
Relation Deduplicated(const Relation& relation);

}  // namespace jim::rel

namespace jim::query {

/// Decodes every candidate tuple of `table` into a Relation named
/// "universal" — the O(N·n) rows the factorized store exists to avoid,
/// which the parity suites compare against the historical materializing
/// builder.
rel::Relation Materialize(const UniversalTable& table);

}  // namespace jim::query

#endif  // JIM_TESTS_SUPPORT_MATERIALIZE_H_
