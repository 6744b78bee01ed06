#ifndef JIM_RELATIONAL_OPERATORS_H_
#define JIM_RELATIONAL_OPERATORS_H_

#include <functional>
#include <string>

#include "relational/relation.h"

namespace jim::rel {

/// Row predicate used by Select.
using RowPredicate = std::function<bool(const Tuple&)>;

/// σ: rows of `input` satisfying `predicate`, same schema.
Relation Select(const Relation& input, const RowPredicate& predicate,
                std::string result_name = "");

/// ρ: a copy with a new relation name and all attributes requalified to it.
Relation RenameRelation(const Relation& input, std::string new_name);

}  // namespace jim::rel

#endif  // JIM_RELATIONAL_OPERATORS_H_
