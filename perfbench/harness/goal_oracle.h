#ifndef PERFBENCH_HARNESS_GOAL_ORACLE_H_
#define PERFBENCH_HARNESS_GOAL_ORACLE_H_

#include <cstddef>

#include "core/join_predicate.h"
#include "core/tuple_store.h"

namespace perfbench {

/// The simulated user: answers "is tuple `t` of `store` in the result of my
/// goal?" from the tuple's dictionary codes, without decoding a value.
bool GoalSelectsTuple(const jim::core::TupleStore& store,
                      const jim::core::JoinPredicate& goal, size_t t);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_GOAL_ORACLE_H_
