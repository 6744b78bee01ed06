#include "harness/goal_oracle.h"

#include <vector>

namespace perfbench {

bool GoalSelectsTuple(const jim::core::TupleStore& store,
                      const jim::core::JoinPredicate& goal, size_t t) {
  std::vector<uint32_t> codes(store.num_attributes());
  store.TupleCodes(t, codes.data());
  return goal.SelectsCodes(codes.data());
}

}  // namespace perfbench
