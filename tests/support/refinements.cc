#include "support/refinements.h"

#include <vector>

#include "lattice/enumeration.h"
#include "support/core_views.h"
#include "util/logging.h"

namespace jim::lat {

Partition Singletons(size_t n) {
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i);
  return Partition::FromLabels(labels);
}

std::vector<Partition> AllPartitions(size_t n) {
  JIM_CHECK_LE(n, size_t{12});
  std::vector<Partition> out;
  out.reserve(BellNumber(n));
  VisitAllPartitions(n, [&out](const Partition& p) {
    out.push_back(p);
    return true;
  });
  return out;
}

bool VisitRefinements(const Partition& p,
                      const std::function<bool(const Partition&)>& visitor) {
  const auto blocks = p.Blocks();
  std::vector<int> labels(p.num_elements(), 0);

  // Recursively choose a partition of each block; label offsets keep the
  // blocks of distinct p-blocks distinct in the combined labeling.
  std::function<bool(size_t, int)> recurse = [&](size_t block_index,
                                                 int label_offset) -> bool {
    if (block_index == blocks.size()) {
      return visitor(Partition::FromLabels(labels));
    }
    const std::vector<size_t>& block = blocks[block_index];
    return VisitAllPartitions(block.size(), [&](const Partition& split) {
      for (size_t k = 0; k < block.size(); ++k) {
        labels[block[k]] = label_offset + split.labels()[k];
      }
      return recurse(block_index + 1,
                     label_offset + static_cast<int>(split.num_blocks()));
    });
  };
  return recurse(0, 0);
}

uint64_t CountRefinements(const Partition& p) {
  uint64_t count = 1;
  for (const auto& block : p.Blocks()) {
    count *= BellNumber(block.size());
  }
  return count;
}

}  // namespace jim::lat

namespace jim::core {

uint64_t CountConsistent(const InferenceState& state, uint64_t limit) {
  const lat::Partition theta_p = state.theta_p();
  JIM_CHECK_LE(lat::CountRefinements(theta_p), limit);
  uint64_t count = 0;
  lat::VisitRefinements(theta_p, [&](const lat::Partition& q) {
    if (IsConsistent(state, q)) ++count;
    return true;
  });
  return count;
}

}  // namespace jim::core
