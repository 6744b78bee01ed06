#include "lattice/enumeration.h"

#include <algorithm>

#include "util/logging.h"

namespace jim::lat {

namespace {

/// Visits every restricted growth string of length n (each encodes one set
/// partition). Returns false iff the visitor stopped the enumeration.
bool VisitRgs(size_t n, const std::function<bool(const std::vector<int>&)>& visitor) {
  if (n == 0) {
    return visitor({});
  }
  std::vector<int> rgs(n, 0);
  // prefix_max[i] = max(rgs[0..i]); rgs[i] may range over [0, prefix_max[i-1]+1].
  std::vector<int> prefix_max(n, 0);
  while (true) {
    if (!visitor(rgs)) return false;
    // Find the rightmost position that can be incremented
    // (rgs[i] may grow up to prefix_max[i-1] + 1; rgs[0] is fixed at 0).
    bool advanced = false;
    for (size_t i = n; i > 1;) {
      --i;
      if (rgs[i] <= prefix_max[i - 1]) {
        ++rgs[i];
        prefix_max[i] = std::max(prefix_max[i - 1], rgs[i]);
        for (size_t j = i + 1; j < n; ++j) {
          rgs[j] = 0;
          prefix_max[j] = prefix_max[i];
        }
        advanced = true;
        break;
      }
    }
    if (!advanced) return true;  // enumeration exhausted
  }
}

}  // namespace

uint64_t BellNumber(size_t n) {
  JIM_CHECK_LE(n, size_t{25});
  // Bell triangle.
  std::vector<uint64_t> row = {1};
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint64_t> next;
    next.reserve(row.size() + 1);
    next.push_back(row.back());
    for (uint64_t value : row) {
      next.push_back(next.back() + value);
    }
    row = std::move(next);
  }
  return row.front();
}

bool VisitAllPartitions(size_t n,
                        const std::function<bool(const Partition&)>& visitor) {
  return VisitRgs(n, [&visitor](const std::vector<int>& rgs) {
    return visitor(Partition::FromLabels(rgs));
  });
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

}  // namespace jim::lat
