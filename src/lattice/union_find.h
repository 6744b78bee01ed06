#ifndef JIM_LATTICE_UNION_FIND_H_
#define JIM_LATTICE_UNION_FIND_H_

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

namespace jim::lat {

/// Disjoint-set forest with union by size and path compression.
///
/// Backs the partition join operation (finest common coarsening) and the
/// transitive-closure step when building predicates from attribute pairs.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  /// Representative of the set containing `x`.
  size_t Find(size_t x) {
    size_t root = x;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[x] != root) {
      size_t next = parent_[x];
      parent_[x] = root;
      x = next;
    }
    return root;
  }

  /// Merges the sets of `a` and `b`; returns true if they were distinct.
  bool Union(size_t a, size_t b) {
    size_t ra = Find(a);
    size_t rb = Find(b);
    if (ra == rb) return false;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    return true;
  }

  bool Connected(size_t a, size_t b) { return Find(a) == Find(b); }

 private:
  std::vector<size_t> parent_;
  std::vector<size_t> size_;
};

}  // namespace jim::lat

#endif  // JIM_LATTICE_UNION_FIND_H_
