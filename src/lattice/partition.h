#ifndef JIM_LATTICE_PARTITION_H_
#define JIM_LATTICE_PARTITION_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace jim::lat {

/// A partition of {0, 1, ..., n-1}, the canonical form of an equi-join
/// predicate over n attributes (two attributes in the same block must carry
/// equal values).
///
/// Internally stored as a restricted growth string (RGS): `block_of[i]` is
/// the id of element i's block, and ids are assigned in order of first
/// occurrence (block_of[0] == 0, and block_of[i] <= 1 + max of the prefix).
/// The RGS is a canonical form: two partitions are equal iff their RGS
/// vectors are equal, which makes hashing and ordering trivial.
///
/// Partitions of a fixed n form a lattice under refinement:
///   p ≤ q  ("p refines q")  ⇔  every block of p is contained in a block of q.
/// In join-predicate terms, coarser = more equality constraints = selects
/// fewer tuples; the bottom (all singletons) is the empty predicate.
class Partition {
 public:
  /// The partition of the empty set (n = 0).
  Partition() = default;

  /// Coarsest partition: one block (all attributes pairwise equal).
  static Partition Top(size_t n);

  /// From an arbitrary block-id labeling (normalized internally).
  static Partition FromLabels(const std::vector<int>& labels);

  /// Finest partition in which each given (i, j) pair is co-block; the
  /// transitive closure is taken automatically. Pairs must be within range.
  static util::StatusOr<Partition> FromPairs(
      size_t n, const std::vector<std::pair<size_t, size_t>>& pairs);

  size_t num_elements() const { return block_of_.size(); }
  size_t num_blocks() const { return num_blocks_; }

  /// Block id of element `i` (ids are 0..num_blocks()-1, in order of first
  /// occurrence).
  int block_of(size_t i) const { return block_of_[i]; }

  /// Number of merges relative to the singleton partition:
  /// rank = n - num_blocks. 0 for the bottom, n-1 for the top. This is the
  /// lattice-theoretic rank function used by the local strategies.
  size_t Rank() const { return block_of_.size() - num_blocks_; }

  /// True iff this partition refines `other` (this ≤ other): every block of
  /// *this is contained in a block of `other`. Requires equal n.
  bool Refines(const Partition& other) const;

  /// Meet: the coarsest common refinement (intersection of the equivalence
  /// relations): the knowledge K_t = θ_P ∧ Part(t) a label on t carries.
  /// Requires equal n.
  Partition Meet(const Partition& other) const;

  /// Join: the finest common coarsening (transitive closure of the union of
  /// the equivalence relations). Requires equal n.
  Partition Join(const Partition& other) const;

  /// Blocks in canonical order (by smallest member); members ascending.
  std::vector<std::vector<size_t>> Blocks() const;

  /// A minimal set of pairs generating this partition (spanning-tree pairs
  /// per block): what a human would write in a WHERE clause.
  std::vector<std::pair<size_t, size_t>> GeneratorPairs() const;

  /// True iff all blocks are singletons (the empty predicate).
  bool IsSingletons() const { return num_blocks_ == block_of_.size(); }

  /// Invariant audit (see util/check.h): JIM_CHECK-fails unless block_of_ is
  /// a well-formed restricted growth string and the cached num_blocks_ /
  /// fingerprint_ match a from-scratch recompute. O(n); callable from tests
  /// and from JIM_AUDIT sites.
  void CheckInvariants() const;

  /// e.g. "{0,3|1|2,4}". Stable canonical rendering.
  std::string ToString() const;

  /// The raw restricted growth string.
  const std::vector<int>& labels() const { return block_of_; }

  friend bool operator==(const Partition& a, const Partition& b) {
    return a.fingerprint_ == b.fingerprint_ && a.block_of_ == b.block_of_;
  }
  friend bool operator!=(const Partition& a, const Partition& b) {
    return !(a == b);
  }

 private:
  explicit Partition(std::vector<int> canonical_labels);

  static std::vector<int> Canonicalize(const std::vector<int>& labels);

  std::vector<int> block_of_;
  size_t num_blocks_ = 0;
  /// 64-bit content hash, computed once at construction (FNV-1a over the
  /// canonical RGS, length-seeded): equal partitions have equal
  /// fingerprints, so a mismatch rejects equality in O(1).
  uint64_t fingerprint_ = 0xcbf29ce484222325ull;  // fingerprint of empty RGS
};

}  // namespace jim::lat

#endif  // JIM_LATTICE_PARTITION_H_
