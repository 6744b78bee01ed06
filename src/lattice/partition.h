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

  /// Finest partition: n singleton blocks (the empty join predicate).
  static Partition Singletons(size_t n);

  /// Coarsest partition: one block (all attributes pairwise equal).
  static Partition Top(size_t n);

  /// From an arbitrary block-id labeling (normalized internally).
  static Partition FromLabels(const std::vector<int>& labels);

  /// Finest partition in which each given (i, j) pair is co-block; the
  /// transitive closure is taken automatically. Pairs must be within range.
  static util::StatusOr<Partition> FromPairs(
      size_t n, const std::vector<std::pair<size_t, size_t>>& pairs);

  /// From explicit blocks. Every element of {0..n-1} must appear exactly
  /// once across `blocks` (empty blocks are rejected).
  static util::StatusOr<Partition> FromBlocks(
      size_t n, const std::vector<std::vector<size_t>>& blocks);

  size_t num_elements() const { return block_of_.size(); }
  size_t num_blocks() const { return num_blocks_; }

  /// Block id of element `i` (ids are 0..num_blocks()-1, in order of first
  /// occurrence).
  int block_of(size_t i) const { return block_of_[i]; }

  /// Number of merges relative to the singleton partition:
  /// rank = n - num_blocks. 0 for the bottom, n-1 for the top. This is the
  /// lattice-theoretic rank function used by the local strategies.
  size_t Rank() const { return block_of_.size() - num_blocks_; }

  bool SameBlock(size_t i, size_t j) const {
    return block_of_[i] == block_of_[j];
  }

  /// True iff this partition refines `other` (this ≤ other): every block of
  /// *this is contained in a block of `other`. Requires equal n.
  bool Refines(const Partition& other) const;

  /// Proper refinement: Refines(other) && *this != other.
  bool StrictlyRefines(const Partition& other) const;

  /// Meet: the coarsest common refinement (intersection of the equivalence
  /// relations): the knowledge K_t = θ_P ∧ Part(t) a label on t carries.
  /// Requires equal n.
  Partition Meet(const Partition& other) const;

  /// Cheap 64-bit content hash, computed once at construction (FNV-1a over
  /// the canonical RGS, length-seeded). Equal partitions always have equal
  /// fingerprints, so `fingerprint mismatch ⇒ not equal` gives equality and
  /// hashing an O(1) fast path.
  uint64_t Fingerprint() const { return fingerprint_; }

  /// Join: the finest common coarsening (transitive closure of the union of
  /// the equivalence relations). Requires equal n.
  Partition Join(const Partition& other) const;

  /// Blocks in canonical order (by smallest member); members ascending.
  std::vector<std::vector<size_t>> Blocks() const;

  /// All co-block pairs (i, j) with i < j — the explicit equality
  /// constraints of the corresponding join predicate.
  std::vector<std::pair<size_t, size_t>> Pairs() const;

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

  size_t Hash() const;

  friend bool operator==(const Partition& a, const Partition& b) {
    return a.fingerprint_ == b.fingerprint_ && a.block_of_ == b.block_of_;
  }
  friend bool operator!=(const Partition& a, const Partition& b) {
    return !(a == b);
  }
  /// Lexicographic order on the RGS — an arbitrary but stable total order
  /// (used for deterministic tie-breaking; unrelated to refinement).
  friend bool operator<(const Partition& a, const Partition& b) {
    return a.block_of_ < b.block_of_;
  }

 private:
  explicit Partition(std::vector<int> canonical_labels);

  static std::vector<int> Canonicalize(const std::vector<int>& labels);

  std::vector<int> block_of_;
  size_t num_blocks_ = 0;
  uint64_t fingerprint_ = 0xcbf29ce484222325ull;  // fingerprint of empty RGS
};

/// Hash functor for unordered containers keyed by Partition.
struct PartitionHash {
  size_t operator()(const Partition& p) const { return p.Hash(); }
};

}  // namespace jim::lat

#endif  // JIM_LATTICE_PARTITION_H_
