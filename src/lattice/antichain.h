#ifndef JIM_LATTICE_ANTICHAIN_H_
#define JIM_LATTICE_ANTICHAIN_H_

#include <string>
#include <vector>

#include "lattice/partition.h"

namespace jim::lat {

/// A set of pairwise-incomparable partitions, maintained as the *maximal*
/// elements of everything inserted (under the refinement order ≤).
///
/// The inference engine uses one antichain to represent the negative
/// examples: a candidate predicate θ is ruled out iff θ ≤ M for some member
/// M. Only maximal forbidden partitions matter, so dominated insertions are
/// absorbed.
///
/// Members are kept ordered by lattice rank, descending (coarsest first).
/// Since q ≤ m forces Rank(q) ≤ Rank(m), a DominatedBy scan can stop at the
/// first member whose rank drops below the query's — a precomputed-rank
/// early exit that prunes most of the scan on typical (rank-diverse) chains.
class Antichain {
 public:
  Antichain() = default;

  /// Inserts `p`, keeping only maximal elements. Returns true if the
  /// antichain changed (p was not already dominated by a member).
  bool Insert(const Partition& p);

  /// True iff q ≤ m for some member m (q is "covered"/forbidden).
  bool DominatedBy(const Partition& q) const;

  /// Allocation-free overload: refinement checks run out of `scratch`
  /// (Partition::RefinesWith), with the same rank early exit. The hot path
  /// of InferenceState::ClassifyWith (the speculative session's rescans).
  bool DominatedBy(const Partition& q, PartitionScratch& scratch) const;

  /// True iff q is a member.
  bool Contains(const Partition& q) const;

  /// Drops members that are not ≤ `bound`, replacing each with its meet with
  /// `bound` when that meet is still maximal. Called when θ_P shrinks: only
  /// the part of a forbidden zone below the new θ_P remains relevant.
  ///
  /// Members already ≤ `bound` are their own meet and — being maximal in the
  /// old antichain — stay maximal among all the meets, so they are re-added
  /// directly without the Insert dominance scan (and without computing a
  /// meet at all).
  void RestrictTo(const Partition& bound);

  size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

  /// Members ordered by rank, descending (ties in insertion order).
  const std::vector<Partition>& members() const { return members_; }

  /// Invariant audit (see util/check.h): JIM_CHECK-fails unless members are
  /// each canonical, all of one arity, ordered by descending rank, and
  /// pairwise incomparable under refinement (the defining antichain
  /// property). O(size² · n); callable from tests and JIM_AUDIT sites.
  void CheckInvariants() const;

  /// Canonical rendering (members sorted by RGS), usable as a memo key.
  std::string ToString() const;

 private:
  /// Appends `p` at the end of its rank group, preserving the descending
  /// rank order. Precondition: p is incomparable to every member.
  void InsertOrdered(const Partition& p);

  std::vector<Partition> members_;
};

}  // namespace jim::lat

#endif  // JIM_LATTICE_ANTICHAIN_H_
