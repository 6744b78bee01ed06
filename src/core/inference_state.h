#ifndef JIM_CORE_INFERENCE_STATE_H_
#define JIM_CORE_INFERENCE_STATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/example.h"
#include "lattice/antichain.h"
#include "lattice/partition.h"
#include "util/status.h"

namespace jim::core {

/// How the current knowledge classifies a tuple (via its value partition).
enum class TupleClassification {
  /// Every consistent predicate selects the tuple — its label is determined;
  /// asking the user would be wasted effort ("uninformative", grayed out).
  kForcedPositive,
  /// No consistent predicate selects the tuple — also uninformative.
  kForcedNegative,
  /// Consistent predicates disagree on the tuple: labeling it narrows the
  /// hypothesis space. These are the only tuples worth asking about.
  kInformative,
};

/// The complete knowledge accumulated from the user's labels, in canonical
/// form (see DESIGN.md §1):
///
///   θ_P  — the meet of Part(t) over all positive examples: the most
///          constrained predicate consistent with the positives. Every
///          consistent predicate refines θ_P; with an honest user θ_P itself
///          is always consistent and is what JIM returns on termination.
///   𝒩   — an antichain of maximal *forbidden* partitions: one M = θ_P ∧
///          Part(s) per (non-redundant) negative example s. A predicate θ is
///          inconsistent iff θ ≤ M for some member.
///
/// The state is deliberately independent of the instance: it summarizes
/// labels in O(poly(#attributes)) space regardless of how many tuples were
/// labeled. The engine layers tuple bookkeeping on top.
class InferenceState {
 public:
  /// Initial state over `num_attributes` attributes: θ_P = ⊤ (no positives
  /// yet), no negatives. Every partition is consistent.
  explicit InferenceState(size_t num_attributes);

  size_t num_attributes() const { return num_attributes_; }
  const lat::Partition& theta_p() const { return theta_p_; }
  const lat::Antichain& negatives() const { return negatives_; }
  bool has_positive_example() const { return has_positive_example_; }

  /// True iff `candidate` is consistent with every label so far.
  bool IsConsistent(const lat::Partition& candidate) const;

  /// Classifies a tuple by its value partition Part(t).
  TupleClassification Classify(const lat::Partition& tuple_partition) const;

  /// Allocation-free classification: the forced-positive test uses
  /// MeetEqualsLeft (no meet materialized at all), and only if that fails is
  /// the knowledge meet computed — into `meet_tmp` via scratch kernels.
  /// Identical result to Classify.
  TupleClassification ClassifyWith(const lat::Partition& tuple_partition,
                                   lat::Partition& meet_tmp,
                                   lat::PartitionScratch& scratch) const;

  /// The knowledge gained from labeling the tuple: K = θ_P ∧ Part(t).
  lat::Partition Knowledge(const lat::Partition& tuple_partition) const;

  /// Incorporates a label. Errors (kFailedPrecondition) if the label
  /// contradicts the current knowledge — i.e. labels a forced-positive tuple
  /// negative or vice versa; the state is unchanged in that case. Labeling
  /// consistently with a forced classification is accepted as a no-op
  /// (interaction mode 1 lets users waste effort that way).
  util::Status ApplyLabel(const lat::Partition& tuple_partition, Label label);

  /// Exact number of consistent predicates, by enumerating refinements of
  /// θ_P. Exponential; JIM_CHECK-fails if the refinement count exceeds
  /// `limit`. For tests, the optimal strategy, and exact-entropy scoring.
  uint64_t CountConsistent(uint64_t limit = 1 << 22) const;

  /// Canonical memoization key: θ_P plus the sorted antichain.
  std::string CanonicalKey() const;

  /// Compact memoization key: the canonical label vectors (θ_P, then the
  /// antichain members in RGS order, -1 separated) with a precomputed 64-bit
  /// hash. Equality is exact (the hash is only a fast path), so two states
  /// share a StateKey iff they share a CanonicalKey — without building a
  /// single string. This is what MinimaxSolver memoizes on.
  struct StateKey {
    std::vector<int> encoded;
    uint64_t hash = 0;

    friend bool operator==(const StateKey& a, const StateKey& b) {
      return a.hash == b.hash && a.encoded == b.encoded;
    }
  };
  struct StateKeyHash {
    size_t operator()(const StateKey& key) const {
      return static_cast<size_t>(key.hash);
    }
  };
  StateKey MakeStateKey() const;

  /// O(1) state exchange (vector-swap of θ_P and the antichain): what the
  /// speculative-search trail (core/speculation.h) uses to undo a label —
  /// the pre-label state parks in a pooled frame and swaps back on Undo, so
  /// an apply/undo pair never reallocates in steady state.
  void Swap(InferenceState& other) noexcept;

  /// Invariant audit (see util/check.h): θ_P and the antichain are each
  /// internally canonical, of the right arity, every forbidden member lies
  /// strictly below θ_P (ApplyLabel always inserts θ_P ∧ Part(s), and
  /// RestrictTo clips the antichain whenever θ_P shrinks), θ_P itself stays
  /// consistent, and with no positive example yet θ_P is still ⊤.
  /// JIM_CHECK-fails on any violation.
  void CheckInvariants() const;

 private:
  size_t num_attributes_;
  lat::Partition theta_p_;
  lat::Antichain negatives_;
  bool has_positive_example_ = false;
};

}  // namespace jim::core

#endif  // JIM_CORE_INFERENCE_STATE_H_
