#ifndef JIM_CORE_INFERENCE_STATE_H_
#define JIM_CORE_INFERENCE_STATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/example.h"
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
/// form (README, "Performance"):
///
///   θ_P  — the meet of Part(t) over all positive examples: the most
///          constrained predicate consistent with the positives. Every
///          consistent predicate refines θ_P; with an honest user θ_P itself
///          is always consistent and is what JIM returns on termination.
///   𝒩   — the antichain of maximal *forbidden* partitions: the maximal
///          elements of {θ_P ∧ Part(s)} over the negative examples s. A
///          predicate θ is inconsistent iff θ ≤ M for some member.
///
/// Both are held as pair masks (lattice/pair_mask.h) in one flat word
/// vector: θ_P's row, then one row per forbidden member in ascending
/// lexicographic word order. That order is canonical, so two states hold
/// equal words() exactly when they carry the same knowledge — the vector is
/// the minimax search's memo key as it stands, and copying a state is one
/// vector copy. Every test on the state is word operations: θ ≤ M is a
/// subset test, θ_P ∧ Part(t) is an AND.
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
  bool has_positive_example() const { return has_positive_example_; }

  /// θ_P's pair mask, and θ_P decoded.
  const uint64_t* theta_mask() const { return words_.data(); }
  lat::Partition theta_p() const;

  /// The forbidden members: num_forbidden() consecutive rows of
  /// lat::PairMaskWords(num_attributes()) words at forbidden_masks(), in
  /// canonical order, and the same decoded.
  size_t num_forbidden() const { return num_forbidden_; }
  const uint64_t* forbidden_masks() const {
    return words_.data() + mask_words_;
  }
  std::vector<lat::Partition> Forbidden() const;

  /// θ_P's row followed by the forbidden rows: equal iff the states are.
  const std::vector<uint64_t>& words() const { return words_; }

  /// True iff `candidate` is consistent with every label so far.
  bool IsConsistent(const lat::Partition& candidate) const;

  /// Classifies a tuple by its value partition Part(t).
  TupleClassification Classify(const lat::Partition& tuple_partition) const;

  /// Same, from a pair-mask row whose meet with θ_P is θ_P ∧ Part(t): the
  /// mask of Part(t) itself, or any knowledge row θ' ∧ Part(t) computed
  /// under an earlier state (θ_P only ever refines, so meeting it again is
  /// exact). Word operations only.
  TupleClassification Classify(const uint64_t* row) const;

  /// Incorporates a label. Errors (kFailedPrecondition) if the label
  /// contradicts the current knowledge — i.e. labels a forced-positive tuple
  /// negative or vice versa; the state is unchanged in that case. Labeling
  /// consistently with a forced classification is accepted as a no-op
  /// (interaction mode 1 lets users waste effort that way).
  util::Status ApplyLabel(const lat::Partition& tuple_partition, Label label);

  /// Same, from a row as accepted by Classify(const uint64_t*).
  util::Status ApplyLabel(const uint64_t* row, Label label);

  /// Human-readable canonical rendering: θ_P, then the forbidden members.
  std::string CanonicalKey() const;

  /// Invariant audit (see util/check.h): every row encodes a partition (its
  /// pair set is transitively closed), with no positive example yet θ_P is
  /// still ⊤, every forbidden member lies strictly below θ_P (ApplyLabel
  /// inserts θ_P ∧ Part(s), and a positive label re-clips every member), the
  /// members are pairwise incomparable and in canonical order, and θ_P
  /// itself stays consistent. JIM_CHECK-fails on any violation.
  void CheckInvariants() const;

 private:
  /// Adds the forbidden zone staged as the row past the last member, keeping
  /// only the maximal members: a zone some member contains is dropped, and
  /// so are the members it contains.
  void InsertStagedZone();
  /// θ_P shrank: meets every member with it, then re-maximalizes (the meets
  /// can now contain one another).
  void RestrictToTheta();
  /// Moves member row `m` towards the front until the rows up to it are in
  /// canonical order again (one insertion-sort step).
  void SiftDown(size_t m);

  size_t num_attributes_;
  size_t mask_words_;
  size_t num_forbidden_ = 0;
  std::vector<uint64_t> words_;
  bool has_positive_example_ = false;
};

}  // namespace jim::core

#endif  // JIM_CORE_INFERENCE_STATE_H_
