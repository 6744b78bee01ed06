#include "core/inference_state.h"

#include <algorithm>

#include "lattice/enumeration.h"
#include "util/hash.h"
#include "util/logging.h"

namespace jim::core {

InferenceState::InferenceState(size_t num_attributes)
    : num_attributes_(num_attributes),
      theta_p_(lat::Partition::Top(num_attributes)) {}

bool InferenceState::IsConsistent(const lat::Partition& candidate) const {
  return candidate.Refines(theta_p_) && !negatives_.DominatedBy(candidate);
}

lat::Partition InferenceState::Knowledge(
    const lat::Partition& tuple_partition) const {
  return theta_p_.Meet(tuple_partition);
}

TupleClassification InferenceState::Classify(
    const lat::Partition& tuple_partition) const {
  const lat::Partition knowledge = Knowledge(tuple_partition);
  // All consistent θ refine θ_P; they all select t iff θ_P ≤ Part(t),
  // i.e. iff the meet did not lose anything.
  if (knowledge == theta_p_) return TupleClassification::kForcedPositive;
  // Some consistent θ selects t iff K (the maximal sub-θ_P predicate
  // selecting t) escapes every forbidden zone.
  if (negatives_.DominatedBy(knowledge)) {
    return TupleClassification::kForcedNegative;
  }
  return TupleClassification::kInformative;
}

util::Status InferenceState::ApplyLabel(const lat::Partition& tuple_partition,
                                        Label label) {
  const TupleClassification classification = Classify(tuple_partition);
  if (label == Label::kPositive) {
    if (classification == TupleClassification::kForcedNegative) {
      return util::FailedPreconditionError(
          "positive label contradicts earlier labels: no consistent join "
          "predicate selects this tuple");
    }
    has_positive_example_ = true;
    if (classification == TupleClassification::kForcedPositive) {
      return util::OkStatus();  // uninformative: nothing to learn
    }
    theta_p_ = Knowledge(tuple_partition);
    // Only the part of each forbidden zone below the new θ_P remains
    // meaningful; restricting also re-establishes antichain maximality.
    negatives_.RestrictTo(theta_p_);
    return util::OkStatus();
  }
  // Negative label.
  if (classification == TupleClassification::kForcedPositive) {
    return util::FailedPreconditionError(
        "negative label contradicts earlier labels: every consistent join "
        "predicate selects this tuple");
  }
  if (classification == TupleClassification::kForcedNegative) {
    return util::OkStatus();  // uninformative: nothing to learn
  }
  negatives_.Insert(Knowledge(tuple_partition));
  return util::OkStatus();
}

uint64_t InferenceState::CountConsistent(uint64_t limit) const {
  JIM_CHECK_LE(lat::CountRefinements(theta_p_), limit);
  uint64_t count = 0;
  lat::VisitRefinements(theta_p_, [this, &count](const lat::Partition& q) {
    if (!negatives_.DominatedBy(q)) ++count;
    return true;
  });
  return count;
}

TupleClassification InferenceState::ClassifyWith(
    const lat::Partition& tuple_partition, lat::Partition& meet_tmp,
    lat::PartitionScratch& scratch) const {
  // θ_P ∧ Part(t) == θ_P tested without materializing the meet.
  if (theta_p_.MeetEqualsLeft(tuple_partition, scratch)) {
    return TupleClassification::kForcedPositive;
  }
  theta_p_.MeetInto(tuple_partition, meet_tmp, scratch);
  if (negatives_.DominatedBy(meet_tmp, scratch)) {
    return TupleClassification::kForcedNegative;
  }
  return TupleClassification::kInformative;
}

void InferenceState::CheckInvariants() const {
  theta_p_.CheckInvariants();
  negatives_.CheckInvariants();
  JIM_CHECK_EQ(theta_p_.num_elements(), num_attributes_);
  if (!has_positive_example_) {
    JIM_CHECK(theta_p_ == lat::Partition::Top(num_attributes_))
        << "θ_P moved off ⊤ without a positive example";
  }
  for (const lat::Partition& m : negatives_.members()) {
    JIM_CHECK_EQ(m.num_elements(), num_attributes_);
    // Every forbidden zone is of the form θ_P ∧ Part(s) (and RestrictTo
    // re-clips on every θ_P shrink), so members always lie below θ_P —
    // strictly, or θ_P itself would be inconsistent.
    JIM_CHECK(m.StrictlyRefines(theta_p_))
        << "forbidden member " << m.ToString() << " not strictly below θ_P "
        << theta_p_.ToString();
  }
  // θ_P is the canonical answer; it must never be ruled out by a negative.
  JIM_CHECK(!negatives_.DominatedBy(theta_p_))
      << "θ_P " << theta_p_.ToString() << " is itself forbidden";
}

std::string InferenceState::CanonicalKey() const {
  return theta_p_.ToString() + "#" + negatives_.ToString();
}

InferenceState::StateKey InferenceState::MakeStateKey() const {
  StateKey key;
  const std::vector<lat::Partition>& members = negatives_.members();
  // Antichain members are ordered by rank; the key needs the same canonical
  // order as CanonicalKey (RGS-lexicographic), so sort indirection here.
  std::vector<const lat::Partition*> sorted;
  sorted.reserve(members.size());
  for (const lat::Partition& m : members) sorted.push_back(&m);
  std::sort(sorted.begin(), sorted.end(),
            [](const lat::Partition* a, const lat::Partition* b) {
              return *a < *b;
            });
  key.encoded.reserve((num_attributes_ + 1) * (members.size() + 1));
  key.encoded.insert(key.encoded.end(), theta_p_.labels().begin(),
                     theta_p_.labels().end());
  for (const lat::Partition* m : sorted) {
    key.encoded.push_back(-1);  // separator: never a valid RGS label
    key.encoded.insert(key.encoded.end(), m->labels().begin(),
                       m->labels().end());
  }
  key.hash = util::Fnv1a64(key.encoded.begin(), key.encoded.end());
  return key;
}

void InferenceState::Swap(InferenceState& other) noexcept {
  using std::swap;
  swap(num_attributes_, other.num_attributes_);
  swap(theta_p_, other.theta_p_);
  swap(negatives_, other.negatives_);
  swap(has_positive_example_, other.has_positive_example_);
}

}  // namespace jim::core
