#include "core/inference_state.h"

#include <algorithm>

#include "lattice/pair_mask.h"
#include "util/logging.h"

namespace jim::core {

namespace {

/// Canonical member order: lexicographic over the row's words.
bool RowLess(const uint64_t* a, const uint64_t* b, size_t words) {
  return std::lexicographical_compare(a, a + words, b, b + words);
}

std::vector<uint64_t> MaskOf(const lat::Partition& p) {
  std::vector<uint64_t> mask(lat::PairMaskWords(p.num_elements()), 0);
  lat::FillPairMask(p, mask.data());
  return mask;
}

}  // namespace

InferenceState::InferenceState(size_t num_attributes)
    : num_attributes_(num_attributes),
      mask_words_(lat::PairMaskWords(num_attributes)),
      words_(MaskOf(lat::Partition::Top(num_attributes))) {}

lat::Partition InferenceState::theta_p() const {
  return lat::PairMaskToPartition(theta_mask(), num_attributes_);
}

std::vector<lat::Partition> InferenceState::Forbidden() const {
  std::vector<lat::Partition> members;
  members.reserve(num_forbidden_);
  for (size_t m = 0; m < num_forbidden_; ++m) {
    members.push_back(lat::PairMaskToPartition(
        forbidden_masks() + m * mask_words_, num_attributes_));
  }
  return members;
}

bool InferenceState::IsConsistent(const lat::Partition& candidate) const {
  JIM_CHECK_EQ(candidate.num_elements(), num_attributes_);
  const std::vector<uint64_t> mask = MaskOf(candidate);
  if (!lat::MaskSubset(mask.data(), theta_mask(), mask_words_)) return false;
  for (size_t m = 0; m < num_forbidden_; ++m) {
    if (lat::MaskSubset(mask.data(), forbidden_masks() + m * mask_words_,
                        mask_words_)) {
      return false;
    }
  }
  return true;
}

TupleClassification InferenceState::Classify(
    const lat::Partition& tuple_partition) const {
  JIM_CHECK_EQ(tuple_partition.num_elements(), num_attributes_);
  return Classify(MaskOf(tuple_partition).data());
}

TupleClassification InferenceState::Classify(const uint64_t* row) const {
  const size_t words = mask_words_;
  const uint64_t* theta = theta_mask();
  // All consistent θ refine θ_P; they all select t iff θ_P ≤ Part(t), i.e.
  // iff the meet K = θ_P ∧ Part(t) did not lose anything.
  if (lat::MaskSubset(theta, row, words)) {
    return TupleClassification::kForcedPositive;
  }
  // Some consistent θ selects t iff K (the maximal sub-θ_P predicate
  // selecting t) escapes every forbidden zone.
  for (size_t m = 0; m < num_forbidden_; ++m) {
    if (lat::MaskMeetSubset(row, theta, forbidden_masks() + m * words,
                            words)) {
      return TupleClassification::kForcedNegative;
    }
  }
  return TupleClassification::kInformative;
}

util::Status InferenceState::ApplyLabel(const lat::Partition& tuple_partition,
                                        Label label) {
  JIM_CHECK_EQ(tuple_partition.num_elements(), num_attributes_);
  return ApplyLabel(MaskOf(tuple_partition).data(), label);
}

util::Status InferenceState::ApplyLabel(const uint64_t* row, Label label) {
  const TupleClassification classification = Classify(row);
  const size_t words = mask_words_;
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
    for (size_t w = 0; w < words; ++w) words_[w] &= row[w];
    // Only the part of each forbidden zone below the new θ_P remains
    // meaningful.
    RestrictToTheta();
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
  // Stage the new zone K = θ_P ∧ Part(s) as the row past the members.
  words_.resize(words_.size() + words);
  uint64_t* zone = words_.data() + (1 + num_forbidden_) * words;
  for (size_t w = 0; w < words; ++w) zone[w] = words_[w] & row[w];
  InsertStagedZone();
  return util::OkStatus();
}

void InferenceState::SiftDown(size_t m) {
  const size_t words = mask_words_;
  uint64_t* rows = words_.data() + words;
  for (; m > 0 && RowLess(rows + m * words, rows + (m - 1) * words, words);
       --m) {
    std::swap_ranges(rows + m * words, rows + (m + 1) * words,
                     rows + (m - 1) * words);
  }
}

void InferenceState::InsertStagedZone() {
  const size_t words = mask_words_;
  uint64_t* rows = words_.data() + words;
  const uint64_t* zone = rows + num_forbidden_ * words;
  for (size_t m = 0; m < num_forbidden_; ++m) {
    if (lat::MaskSubset(zone, rows + m * words, words)) {
      words_.resize((1 + num_forbidden_) * words);  // already forbidden
      return;
    }
  }
  // Compact away the members the zone contains; the zone itself is the last
  // row, so it is read in place until it moves down behind the survivors.
  size_t kept = 0;
  for (size_t m = 0; m <= num_forbidden_; ++m) {
    const uint64_t* row = rows + m * words;
    if (m < num_forbidden_ && lat::MaskSubset(row, zone, words)) continue;
    if (kept != m) std::copy(row, row + words, rows + kept * words);
    ++kept;
  }
  num_forbidden_ = kept;
  words_.resize((1 + kept) * words);
  SiftDown(kept - 1);
}

void InferenceState::RestrictToTheta() {
  const size_t words = mask_words_;
  const uint64_t* theta = theta_mask();
  uint64_t* rows = words_.data() + words;
  for (size_t m = 0; m < num_forbidden_; ++m) {
    for (size_t w = 0; w < words; ++w) rows[m * words + w] &= theta[w];
  }
  // Re-maximalize in place: a meet that a surviving earlier member or any
  // later one contains goes (of equal meets only the last survives). A
  // dropped meet's container is itself kept or contained by a kept one, so
  // the survivors are exactly the maximal meets.
  size_t kept = 0;
  for (size_t m = 0; m < num_forbidden_; ++m) {
    const uint64_t* row = rows + m * words;
    bool dominated = false;
    for (size_t k = 0; k < kept && !dominated; ++k) {
      dominated = lat::MaskSubset(row, rows + k * words, words);
    }
    for (size_t l = m + 1; l < num_forbidden_ && !dominated; ++l) {
      dominated = lat::MaskSubset(row, rows + l * words, words);
    }
    if (dominated) continue;
    if (kept != m) std::copy(row, row + words, rows + kept * words);
    SiftDown(kept++);
  }
  num_forbidden_ = kept;
  words_.resize((1 + kept) * words);
}

std::string InferenceState::CanonicalKey() const {
  std::string out = theta_p().ToString() + "#[";
  const std::vector<lat::Partition> members = Forbidden();
  for (size_t m = 0; m < members.size(); ++m) {
    if (m > 0) out += ", ";
    out += members[m].ToString();
  }
  return out + "]";
}

void InferenceState::CheckInvariants() const {
  const size_t words = mask_words_;
  JIM_CHECK_EQ(words, lat::PairMaskWords(num_attributes_));
  JIM_CHECK_EQ(words_.size(), (1 + num_forbidden_) * words);
  // Every row is the pair set of a partition: decoding and re-encoding it
  // is the identity only for transitively closed pair sets.
  const auto check_row = [&](const uint64_t* row, const char* what) {
    const lat::Partition p = lat::PairMaskToPartition(row, num_attributes_);
    p.CheckInvariants();
    JIM_CHECK(MaskOf(p) == std::vector<uint64_t>(row, row + words))
        << what << " row is not the pair set of a partition";
  };
  const uint64_t* theta = theta_mask();
  check_row(theta, "θ_P");
  if (!has_positive_example_) {
    JIM_CHECK(theta_p() == lat::Partition::Top(num_attributes_))
        << "θ_P moved off ⊤ without a positive example";
  }
  const uint64_t* rows = forbidden_masks();
  for (size_t i = 0; i < num_forbidden_; ++i) {
    const uint64_t* m = rows + i * words;
    check_row(m, "forbidden");
    // Every forbidden zone is of the form θ_P ∧ Part(s) (and every θ_P
    // shrink re-clips), so members lie below θ_P — strictly, or θ_P itself,
    // the canonical answer, would be inconsistent.
    JIM_CHECK(lat::MaskSubset(m, theta, words) &&
              !lat::MaskSubset(theta, m, words))
        << "forbidden member "
        << lat::PairMaskToPartition(m, num_attributes_).ToString()
        << " not strictly below θ_P " << theta_p().ToString();
    if (i > 0) {
      JIM_CHECK(RowLess(m - words, m, words))
          << "forbidden members " << i - 1 << " and " << i
          << " out of canonical order";
    }
    for (size_t j = 0; j < i; ++j) {
      const uint64_t* other = rows + j * words;
      JIM_CHECK(!lat::MaskSubset(m, other, words) &&
                !lat::MaskSubset(other, m, words))
          << "comparable forbidden members " << j << " and " << i;
    }
  }
}

}  // namespace jim::core
