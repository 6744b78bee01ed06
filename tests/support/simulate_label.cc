#include "support/simulate_label.h"

#include <algorithm>
#include <limits>

#include "support/core_views.h"
#include "util/check.h"

namespace jim::core {

InferenceEngine::LabelImpact SimulateLabel(const InferenceEngine& engine,
                                           size_t class_id, Label label) {
  JIM_CHECK_LT(class_id, engine.num_classes());
  JIM_CHECK(IsInformative(engine.class_status(class_id)));
  InferenceState hypothetical = engine.state();
  // An informative class accepts either label by definition.
  JIM_CHECK_OK(
      ApplyLabel(hypothetical, engine.ClassPartition(class_id), label));

  InferenceEngine::LabelImpact impact;
  impact.pruned_classes = 1;
  impact.pruned_tuples = engine.tuple_class(class_id).size();
  for (size_t c = 0; c < engine.num_classes(); ++c) {
    if (c == class_id || !IsInformative(engine.class_status(c))) continue;
    if (hypothetical.Classify(engine.ClassPartition(c)) !=
        TupleClassification::kInformative) {
      ++impact.pruned_classes;
      impact.pruned_tuples += engine.tuple_class(c).size();
    }
  }
  return impact;
}

NaiveLookaheadStrategy::NaiveLookaheadStrategy(
    LookaheadStrategy::Objective objective, double alpha,
    size_t max_candidates)
    : objective_(objective, alpha, max_candidates),
      max_candidates_(max_candidates) {}

std::vector<double> NaiveLookaheadStrategy::Score(
    const InferenceEngine& engine, const std::vector<size_t>& candidates) {
  const size_t n = candidates.size();
  const size_t cap = max_candidates_ == 0 ? n : std::min(n, max_candidates_);
  std::vector<double> scores(n, -std::numeric_limits<double>::infinity());
  for (size_t j = 0; j < cap; ++j) {
    const size_t i = j * n / cap;
    scores[i] = objective_.Aggregate(
        SimulateLabel(engine, candidates[i], Label::kPositive).pruned_tuples,
        SimulateLabel(engine, candidates[i], Label::kNegative).pruned_tuples);
  }
  return scores;
}

}  // namespace jim::core
