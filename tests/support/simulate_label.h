#ifndef JIM_TESTS_SUPPORT_SIMULATE_LABEL_H_
#define JIM_TESTS_SUPPORT_SIMULATE_LABEL_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/strategies.h"

namespace jim::core {

/// The naive reference for InferenceEngine::SimulateLabelBoth: copies the
/// engine's InferenceState, applies `label` to informative class `class_id`,
/// and reclassifies every other informative class from scratch. Returns the
/// classes/tuples that would leave the informative pool, the labeled class
/// included. Built on the engine's public API only.
InferenceEngine::LabelImpact SimulateLabel(const InferenceEngine& engine,
                                           size_t class_id, Label label);

/// LookaheadStrategy from first principles: Score runs SimulateLabel for
/// both answers of the same evenly spaced sample of at most
/// `max_candidates` candidates (0 = all) and aggregates the counts with
/// LookaheadStrategy::Aggregate; unsampled slots stay −∞. Its
/// PickClass — Strategy's argmax over Score — is therefore the pick a
/// LookaheadStrategy with the same arguments must make.
class NaiveLookaheadStrategy final : public Strategy {
 public:
  explicit NaiveLookaheadStrategy(LookaheadStrategy::Objective objective,
                                  double alpha = 1.0,
                                  size_t max_candidates = 256);
  std::string_view name() const override { return "naive-lookahead"; }
  std::vector<double> Score(const InferenceEngine& engine,
                            const std::vector<size_t>& candidates) override;

 private:
  LookaheadStrategy objective_;  ///< read for Aggregate only
  size_t max_candidates_;
};

}  // namespace jim::core

#endif  // JIM_TESTS_SUPPORT_SIMULATE_LABEL_H_
