#ifndef JIM_TESTS_SUPPORT_SIMULATE_LABEL_H_
#define JIM_TESTS_SUPPORT_SIMULATE_LABEL_H_

#include <cstddef>

#include "core/engine.h"

namespace jim::core {

/// The naive reference for InferenceEngine::SimulateLabelBoth: copies the
/// engine's InferenceState, applies `label` to informative class `class_id`,
/// and reclassifies every other informative class from scratch. Returns the
/// classes/tuples that would leave the informative pool, the labeled class
/// included. Built on the engine's public API only.
InferenceEngine::LabelImpact SimulateLabel(const InferenceEngine& engine,
                                           size_t class_id, Label label);

}  // namespace jim::core

#endif  // JIM_TESTS_SUPPORT_SIMULATE_LABEL_H_
