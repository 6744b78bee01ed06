#include "support/simulate_label.h"

#include "util/check.h"

namespace jim::core {

InferenceEngine::LabelImpact SimulateLabel(const InferenceEngine& engine,
                                           size_t class_id, Label label) {
  JIM_CHECK_LT(class_id, engine.num_classes());
  JIM_CHECK(IsInformative(engine.class_status(class_id)));
  InferenceState hypothetical = engine.state();
  // An informative class accepts either label by definition.
  JIM_CHECK_OK(
      hypothetical.ApplyLabel(engine.ClassPartition(class_id), label));

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

}  // namespace jim::core
