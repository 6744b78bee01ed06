#include "support/core_views.h"

#include "lattice/pair_mask.h"
#include "util/check.h"
#include "util/json_writer.h"

namespace jim::core {

namespace {

std::vector<uint64_t> MaskOf(const lat::Partition& p) {
  std::vector<uint64_t> mask(lat::PairMaskWords(p.num_elements()), 0);
  lat::FillPairMask(p, mask.data());
  return mask;
}

util::DynamicBitset TuplesWithStatus(const InferenceEngine& engine,
                                     bool (*in_set)(ClassStatus)) {
  util::DynamicBitset tuples(engine.num_tuples());
  for (size_t t = 0; t < engine.num_tuples(); ++t) {
    if (in_set(engine.class_status(engine.class_of_tuple(t)))) tuples.Set(t);
  }
  return tuples;
}

}  // namespace

util::Status ApplyLabel(InferenceState& state,
                        const lat::Partition& tuple_partition, Label label) {
  JIM_CHECK_EQ(tuple_partition.num_elements(), state.num_attributes());
  return state.ApplyLabel(MaskOf(tuple_partition).data(), label);
}

bool IsConsistent(const InferenceState& state,
                  const lat::Partition& candidate) {
  JIM_CHECK_EQ(candidate.num_elements(), state.num_attributes());
  const size_t words = lat::PairMaskWords(state.num_attributes());
  const std::vector<uint64_t> mask = MaskOf(candidate);
  if (!lat::MaskSubset(mask.data(), state.theta_mask(), words)) return false;
  for (size_t m = 0; m < state.num_forbidden(); ++m) {
    if (lat::MaskSubset(mask.data(), state.forbidden_masks() + m * words,
                        words)) {
      return false;
    }
  }
  return true;
}

std::vector<lat::Partition> Forbidden(const InferenceState& state) {
  const size_t words = lat::PairMaskWords(state.num_attributes());
  std::vector<lat::Partition> members;
  for (size_t m = 0; m < state.num_forbidden(); ++m) {
    members.push_back(lat::PairMaskToPartition(
        state.forbidden_masks() + m * words, state.num_attributes()));
  }
  return members;
}

std::string CanonicalKey(const InferenceState& state) {
  std::string out = state.theta_p().ToString() + "#[";
  const std::vector<lat::Partition> members = Forbidden(state);
  for (size_t m = 0; m < members.size(); ++m) {
    if (m > 0) out += ", ";
    out += members[m].ToString();
  }
  return out + "]";
}

lat::Partition ClassKnowledge(const InferenceEngine& engine,
                              size_t class_id) {
  return lat::PairMaskToPartition(engine.KnowledgeRow(class_id),
                                  engine.state().num_attributes());
}

util::DynamicBitset CertainResultTuples(const InferenceEngine& engine) {
  return TuplesWithStatus(engine, IsPositive);
}

util::DynamicBitset CertainNonResultTuples(const InferenceEngine& engine) {
  return TuplesWithStatus(engine, [](ClassStatus status) {
    return status == ClassStatus::kForcedNegative ||
           status == ClassStatus::kLabeledNegative;
  });
}

std::string SessionResultToJson(const SessionResult& result) {
  util::JsonWriter json;
  json.BeginObject()
      .KeyValue("interactions", result.interactions)
      .KeyValue("wasted_interactions", result.wasted_interactions)
      .KeyValue("identified_goal", result.identified_goal)
      .KeyValue("total_seconds", result.total_seconds);
  json.Key("result").Value(
      result.result.has_value() ? result.result->ToString() : "");
  json.Key("steps").BeginArray();
  for (const SessionStep& step : result.steps) {
    json.BeginObject()
        .KeyValue("tuple", step.tuple_index)
        .KeyValue("class", step.class_id)
        .KeyValue("label", LabelToString(step.label))
        .KeyValue("pruned_tuples", step.pruned_tuples)
        .KeyValue("pruned_classes", step.pruned_classes)
        .KeyValue("micros", step.micros)
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

}  // namespace jim::core
