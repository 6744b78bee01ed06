#include "obs/trace.h"

#include <utility>

#include "util/json_writer.h"

namespace jim::obs {

void SessionTracer::BeginSession(SessionMeta meta) {
  meta_ = std::move(meta);
  steps_.clear();
  ended_ = false;
  identified_goal_ = false;
  interactions_ = 0;
  wasted_interactions_ = 0;
  total_seconds_ = 0.0;
}

void SessionTracer::RecordStep(const TraceStep& step) {
  steps_.push_back(step);
}

void SessionTracer::EndSession(bool identified_goal, size_t interactions,
                               size_t wasted_interactions,
                               double total_seconds) {
  ended_ = true;
  identified_goal_ = identified_goal;
  interactions_ = interactions;
  wasted_interactions_ = wasted_interactions;
  total_seconds_ = total_seconds;
}

void SessionTracer::AppendTo(util::JsonWriter& json) const {
  json.BeginObject();
  json.Key("session").BeginObject();
  json.KeyValue("strategy", meta_.strategy);
  json.KeyValue("mode", meta_.mode);
  json.KeyValue("instance", meta_.instance);
  json.KeyValue("num_tuples", meta_.num_tuples);
  json.KeyValue("num_classes", meta_.num_classes);
  json.EndObject();
  json.Key("steps").BeginArray();
  for (const TraceStep& step : steps_) {
    json.BeginObject();
    json.KeyValue("step", step.step);
    json.KeyValue("class", step.class_id);
    json.KeyValue("tuple", step.tuple_index);
    json.KeyValue("label", step.positive);
    json.KeyValue("accepted", step.accepted);
    json.KeyValue("pruned_classes", step.pruned_classes);
    json.KeyValue("pruned_tuples", step.pruned_tuples);
    json.KeyValue("worklist_before", step.worklist_before);
    json.KeyValue("worklist_after", step.worklist_after);
    json.KeyValue("simulate_label_calls", step.simulate_label_calls);
    json.KeyValue("micros", step.micros);
    json.EndObject();
  }
  json.EndArray();
  if (ended_) {
    json.Key("result").BeginObject();
    json.KeyValue("identified_goal", identified_goal_);
    json.KeyValue("interactions", interactions_);
    json.KeyValue("wasted_interactions", wasted_interactions_);
    json.KeyValue("total_seconds", total_seconds_);
    json.EndObject();
  }
  json.EndObject();
}

std::string SessionTracer::ToJson() const {
  util::JsonWriter json;
  AppendTo(json);
  return json.str();
}

}  // namespace jim::obs
