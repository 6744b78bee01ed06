#ifndef JIM_OBS_TRACE_H_
#define JIM_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace jim::util {
class JsonWriter;
}  // namespace jim::util

namespace jim::obs {

/// One typed event per session step: the question the strategy posed, the
/// label that came back, and what the engine did with it. Plain ints and
/// strings only — the tracer observes a session, it never reaches back
/// into core types.
struct TraceStep {
  size_t step = 0;          ///< 0-based interaction index.
  size_t class_id = 0;      ///< Equivalence class the question was drawn from.
  size_t tuple_index = 0;   ///< Representative tuple shown to the user.
  bool positive = false;    ///< The label received.
  bool accepted = false;    ///< False when the engine rejected a contradiction.
  size_t pruned_classes = 0;
  size_t pruned_tuples = 0;
  size_t worklist_before = 0;  ///< Informative classes before the label.
  size_t worklist_after = 0;   ///< Informative classes after propagation.
  /// SimulateLabelBoth evaluations spent choosing this question (counter
  /// delta; 0 when metrics are disabled or the strategy never simulates).
  uint64_t simulate_label_calls = 0;
  int64_t micros = 0;  ///< Wall time for the step (question + propagation).
};

/// Structured recorder for one inference session. The driver calls
/// BeginSession once, RecordStep per interaction, EndSession once;
/// ToJson() serializes the whole trace via util::JsonWriter. Recording is
/// append-only and allocation-amortized; a null tracer pointer anywhere in
/// the session plumbing means "don't trace" and costs one pointer test.
class SessionTracer {
 public:
  struct SessionMeta {
    std::string strategy;
    std::string mode;
    std::string instance;
    size_t num_tuples = 0;
    size_t num_classes = 0;
  };

  void BeginSession(SessionMeta meta);
  void RecordStep(const TraceStep& step);
  void EndSession(bool identified_goal, size_t interactions,
                  size_t wasted_interactions, double total_seconds);

  const SessionMeta& meta() const { return meta_; }
  const std::vector<TraceStep>& steps() const { return steps_; }
  bool ended() const { return ended_; }
  bool identified_goal() const { return identified_goal_; }
  size_t interactions() const { return interactions_; }
  size_t wasted_interactions() const { return wasted_interactions_; }
  double total_seconds() const { return total_seconds_; }

  /// Appends the trace as one JSON object value:
  /// {"session":{...meta...},"steps":[{...},...],"result":{...}}.
  void AppendTo(util::JsonWriter& json) const;
  std::string ToJson() const;

 private:
  SessionMeta meta_;
  std::vector<TraceStep> steps_;
  bool ended_ = false;
  bool identified_goal_ = false;
  size_t interactions_ = 0;
  size_t wasted_interactions_ = 0;
  double total_seconds_ = 0.0;
};

}  // namespace jim::obs

#endif  // JIM_OBS_TRACE_H_
