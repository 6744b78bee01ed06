#include "core/session.h"

#include <algorithm>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace jim::core {

std::string_view InteractionModeToString(InteractionMode mode) {
  switch (mode) {
    case InteractionMode::kLabelAll:
      return "1-label-all";
    case InteractionMode::kGrayOut:
      return "2-gray-out";
    case InteractionMode::kTopK:
      return "3-top-k";
    case InteractionMode::kMostInformative:
      return "4-most-informative";
  }
  return "?";
}

util::StatusOr<InteractionMode> ParseInteractionMode(std::string_view text) {
  const auto number = util::ParseInt64(text);
  if (!number.ok() || *number < 1 || *number > 4) {
    return util::InvalidArgumentError("must be a number 1..4 (got '" +
                                      std::string(text) + "')");
  }
  return static_cast<InteractionMode>(*number);
}

namespace {

/// Picks the class to ask about under the session's interaction mode.
/// Returns nullopt when the user has nothing left to label (mode 1 only:
/// every tuple already explicitly labeled).
std::optional<size_t> ChooseClass(const InferenceEngine& engine,
                                  Strategy& strategy,
                                  const SessionOptions& options,
                                  util::Rng& user_rng,
                                  std::vector<bool>& tuple_labeled) {
  switch (options.mode) {
    case InteractionMode::kLabelAll: {
      // The user sees no gray-out: she picks any not-yet-labeled tuple,
      // uniformly at random, possibly wasting the interaction.
      std::vector<size_t> unlabeled;
      for (size_t t = 0; t < engine.num_tuples(); ++t) {
        if (!tuple_labeled[t]) unlabeled.push_back(t);
      }
      if (unlabeled.empty()) return std::nullopt;
      const size_t tuple = user_rng.PickOne(unlabeled);
      tuple_labeled[tuple] = true;
      return engine.class_of_tuple(tuple);
    }
    case InteractionMode::kGrayOut: {
      // Uniform over informative (non-grayed) tuples.
      const std::vector<size_t> informative = engine.InformativeClasses();
      JIM_CHECK(!informative.empty());
      size_t total = 0;
      for (size_t c : informative) total += engine.tuple_class(c).size();
      int64_t pick = user_rng.UniformInt(0, static_cast<int64_t>(total) - 1);
      for (size_t c : informative) {
        pick -= static_cast<int64_t>(engine.tuple_class(c).size());
        if (pick < 0) return c;
      }
      return informative.back();
    }
    case InteractionMode::kTopK: {
      const std::vector<size_t> top =
          strategy.TopK(engine, std::max<size_t>(1, options.top_k));
      JIM_CHECK(!top.empty());
      return top[static_cast<size_t>(
          user_rng.UniformInt(0, static_cast<int64_t>(top.size()) - 1))];
    }
    case InteractionMode::kMostInformative:
      return strategy.PickClass(engine);
  }
  return std::nullopt;
}

/// Running total of SimulateLabelBoth evaluations, read from the global
/// metrics counter. 0 whenever metrics are off — per-step simulate counts
/// in traces are best-effort observability, never behavior.
uint64_t SimulateCallsSoFar() {
  if (!obs::MetricsEnabled()) return 0;
  static obs::Counter& counter = obs::MetricsRegistry::Instance().GetCounter(
      obs::kCounterEngineSimulateLabelBoth);
  return counter.Value();
}

}  // namespace

StepTrace::StepTrace(const InferenceEngine& engine)
    : worklist_before_(engine.InformativeClasses().size()),
      simulate_before_(SimulateCallsSoFar()) {}

void StepTrace::Record(obs::SessionTracer& tracer, size_t index,
                       const SessionStep& step, bool accepted,
                       const InferenceEngine& engine) const {
  obs::TraceStep event;
  event.step = index;
  event.class_id = step.class_id;
  event.tuple_index = step.tuple_index;
  event.positive = step.label == Label::kPositive;
  event.accepted = accepted;
  event.pruned_classes = step.pruned_classes;
  event.pruned_tuples = step.pruned_tuples;
  event.worklist_before = worklist_before_;
  event.worklist_after = engine.InformativeClasses().size();
  event.simulate_label_calls = SimulateCallsSoFar() - simulate_before_;
  event.micros = step.micros;
  tracer.RecordStep(event);
}

SessionResult RunSession(std::shared_ptr<const TupleStore> store,
                         const JoinPredicate& goal, Strategy& strategy,
                         Oracle& oracle, const SessionOptions& options) {
  InferenceEngine engine(std::move(store));
  return RunSessionOnEngine(engine, goal, strategy, oracle, options);
}

SessionResult RunSessionOnEngine(InferenceEngine& engine,
                                 const JoinPredicate& goal, Strategy& strategy,
                                 Oracle& oracle,
                                 const SessionOptions& options) {
  const TupleStore& store = engine.store();
  util::Rng user_rng(options.user_seed);
  std::vector<bool> tuple_labeled(engine.num_tuples(), false);

  SessionResult result;
  util::Stopwatch session_clock;

  if (options.tracer != nullptr) {
    obs::SessionTracer::SessionMeta meta;
    meta.strategy = std::string(strategy.name());
    meta.mode = std::string(InteractionModeToString(options.mode));
    meta.instance = store.name();
    meta.num_tuples = engine.num_tuples();
    meta.num_classes = engine.num_classes();
    options.tracer->BeginSession(std::move(meta));
  }

  while (!engine.IsDone()) {
    JIM_CHECK_LT(result.steps.size(), options.max_steps)
        << "session exceeded max_steps — engine failed to make progress";
    util::Stopwatch step_clock;
    std::optional<StepTrace> trace;
    if (options.tracer != nullptr) trace.emplace(engine);
    const std::optional<size_t> choice =
        ChooseClass(engine, strategy, options, user_rng, tuple_labeled);
    if (!choice.has_value()) {
      // Mode 1 user labeled everything; the engine necessarily IsDone now
      // (every class is explicitly labeled) — but guard against surprises.
      JIM_CHECK(engine.IsDone());
      break;
    }
    const size_t class_id = *choice;
    const size_t tuple_index = engine.tuple_class(class_id).tuple_indices[0];
    // Decode-on-demand: the only Value materialization in a session is the
    // tuple actually shown to the (simulated) user.
    const Label label = oracle.LabelFor(store.DecodeTuple(tuple_index));

    SessionStep step;
    step.class_id = class_id;
    step.tuple_index = tuple_index;
    step.label = label;

    InferenceEngine::LabelImpact impact;
    const util::Status status =
        engine.SubmitClassLabel(class_id, label, &impact);
    if (!status.ok()) {
      // Only a noisy oracle can contradict itself. Skip the submission (the
      // real system would re-ask); count the wasted interaction.
      ++result.wasted_interactions;
      step.micros = step_clock.ElapsedMicros();
      result.steps.push_back(step);
      if (trace) {
        trace->Record(*options.tracer, result.steps.size() - 1, step,
                      /*accepted=*/false, engine);
      }
      continue;
    }
    step.pruned_classes = impact.pruned_classes;
    step.pruned_tuples = impact.pruned_tuples;
    step.micros = step_clock.ElapsedMicros();
    result.steps.push_back(step);
    if (trace) {
      trace->Record(*options.tracer, result.steps.size() - 1, step,
                    /*accepted=*/true, engine);
    }
  }

  result.interactions = result.steps.size();
  result.total_seconds = session_clock.ElapsedSeconds();
  result.result = engine.Result();
  result.identified_goal = InstanceEquivalent(store, *result.result, goal);
  result.final_stats = engine.GetStats();
  result.wasted_interactions += result.final_stats.wasted_interactions;
  if (options.tracer != nullptr) {
    options.tracer->EndSession(result.identified_goal, result.interactions,
                               result.wasted_interactions,
                               result.total_seconds);
  }
  return result;
}

SessionResult RunSession(std::shared_ptr<const TupleStore> store,
                         const JoinPredicate& goal, Strategy& strategy) {
  ExactOracle oracle(goal);
  return RunSession(std::move(store), goal, strategy, oracle,
                    SessionOptions{});
}

}  // namespace jim::core
