#include "ui/demo_runner.h"

#include <optional>
#include <sstream>
#include <vector>

#include "obs/trace.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace jim::ui {

namespace {

using core::InferenceEngine;
using core::InteractionMode;
using core::Label;

/// Reads one non-empty input line; nullopt at EOF.
std::optional<std::string> ReadCommand(std::istream& in, std::ostream& out,
                                       const std::string& prompt) {
  std::string line;
  while (true) {
    out << prompt << std::flush;
    if (!std::getline(in, line)) return std::nullopt;
    const std::string_view stripped = util::StripWhitespace(line);
    if (!stripped.empty()) return std::string(stripped);
  }
}

struct ParsedAnswer {
  enum class Kind { kLabel, kShowTable, kShowProgress, kQuit } kind;
  Label label = Label::kPositive;
  /// 1-based row/option number for modes that need one; 0 = none given.
  size_t number = 0;
};

std::optional<ParsedAnswer> ParseAnswer(const std::string& command) {
  ParsedAnswer answer{ParsedAnswer::Kind::kLabel, Label::kPositive, 0};
  std::istringstream tokens(command);
  std::string first;
  tokens >> first;
  if (first == "q" || first == "quit") {
    answer.kind = ParsedAnswer::Kind::kQuit;
    return answer;
  }
  if (first == "t" || first == "table") {
    answer.kind = ParsedAnswer::Kind::kShowTable;
    return answer;
  }
  if (first == "p" || first == "progress") {
    answer.kind = ParsedAnswer::Kind::kShowProgress;
    return answer;
  }
  std::string label_token = first;
  if (first != "+" && first != "-") {
    // "<number> <label>" form.
    auto number = util::ParseInt64(first);
    if (!number.ok() || *number <= 0) return std::nullopt;
    answer.number = static_cast<size_t>(*number);
    if (!(tokens >> label_token)) return std::nullopt;
  }
  if (label_token == "+") {
    answer.label = Label::kPositive;
  } else if (label_token == "-") {
    answer.label = Label::kNegative;
  } else {
    return std::nullopt;
  }
  return answer;
}

}  // namespace

util::StatusOr<core::JoinPredicate> RunConsoleDemo(
    std::shared_ptr<const core::TupleStore> store, DemoOptions options,
    std::istream& in, std::ostream& out) {
  ASSIGN_OR_RETURN(auto strategy,
                   core::MakeStrategy(options.strategy, options.seed));
  InferenceEngine engine(std::move(store));
  util::Rng rng(options.seed);

  out << "JIM — Join Inference Machine\n"
      << "mode: " << core::InteractionModeToString(options.mode)
      << ", strategy: " << strategy->name() << "\n\n";
  const bool free_mode = options.mode == InteractionMode::kLabelAll ||
                         options.mode == InteractionMode::kGrayOut;
  // Mode 1 hides the gray-out; render uninformative rows like informative
  // ones by disabling color (the marker still shows in parentheses).
  RenderOptions render = options.render;
  if (options.mode == InteractionMode::kLabelAll) render.color = false;
  out << RenderInstance(engine, render);

  std::optional<util::Stopwatch> session_clock;
  size_t trace_steps = 0;
  if (options.tracer != nullptr) {
    obs::SessionTracer::SessionMeta meta;
    meta.strategy = std::string(strategy->name());
    meta.mode = std::string(core::InteractionModeToString(options.mode));
    meta.instance = engine.store().name();
    meta.num_tuples = engine.num_tuples();
    meta.num_classes = engine.num_classes();
    options.tracer->BeginSession(std::move(meta));
    session_clock.emplace();
  }

  while (!engine.IsDone()) {
    // Trace bookkeeping is tracer-gated so an untraced demo never reads the
    // clock or the metrics registry.
    std::optional<util::Stopwatch> step_clock;
    std::optional<core::StepTrace> trace;
    if (options.tracer != nullptr) {
      step_clock.emplace();
      trace.emplace(engine);
    }

    // What is being asked this round?
    std::vector<size_t> proposed_classes;
    std::string prompt;
    switch (options.mode) {
      case InteractionMode::kLabelAll:
      case InteractionMode::kGrayOut:
        prompt = "label any tuple (\"<row> +\" / \"<row> -\", t, p, q)> ";
        break;
      case InteractionMode::kTopK: {
        proposed_classes = strategy->TopK(engine, options.top_k);
        out << "most informative tuples:\n";
        for (size_t i = 0; i < proposed_classes.size(); ++i) {
          const size_t tuple =
              engine.tuple_class(proposed_classes[i]).tuple_indices[0];
          out << "  [" << (i + 1) << "] "
              << RenderTuple(engine.store(), tuple) << "\n";
        }
        prompt = "label one (\"<option> +\" / \"<option> -\", t, p, q)> ";
        break;
      }
      case InteractionMode::kMostInformative: {
        proposed_classes = {strategy->PickClass(engine)};
        const size_t tuple =
            engine.tuple_class(proposed_classes[0]).tuple_indices[0];
        out << "include this tuple in the join result?\n  "
            << RenderTuple(engine.store(), tuple) << "\n";
        prompt = "(+ / - / t / p / q)> ";
        break;
      }
    }

    // Get the answer — from the auto-oracle or from the console.
    std::optional<ParsedAnswer> answer;
    if (options.auto_oracle != nullptr) {
      ParsedAnswer simulated{ParsedAnswer::Kind::kLabel, Label::kPositive, 0};
      size_t tuple_index;
      if (free_mode) {
        // The simulated user clicks a random informative tuple.
        const auto informative = engine.InformativeClasses();
        const size_t cls = informative[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(informative.size()) - 1))];
        tuple_index = engine.tuple_class(cls).tuple_indices[0];
        simulated.number = tuple_index + 1;
      } else {
        const size_t pick =
            proposed_classes.size() == 1
                ? 0
                : static_cast<size_t>(rng.UniformInt(
                      0, static_cast<int64_t>(proposed_classes.size()) - 1));
        simulated.number =
            options.mode == InteractionMode::kTopK ? pick + 1 : 0;
        tuple_index = engine.tuple_class(proposed_classes[pick])
                          .tuple_indices[0];
      }
      simulated.label =
          options.auto_oracle->LabelFor(engine.store().DecodeTuple(tuple_index));
      out << prompt << "[auto] "
          << (simulated.number > 0
                  ? util::StrFormat("%zu ", simulated.number)
                  : std::string())
          << core::LabelToString(simulated.label) << "\n";
      answer = simulated;
    } else {
      const auto command = ReadCommand(in, out, prompt);
      if (!command.has_value()) {
        return util::FailedPreconditionError(std::string(kInputEndedMessage));
      }
      answer = ParseAnswer(*command);
      if (!answer.has_value()) {
        out << "could not parse that — expected e.g. \"+\", \"3 -\", t, p, q\n";
        continue;
      }
    }

    switch (answer->kind) {
      case ParsedAnswer::Kind::kQuit:
        return util::FailedPreconditionError(std::string(kUserQuitMessage));
      case ParsedAnswer::Kind::kShowTable:
        out << RenderInstance(engine, render);
        continue;
      case ParsedAnswer::Kind::kShowProgress:
        out << RenderProgress(engine) << "\n";
        continue;
      case ParsedAnswer::Kind::kLabel:
        break;
    }

    // Resolve the answer to a tuple and submit.
    util::Status status;
    InferenceEngine::LabelImpact impact;
    size_t submitted_class = 0;
    size_t submitted_tuple = 0;
    if (free_mode) {
      if (answer->number == 0 || answer->number > engine.num_tuples()) {
        out << "row number out of range\n";
        continue;
      }
      submitted_tuple = answer->number - 1;
      submitted_class = engine.class_of_tuple(submitted_tuple);
      status = engine.SubmitTupleLabel(submitted_tuple, answer->label, &impact);
    } else if (options.mode == InteractionMode::kTopK) {
      if (answer->number == 0 || answer->number > proposed_classes.size()) {
        out << "option number out of range\n";
        continue;
      }
      submitted_class = proposed_classes[answer->number - 1];
      submitted_tuple = engine.tuple_class(submitted_class).tuple_indices[0];
      status = engine.SubmitClassLabel(submitted_class, answer->label, &impact);
    } else {
      submitted_class = proposed_classes[0];
      submitted_tuple = engine.tuple_class(submitted_class).tuple_indices[0];
      status = engine.SubmitClassLabel(submitted_class, answer->label, &impact);
    }
    if (trace) {
      const core::SessionStep step{submitted_class, submitted_tuple,
                                   answer->label,   impact.pruned_classes,
                                   impact.pruned_tuples,
                                   step_clock->ElapsedMicros()};
      trace->Record(*options.tracer, trace_steps++, step, status.ok(), engine);
    }
    if (!status.ok()) {
      out << "rejected: " << status.message() << "\n";
      continue;
    }
    if (options.mode != InteractionMode::kLabelAll) {
      out << RenderProgress(engine) << "\n";
    }
  }

  if (options.tracer != nullptr) {
    const auto final_stats = engine.GetStats();
    options.tracer->EndSession(/*identified_goal=*/true, trace_steps,
                               final_stats.wasted_interactions,
                               session_clock->ElapsedSeconds());
  }

  const core::JoinPredicate result = engine.Result();
  out << "\ninferred join query: " << result.ToString() << "\n"
      << "SQL: SELECT * FROM " << engine.store().name() << " WHERE "
      << result.ToSqlWhere() << ";\n"
      << RenderProgress(engine) << "\n";
  return result;
}

}  // namespace jim::ui
