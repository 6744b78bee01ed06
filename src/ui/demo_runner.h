#ifndef JIM_UI_DEMO_RUNNER_H_
#define JIM_UI_DEMO_RUNNER_H_

#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "core/jim.h"
#include "ui/console_ui.h"
#include "util/status.h"

namespace jim::obs {
class SessionTracer;
}  // namespace jim::obs

namespace jim::ui {

/// Options for an interactive console demo session.
struct DemoOptions {
  core::InteractionMode mode = core::InteractionMode::kMostInformative;
  std::string strategy = "lookahead-entropy";
  size_t top_k = 5;
  RenderOptions render;
  /// When set, a simulated user answers from this goal instead of stdin —
  /// lets the demo run unattended (`--auto` in the examples) and lets tests
  /// drive the full UI loop.
  std::unique_ptr<core::Oracle> auto_oracle;
  uint64_t seed = 11;
  /// Optional structured tracer (obs/trace.h): records one typed event per
  /// submitted label, mirroring core::SessionOptions::tracer for the
  /// console loop. Purely observational; not owned; null = don't trace.
  obs::SessionTracer* tracer = nullptr;
};

/// Error messages RunConsoleDemo returns for the two premature-end cases.
/// Exported so callers can distinguish "stdin ran dry" (safe to fall back to
/// a simulated user) from a deliberate quit — both are FAILED_PRECONDITION.
inline constexpr std::string_view kInputEndedMessage =
    "input ended before the join query was identified";
inline constexpr std::string_view kUserQuitMessage =
    "user quit before completion";

/// Drives one inference session over `store` through the console:
/// renders the instance, asks membership questions (reading "+", "-",
/// "t"=show table, "p"=progress, "q"=quit from `in`), propagates labels,
/// and prints the inferred join query at the end.
///
/// Implements all four interaction types of the demo (Figure 3):
///   mode 1/2: the user picks "<row> +"/"<row> -" herself (mode 2 grays out
///             uninformative rows in the rendered table);
///   mode 3:   JIM proposes the top-k informative tuples, the user answers
///             "<option> +"/"<option> -";
///   mode 4:   JIM proposes the single most informative tuple, the user
///             answers "+"/"-".
///
/// Returns the inferred predicate, or an error if input ends prematurely /
/// the strategy name is unknown.
util::StatusOr<core::JoinPredicate> RunConsoleDemo(
    std::shared_ptr<const core::TupleStore> store, DemoOptions options,
    std::istream& in, std::ostream& out);

}  // namespace jim::ui

#endif  // JIM_UI_DEMO_RUNNER_H_
