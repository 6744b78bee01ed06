#ifndef JIM_CORE_SESSION_H_
#define JIM_CORE_SESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/example.h"
#include "core/join_predicate.h"
#include "core/oracle.h"
#include "core/strategies.h"
#include "relational/relation.h"
#include "util/status.h"

namespace jim::obs {
class SessionTracer;
}  // namespace jim::obs

namespace jim::core {

/// The four interaction types of the demonstration (paper Figure 3).
enum class InteractionMode {
  /// (1) The user labels tuples in any order, nothing is grayed out; wasted
  /// labels on uninformative tuples count as interactions.
  kLabelAll = 1,
  /// (2) Free order, but uninformative tuples are grayed out interactively;
  /// the simulated user picks a random non-grayed tuple.
  kGrayOut = 2,
  /// (3) The system proposes the top-k informative tuples; the user labels
  /// one of them (the simulated user picks uniformly among the k).
  kTopK = 3,
  /// (4) The core interactive scenario: the system proposes the single most
  /// informative tuple according to the strategy.
  kMostInformative = 4,
};

std::string_view InteractionModeToString(InteractionMode mode);

/// Strictly parses a user-supplied interaction-mode number ("1".."4");
/// rejects non-numbers, trailing garbage, and out-of-range values. Shared by
/// the example CLIs so their --mode flags validate identically.
util::StatusOr<InteractionMode> ParseInteractionMode(std::string_view text);

/// One question/answer exchange in a session trace.
struct SessionStep {
  size_t class_id = 0;
  size_t tuple_index = 0;
  Label label = Label::kPositive;
  /// Classes/tuples that left the informative pool because of this label
  /// (the labeled one included); 0 for wasted labels.
  size_t pruned_classes = 0;
  size_t pruned_tuples = 0;
  /// Strategy + propagation time for this step.
  int64_t micros = 0;
};

/// Outcome of a full simulated inference session.
struct SessionResult {
  std::vector<SessionStep> steps;
  /// Number of labels the user supplied (== steps.size()).
  size_t interactions = 0;
  /// Labels that taught the system nothing (mode 1 can waste effort).
  size_t wasted_interactions = 0;
  /// The predicate JIM returns (θ_P at termination).
  std::optional<JoinPredicate> result;
  /// Whether `result` selects exactly the same tuples as the goal — the
  /// paper's success criterion (identification up to instance-equivalence).
  bool identified_goal = false;
  double total_seconds = 0;
  /// Engine statistics at termination.
  InferenceEngine::Stats final_stats;
};

/// Options for RunSession.
struct SessionOptions {
  InteractionMode mode = InteractionMode::kMostInformative;
  /// k for mode 3.
  size_t top_k = 5;
  /// Seed for the simulated user's own choices (modes 1-3).
  uint64_t user_seed = 7;
  /// Safety valve: abort (JIM_CHECK) if a session exceeds this many steps —
  /// a session can never legitimately need more labels than tuple classes.
  size_t max_steps = 1 << 20;
  /// Optional structured tracer (obs/trace.h): one typed event per step.
  /// Purely observational — a session runs identically with or without it
  /// (the parity suites pin this). Not owned; null means "don't trace".
  obs::SessionTracer* tracer = nullptr;
};

/// Runs a complete inference session: the oracle answers, the strategy (and
/// mode) decides what gets asked. Terminates when the engine identifies the
/// goal up to instance-equivalence. `goal` is used only to check
/// `identified_goal` (the oracle may embed noise or a different predicate).
/// The instance comes in through the TupleStore seam; tuples are decoded
/// only when shown to the oracle.
SessionResult RunSession(std::shared_ptr<const TupleStore> store,
                         const JoinPredicate& goal, Strategy& strategy,
                         Oracle& oracle, const SessionOptions& options = {});

/// Convenience: wraps `relation` into a RelationTupleStore first.
SessionResult RunSession(std::shared_ptr<const rel::Relation> relation,
                         const JoinPredicate& goal, Strategy& strategy,
                         Oracle& oracle, const SessionOptions& options = {});

/// Same, but drives an engine the caller already built — typically a copy of
/// a prototype (an engine copy shares the class table and copies only
/// O(classes) of session state), which skips the O(N·n²) class construction
/// per session. This is the unit of work exec::BatchSessionRunner fans out. The
/// engine must be fresh (no labels yet) for the session trace to mean what
/// the benches assume.
SessionResult RunSessionOnEngine(InferenceEngine& engine,
                                 const JoinPredicate& goal, Strategy& strategy,
                                 Oracle& oracle,
                                 const SessionOptions& options = {});

/// Convenience: exact oracle for `goal`, default options with mode 4.
SessionResult RunSession(std::shared_ptr<const TupleStore> store,
                         const JoinPredicate& goal, Strategy& strategy);
SessionResult RunSession(std::shared_ptr<const rel::Relation> relation,
                         const JoinPredicate& goal, Strategy& strategy);

/// Serializes a session trace to compact JSON (for external analysis of
/// bench runs): interactions, per-step asked tuple/label/pruning/latency,
/// the inferred predicate, and the identification verdict.
std::string SessionResultToJson(const SessionResult& result);

}  // namespace jim::core

#endif  // JIM_CORE_SESSION_H_
