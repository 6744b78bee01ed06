#ifndef JIM_EXEC_BATCH_RUNNER_H_
#define JIM_EXEC_BATCH_RUNNER_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/oracle.h"
#include "core/session.h"
#include "core/strategies.h"
#include "exec/thread_pool.h"

namespace jim::exec {

/// One independent inference session to run: which built engine to clone,
/// what the user wants, and how both sides of the interaction are
/// simulated. Factories (not instances) for the stateful parts, because
/// each session must own its strategy and oracle — they carry RNGs and
/// caches that cannot be shared across threads.
struct SessionSpec {
  SessionSpec(std::shared_ptr<const core::InferenceEngine> prototype_in,
              core::JoinPredicate goal_in)
      : prototype(std::move(prototype_in)), goal(std::move(goal_in)) {}

  /// The prototype engine, built once per instance and copied per session
  /// (O(classes): the class table and the store are shared). Many specs
  /// typically point at one prototype.
  std::shared_ptr<const core::InferenceEngine> prototype;
  core::JoinPredicate goal;
  std::function<std::unique_ptr<core::Strategy>()> make_strategy;
  /// Optional; defaults to an ExactOracle for `goal`.
  std::function<std::unique_ptr<core::Oracle>()> make_oracle;
  core::SessionOptions options;
};

/// Runs independent inference sessions — the repetitions × strategies ×
/// modes grids every bench sweeps — concurrently on engine clones.
///
/// Determinism: results land in the output vector at their spec's index and
/// every session is self-contained (own engine clone, own strategy/oracle
/// with spec-chosen seeds), so the output is identical at any thread count
/// — only wall-clock changes.
class BatchSessionRunner {
 public:
  /// `pool` is borrowed, not owned; nullptr runs the batch serially (the
  /// reference path the parity tests compare against).
  explicit BatchSessionRunner(ThreadPool* pool) : pool_(pool) {}

  /// Runs every spec to completion; result i belongs to spec i.
  std::vector<core::SessionResult> Run(
      const std::vector<SessionSpec>& specs) const;

 private:
  ThreadPool* pool_;
};

}  // namespace jim::exec

#endif  // JIM_EXEC_BATCH_RUNNER_H_
