#ifndef JIM_SERVE_SESSION_MANAGER_H_
#define JIM_SERVE_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/join_predicate.h"
#include "core/strategies.h"
#include "serve/checkpoint.h"
#include "storage/env.h"
#include "util/status.h"

namespace jim::serve {

struct ServeOptions {
  storage::Env* env = nullptr;  ///< nullptr → storage::DefaultEnv()
  /// Directory for session checkpoints; empty disables checkpointing (and
  /// recovery). Created on demand.
  std::string checkpoint_dir;
  /// Admission control: cap on concurrently live sessions. `create` beyond
  /// it is a typed kResourceExhausted rejection.
  size_t max_sessions = 64;
  /// Default per-session accepted-label cap (a `create` may lower-or-raise
  /// it per session); labels past the cap are kResourceExhausted.
  uint64_t default_max_steps = 4096;
  /// Instance used when `create` does not name one ("" = none; `create`
  /// must then always pass an instance).
  std::string default_instance;
  storage::RetryPolicy retry;
};

/// Owns the live sessions of a serving daemon: per-session engine copies
/// over shared read-only stores and class tables, strategy state, admission
/// control, and the checkpoint/recovery path. Thread-safe: the registry is
/// guarded by one mutex, each session by its own, so requests for different
/// sessions proceed in parallel on the server's connection handlers.
/// Sessions keep their strategy's default pool, exec::SharedPool(): a
/// lookahead pick fans out onto it only when its worklist is wide enough to
/// pay for the dispatch (core::kParallelLookaheadMinCandidates).
///
/// Determinism contract: a session is fully determined by (instance,
/// strategy, seed, label transcript). `suggest` computes the strategy's
/// pick at most once per step (repeats return the cached pick, so polling
/// clients never advance a strategy's RNG), and recovery replays the
/// checkpointed transcript — re-driving PickClass exactly where a suggest
/// preceded the label — so a restarted daemon's remaining responses are
/// byte-identical to an uninterrupted run's.
class SessionManager {
 public:
  explicit SessionManager(ServeOptions options);
  ~SessionManager() = default;

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Registers an in-memory store under `name` so `create` requests (and
  /// recovered checkpoints) can reference it without a file. The CLI
  /// registers its --load-instance store under the path it came from;
  /// tests register synthetic stores directly.
  void RegisterInstance(const std::string& name,
                        std::shared_ptr<const core::TupleStore> store);

  /// Rebuilds every checkpointed session from `checkpoint_dir` (no-op when
  /// checkpointing is off). Call once, before serving. Fails loudly —
  /// kInvalidArgument for a corrupt checkpoint or one whose session id does
  /// not match its file name, kInternal for a replay divergence — rather
  /// than silently dropping a user's session.
  util::Status RecoverSessions();

  struct CreateResult {
    std::string session_id;
    size_t num_tuples = 0;
    size_t num_classes = 0;
    bool done = false;  ///< a one-class instance can be born done
  };
  util::StatusOr<CreateResult> Create(const std::string& instance,
                                      const std::string& strategy,
                                      const std::string& goal, uint64_t seed,
                                      uint64_t max_steps);

  struct SuggestResult {
    bool done = false;
    size_t step = 0;  ///< accepted labels so far
    // Valid when !done:
    size_t class_id = 0;
    size_t tuple_index = 0;  ///< representative member of the class
    size_t class_size = 0;
    std::vector<std::string> values;  ///< decoded representative tuple
  };
  util::StatusOr<SuggestResult> Suggest(const std::string& session_id);

  struct LabelResult {
    size_t step = 0;  ///< accepted labels after this one
    size_t pruned_classes = 0;
    size_t pruned_tuples = 0;
    bool wasted = false;  ///< consistent but taught nothing
    bool done = false;
  };
  util::StatusOr<LabelResult> Label(const std::string& session_id,
                                    size_t class_id, bool positive);

  struct StatusResult {
    size_t steps = 0;
    bool done = false;
    size_t num_tuples = 0;
    size_t num_classes = 0;
    size_t informative_classes = 0;
    size_t informative_tuples = 0;
    std::string strategy;
    std::string instance;
  };
  util::StatusOr<StatusResult> Status(const std::string& session_id);

  struct ResultReply {
    bool done = false;
    std::string predicate;  ///< θ_P so far (canonical once done)
    bool has_goal = false;
    bool identified_goal = false;  ///< instance-equivalent to the goal
  };
  util::StatusOr<ResultReply> Result(const std::string& session_id);

  /// Removes the session and its checkpoint file.
  util::Status Close(const std::string& session_id);

  struct Stats {
    size_t live = 0;
    uint64_t created = 0;
    uint64_t recovered = 0;
    uint64_t evicted = 0;
    uint64_t rejected = 0;
  };
  Stats GetStats() const;

 private:
  struct Instance {
    std::shared_ptr<const core::TupleStore> store;
    /// Built once per instance; sessions start as copies of it, sharing its
    /// class table.
    std::shared_ptr<const core::InferenceEngine> prototype;
  };

  struct Session {
    std::mutex mutex;
    core::InferenceEngine engine;
    std::unique_ptr<core::Strategy> strategy;
    std::optional<core::JoinPredicate> goal;
    /// Mirrors the durable state: config + accepted transcript.
    SessionCheckpoint checkpoint;
    /// The cached current-step pick (engine state already reflects every
    /// accepted label, so the pick is pending until the next label).
    bool has_pending_pick = false;
    size_t pending_pick = 0;

    Session(const core::InferenceEngine& prototype,
            std::unique_ptr<core::Strategy> strategy_in)
        : engine(prototype), strategy(std::move(strategy_in)) {}
  };

  util::Status EnsureCheckpointDir();
  /// Looks `name` up, opening (and caching) the JIMC file on miss.
  util::StatusOr<Instance*> GetOrOpenInstance(const std::string& name);
  util::StatusOr<std::shared_ptr<Session>> FindSession(
      const std::string& session_id);
  /// Builds a session from its checkpoint: clone, replay every step
  /// (re-driving PickClass where one was recorded), verify convergence.
  util::StatusOr<std::shared_ptr<Session>> ReplayCheckpoint(
      const SessionCheckpoint& checkpoint, const Instance& instance) const;
  /// Persists the session's checkpoint (no-op when checkpointing is off).
  /// Caller holds the session's mutex.
  util::Status PersistSession(Session& session);
  void UpdateLiveGauge() const;

  ServeOptions options_;
  storage::Env* env_;

  mutable std::mutex mutex_;
  std::map<std::string, Instance> instances_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  uint64_t next_session_ = 1;
  /// Atomics, not mutex_-guarded: Label's step-cap rejection bumps
  /// rejected_ while holding only its session's mutex, and the
  /// manager→session lock order must stay one-way.
  std::atomic<uint64_t> created_{0};
  std::atomic<uint64_t> recovered_{0};
  std::atomic<uint64_t> evicted_{0};
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace jim::serve

#endif  // JIM_SERVE_SESSION_MANAGER_H_
