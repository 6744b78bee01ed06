#ifndef PERFBENCH_HARNESS_HARNESS_H_
#define PERFBENCH_HARNESS_HARNESS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "harness/counting_env.h"
#include "harness/daemon.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "util/status.h"

namespace perfbench {

/// One phase of a run: closed-loop clients drive sessions until a deadline
/// or a session budget, optionally restarting the daemon mid-phase.
struct PhaseOptions {
  /// Timed window length; 0 runs until `session_budget` sessions started.
  double seconds = 0;
  size_t session_budget = 0;
  /// Sessions a timed phase starts even after its window closed (they are
  /// not measured), so a slow machine still plays every planted goal.
  size_t min_sessions = 0;
  /// Keep latency samples (off for warm-up).
  bool record = true;
  /// Feed every request to the twins and time each layer.
  bool traced = false;
  /// Daemon restarts, evenly spaced through the phase. The time clients
  /// spend parked for one is excluded from the window.
  size_t restarts = 0;
};

/// Per-layer observations of a traced phase (µs samples, exact counts).
struct TraceTotals {
  std::vector<double> transport_self_us;
  std::vector<double> parse_us;
  std::vector<double> handle_us;
  std::vector<double> session_manager_self_us;
  std::vector<double> pick_first_us;
  std::vector<double> pick_next_us;
  std::vector<double> label_us;
  std::vector<double> clone_us;
  std::vector<double> encode_us;
  uint64_t lines = 0;
  uint64_t bytes = 0;
  uint64_t picks = 0;
  uint64_t informative = 0;
  uint64_t evaluated = 0;
  uint64_t labels = 0;
  uint64_t pruned_classes = 0;
  /// Σ question round trips, and Σ of the per-layer self times inside them.
  int64_t question_nanos = 0;
  int64_t layer_nanos = 0;
  size_t live_sessions_max = 0;
  /// Responses or picks where a twin disagreed with the daemon.
  uint64_t twin_mismatches = 0;

  void Merge(const TraceTotals& other);
};

struct PhaseResult {
  /// Question latencies: blocks of consecutive questions, or with
  /// time_by_state one block holding every goal's questions, each at the
  /// floor of its session state.
  BlockQuantiles first_question_us;
  BlockQuantiles next_question_us;
  /// Per client, the rate at which each block of 100 consecutive labels it
  /// sent inside the window was acknowledged (labels per second). A block
  /// that spans a restart is dropped.
  std::vector<double> block_rates;
  /// With time_by_state: the floor of every round trip that carries a
  /// question, keyed by kind and session state, and per planted goal the
  /// keys of one play's round trips.
  FloorMap state_floors;
  std::vector<std::vector<std::string>> keys_by_plan;
  /// Clients × QuietHigh of the block rates; with time_by_state, clients ×
  /// the questions of one play of every goal over the sum of the floors of
  /// the round trips that carried them.
  double questions_per_s = 0;
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t sessions = 0;
  /// Sessions whose final predicate is instance-equivalent to their goal.
  uint64_t identified = 0;
  /// Per planted goal: questions it took (-1: not played in this phase),
  /// sessions that played it, and the predicate they ended with.
  std::vector<int64_t> questions_by_plan;
  std::vector<uint64_t> sessions_by_plan;
  std::vector<std::string> predicate_by_plan;
  /// Plays of a goal that took a different number of questions, or ended
  /// with a different predicate, than an earlier play.
  uint64_t nondeterministic_plays = 0;
  /// Recovered sessions whose next question differed from the one they
  /// were asked before the restart.
  uint64_t recovery_mismatches = 0;
  std::vector<double> restart_s;
  /// RecoverSessions time within each restart.
  std::vector<double> recover_s;
  TraceTotals trace;
  std::vector<std::string> errors;
};

/// Drives one workload against an in-process daemon. Not thread-safe: one
/// caller runs phases one after another.
class Harness {
 public:
  /// `env` is the daemon's storage env; it and `prepared` must outlive the
  /// harness.
  Harness(const WorkloadSpec& spec, const PreparedWorkload& prepared,
          CountingEnv* env, std::string checkpoint_dir);
  ~Harness();
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  jim::util::Status StartDaemon(double* recover_s = nullptr);
  void StopDaemon();

  /// Creates and closes sessions until the daemon mints three-digit ids, so
  /// every session of a following pool pass has an id of one length (the id
  /// is part of each checkpoint write).
  jim::util::Status PadSessionIds();

  PhaseResult RunPhase(const PhaseOptions& options);

 private:
  friend class ClientLoop;

  const WorkloadSpec spec_;
  const PreparedWorkload& prepared_;
  CountingEnv* env_;
  const std::string checkpoint_dir_;
  std::unique_ptr<Daemon> daemon_;

  // Shared with the client threads of the running phase.
  std::atomic<int64_t> deadline_{0};
  std::atomic<size_t> started_{0};
  std::atomic<bool> restart_requested_{false};
  std::mutex mutex_;
  std::condition_variable changed_;
  size_t active_clients_ = 0;  // guarded by mutex_
  size_t parked_clients_ = 0;  // guarded by mutex_
  uint64_t epoch_ = 0;         // guarded by mutex_; bumped by each restart
  uint16_t port_ = 0;          // guarded by mutex_
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HARNESS_H_
