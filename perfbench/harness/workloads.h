#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/join_predicate.h"
#include "core/tuple_store.h"
#include "util/status.h"

namespace perfbench {

/// How one workload drives the daemon. The reasons for each choice are in
/// perfbench/README.md.
struct WorkloadSpec {
  std::string name;
  /// Closed-loop client threads, one connection each.
  size_t clients = 1;
  /// Sessions each client keeps live, sending one question step to each in
  /// turn.
  size_t live_per_client = 1;
  /// Session checkpoints on (and restarts recover live sessions).
  bool checkpoints = false;
  /// Planted goals per run. Session k plays goal k mod pool, so every goal
  /// is played at least once per phase and questions_per_session is exact.
  size_t pool = 64;
  /// Off: the seed draws the pool's goals. On: the pool is every goal of
  /// the workload's ranks, each once, and the seed draws their order; `pool`
  /// must be their number. Where the p50 sits on a steep stretch of the
  /// question costs, a drawn pool moves it by 5-10% from one seed to the
  /// next, more than many a real change would.
  bool every_goal = false;
  /// Untimed sessions before the timed phase.
  size_t warmup_sessions = 8;
  /// How a run's many question timings become one figure. Off: blocks of
  /// 100 consecutive questions (see BlockQuantiles), for workloads whose
  /// questions all cost about the same. On: every question of one play of
  /// each goal, timed at the floor over all plays of its session state (see
  /// FloorMap), for workloads whose question cost depends on the goal and
  /// the step, where a block of 100 would hold a different mix of cheap and
  /// dear questions each time.
  bool time_by_state = false;
};

/// Known workloads: lookahead-wide, travel-durable.
jim::util::StatusOr<WorkloadSpec> FindWorkload(const std::string& name);

/// One simulated user: the goal they have in mind, as `create` sends it,
/// and the seed of their session's strategy.
struct SessionPlan {
  std::string goal_text;
  jim::core::JoinPredicate goal;
  uint64_t seed = 1;
};

/// A workload's inputs: its instance, written once as a JIMC file, and
/// its pool of planted goals.
struct PreparedWorkload {
  std::string instance_path;
  /// The JIMC file opened by the harness itself, for the simulated users.
  std::shared_ptr<const jim::core::TupleStore> store;
  std::vector<SessionPlan> plans;
};

/// Builds the instance of `spec` and writes it as a JIMC file at `path`.
/// The instance is fixed per workload, so seeds vary only the users.
jim::util::Status WriteInstance(const WorkloadSpec& spec,
                                const std::string& path);

/// Opens the instance WriteInstance wrote at `path` and draws `spec.pool`
/// planted goals from `seed`.
jim::util::StatusOr<PreparedWorkload> LoadWorkload(const WorkloadSpec& spec,
                                                   uint64_t seed,
                                                   const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
