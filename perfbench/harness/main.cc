// The serving benchmark: one workload, one seed, one process.
//
//   perfbench --workload <lookahead-wide|travel-durable>
//             --seed N --seconds S --trace 0|1 --workdir DIR
//
// Starts an in-process daemon (serve::Server + serve::SessionManager) over
// the workload's JIMC instance and drives closed-loop sessions through
// serve::Client over loopback TCP; each simulated user answers from their
// planted goal. Prints a header line, then, as the last line of standard
// output, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1 when
// a correctness gate fails. perfbench/README.md explains the workloads and
// the metrics.

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "exec/parallel.h"
#include "harness/counting_env.h"
#include "harness/harness.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "storage/mapped_store.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using jim::util::Status;
using jim::util::StatusOr;

/// Daemon starts behind setup_s, reported as their median. They come in
/// two batches, one before the warm-up and one after the timed window, so
/// that a stretch of interference from other tenants cannot cover them all.
/// A batch has at least kMinSetups starts, more while they have taken under
/// kSetupBudgetSeconds, so a millisecond-scale start still gets a steady
/// figure.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 100;
constexpr double kSetupBudgetSeconds = 0.5;
/// Mid-phase daemon restarts per phase behind restart_s (their Floor).
constexpr size_t kRestarts = 50;
/// Goals the traced pass plays at most (the first of the pool), so that a
/// traced run of lookahead-wide, whose twins triple each question's work,
/// stays well inside three minutes.
constexpr size_t kTracedSessions = 128;
/// Direct-call repetitions behind storage.open_s and engine.build_classes_s.
constexpr size_t kDirectRepetitions = 5;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string workdir;
};

StatusOr<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      ASSIGN_OR_RETURN(int64_t seed, jim::util::ParseInt64(value));
      args.seed = static_cast<uint64_t>(seed);
    } else if (flag == "--seconds") {
      ASSIGN_OR_RETURN(int64_t seconds, jim::util::ParseInt64(value));
      args.seconds = static_cast<double>(seconds);
    } else if (flag == "--trace") {
      ASSIGN_OR_RETURN(int64_t trace, jim::util::ParseInt64(value));
      args.trace = static_cast<int>(trace);
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return jim::util::InvalidArgumentError("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1) || args.workdir.empty()) {
    return jim::util::InvalidArgumentError(
        "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--workdir DIR");
  }
  return args;
}

/// Builds and writes the instance in a child process, so the harness's
/// peak RSS is the serving run's, not the generator's.
Status WriteInstanceInChild(const WorkloadSpec& spec, const std::string& path) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return jim::util::InternalError("fork failed");
  if (pid == 0) {
    const Status written = WriteInstance(spec, path);
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
    }
    std::fflush(nullptr);
    ::_exit(written.ok() ? 0 : 1);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return jim::util::InternalError("writing the instance failed");
  }
  return jim::util::OkStatus();
}

double PeakRssMib() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The result line: metrics in insertion order, numbers with every digit.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Fail(const std::string& reason) {
    std::fprintf(stderr, "perfbench: gate failed: %s\n", reason.c_str());
    correct_ = false;
  }
  bool correct() const { return correct_; }

  void Print(uint64_t attempted, uint64_t failed) const {
    std::string line = jim::util::StrFormat(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct_ ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      line += jim::util::StrFormat(
          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
          metrics_[i].name.c_str(), metrics_[i].value,
          metrics_[i].unit.c_str());
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

/// The gates every phase must pass.
void CheckPhase(const char* phase, const PhaseResult& result, Report& report) {
  for (const std::string& error : result.errors) {
    report.Fail(std::string(phase) + ": " + error);
  }
  if (result.failed != 0) {
    report.Fail(jim::util::StrFormat(
        "%s: %llu of %llu requests failed", phase,
        static_cast<unsigned long long>(result.failed),
        static_cast<unsigned long long>(result.requests)));
  }
  if (result.identified != result.sessions) {
    report.Fail(jim::util::StrFormat(
        "%s: %llu of %llu sessions did not identify their goal", phase,
        static_cast<unsigned long long>(result.sessions - result.identified),
        static_cast<unsigned long long>(result.sessions)));
  }
  if (result.nondeterministic_plays != 0) {
    report.Fail(jim::util::StrFormat(
        "%s: %llu plays of a goal took a different number of questions",
        phase,
        static_cast<unsigned long long>(result.nondeterministic_plays)));
  }
  if (result.recovery_mismatches != 0) {
    report.Fail(jim::util::StrFormat(
        "%s: %llu recovered sessions asked a different next question", phase,
        static_cast<unsigned long long>(result.recovery_mismatches)));
  }
  if (result.trace.twin_mismatches != 0) {
    report.Fail(jim::util::StrFormat(
        "%s: the twins disagreed with the daemon %llu times", phase,
        static_cast<unsigned long long>(result.trace.twin_mismatches)));
  }
}

/// Mean questions per session over the first `goals` goals of the pool;
/// fails unless each of them was played.
double QuestionsPerSession(const char* phase, const PhaseResult& result,
                           size_t goals, Report& report) {
  double sum = 0;
  for (size_t p = 0; p < goals; ++p) {
    const int64_t played = result.questions_by_plan[p];
    if (played < 0) {
      report.Fail(std::string(phase) +
                  ": the run was too short to play every planted goal");
      return 0;
    }
    sum += static_cast<double>(played);
  }
  return sum / static_cast<double>(goals);
}

double ValueOrFail(const StatusOr<double>& value, Report& report) {
  if (!value.ok()) {
    report.Fail(value.status().ToString());
    return 0;
  }
  return *value;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

int Run(const Args& args) {
  StatusOr<WorkloadSpec> found = FindWorkload(args.workload);
  if (!found.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", found.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec spec = *found;
  ::mkdir(args.workdir.c_str(), 0755);
  const std::string instance_path = args.workdir + "/instance.jimc";
  const std::string checkpoint_dir =
      spec.checkpoints ? args.workdir + "/checkpoints" : "";

  // Untimed preparation.
  Status written = WriteInstanceInChild(spec, instance_path);
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
    return 2;
  }
  // The shared pool (class building; any future lookahead fan-out) gets a
  // fixed size of at most half the cores, whatever the machine.
  const size_t threads = std::max<size_t>(
      1, std::min<size_t>(2, jim::exec::HardwareThreads() / 2));
  jim::exec::SetDefaultThreads(threads);
  StatusOr<PreparedWorkload> prepared =
      LoadWorkload(spec, args.seed, instance_path);
  if (!prepared.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 prepared.status().ToString().c_str());
    return 2;
  }
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "tuples=%zu clients=%zu shared_pool_threads=%zu "
              "instance_fs=%s checkpoint_fs=%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, prepared->store->num_tuples(),
              spec.clients, threads, FilesystemType(args.workdir).c_str(),
              spec.checkpoints ? "in-process-memory" : "none");
  std::fflush(stdout);

  Report report;
  MemoryDirEnv memory(checkpoint_dir);
  CountingEnv env(&memory);
  Harness harness(spec, *prepared, &env, checkpoint_dir);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto tally = [&](const PhaseResult& result) {
    attempted += result.requests;
    failed += result.failed;
  };

  // Daemon start: OpenStore (full validation), RegisterInstance (class
  // prototype), RecoverSessions, listen.
  std::vector<double> setup_s;
  auto time_setups = [&]() -> Status {
    double total = 0;
    for (size_t n = 0; n < kMinSetups ||
                       (total < kSetupBudgetSeconds && n < kMaxSetups);
         ++n) {
      harness.StopDaemon();
      const int64_t start = NowNanos();
      RETURN_IF_ERROR(harness.StartDaemon());
      setup_s.push_back(static_cast<double>(NowNanos() - start) * 1e-9);
      total += setup_s.back();
    }
    return jim::util::OkStatus();
  };
  Status setups = time_setups();
  if (!setups.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", setups.ToString().c_str());
    return 2;
  }

  PhaseOptions warmup;
  warmup.session_budget = spec.warmup_sessions;
  warmup.record = false;
  const PhaseResult warm = harness.RunPhase(warmup);
  CheckPhase("warm-up", warm, report);
  tally(warm);

  PhaseOptions timed;
  timed.seconds = args.seconds;
  timed.min_sessions = spec.pool;
  timed.restarts = kRestarts;
  const PhaseResult run = harness.RunPhase(timed);
  CheckPhase("timed", run, report);
  tally(run);
  const double questions_per_session =
      QuestionsPerSession("timed", run, spec.pool, report);
  const double next_p50 =
      ValueOrFail(run.next_question_us.P50("next_question"), report);
  if (spec.time_by_state) {
    // How often a typical question's state was timed: what its floor
    // rests on.
    std::vector<double> seen;
    for (const std::vector<std::string>& keys : run.keys_by_plan) {
      for (const std::string& key : keys) {
        seen.push_back(static_cast<double>(run.state_floors.Count(key)));
      }
    }
    std::fprintf(stderr,
                 "perfbench: %zu session states timed; a question's state "
                 "was timed %.0f times at the median\n",
                 run.state_floors.size(), Median(seen));
  }
  setups = time_setups();
  if (!setups.ok()) report.Fail(setups.ToString());

  if (args.trace == 0) {
    report.Add("setup_s", Median(setup_s), "s");
    const BlockQuantiles& first = run.first_question_us;
    report.Add("first_question_p50_us",
               ValueOrFail(first.P50("first_question"), report), "us");
    report.Add("first_question_p90_us",
               ValueOrFail(first.P90("first_question"), report), "us");
    report.Add("next_question_p50_us", next_p50, "us");
    report.Add("next_question_p90_us",
               ValueOrFail(run.next_question_us.P90("next_question"), report),
               "us");
    report.Add("questions_per_s", run.questions_per_s, "1/s");
    report.Add("questions_per_session", questions_per_session, "count");
    report.Add("goal_identified_frac",
               Ratio(static_cast<double>(run.identified),
                     static_cast<double>(run.sessions)),
               "ratio");
    report.Add("request_success_frac",
               Ratio(static_cast<double>(attempted - failed),
                     static_cast<double>(attempted)),
               "ratio");
    report.Add("peak_rss_mib", PeakRssMib(), "MiB");
    report.Add("restart_s", Floor(run.restart_s), "s");
    report.Print(attempted, failed);
    return report.correct() ? 0 : 1;
  }

  // Traced run. Direct calls first: the instance open with full validation
  // and the class build, each repeated.
  std::vector<double> open_s;
  std::vector<double> build_s;
  uint64_t mapped_bytes = 0;
  size_t classes = 0;
  for (size_t i = 0; i < kDirectRepetitions; ++i) {
    CountingEnv open_env;
    jim::storage::OpenOptions open_options;
    open_options.env = &open_env;
    int64_t start = NowNanos();
    auto store = jim::storage::OpenStore(instance_path, open_options);
    open_s.push_back(static_cast<double>(NowNanos() - start) * 1e-9);
    if (!store.ok()) {
      report.Fail(store.status().ToString());
      break;
    }
    mapped_bytes = open_env.counts().mapped_bytes;
    start = NowNanos();
    const jim::core::InferenceEngine engine(*store);
    build_s.push_back(static_cast<double>(NowNanos() - start) * 1e-9);
    classes = engine.num_classes();
  }

  // The traced pass plays the first traced_goals planted goals once on a
  // fresh daemon.
  const size_t traced_goals = std::min(spec.pool, kTracedSessions);
  harness.StopDaemon();
  Status restarted = harness.StartDaemon();
  if (restarted.ok()) restarted = harness.PadSessionIds();
  if (!restarted.ok()) {
    report.Fail(restarted.ToString());
  }
  const CountingEnv::Counts before = env.counts();
  PhaseOptions traced_options;
  traced_options.session_budget = traced_goals;
  traced_options.traced = true;
  traced_options.restarts = kRestarts;
  const PhaseResult traced = harness.RunPhase(traced_options);
  const CountingEnv::Counts after = env.counts();
  CheckPhase("traced", traced, report);
  tally(traced);
  if (!std::equal(traced.questions_by_plan.begin(),
                  traced.questions_by_plan.begin() + traced_goals,
                  run.questions_by_plan.begin())) {
    report.Fail("tracing changed how many questions a goal took");
  }
  if (QuestionsPerSession("traced", traced, traced_goals, report) !=
      QuestionsPerSession("timed", run, traced_goals, report)) {
    report.Fail("questions_per_session differs between the traced and "
                "untraced runs");
  }

  const TraceTotals& t = traced.trace;
  const double labels = static_cast<double>(t.labels);
  const double restarts = static_cast<double>(traced.recover_s.size());

  report.Add("transport.self_us_p50", Median(t.transport_self_us), "us");
  report.Add("transport.requests_per_question",
             Ratio(static_cast<double>(t.lines), labels), "count");
  report.Add("transport.bytes_per_question",
             Ratio(static_cast<double>(t.bytes), labels), "bytes");
  report.Add("protocol.parse_us_p50", Median(t.parse_us), "us");
  report.Add("protocol.handle_us_p50", Median(t.handle_us), "us");
  report.Add("session_manager.self_us_p50", Median(t.session_manager_self_us),
             "us");
  report.Add("session_manager.live_sessions_max",
             static_cast<double>(t.live_sessions_max), "count");
  report.Add("strategies.pick_first_us_p50", Median(t.pick_first_us), "us");
  report.Add("strategies.pick_next_us_p50", Median(t.pick_next_us), "us");
  report.Add("strategies.informative_per_pick",
             Ratio(static_cast<double>(t.informative),
                   static_cast<double>(t.picks)),
             "count");
  report.Add("strategies.evaluated_per_pick",
             Ratio(static_cast<double>(t.evaluated),
                   static_cast<double>(t.picks)),
             "count");
  report.Add("strategies.evaluated_frac",
             Ratio(static_cast<double>(t.evaluated),
                   static_cast<double>(t.informative)),
             "ratio");
  report.Add("engine.label_us_p50", Median(t.label_us), "us");
  report.Add("engine.create_clone_us_p50", Median(t.clone_us), "us");
  report.Add("engine.pruned_classes_per_label",
             Ratio(static_cast<double>(t.pruned_classes), labels), "count");
  report.Add("checkpoint.io_us_per_label",
             Ratio(static_cast<double>(after.write_nanos - before.write_nanos) *
                       1e-3,
                   labels),
             "us");
  report.Add("checkpoint.encode_us_p50", Median(t.encode_us), "us");
  report.Add("checkpoint.bytes_per_label",
             Ratio(static_cast<double>(after.append_bytes -
                                       before.append_bytes),
                   labels),
             "bytes");
  report.Add("checkpoint.syncs_per_label",
             Ratio(static_cast<double>(after.syncs - before.syncs +
                                       after.dir_syncs - before.dir_syncs),
                   labels),
             "count");
  report.Add("checkpoint.renames_per_label",
             Ratio(static_cast<double>(after.renames - before.renames), labels),
             "count");
  report.Add("checkpoint.recover_s", Median(traced.recover_s), "s");
  report.Add("checkpoint.recover_read_bytes",
             Ratio(static_cast<double>(after.read_bytes - before.read_bytes),
                   restarts),
             "bytes");
  report.Add("storage.open_s", Median(open_s), "s");
  report.Add("storage.mapped_bytes", static_cast<double>(mapped_bytes),
             "bytes");
  report.Add("engine.build_classes_s", Median(build_s), "s");
  report.Add("engine.classes", static_cast<double>(classes), "count");
  report.Add("exec.threads", static_cast<double>(threads), "count");
  report.Add("trace.coverage",
             Ratio(static_cast<double>(t.layer_nanos),
                   static_cast<double>(t.question_nanos)),
             "ratio");
  report.Add("trace.overhead_frac",
             Ratio(ValueOrFail(traced.next_question_us.P50("traced"), report),
                   next_p50) - 1,
             "ratio");
  report.Print(attempted, failed);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  auto args = perfbench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  return perfbench::Run(*args);
}
