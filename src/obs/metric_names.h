#ifndef JIM_OBS_METRIC_NAMES_H_
#define JIM_OBS_METRIC_NAMES_H_

/// The instrumentation schema: every metric the library emits, in one
/// place, so call sites, tests, benches, and the CLI agree on spelling.
/// Naming conventions:
///   - dotted "<subsystem>.<noun>[.<qualifier>]" keys, sorted-stable in
///     snapshots;
///   - histograms fed wall-clock durations end in "_micros" — their
///     count is deterministic but sum/buckets vary run to run; every
///     other metric (counters, gauges, value histograms) is fully
///     deterministic for a deterministic workload at any thread count.

namespace jim::obs {

// --- core::InferenceEngine ----------------------------------------------
inline constexpr char kCounterEngineBuilds[] = "engine.builds";
inline constexpr char kCounterEngineClassesBuilt[] = "engine.classes_built";
inline constexpr char kCounterEngineLabelsAccepted[] =
    "engine.labels.accepted";
inline constexpr char kCounterEngineLabelsRejected[] =
    "engine.labels.rejected";
inline constexpr char kCounterEngineLabelsWasted[] = "engine.labels.wasted";
inline constexpr char kCounterEngineLabelsPositive[] =
    "engine.labels.positive";
inline constexpr char kCounterEngineLabelsNegative[] =
    "engine.labels.negative";
inline constexpr char kCounterEnginePropagateRuns[] =
    "engine.propagate.runs";
inline constexpr char kCounterEnginePrunedClasses[] =
    "engine.propagate.pruned_classes";
/// One Add per SimulateLabelBoth evaluation — the baseline any lookahead
/// cutoff optimization must beat (see ROADMAP direction 2).
inline constexpr char kCounterEngineSimulateLabelBoth[] =
    "engine.simulate_label_both";
/// Lookahead candidates the O(1) precheck skipped because their upper bound
/// provably could not beat the best score so far; cutoff_aborts counts those
/// dropped part-way through their scan. Candidates = skips + aborts + evals.
inline constexpr char kCounterEngineCutoffSkips[] = "engine.cutoff_skips";
inline constexpr char kCounterEngineCutoffAborts[] = "engine.cutoff_aborts";
/// Classes woken (watch-list drained and fully retested) by a negative-label
/// propagation. The watch win is this number staying far below the worklist
/// size the pre-watch scan visited.
inline constexpr char kCounterEngineWatchWakes[] = "engine.watch_wakes";
/// Worklist classes whose antichain DominatedBy scan was skipped during a
/// positive-label propagation because their watched pair survived the
/// knowledge refresh and is covered by no antichain member.
inline constexpr char kCounterEngineWatchExemptions[] =
    "engine.watch_exemptions";
/// Informative-class worklist size observed after each propagation pass.
inline constexpr char kHistEngineWorklistSize[] = "engine.worklist_size";
inline constexpr char kHistEngineBuildMicros[] =
    "engine.build_classes_micros";

// --- exec::ThreadPool / BatchSessionRunner ------------------------------
inline constexpr char kCounterExecPoolsCreated[] = "exec.pools.created";
inline constexpr char kCounterExecWorkersSpawned[] =
    "exec.pools.workers_spawned";
inline constexpr char kCounterExecTasksSubmitted[] = "exec.tasks.submitted";
inline constexpr char kCounterExecParallelForCalls[] =
    "exec.parallel_for.calls";
inline constexpr char kCounterExecParallelForChunks[] =
    "exec.parallel_for.chunks";
/// Item count (n) per ParallelFor call — a value histogram, deterministic.
inline constexpr char kHistExecParallelForItems[] =
    "exec.parallel_for.items";
inline constexpr char kCounterExecBatchRuns[] = "exec.batch.runs";
inline constexpr char kCounterExecBatchSessions[] = "exec.batch.sessions";
inline constexpr char kHistExecSessionMicros[] = "exec.batch.session_micros";

// --- storage::MetricsEnv ------------------------------------------------
inline constexpr char kCounterStorageCreates[] = "storage.creates";
inline constexpr char kCounterStorageAppends[] = "storage.appends";
inline constexpr char kCounterStorageAppendBytes[] = "storage.append_bytes";
inline constexpr char kCounterStorageFsyncs[] = "storage.fsyncs";
inline constexpr char kCounterStorageCloses[] = "storage.closes";
inline constexpr char kCounterStorageReads[] = "storage.reads";
inline constexpr char kCounterStorageReadBytes[] = "storage.read_bytes";
inline constexpr char kCounterStorageMmaps[] = "storage.mmaps";
inline constexpr char kCounterStorageMmapBytes[] = "storage.mmap_bytes";
inline constexpr char kCounterStorageStats[] = "storage.stats";
inline constexpr char kCounterStorageRenames[] = "storage.renames";
inline constexpr char kCounterStorageDirSyncs[] = "storage.dir_syncs";
inline constexpr char kCounterStorageLists[] = "storage.lists";
inline constexpr char kCounterStorageRemoves[] = "storage.removes";
inline constexpr char kCounterStorageMkdirs[] = "storage.mkdirs";
/// Backoff sleeps — equal to the number of transient-error retries taken.
inline constexpr char kCounterStorageRetries[] = "storage.retries";
inline constexpr char kCounterStorageFailures[] = "storage.failures";

// --- serve::SessionManager / serve::Server ------------------------------
inline constexpr char kGaugeServeSessionsLive[] = "serve.sessions.live";
inline constexpr char kCounterServeSessionsCreated[] =
    "serve.sessions.created";
/// Sessions removed by an explicit `close` (or manager teardown of a
/// finished session) — the complement of `live` against created+recovered.
inline constexpr char kCounterServeSessionsEvicted[] =
    "serve.sessions.evicted";
/// Sessions rebuilt from checkpoints after a daemon restart.
inline constexpr char kCounterServeSessionsRecovered[] =
    "serve.sessions.recovered";
/// Typed RESOURCE_EXHAUSTED admission rejections (session cap or
/// per-session step cap).
inline constexpr char kCounterServeSessionsRejected[] =
    "serve.sessions.rejected";
inline constexpr char kCounterServeRequests[] = "serve.requests";
inline constexpr char kCounterServeRequestErrors[] = "serve.request_errors";
inline constexpr char kHistServeCreateMicros[] = "serve.create_micros";
inline constexpr char kHistServeSuggestMicros[] = "serve.suggest_micros";
inline constexpr char kHistServeLabelMicros[] = "serve.label_micros";
inline constexpr char kHistServeCheckpointMicros[] =
    "serve.checkpoint_micros";
inline constexpr char kHistServeRecoverMicros[] = "serve.recover_micros";

}  // namespace jim::obs

#endif  // JIM_OBS_METRIC_NAMES_H_
