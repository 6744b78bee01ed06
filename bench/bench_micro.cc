// Experiment M1: engineering microbenchmarks.
// Latency of the primitives everything else is built from: partition
// algebra, tuple-partition extraction, engine construction, label
// propagation, and one full strategy decision.
//
// Self-contained harness (no external benchmark library): each case is
// calibrated to a batch of at least a minimum wall time, then timed as 5
// batches of that size and reported as the fastest batch's ns/op (see
// bench::RunBench), both as a human-readable table and as machine-readable
// BENCH_micro.json written via util::JsonWriter — the seed of the perf
// trajectory.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/jim.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "exec/thread_pool.h"
#include "lattice/enumeration.h"
#include "lattice/partition.h"
#include "storage/mapped_store.h"
#include "storage/store_writer.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

namespace {

using namespace jim;
using bench::BenchResult;
using bench::DoNotOptimize;
using bench::RunBench;

lat::Partition RandomPartition(size_t n, util::Rng& rng) {
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(rng.UniformInt(0, static_cast<int64_t>(n) / 2));
  }
  return lat::Partition::FromLabels(labels);
}

workload::SyntheticWorkload MakeSynthetic(size_t tuples, uint64_t seed) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_tuples = tuples;
  spec.num_attributes = 6;
  spec.domain_size = 6;
  return workload::MakeSyntheticWorkload(spec, rng);
}

/// A three-attribute synthetic store with no materialized rows: tuple t
/// cycles through the five value partitions of three attributes, so any
/// tuple count collapses into five classes (one forced positive from the
/// start). It isolates costs that scale with tuples from those that scale
/// with classes.
class CyclicStore final : public core::TupleStore {
 public:
  explicit CyclicStore(size_t tuples)
      : tuples_(tuples), schema_(rel::Schema::FromNames({"a", "b", "c"})) {}
  const std::string& name() const override { return name_; }
  const rel::Schema& schema() const override { return schema_; }
  size_t num_tuples() const override { return tuples_; }
  uint32_t code(size_t t, size_t a) const override {
    // ⊥, {a,b}, {a,c}, {b,c}, ⊤ — the partitions of {a, b, c}.
    static constexpr uint32_t kCodes[5][3] = {
        {0, 1, 2}, {0, 0, 1}, {0, 1, 0}, {0, 1, 1}, {0, 0, 0}};
    return kCodes[t % 5][a];
  }
  rel::Value DecodeValue(size_t t, size_t a) const override {
    return rel::Value(static_cast<int64_t>(code(t, a)));
  }
  size_t ApproxBytes() const override { return 0; }

 private:
  size_t tuples_;
  std::string name_ = "cyclic";
  rel::Schema schema_;
};

void RegisterAll(std::vector<BenchResult>& results) {
  // One size sweep per partition operation. `op` is a generic callable (not
  // std::function) so the benchmarked body still inlines into the timed
  // loop; Refines gets `b` coarsened so the refinement actually holds.
  const auto partition_sweep = [&results](const char* name, uint64_t seed,
                                          bool coarsen_b, const auto& op) {
    for (size_t n : {5, 10, 20, 40}) {
      util::Rng rng(seed);
      const lat::Partition a = RandomPartition(n, rng);
      const lat::Partition b = coarsen_b ? a.Join(RandomPartition(n, rng))
                                         : RandomPartition(n, rng);
      results.push_back(RunBench(name, static_cast<int64_t>(n),
                                 [&] { DoNotOptimize(op(a, b)); }));
    }
  };
  partition_sweep("PartitionMeet", 1, false,
                  [](const lat::Partition& a, const lat::Partition& b) {
                    return a.Meet(b);
                  });
  partition_sweep("PartitionJoin", 2, false,
                  [](const lat::Partition& a, const lat::Partition& b) {
                    return a.Join(b);
                  });
  partition_sweep("PartitionRefines", 3, true,
                  [](const lat::Partition& a, const lat::Partition& b) {
                    return a.Refines(b);
                  });
  for (size_t n : {5, 10, 20}) {
    util::Rng rng(4);
    rel::Tuple tuple;
    for (size_t i = 0; i < n; ++i) {
      // In-place construction: moving a temporary Value trips GCC 12's
      // variant/string -Wmaybe-uninitialized false positive under -Werror.
      tuple.emplace_back(rng.UniformInt(0, 4));
    }
    results.push_back(RunBench("TuplePartition", static_cast<int64_t>(n),
                               [&] { DoNotOptimize(core::TuplePartition(tuple)); }));
  }
  results.push_back(
      RunBench("BellNumber", -1, [] { DoNotOptimize(lat::BellNumber(20)); }));
  for (size_t tuples : {1000, 10000, 100000}) {
    const auto workload = MakeSynthetic(tuples, 5);
    // The historical cross-commit metric: full class construction over a
    // pre-encoded store on the serial path (parallelism is measured
    // explicitly below, at controlled thread counts).
    results.push_back(RunBench("EngineBuild", static_cast<int64_t>(tuples), [&] {
      core::InferenceEngine engine(workload.store, /*pool=*/nullptr);
      DoNotOptimize(engine.num_classes());
    }));
  }
  // The columnar ingest pipeline, measured in its two stages:
  //   IngestEncode      — dictionary-encoding a materialized relation into a
  //                       RelationTupleStore (arg = tuples);
  //   BuildClasses{10k,100k} — code-kernel Part(t) extraction + grouping at
  //                       controlled thread counts (arg = threads);
  //   BuildClassesLegacy{10k,100k} — the pre-columnar reference: Part(t) via
  //                       Value::Equals (TuplePartition) per row, classes
  //                       grouped in a Partition-keyed hash map.
  // WriteJson derives tuples/sec and the legacy→codes speedup from these.
  for (size_t tuples : {10000, 100000}) {
    const auto workload = MakeSynthetic(tuples, 9);
    const char* suffix = tuples == 10000 ? "10k" : "100k";
    // Pinned serial (explicit nullptr pool): the historical cross-commit
    // metric — the single-arg MakeRelationStore now auto-dispatches large
    // relations to the shared pool, and IngestEncodeParallel below measures
    // that at controlled thread counts.
    results.push_back(RunBench(std::string("IngestEncode"),
                               static_cast<int64_t>(tuples), [&] {
                                 DoNotOptimize(core::MakeRelationStore(
                                                   workload.instance,
                                                   /*pool=*/nullptr)
                                                   ->num_tuples());
                               }));
    for (size_t threads : {1, 4}) {
      exec::ThreadPool pool(threads);
      results.push_back(RunBench(std::string("BuildClasses") + suffix,
                                 static_cast<int64_t>(threads), [&] {
                                   core::InferenceEngine engine(
                                       workload.store,
                                       threads > 1 ? &pool : nullptr);
                                   DoNotOptimize(engine.num_classes());
                                 }));
      // The chunked-dictionary parallel ingest (arg = threads; 1 is the
      // serial reference — codes are bitwise-identical at any count).
      results.push_back(RunBench(std::string("IngestEncodeParallel") + suffix,
                                 static_cast<int64_t>(threads), [&] {
                                   DoNotOptimize(
                                       core::MakeRelationStore(
                                           workload.instance,
                                           threads > 1 ? &pool : nullptr)
                                           ->num_tuples());
                                 }));
    }
    results.push_back(RunBench(
        std::string("BuildClassesLegacy") + suffix,
        static_cast<int64_t>(tuples), [&] {
          std::unordered_map<lat::Partition, size_t, lat::PartitionHash> ids;
          for (size_t t = 0; t < workload.instance->num_rows(); ++t) {
            ids.emplace(core::TuplePartition(workload.instance->row(t)),
                        ids.size());
          }
          DoNotOptimize(ids.size());
        }));
  }
  // The persistent tier: cold-opening the 100k instance from a JIMC file
  // (mmap + full validation pass) vs re-encoding it in memory
  // (IngestEncode above, same seed), and class construction served
  // zero-copy from the mapping. WriteJson derives
  // mmap_open_tuples_per_sec, mmap_build_classes_tuples_per_sec, and the
  // cold-open vs in-memory-ingest comparison key from these.
  {
    const auto workload = MakeSynthetic(100000, 9);
    const std::string path = "bench_micro_tmp.jimc";
    JIM_CHECK_OK(storage::WriteStore(*workload.store, path));
    results.push_back(RunBench("MmapOpen", 100000, [&] {
      DoNotOptimize(storage::OpenStore(path).value()->num_tuples());
    }));
    const auto mapped = storage::OpenStore(path).value();
    results.push_back(RunBench("MmapBuildClasses", 100000, [&] {
      core::InferenceEngine engine(mapped, /*pool=*/nullptr);
      DoNotOptimize(engine.num_classes());
    }));
    std::remove(path.c_str());
  }
  for (size_t tuples : {1000, 10000}) {
    const auto workload = MakeSynthetic(tuples, 6);
    const core::InferenceEngine prototype(workload.instance);
    // The propagation target is chosen once, outside the timed body.
    const auto informative = prototype.InformativeClasses();
    JIM_CHECK(!informative.empty());
    const size_t target = informative[informative.size() / 2];
    // Each iteration needs a fresh engine, so the copy is unavoidably inside
    // the loop; EngineCopy measures it alone so it can be subtracted.
    const BenchResult copy =
        RunBench("EngineCopy", static_cast<int64_t>(tuples), [&] {
          core::InferenceEngine engine = prototype;
          DoNotOptimize(engine.num_classes());
        });
    const BenchResult gross =
        RunBench("LabelPropagation", static_cast<int64_t>(tuples), [&] {
          core::InferenceEngine engine = prototype;
          (void)engine.SubmitClassLabel(target, core::Label::kPositive);
          DoNotOptimize(engine.NumInformativeTuples());
        });
    // Copy-corrected propagation cost, so cross-commit comparison tracks
    // SubmitClassLabel itself rather than the engine copy above.
    BenchResult net;
    net.name = "LabelPropagationNet";
    net.arg = gross.arg;
    net.iterations = gross.iterations;
    net.ns_per_op = std::max(0.0, gross.ns_per_op - copy.ns_per_op);
    results.push_back(copy);
    results.push_back(gross);
    results.push_back(net);
  }
  // The per-label cost of a served session: every label runs on a fresh
  // clone of the session's engine. With a handful of classes this must stay
  // flat as the tuple count grows.
  for (size_t tuples : {10000, 100000, 1000000}) {
    const core::InferenceEngine prototype(
        std::make_shared<const CyclicStore>(tuples));
    const size_t target = prototype.InformativeClasses().front();
    results.push_back(
        RunBench("LabelOnClone", static_cast<int64_t>(tuples), [&] {
          core::InferenceEngine engine = prototype;
          JIM_CHECK_OK(engine.SubmitClassLabel(target, core::Label::kPositive));
          DoNotOptimize(engine.NumInformativeTuples());
        }));
  }
  // Both-label impact of one candidate class — the inner loop of every
  // lookahead strategy (per candidate it needs the impact of both answers).
  // Measures the production path (SimulateLabelBoth: one pair-mask cache
  // of the worklist, then one mask scan); the pre-kernel baseline for the
  // same metric was two naive SimulateLabel calls.
  for (size_t tuples : {1000, 10000}) {
    const auto workload = MakeSynthetic(tuples, 6);
    const core::InferenceEngine engine(workload.instance);
    const auto informative = engine.InformativeClasses();
    JIM_CHECK(!informative.empty());
    const size_t target = informative[informative.size() / 2];
    results.push_back(
        RunBench("EngineSimulateLabel", static_cast<int64_t>(tuples), [&] {
          const auto both = engine.SimulateLabelBoth(target);
          DoNotOptimize(both.positive.pruned_tuples +
                        both.negative.pruned_tuples);
        }));
  }
  const auto strategy_sweep = [&results](const char* name,
                                         const char* strategy_name,
                                         uint64_t seed) {
    for (size_t tuples : {1000, 10000}) {
      const auto workload = MakeSynthetic(tuples, seed);
      core::InferenceEngine engine(workload.instance);
      auto strategy = core::MakeStrategy(strategy_name).value();
      // Pin lookahead to the serial path: these are the historical
      // cross-commit metrics, and the default pool is sized from the
      // machine (hardware threads / JIM_THREADS) — the parallel variant is
      // measured explicitly below, at controlled thread counts.
      if (auto* lookahead =
              dynamic_cast<core::LookaheadStrategy*>(strategy.get())) {
        lookahead->set_thread_pool(nullptr);
      }
      results.push_back(
          RunBench(name, static_cast<int64_t>(tuples),
                   [&] { DoNotOptimize(strategy->PickClass(engine)); }));
    }
  };
  strategy_sweep("LookaheadPickClass", "lookahead-entropy", 7);
  strategy_sweep("LocalDecision", "local-bottom-up", 8);
  // Cutoff-pruned vs exhaustive lookahead decision on the serial path
  // (arg 1 = cutoff pruning on, the production default; arg 0 = the
  // exhaustive reference scan). Same pick either way — the cutoff only
  // skips candidates that provably cannot win — so the ratio is pure
  // work saved; WriteJson derives lookahead_cutoff_speedup_{10k,100k}.
  for (size_t tuples : {10000, 100000}) {
    const auto workload = MakeSynthetic(tuples, 7);
    const core::InferenceEngine engine(workload.instance);
    const char* suffix = tuples == 10000 ? "10k" : "100k";
    for (int cutoff : {0, 1}) {
      core::LookaheadStrategy strategy(
          core::LookaheadStrategy::Objective::kEntropy);
      strategy.set_thread_pool(nullptr);
      strategy.set_cutoff_enabled(cutoff == 1);
      results.push_back(
          RunBench(std::string("LookaheadPickClassCutoff") + suffix, cutoff,
                   [&] { DoNotOptimize(strategy.PickClass(engine)); }));
    }
  }
  // The fixed cost of one ParallelFor (arg = thread count): an empty body
  // over one item per thread, so every chunk is dispatched and nothing else
  // is timed. 1 thread is the inline path.
  for (size_t threads : {1, 2, 4}) {
    exec::ThreadPool pool(threads);
    results.push_back(
        RunBench("ParallelForEmpty", static_cast<int64_t>(threads),
                 [&] { pool.ParallelFor(threads, [](size_t, size_t) {}); }));
  }
  // One lookahead decision on an explicit exec::ThreadPool at 1/2/4 threads
  // (arg = thread count; 1 = the serial reference path), over instances
  // whose informative worklists (9, 27, 41, 65, 117 and 202 classes at 10,
  // 30, 50, 100, 300 and 10k tuples) fall on both sides of
  // core::kParallelLookaheadMinCandidates; below it a pooled strategy scores
  // serially. The picked class is bitwise-identical at every count —
  // parallelism only moves latency — and WriteJson derives
  // lookahead_pick_class_speedup_4t from the 10k rows.
  for (const auto& size : std::vector<std::pair<size_t, std::string>>{
           {10, "10"},
           {30, "30"},
           {50, "50"},
           {100, "100"},
           {300, "300"},
           {10000, "10k"}}) {
    const auto workload = MakeSynthetic(size.first, 7);
    const core::InferenceEngine engine(workload.instance);
    for (size_t threads : {1, 2, 4}) {
      exec::ThreadPool pool(threads);
      core::LookaheadStrategy strategy(
          core::LookaheadStrategy::Objective::kEntropy);
      strategy.set_thread_pool(threads > 1 ? &pool : nullptr);
      results.push_back(RunBench(
          "LookaheadPickClassParallel" + size.second,
          static_cast<int64_t>(threads),
          [&] { DoNotOptimize(strategy.PickClass(engine)); }));
    }
  }
  // Full minimax solves on instances small enough for the exponential
  // strategy: exercises the memo-table key path hard.
  {
    auto instance = workload::Figure1InstancePtr();
    const core::InferenceEngine engine(instance);
    results.push_back(RunBench("OptimalSolve", -1, [&] {
      DoNotOptimize(core::OptimalWorstCaseQuestions(engine));
    }));
  }
  for (size_t tuples : {25, 40}) {
    util::Rng rng(static_cast<uint64_t>(44 + tuples));
    workload::SyntheticSpec spec;
    spec.num_tuples = tuples;
    spec.num_attributes = 4;
    spec.domain_size = 3;
    spec.goal_constraints = 2;
    const auto workload = workload::MakeSyntheticWorkload(spec, rng);
    const core::InferenceEngine engine(workload.instance);
    results.push_back(
        RunBench("OptimalSolve", static_cast<int64_t>(tuples), [&] {
          DoNotOptimize(core::OptimalWorstCaseQuestions(engine));
        }));
  }
  {
    auto instance = workload::Figure1InstancePtr();
    const auto goal =
        core::JoinPredicate::Parse(instance->schema(), workload::kQ2).value();
    results.push_back(RunBench("Figure1FullSession", -1, [&] {
      auto strategy = core::MakeStrategy("lookahead-entropy").value();
      DoNotOptimize(
          core::RunSession(core::MakeRelationStore(instance), goal, *strategy)
              .interactions);
    }));
  }
}

/// Work counts from the metrics registry (untimed; runs after the
/// calibrated sweeps so their ns/op stay comparable with metrics-off
/// history). The work-count complement of the latency rows above — latency
/// regressions split into "each simulation got slower" vs "we simulate
/// more".
struct WorkCounts {
  /// SimulateLabelBoth evaluations one serial lookahead-entropy PickClass
  /// costs on the 10k instance (production path, cutoff pruning on).
  uint64_t simulate_calls_per_pick = 0;
  /// Of the candidates that decision considered, the fraction the O(1)
  /// precheck skipped without scanning: skips / (skips + aborts + evals).
  double cutoff_skip_fraction = 0;
  /// The fraction abandoned mid-scan (part of the worklist already scanned):
  /// aborts / (skips + aborts + evals).
  double cutoff_abort_fraction = 0;
  /// engine.class_table_bytes of the instance behind each BuildClasses* row,
  /// by row name: a count of the class table's layout that, unlike the
  /// rows' timings, repeats exactly run to run.
  std::unordered_map<std::string, int64_t> class_table_bytes;
};

WorkCounts MeasureWorkCounts() {
  obs::SetMetricsEnabled(true);
  WorkCounts counts;
  auto& registry = obs::MetricsRegistry::Instance();
  const auto workload = MakeSynthetic(10000, 7);
  const core::InferenceEngine engine(workload.instance);
  core::LookaheadStrategy strategy(
      core::LookaheadStrategy::Objective::kEntropy);
  strategy.set_thread_pool(nullptr);
  const uint64_t sims_before =
      registry.CounterValue(obs::kCounterEngineSimulateLabelBoth);
  const uint64_t skips_before =
      registry.CounterValue(obs::kCounterEngineCutoffSkips);
  const uint64_t aborts_before =
      registry.CounterValue(obs::kCounterEngineCutoffAborts);
  DoNotOptimize(strategy.PickClass(engine));
  const uint64_t sims =
      registry.CounterValue(obs::kCounterEngineSimulateLabelBoth) - sims_before;
  const uint64_t skips =
      registry.CounterValue(obs::kCounterEngineCutoffSkips) - skips_before;
  const uint64_t aborts =
      registry.CounterValue(obs::kCounterEngineCutoffAborts) - aborts_before;
  for (size_t tuples : {10000, 100000}) {
    const core::InferenceEngine built(MakeSynthetic(tuples, 9).store,
                                      /*pool=*/nullptr);
    const int64_t bytes =
        registry.GetGauge(obs::kGaugeEngineClassTableBytes).Value();
    const std::string suffix = tuples == 10000 ? "10k" : "100k";
    counts.class_table_bytes["BuildClasses" + suffix] = bytes;
    if (tuples == 100000) counts.class_table_bytes["MmapBuildClasses"] = bytes;
  }
  counts.simulate_calls_per_pick = sims;
  const uint64_t candidates = sims + skips + aborts;
  if (candidates > 0) {
    counts.cutoff_skip_fraction =
        static_cast<double>(skips) / static_cast<double>(candidates);
    counts.cutoff_abort_fraction =
        static_cast<double>(aborts) / static_cast<double>(candidates);
  }
  return counts;
}

bool WriteJson(const std::vector<BenchResult>& results,
               const WorkCounts& work, const std::string& path) {
  util::JsonWriter json;
  json.BeginObject();
  json.KeyValue("benchmark", "micro");
  bench::AppendMetaBlock(json);
  json.KeyValue("simulate_label_calls_per_pick", work.simulate_calls_per_pick);
  json.KeyValue("lookahead_cutoff_skip_fraction", work.cutoff_skip_fraction);
  json.KeyValue("lookahead_cutoff_abort_fraction",
                work.cutoff_abort_fraction);
  json.KeyValue("class_table_bytes_10k",
                work.class_table_bytes.at("BuildClasses10k"));
  json.KeyValue("class_table_bytes_100k",
                work.class_table_bytes.at("BuildClasses100k"));
  // Wall-clock speedup of the 10k-tuple lookahead decision at 4 threads vs
  // the serial path (values < 1 mean the box lacks the cores to win).
  double serial_ns = 0;
  double four_thread_ns = 0;
  for (const auto& r : results) {
    if (r.name != "LookaheadPickClassParallel10k") continue;
    if (r.arg == 1) serial_ns = r.ns_per_op;
    if (r.arg == 4) four_thread_ns = r.ns_per_op;
  }
  if (serial_ns > 0 && four_thread_ns > 0) {
    json.KeyValue("lookahead_pick_class_speedup_4t",
                  serial_ns / four_thread_ns);
  }
  // Ingest/BuildClasses throughput + the speedup of the code-kernel class
  // construction over the legacy Value-row path (same instance).
  const auto find_ns = [&results](const std::string& name,
                                  int64_t arg) -> double {
    for (const auto& r : results) {
      if (r.name == name && r.arg == arg) return r.ns_per_op;
    }
    return 0;
  };
  const std::vector<std::pair<std::string, double>> sizes = {
      {"10k", 10000.0}, {"100k", 100000.0}};
  for (const auto& size : sizes) {
    const double encode_ns = find_ns("IngestEncode",
                                     static_cast<int64_t>(size.second));
    if (encode_ns > 0) {
      json.KeyValue("ingest_encode_tuples_per_sec_" + size.first,
                    size.second * 1e9 / encode_ns);
    }
    const double build_1t = find_ns("BuildClasses" + size.first, 1);
    const double build_4t = find_ns("BuildClasses" + size.first, 4);
    const double legacy = find_ns("BuildClassesLegacy" + size.first,
                                  static_cast<int64_t>(size.second));
    if (build_1t > 0) {
      json.KeyValue("build_classes_tuples_per_sec_" + size.first + "_1t",
                    size.second * 1e9 / build_1t);
    }
    if (build_4t > 0) {
      json.KeyValue("build_classes_tuples_per_sec_" + size.first + "_4t",
                    size.second * 1e9 / build_4t);
    }
    if (legacy > 0 && build_1t > 0) {
      json.KeyValue("build_classes_speedup_" + size.first,
                    legacy / build_1t);
    }
    if (legacy > 0 && build_4t > 0) {
      json.KeyValue("build_classes_speedup_" + size.first + "_4t",
                    legacy / build_4t);
    }
    const double parallel_ingest_4t =
        find_ns("IngestEncodeParallel" + size.first, 4);
    if (parallel_ingest_4t > 0) {
      json.KeyValue("ingest_encode_tuples_per_sec_" + size.first + "_4t",
                    size.second * 1e9 / parallel_ingest_4t);
    }
  }
  // The storage tier: cold-open throughput of the mapped 100k instance,
  // class construction over the mapping, and how a cold open compares with
  // re-encoding the same instance in memory (values > 1: reopening the
  // file beats re-ingesting).
  const double mmap_open_ns = find_ns("MmapOpen", 100000);
  if (mmap_open_ns > 0) {
    json.KeyValue("mmap_open_tuples_per_sec", 100000.0 * 1e9 / mmap_open_ns);
  }
  const double mmap_build_ns = find_ns("MmapBuildClasses", 100000);
  if (mmap_build_ns > 0) {
    json.KeyValue("mmap_build_classes_tuples_per_sec",
                  100000.0 * 1e9 / mmap_build_ns);
  }
  const double ingest_100k_ns = find_ns("IngestEncode", 100000);
  if (mmap_open_ns > 0 && ingest_100k_ns > 0) {
    json.KeyValue("mmap_cold_open_vs_ingest_speedup",
                  ingest_100k_ns / mmap_open_ns);
  }
  // Exhaustive-scan vs cutoff-pruned lookahead decision (same pick, work
  // saved only; values > 1 mean the cutoff wins).
  for (const auto& size : sizes) {
    const double exhaustive_ns =
        find_ns("LookaheadPickClassCutoff" + size.first, 0);
    const double pruned_ns = find_ns("LookaheadPickClassCutoff" + size.first, 1);
    if (exhaustive_ns > 0 && pruned_ns > 0) {
      json.KeyValue("lookahead_cutoff_speedup_" + size.first,
                    exhaustive_ns / pruned_ns);
    }
  }
  json.Key("results");
  json.BeginArray();
  for (const auto& r : results) {
    json.BeginObject();
    json.KeyValue("name", r.name);
    if (r.arg >= 0) json.KeyValue("arg", r.arg);
    json.KeyValue("iterations", r.iterations);
    json.KeyValue("ns_per_op", r.ns_per_op);
    json.EndObject();
  }
  json.EndArray();
  bench::AppendMetricsSnapshot(json);
  json.EndObject();
  std::ofstream out(path);
  out << json.str() << "\n";
  out.flush();
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_micro.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      if (i + 1 >= argc) {
        std::cerr << "bench_micro: --out requires a path\n";
        return 2;
      }
      json_path = argv[++i];
    } else {
      std::cerr << "bench_micro: unknown argument '" << arg
                << "' (usage: bench_micro [--out PATH])\n";
      return 2;
    }
  }

  std::vector<BenchResult> results;
  RegisterAll(results);
  const WorkCounts work = MeasureWorkCounts();

  jim::util::TablePrinter table(
      {"benchmark", "arg", "iterations", "ns/op", "class table bytes"});
  table.SetAlignments({jim::util::Align::kLeft, jim::util::Align::kRight,
                       jim::util::Align::kRight, jim::util::Align::kRight,
                       jim::util::Align::kRight});
  for (const auto& r : results) {
    const auto bytes = work.class_table_bytes.find(r.name);
    table.AddRow({r.name, r.arg >= 0 ? std::to_string(r.arg) : "-",
                  std::to_string(r.iterations),
                  jim::util::StrFormat("%.1f", r.ns_per_op),
                  bytes == work.class_table_bytes.end()
                      ? "-"
                      : std::to_string(bytes->second)});
  }
  std::cout << table.ToString();

  if (!WriteJson(results, work, json_path)) {
    std::cerr << "bench_micro: failed to write " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
