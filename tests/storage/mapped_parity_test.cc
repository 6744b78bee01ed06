// Randomized round-trip parity: an engine over a MappedTupleStore must be
// indistinguishable from the in-memory store it was written from — identical
// class tables, byte-identical session transcripts across interaction modes
// and strategies, identical lookahead picks — at 1, 2, and 8 threads. This
// is the acceptance gate of the storage subsystem: persistence may never
// change an inference outcome, only where the bytes live.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/jim.h"
#include "exec/batch_runner.h"
#include "exec/thread_pool.h"
#include "query/universal_table.h"
#include "relational/catalog.h"
#include "storage/mapped_store.h"
#include "storage/store_writer.h"
#include "support/core_views.h"
#include "support/parallel_for_calls.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/synthetic.h"
#include "workload/travel.h"
#include "util/check.h"

namespace jim::storage {
namespace {

// Parity suites run with the invariant auditor on (see util/check.h): every
// JIM_AUDIT checkpoint inside the engine re-derives its CheckInvariants
// contract while the parity assertions run, so a divergence is caught at
// the mutation that introduced it, not at the final transcript diff.
const bool kAuditInvariantsOn = [] {
  ::jim::util::SetAuditInvariants(true);
  return true;
}();

using core::ExactOracle;
using core::InferenceEngine;
using core::JoinPredicate;
using core::MakeStrategy;
using core::RunSession;
using core::SessionOptions;
using core::SessionResult;
using core::SessionResultToJson;

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "mapped_parity_" + name + ".jimc";
}

/// The two lives of one instance: in memory and one mapped file.
struct StorePair {
  std::shared_ptr<const core::TupleStore> original;
  std::shared_ptr<const core::TupleStore> mapped;
};

StorePair MakePair(std::shared_ptr<const core::TupleStore> original,
                   const std::string& tag) {
  StorePair pair;
  pair.original = std::move(original);
  const std::string path = TestPath(tag);
  EXPECT_TRUE(WriteStore(*pair.original, path).ok());
  auto mapped = OpenStore(path);
  EXPECT_TRUE(mapped.ok()) << mapped.status();
  pair.mapped = *std::move(mapped);
  return pair;
}

/// Class tables must agree *bitwise*: same partitions in the same order,
/// same member lists, same per-tuple class, same informative worklist.
void ExpectSameClasses(const InferenceEngine& expected,
                       const InferenceEngine& actual,
                       const std::string& context) {
  ASSERT_EQ(expected.num_classes(), actual.num_classes()) << context;
  for (size_t c = 0; c < expected.num_classes(); ++c) {
    EXPECT_EQ(expected.ClassPartition(c), actual.ClassPartition(c))
        << context << " class " << c;
    EXPECT_EQ(expected.tuple_class(c).tuple_indices,
              actual.tuple_class(c).tuple_indices)
        << context << " class " << c;
    EXPECT_EQ(ClassKnowledge(expected, c), ClassKnowledge(actual, c))
        << context << " class " << c;
  }
  for (size_t t = 0; t < expected.num_tuples(); ++t) {
    EXPECT_EQ(expected.class_of_tuple(t), actual.class_of_tuple(t))
        << context << " tuple " << t;
  }
  EXPECT_EQ(expected.InformativeClasses(), actual.InformativeClasses())
      << context;
}

std::string TranscriptJson(SessionResult result) {
  for (core::SessionStep& step : result.steps) step.micros = 0;
  result.total_seconds = 0;
  return SessionResultToJson(result);
}

TEST(MappedParityTest, ClassTablesIdenticalAtAnyThreadCount) {
  for (const uint64_t seed : {11u, 47u}) {
    util::Rng rng(seed);
    workload::SyntheticSpec spec;
    spec.num_attributes = 5 + seed % 2;
    spec.num_tuples = 300;
    spec.domain_size = 3;
    spec.goal_constraints = 2;
    const auto workload = workload::MakeSyntheticWorkload(spec, rng);
    const StorePair pair =
        MakePair(workload.store, "classes_" + std::to_string(seed));

    const InferenceEngine reference(pair.original, /*pool=*/nullptr);
    for (const size_t threads : {1u, 2u, 8u}) {
      exec::ThreadPool pool(threads);
      exec::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
      std::optional<InferenceEngine> mapped;
      const uint64_t calls = exec::ParallelForCallsDuring(
          [&] { mapped.emplace(pair.mapped, pool_ptr); });
      const std::string context = util::StrFormat(
          "seed=%zu threads=%zu", size_t{seed}, threads);
      EXPECT_EQ(calls > 0, threads > 1) << context;
      ExpectSameClasses(reference, *mapped, context + " mapped");
    }
  }
}

TEST(MappedParityTest, UniversalTableSurvivesTheRoundTrip) {
  // Both universal-table shapes: dense (factorized mixed-radix ids) and
  // sampled (explicit row-id draws) — the writer path from the factorized
  // table is what production save uses.
  util::Rng rng(7);
  const rel::Catalog catalog =
      workload::LargeTravelCatalog(/*num_flights=*/16, /*num_hotels=*/9,
                                   /*num_cities=*/4, /*num_airlines=*/3, rng);
  for (const size_t cap : {size_t{0}, size_t{100}}) {
    query::UniversalTableOptions options;
    options.sample_cap = cap;
    options.seed = 23;
    const auto table =
        query::UniversalTable::Build(catalog, {"Flights", "Hotels"}, options)
            .value();
    ASSERT_EQ(table.is_sampled(), cap != 0);
    const StorePair pair =
        MakePair(table.store(), "universal_" + std::to_string(cap));
    const auto goal =
        JoinPredicate::Parse(table.schema(), "Flights.To = Hotels.City")
            .value();
    const InferenceEngine reference(pair.original, nullptr);
    const InferenceEngine mapped(pair.mapped, nullptr);
    ExpectSameClasses(reference, mapped, "universal mapped");

    for (const auto* store : {&pair.original, &pair.mapped}) {
      auto strategy = MakeStrategy("lookahead-entropy", 3).value();
      ExactOracle oracle(goal);
      const SessionResult result =
          RunSession(*store, goal, *strategy, oracle, SessionOptions{});
      EXPECT_TRUE(result.identified_goal);
    }
  }
}

TEST(MappedParityTest, TranscriptsIdenticalAcrossModesStrategiesThreads) {
  util::Rng rng(301);
  workload::SyntheticSpec spec;
  spec.num_attributes = 5;
  spec.num_tuples = 160;
  spec.domain_size = 3;
  spec.goal_constraints = 2;
  const auto workload = workload::MakeSyntheticWorkload(spec, rng);
  const StorePair pair = MakePair(workload.store, "transcripts");

  for (const std::string& strategy_name :
       {std::string("random"), std::string("local-bottom-up"),
        std::string("lookahead-entropy")}) {
    for (int mode = 1; mode <= 4; ++mode) {
      SessionOptions session_options;
      session_options.mode = static_cast<core::InteractionMode>(mode);
      session_options.user_seed = 11 + static_cast<uint64_t>(mode);

      const auto run = [&](const std::shared_ptr<const core::TupleStore>&
                               store) {
        auto strategy = MakeStrategy(strategy_name, 5).value();
        ExactOracle oracle(workload.goal);
        return TranscriptJson(RunSession(store, workload.goal, *strategy,
                                         oracle, session_options));
      };
      const std::string reference = run(pair.original);
      EXPECT_EQ(reference, run(pair.mapped))
          << strategy_name << " mode " << mode << " (mapped)";
    }
  }
}

TEST(MappedParityTest, LookaheadPicksIdenticalAtAnyThreadCount) {
  util::Rng rng(88);
  workload::SyntheticSpec spec;
  spec.num_attributes = 6;
  spec.num_tuples = 250;
  spec.domain_size = 4;
  spec.goal_constraints = 2;
  const auto workload = workload::MakeSyntheticWorkload(spec, rng);
  const StorePair pair = MakePair(workload.store, "lookahead");

  const InferenceEngine reference(pair.original, nullptr);
  core::LookaheadStrategy serial_strategy(
      core::LookaheadStrategy::Objective::kEntropy);
  serial_strategy.set_thread_pool(nullptr);
  const size_t expected_pick = serial_strategy.PickClass(reference);

  for (const size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool pool(threads);
    const InferenceEngine engine(pair.mapped, threads > 1 ? &pool : nullptr);
    core::LookaheadStrategy strategy(
        core::LookaheadStrategy::Objective::kEntropy);
    strategy.set_thread_pool(threads > 1 ? &pool : nullptr);
    size_t pick = 0;
    const uint64_t calls = exec::ParallelForCallsDuring(
        [&] { pick = strategy.PickClass(engine); });
    EXPECT_EQ(calls > 0, threads > 1) << "threads=" << threads;
    EXPECT_EQ(pick, expected_pick) << "threads=" << threads;
  }
}

TEST(MappedParityTest, BatchSessionsRunOverOneSharedMapping) {
  // Many concurrent sessions, one read-only mapping: every session clones a
  // prototype engine built over the same MappedTupleStore, and the batch
  // output equals the serial in-memory reference job for job.
  util::Rng rng(19);
  workload::SyntheticSpec spec;
  spec.num_attributes = 5;
  spec.num_tuples = 200;
  spec.domain_size = 4;
  spec.goal_constraints = 2;
  const auto workload = workload::MakeSyntheticWorkload(spec, rng);
  const StorePair pair = MakePair(workload.store, "batch");

  const auto make_specs =
      [&](const std::shared_ptr<const InferenceEngine>& prototype) {
        std::vector<exec::SessionSpec> specs;
        for (const std::string& name :
             {std::string("random"), std::string("local-bottom-up"),
              std::string("lookahead-entropy")}) {
          for (uint64_t rep = 0; rep < 2; ++rep) {
            exec::SessionSpec spec(prototype, workload.goal);
            const uint64_t seed = 100 + rep;
            spec.make_strategy = [name, seed] {
              auto strategy = MakeStrategy(name, seed).value();
              // Pin lookahead scoring serial: the runner's pool drives the
              // fan-out.
              if (auto* lookahead = dynamic_cast<core::LookaheadStrategy*>(
                      strategy.get())) {
                lookahead->set_thread_pool(nullptr);
              }
              return strategy;
            };
            specs.push_back(std::move(spec));
          }
        }
        return specs;
      };

  const auto reference_prototype =
      std::make_shared<const InferenceEngine>(pair.original, nullptr);
  const exec::BatchSessionRunner serial_runner(nullptr);
  const auto reference_results =
      serial_runner.Run(make_specs(reference_prototype));

  exec::ThreadPool pool(4);
  const auto mapped_prototype =
      std::make_shared<const InferenceEngine>(pair.mapped, nullptr);
  const exec::BatchSessionRunner parallel_runner(&pool);
  std::vector<SessionResult> mapped_results;
  EXPECT_GT(exec::ParallelForCallsDuring([&] {
              mapped_results = parallel_runner.Run(make_specs(mapped_prototype));
            }),
            0u);

  ASSERT_EQ(reference_results.size(), mapped_results.size());
  for (size_t i = 0; i < reference_results.size(); ++i) {
    EXPECT_EQ(TranscriptJson(reference_results[i]),
              TranscriptJson(mapped_results[i]))
        << "job " << i;
  }
}

}  // namespace
}  // namespace jim::storage
