// Parity of the encoded (code-kernel) pipeline against the legacy
// Value-row path:
//   - Part(t) and the class table from integer codes equal the reference
//     TuplePartition grouping over decoded Value rows, at any thread count;
//   - full session transcripts over a factorized universal table are
//     byte-identical to sessions over the materialized Value-row instance,
//     across interaction modes 1–4 and every strategy.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/jim.h"
#include "exec/thread_pool.h"
#include "query/universal_table.h"
#include "relational/catalog.h"
#include "support/core_views.h"
#include "support/materialize.h"
#include "support/noisy_oracle.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/synthetic.h"
#include "workload/travel.h"
#include "util/check.h"

namespace jim::core {
namespace {

// Parity suites run with the invariant auditor on (see util/check.h): every
// JIM_AUDIT checkpoint inside the engine re-derives its CheckInvariants
// contract while the parity assertions run, so a divergence is caught at
// the mutation that introduced it, not at the final transcript diff.
const bool kAuditInvariantsOn = [] {
  ::jim::util::SetAuditInvariants(true);
  return true;
}();

/// Reference class construction: the pre-columnar engine's algorithm —
/// Part(t) via TuplePartition over Value rows, classes keyed by partition in
/// first-occurrence order.
struct ReferenceClasses {
  std::vector<lat::Partition> partitions;
  std::vector<size_t> class_of_tuple;
};

ReferenceClasses BuildReferenceClasses(const rel::Relation& relation) {
  ReferenceClasses reference;
  std::unordered_map<lat::Partition, size_t, lat::PartitionHash> ids;
  for (size_t t = 0; t < relation.num_rows(); ++t) {
    lat::Partition part = TuplePartition(relation.row(t));
    auto [it, inserted] = ids.emplace(part, reference.partitions.size());
    if (inserted) reference.partitions.push_back(std::move(part));
    reference.class_of_tuple.push_back(it->second);
  }
  return reference;
}

void ExpectClassesMatchReference(const InferenceEngine& engine,
                                 const rel::Relation& relation,
                                 const std::string& context) {
  const ReferenceClasses reference = BuildReferenceClasses(relation);
  ASSERT_EQ(engine.num_classes(), reference.partitions.size()) << context;
  for (size_t c = 0; c < engine.num_classes(); ++c) {
    EXPECT_EQ(engine.ClassPartition(c), reference.partitions[c])
        << context << " class " << c;
  }
  for (size_t t = 0; t < relation.num_rows(); ++t) {
    EXPECT_EQ(engine.class_of_tuple(t), reference.class_of_tuple[t])
        << context << " tuple " << t;
  }
}

TEST(EncodedParityTest, ClassesMatchValueRowReferenceAtAnyThreadCount) {
  // (seed, attribute count): three seeds at 5-7 attributes, then 1, 11, 12
  // and 16 attributes for zero-word, full one-word and two-word pair masks.
  std::vector<std::pair<uint64_t, size_t>> inputs;
  for (uint64_t seed : {3u, 19u, 271u}) {
    inputs.emplace_back(seed, 5 + seed % 3);
  }
  for (size_t n : {1u, 11u, 12u, 16u}) inputs.emplace_back(n, n);
  for (const auto& [seed, n] : inputs) {
    util::Rng rng(seed);
    workload::SyntheticSpec spec;
    spec.num_attributes = n;
    spec.num_tuples = 400;
    spec.domain_size = 3;
    spec.goal_constraints = std::min<size_t>(2, n - 1);
    const auto workload = workload::MakeSyntheticWorkload(spec, rng);

    const InferenceEngine serial(workload.store, /*pool=*/nullptr);
    ExpectClassesMatchReference(serial, *workload.instance,
                                util::StrFormat("seed=%zu n=%zu serial",
                                                size_t{seed}, n));
    for (size_t threads : {2u, 8u}) {
      exec::ThreadPool pool(threads);
      const InferenceEngine parallel(workload.store, &pool);
      ExpectClassesMatchReference(
          parallel, *workload.instance,
          util::StrFormat("seed=%zu n=%zu threads=%zu", size_t{seed}, n,
                          size_t{threads}));
      // Bitwise-identical knowledge too, not just equal partitions.
      ASSERT_EQ(parallel.num_classes(), serial.num_classes());
      for (size_t c = 0; c < serial.num_classes(); ++c) {
        EXPECT_EQ(ClassKnowledge(parallel, c), ClassKnowledge(serial, c));
        EXPECT_EQ(parallel.tuple_class(c).tuple_indices,
                  serial.tuple_class(c).tuple_indices);
      }
      EXPECT_EQ(parallel.InformativeClasses(), serial.InformativeClasses());
    }
  }
}

/// `tuples` rows over `n` integer attributes. Rows before `uniform_prefix`
/// alternate between all cells equal and all cells distinct (two masks);
/// the rest draw each cell from {0, 1, 2} or NULL.
std::shared_ptr<const rel::Relation> IntRelation(size_t n, size_t tuples,
                                                 size_t uniform_prefix,
                                                 uint64_t seed) {
  rel::Schema schema;
  for (size_t a = 0; a < n; ++a) {
    schema.AddAttribute({"a" + std::to_string(a), rel::ValueType::kInt64, ""});
  }
  rel::Relation relation{"ints", schema};
  util::Rng rng(seed);
  for (size_t t = 0; t < tuples; ++t) {
    rel::Tuple row;
    for (size_t a = 0; a < n; ++a) {
      const int64_t draw = rng.UniformInt(0, 3);
      if (t < uniform_prefix) {
        row.emplace_back(static_cast<int64_t>(t % 2 == 0 ? 0 : a));
      } else if (draw == 3) {
        row.push_back(rel::Value::Null());
      } else {
        row.emplace_back(draw);
      }
    }
    relation.AddRowUnchecked(std::move(row));
  }
  return std::make_shared<const rel::Relation>(std::move(relation));
}

TEST(EncodedParityTest, ClassTableIdenticalOnPoolsOfOneToFourThreads) {
  // Zero-, one- and two-word masks (n = 1, 5, 12) at 0, 1, 2, 3 (= threads
  // − 1 for some pool) and 10007 tuples, plus an instance whose later
  // classes first occur in the last chunk at every thread count: class ids,
  // ascending members, class_of_tuple and Part(c) all match the
  // TuplePartition reference on pools of 1-4 threads.
  struct Input {
    std::string name;
    std::shared_ptr<const rel::Relation> relation;
  };
  std::vector<Input> inputs;
  for (size_t n : {1u, 5u, 12u}) {
    for (size_t tuples : {0u, 1u, 2u, 3u, 10007u}) {
      inputs.push_back({util::StrFormat("n=%zu tuples=%zu", n, tuples),
                        IntRelation(n, tuples, 0, 31 * n + tuples)});
    }
  }
  inputs.push_back({"late classes", IntRelation(5, 1000, 900, 5)});
  for (const Input& input : inputs) {
    const auto store = MakeRelationStore(input.relation, /*pool=*/nullptr);
    const ReferenceClasses reference = BuildReferenceClasses(*input.relation);
    std::vector<std::vector<uint32_t>> reference_members(
        reference.partitions.size());
    for (size_t t = 0; t < reference.class_of_tuple.size(); ++t) {
      reference_members[reference.class_of_tuple[t]].push_back(
          static_cast<uint32_t>(t));
    }
    for (size_t threads = 1; threads <= 4; ++threads) {
      exec::ThreadPool pool(threads);
      const InferenceEngine engine(store, &pool);
      const std::string context =
          util::StrFormat("%s threads=%zu", input.name.c_str(), threads);
      ExpectClassesMatchReference(engine, *input.relation, context);
      ASSERT_EQ(engine.num_classes(), reference_members.size()) << context;
      for (size_t c = 0; c < engine.num_classes(); ++c) {
        const ClassMembers members = engine.tuple_class(c).tuple_indices;
        EXPECT_EQ(std::vector<uint32_t>(members.begin(), members.end()),
                  reference_members[c])
            << context << " class " << c;
      }
    }
  }
}

TEST(EncodedParityTest, NullsAndTypeCollisionsPartitionLikeValues) {
  using rel::Value;
  rel::Relation relation{"nulls",
                         rel::Schema::FromNames({"a", "b", "c", "d"})};
  relation.AddRowUnchecked(
      {Value::Null(), Value::Null(), Value("x"), Value("x")});
  relation.AddRowUnchecked(
      {Value(int64_t{1}), Value("1"), Value(1.0), Value(int64_t{1})});
  relation.AddRowUnchecked(
      {Value::Null(), Value("x"), Value("x"), Value::Null()});
  auto shared = std::make_shared<const rel::Relation>(std::move(relation));
  const InferenceEngine engine(MakeRelationStore(shared), nullptr);
  ExpectClassesMatchReference(engine, *shared, "nulls-and-types");
}

/// Session transcript with the timing column zeroed (wall-clock is the one
/// legitimately non-deterministic field), rendered through the production
/// JSON serializer so the comparison is byte-level.
std::string TranscriptJson(SessionResult result) {
  for (SessionStep& step : result.steps) step.micros = 0;
  result.total_seconds = 0;
  return SessionResultToJson(result);
}

TEST(EncodedParityTest, TranscriptsIdenticalAcrossModesAndStrategies) {
  // A two-relation catalog whose factorized universal table and its
  // materialized twin must drive byte-identical sessions.
  util::Rng rng(99);
  const rel::Catalog catalog =
      workload::LargeTravelCatalog(/*num_flights=*/18, /*num_hotels=*/7,
                                   /*num_cities=*/4, /*num_airlines=*/3, rng);
  query::UniversalTableOptions options;
  options.sample_cap = 90;  // below 18×7=126: exercises the sampled path
  options.seed = 17;
  const auto table =
      query::UniversalTable::Build(catalog, {"Flights", "Hotels"}, options)
          .value();
  ASSERT_TRUE(table.is_sampled());
  const auto materialized =
      std::make_shared<const rel::Relation>(Materialize(table));
  const auto goal =
      JoinPredicate::Parse(table.schema(), "Flights.To = Hotels.City")
          .value();

  for (const std::string& strategy_name : KnownStrategyNames()) {
    if (strategy_name == "optimal") continue;  // exponential; covered below
    for (int mode = 1; mode <= 4; ++mode) {
      SessionOptions session_options;
      session_options.mode = static_cast<InteractionMode>(mode);
      session_options.user_seed = 7 + static_cast<uint64_t>(mode);

      auto strategy_encoded = MakeStrategy(strategy_name, 5).value();
      ExactOracle oracle_encoded(goal);
      const SessionResult encoded =
          RunSession(table.store(), goal, *strategy_encoded, oracle_encoded,
                     session_options);

      auto strategy_legacy = MakeStrategy(strategy_name, 5).value();
      ExactOracle oracle_legacy(goal);
      const SessionResult legacy =
          RunSession(core::MakeRelationStore(materialized), goal,
                     *strategy_legacy, oracle_legacy, session_options);

      EXPECT_EQ(TranscriptJson(encoded), TranscriptJson(legacy))
          << strategy_name << " mode " << mode;
      EXPECT_TRUE(encoded.identified_goal)
          << strategy_name << " mode " << mode;
    }
  }
}

TEST(EncodedParityTest, OptimalStrategyTranscriptParityOnFigure1) {
  const rel::Catalog catalog = workload::TravelCatalog();
  const auto table =
      query::UniversalTable::Build(catalog, {"Flights", "Hotels"}).value();
  const auto materialized =
      std::make_shared<const rel::Relation>(Materialize(table));
  const auto goal =
      JoinPredicate::Parse(table.schema(),
                           "Flights.To = Hotels.City && "
                           "Flights.Airline = Hotels.Discount")
          .value();
  for (int mode = 1; mode <= 4; ++mode) {
    SessionOptions session_options;
    session_options.mode = static_cast<InteractionMode>(mode);

    auto strategy_encoded = MakeStrategy("optimal").value();
    ExactOracle oracle_encoded(goal);
    const SessionResult encoded = RunSession(
        table.store(), goal, *strategy_encoded, oracle_encoded,
        session_options);

    auto strategy_legacy = MakeStrategy("optimal").value();
    ExactOracle oracle_legacy(goal);
    const SessionResult legacy =
        RunSession(core::MakeRelationStore(materialized), goal,
                   *strategy_legacy, oracle_legacy, session_options);

    EXPECT_EQ(TranscriptJson(encoded), TranscriptJson(legacy))
        << "mode " << mode;
  }
}

TEST(EncodedParityTest, NoisyOracleTranscriptParity) {
  // Noise consumes the oracle RNG per asked tuple; identical questions ⇒
  // identical noise stream ⇒ identical transcripts.
  util::Rng rng(41);
  const rel::Catalog catalog = workload::LargeTravelCatalog(10, 6, 3, 2, rng);
  const auto table =
      query::UniversalTable::Build(catalog, {"Flights", "Hotels"}).value();
  const auto materialized =
      std::make_shared<const rel::Relation>(Materialize(table));
  const auto goal =
      JoinPredicate::Parse(table.schema(), "Flights.To = Hotels.City")
          .value();

  auto strategy_encoded = MakeStrategy("lookahead-entropy").value();
  NoisyOracle oracle_encoded(goal, 0.2, 11);
  const SessionResult encoded =
      RunSession(table.store(), goal, *strategy_encoded, oracle_encoded, {});

  auto strategy_legacy = MakeStrategy("lookahead-entropy").value();
  NoisyOracle oracle_legacy(goal, 0.2, 11);
  const SessionResult legacy =
      RunSession(core::MakeRelationStore(materialized), goal,
                 *strategy_legacy, oracle_legacy, {});

  EXPECT_EQ(TranscriptJson(encoded), TranscriptJson(legacy));
}

}  // namespace
}  // namespace jim::core
