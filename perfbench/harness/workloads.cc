#include "harness/workloads.h"

#include <utility>

#include "lattice/enumeration.h"
#include "query/universal_table.h"
#include "storage/mapped_store.h"
#include "storage/store_writer.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

namespace perfbench {

namespace {

using jim::util::StatusOr;

/// The instance is fixed per workload: the seed draws the users, not the
/// data, so runs with different seeds differ only in the goals played.
constexpr uint64_t kInstanceSeed = 2014;

StatusOr<std::shared_ptr<const jim::core::TupleStore>> MakeInstance(
    const WorkloadSpec& spec) {
  jim::util::Rng rng(kInstanceSeed);
  if (spec.name == "lookahead-wide") {
    jim::workload::SyntheticSpec synthetic;
    synthetic.num_attributes = 7;
    synthetic.num_tuples = 100'000;
    synthetic.domain_size = 8;
    return jim::workload::MakeSyntheticWorkload(synthetic, rng).store;
  }
  // travel-durable: the factorized universal table over the two source
  // relations, every candidate kept.
  const jim::rel::Catalog catalog = jim::workload::LargeTravelCatalog(
      /*num_flights=*/1000, /*num_hotels=*/1000, /*num_cities=*/256,
      /*num_airlines=*/16, rng);
  jim::query::UniversalTableOptions options;
  options.sample_cap = 0;
  ASSIGN_OR_RETURN(jim::query::UniversalTable table,
                   jim::query::UniversalTable::Build(
                       catalog, {"Flights", "Hotels"}, options));
  return table.store();
}

}  // namespace

StatusOr<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "lookahead-wide") {
    spec.clients = 1;
    spec.live_per_client = 1;
    spec.pool = 511;  // 21 + 140 + 350 goals of rank 1, 2 and 3
    spec.every_goal = true;
    spec.warmup_sessions = 4;
    spec.time_by_state = true;
  } else if (name == "travel-durable") {
    spec.clients = 2;
    spec.live_per_client = 24;
    spec.checkpoints = true;
    spec.pool = 256;
    spec.warmup_sessions = 256;
  } else {
    return jim::util::InvalidArgumentError(jim::util::StrFormat(
        "unknown workload '%s' (want lookahead-wide or travel-durable)",
        name.c_str()));
  }
  return spec;
}

jim::util::Status WriteInstance(const WorkloadSpec& spec,
                                const std::string& path) {
  ASSIGN_OR_RETURN(std::shared_ptr<const jim::core::TupleStore> built,
                   MakeInstance(spec));
  return jim::storage::WriteStore(*built, path);
}

StatusOr<PreparedWorkload> LoadWorkload(const WorkloadSpec& spec,
                                        uint64_t seed,
                                        const std::string& path) {
  PreparedWorkload prepared;
  prepared.instance_path = path;
  ASSIGN_OR_RETURN(prepared.store, jim::storage::OpenStore(path));

  // Goals: equality predicates over the schema, of rank 1..3 on the seven
  // synthetic attributes and 1..2 on the five travel attributes. Either
  // every such goal once, in an order drawn from the seed, or goals drawn
  // at random with the ranks taking turns, so every pool holds the same mix
  // of simple and complex goals and seeds differ only in which goals of
  // each rank.
  const jim::rel::Schema& schema = prepared.store->schema();
  const size_t n = prepared.store->num_attributes();
  const size_t max_rank = n >= 7 ? 3 : 2;
  jim::util::Rng rng(seed);
  std::vector<jim::lat::Partition> every;
  if (spec.every_goal) {
    jim::lat::VisitAllPartitions(n, [&](const jim::lat::Partition& p) {
      if (p.Rank() >= 1 && p.Rank() <= max_rank) every.push_back(p);
      return true;
    });
    if (every.size() != spec.pool) {
      return jim::util::InternalError(jim::util::StrFormat(
          "%zu goals of rank 1..%zu, but a pool of %zu", every.size(),
          max_rank, spec.pool));
    }
    rng.Shuffle(every);
  }
  for (size_t i = 0; i < spec.pool; ++i) {
    const size_t rank = 1 + i % max_rank;
    jim::core::JoinPredicate goal(
        schema, spec.every_goal
                    ? every[i]
                    : jim::workload::RandomPartitionWithRank(n, rank, rng));
    // Seeds stay below 2^62 so they survive the protocol's signed integers.
    SessionPlan plan{goal.ToString(), goal, rng.Next() >> 2};
    ASSIGN_OR_RETURN(jim::core::JoinPredicate reparsed,
                     jim::core::JoinPredicate::Parse(schema, plan.goal_text));
    if (!(reparsed == goal)) {
      return jim::util::InternalError(jim::util::StrFormat(
          "goal '%s' does not parse back to itself", plan.goal_text.c_str()));
    }
    prepared.plans.push_back(std::move(plan));
  }
  return prepared;
}

}  // namespace perfbench
