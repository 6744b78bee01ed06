// Experiment S3: join inference on benchmark data — the TPC-H
// scenarios of the companion evaluation [3]. For each key/foreign-key goal
// join, JIM works over the (sampled) universal table of the involved
// relations and must identify the join from membership answers alone.

#include <cstring>
#include <iostream>

#include "bench/bench_util.h"
#include "core/jim.h"
#include "query/universal_table.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "workload/tpch.h"

namespace {

/// A reduced TPC-H spec for --quick: the same eight relations and
/// key/foreign-key shape, an order of magnitude fewer rows — the whole sweep
/// finishes in a few seconds, so it fits CI budgets.
jim::workload::TpchSpec QuickSpec() {
  jim::workload::TpchSpec spec;
  spec.num_regions = 3;
  spec.num_nations = 8;
  spec.num_suppliers = 6;
  spec.num_customers = 12;
  spec.num_parts = 10;
  spec.num_partsupp_per_part = 2;
  spec.num_orders = 25;
  spec.num_lineitems_per_order = 2;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jim;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::cerr << "bench_tpch: unknown argument '" << argv[i]
                << "' (usage: bench_tpch [--quick])\n";
      return 2;
    }
  }

  util::Rng rng(2026);
  const rel::Catalog catalog =
      workload::MakeTpchCatalog(quick ? QuickSpec() : workload::TpchSpec{}, rng);
  std::cout << "== S3: TPC-H join-inference scenarios"
            << (quick ? " (--quick)" : "") << " ==\n(catalog: ";
  for (const std::string& name : catalog.Names()) std::cout << name << " ";
  std::cout << ")\n\n";

  const std::vector<std::string> strategies = {"random", "local-bottom-up",
                                               "lookahead-entropy"};
  util::TablePrinter table({"scenario", "goal eqs", "candidates", "classes",
                            "random", "local-bu", "la-entropy", "identified"});
  table.SetAlignments({util::Align::kLeft, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kLeft});

  for (const workload::TpchScenario& scenario : workload::TpchScenarios()) {
    query::UniversalTableOptions options;
    options.sample_cap = quick ? 2'000 : 20'000;
    options.seed = 606;
    auto table_or =
        query::UniversalTable::Build(catalog, scenario.relations, options);
    if (!table_or.ok()) {
      std::cerr << scenario.name << ": " << table_or.status().ToString()
                << "\n";
      continue;
    }
    const auto& universal = *table_or;
    auto goal = core::JoinPredicate::Parse(universal.schema(), scenario.goal);
    if (!goal.ok()) {
      std::cerr << scenario.name << ": " << goal.status().ToString() << "\n";
      continue;
    }

    core::InferenceEngine probe(universal.store());
    std::vector<std::string> row = {
        scenario.name, std::to_string(scenario.goal_constraints),
        std::to_string(universal.num_tuples()),
        std::to_string(probe.num_classes())};
    bool identified = true;
    for (const std::string& name : strategies) {
      const bench::Series series =
          bench::Repeat(name == "random" ? 5 : 1, 88, [&](uint64_t seed) {
            auto strategy = core::MakeStrategy(name, seed).value();
            const auto result =
                core::RunSession(universal.store(), *goal, *strategy);
            if (!result.identified_goal) identified = false;
            return static_cast<double>(result.interactions);
          });
      row.push_back(util::StrFormat("%.1f", series.Mean()));
    }
    row.push_back(identified ? "yes" : "NO");
    table.AddRow(std::move(row));
  }
  std::cout << table.ToString()
            << "\nExpected shape: interactions grow with goal complexity "
               "(and schema width), not with the number of candidate "
               "tuples; all goals identified exactly.\n";
  return 0;
}
