// Experiment S1: "Comparing different strategies" (paper §3).
// The demo's point: "for more complex instances and join queries a lookahead
// strategy performs better than a local one while for simpler instances and
// queries a local strategy is better" — in interactions; local strategies
// buy their occasional extra questions with far cheaper per-step computation.
//
// Complexity is swept on two axes:
//   - goal complexity: number of equality constraints in the planted query;
//   - instance complexity: smaller value domains create more accidental
//     inter-attribute equalities (more distinct tuple classes to separate).
//
// The strategies × repetitions grid of each point runs concurrently on
// engine clones via exec::BatchSessionRunner (--threads N / JIM_THREADS);
// every job's seeds are fixed per (strategy, repetition), so the table is
// byte-identical at any thread count.

#include <iostream>

#include "bench/bench_util.h"
#include "core/jim.h"
#include "exec/batch_runner.h"
#include "util/table_printer.h"
#include "workload/synthetic.h"

int main(int argc, char** argv) {
  using namespace jim;
  const size_t threads = bench::ParseThreadsFlag(argc, argv);

  const std::vector<std::string> strategies = {
      "random", "local-bottom-up", "local-top-down", "lookahead-minmax",
      "lookahead-entropy"};
  constexpr size_t kRepetitions = 11;

  exec::ThreadPool pool(threads);
  const exec::BatchSessionRunner runner(threads > 1 ? &pool : nullptr);

  std::cout << "== S1: interactions by strategy across workload complexity "
               "(mean over " << kRepetitions << " instances) ==\n\n";

  util::TablePrinter table({"attrs", "domain", "goal eqs", "classes", "random",
                            "local-bu", "local-td", "la-minmax", "la-entropy",
                            "winner"});
  table.SetAlignments({util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kLeft});

  struct GridPoint {
    size_t attrs;
    size_t domain;
    size_t goal_eqs;
  };
  const std::vector<GridPoint> grid = {
      // simple instances, simple goals
      {4, 16, 1},
      {5, 16, 1},
      {5, 8, 2},
      {6, 8, 2},
      // complex instances and/or goals
      {6, 4, 3},
      {7, 4, 3},
      {8, 3, 4},
      {8, 2, 4},
  };

  for (const GridPoint& point : grid) {
    // One instance (and one built prototype engine) per repetition seed,
    // shared by all five strategies' clones.
    const uint64_t base_seed = 1200 + point.attrs * 31 + point.domain;
    std::vector<uint64_t> seeds;
    std::vector<std::shared_ptr<const core::InferenceEngine>> prototypes;
    std::vector<core::JoinPredicate> goals;
    bench::Series classes;
    for (size_t r = 0; r < kRepetitions; ++r) {
      const uint64_t seed = base_seed + 1000003 * r;
      util::Rng rng(seed);
      workload::SyntheticSpec spec;
      spec.num_attributes = point.attrs;
      spec.num_tuples = 500;
      spec.domain_size = point.domain;
      spec.goal_constraints = point.goal_eqs;
      const auto workload = workload::MakeSyntheticWorkload(spec, rng);
      auto prototype =
          std::make_shared<core::InferenceEngine>(workload.store);
      classes.Add(static_cast<double>(prototype->num_classes()));
      seeds.push_back(seed);
      prototypes.push_back(std::move(prototype));
      goals.push_back(workload.goal);
    }

    // Job order is (strategy, repetition) — results are read back by index.
    std::vector<exec::SessionSpec> specs;
    specs.reserve(strategies.size() * kRepetitions);
    for (const std::string& name : strategies) {
      for (size_t r = 0; r < kRepetitions; ++r) {
        exec::SessionSpec spec(prototypes[r], goals[r]);
        const uint64_t strategy_seed = seeds[r] * 7 + 3;
        spec.make_strategy = [name, strategy_seed] {
          return core::MakeStrategy(name, strategy_seed).value();
        };
        specs.push_back(std::move(spec));
      }
    }
    const std::vector<core::SessionResult> results = runner.Run(specs);

    std::vector<double> means;
    for (size_t s = 0; s < strategies.size(); ++s) {
      bench::Series interactions;
      for (size_t r = 0; r < kRepetitions; ++r) {
        interactions.Add(
            static_cast<double>(results[s * kRepetitions + r].interactions));
      }
      means.push_back(interactions.Mean());
    }
    size_t winner = 0;
    for (size_t i = 1; i < means.size(); ++i) {
      if (means[i] < means[winner]) winner = i;
    }
    std::vector<std::string> row = {
        std::to_string(point.attrs), std::to_string(point.domain),
        std::to_string(point.goal_eqs),
        util::StrFormat("%.0f", classes.Mean())};
    for (double mean : means) row.push_back(util::StrFormat("%.1f", mean));
    row.push_back(strategies[winner]);
    table.AddRow(std::move(row));
  }
  std::cout << table.ToString()
            << "\nExpected shape: on the simple end (top rows) local "
               "strategies match or beat lookahead; as instances/goals grow "
               "complex (bottom rows) lookahead wins and random degrades "
               "fastest.\n";
  return 0;
}
