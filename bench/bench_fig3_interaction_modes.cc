// Experiment F3: the four interaction types of paper Figure 3,
// run on three scenarios. For each mode we report the user's labeling
// effort (interactions, mean ± std over simulated-user seeds) and how much
// of it was wasted on uninformative tuples (only mode 1 can waste effort —
// nothing is grayed out there).
//
// The (scenario × mode × repetition) grid runs concurrently on engine
// clones via exec::BatchSessionRunner (--threads N / JIM_THREADS); all
// seeds are fixed per job, so the table is byte-identical at any thread
// count.

#include <iostream>

#include "bench/bench_util.h"
#include "core/jim.h"
#include "exec/batch_runner.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "workload/setgame.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

namespace {

using namespace jim;

struct Scenario {
  std::string name;
  std::shared_ptr<const core::TupleStore> store;
  core::JoinPredicate goal;
};

}  // namespace

int main(int argc, char** argv) {
  const size_t threads = bench::ParseThreadsFlag(argc, argv);
  std::vector<Scenario> scenarios;

  {
    auto store = workload::Figure1StorePtr();
    scenarios.push_back(
        {"travel/Q2 (12 tuples)", store,
         core::JoinPredicate::Parse(store->schema(), workload::kQ2)
             .value()});
  }
  {
    util::Rng rng(31);
    auto store = workload::SetPairStore(/*sample_size=*/600, rng);
    scenarios.push_back({"set-cards sample (600 pairs)", store,
                         workload::SameColorAndShadingGoal(
                             store->schema())});
  }
  {
    util::Rng rng(32);
    workload::SyntheticSpec spec;
    spec.num_attributes = 7;
    spec.num_tuples = 400;
    spec.domain_size = 6;
    spec.goal_constraints = 2;
    auto workload = workload::MakeSyntheticWorkload(spec, rng);
    scenarios.push_back(
        {"synthetic (400 tuples, 7 attrs)", workload.store, workload.goal});
  }

  constexpr size_t kRepetitions = 15;
  std::cout << "== F3: labeling effort per interaction type (mean ± std over "
            << kRepetitions << " simulated users) ==\n\n";

  // One prototype engine per scenario; every (mode, rep) session clones it.
  exec::ThreadPool pool(threads);
  const exec::BatchSessionRunner runner(threads > 1 ? &pool : nullptr);
  std::vector<exec::SessionSpec> specs;
  specs.reserve(scenarios.size() * 4 * kRepetitions);
  for (const Scenario& scenario : scenarios) {
    auto prototype =
        std::make_shared<const core::InferenceEngine>(scenario.store);
    for (int mode = 1; mode <= 4; ++mode) {
      for (size_t rep = 0; rep < kRepetitions; ++rep) {
        exec::SessionSpec spec(prototype, scenario.goal);
        const uint64_t strategy_seed = 101 + rep;
        spec.make_strategy = [strategy_seed] {
          return core::MakeStrategy("lookahead-entropy", strategy_seed)
              .value();
        };
        spec.options.mode = static_cast<core::InteractionMode>(mode);
        spec.options.user_seed = 555 + 7 * rep;
        specs.push_back(std::move(spec));
      }
    }
  }
  const std::vector<core::SessionResult> results = runner.Run(specs);

  util::TablePrinter table({"scenario", "mode", "interactions", "wasted",
                            "identified"});
  table.SetAlignments({util::Align::kLeft, util::Align::kLeft,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kLeft});
  size_t job = 0;
  for (const Scenario& scenario : scenarios) {
    for (int mode = 1; mode <= 4; ++mode) {
      bench::Series interactions;
      bench::Series wasted;
      bool identified = true;
      for (size_t rep = 0; rep < kRepetitions; ++rep, ++job) {
        const core::SessionResult& result = results[job];
        interactions.Add(static_cast<double>(result.interactions));
        wasted.Add(static_cast<double>(result.wasted_interactions));
        identified = identified && result.identified_goal;
      }
      table.AddRow({scenario.name,
                    std::string(core::InteractionModeToString(
                        static_cast<core::InteractionMode>(mode))),
                    interactions.MeanStd(), wasted.MeanStd(),
                    identified ? "yes" : "NO"});
    }
    table.AddSeparator();
  }
  std::cout << table.ToString()
            << "\nExpected shape: mode 4 ≤ mode 3 ≤ mode 2 ≪ mode 1 "
               "(the strategy saves user effort; gray-out alone already "
               "prevents wasted labels).\n";
  return 0;
}
