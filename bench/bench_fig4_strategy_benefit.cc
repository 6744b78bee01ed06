// Experiment F4: "Showing the benefit of using a strategy"
// (paper Figure 4). After a user infers a query by free labeling, the demo
// shows how many interactions she *would* have spent had JIM proposed
// informative tuples — rendered here exactly as the ASCII analogue of the
// paper's bar chart.
//
// The (scenario × mode × repetition) grid runs concurrently on engine
// clones via exec::BatchSessionRunner (--threads N / JIM_THREADS); seeds
// are fixed per job, so the charts are byte-identical at any thread count.

#include <iostream>

#include "bench/bench_util.h"
#include "core/jim.h"
#include "exec/batch_runner.h"
#include "ui/console_ui.h"
#include "util/rng.h"
#include "workload/setgame.h"
#include "workload/travel.h"

int main(int argc, char** argv) {
  using namespace jim;
  const size_t threads = bench::ParseThreadsFlag(argc, argv);

  struct Scenario {
    std::string name;
    std::shared_ptr<const core::TupleStore> store;
    core::JoinPredicate goal;
  };
  std::vector<Scenario> scenarios;
  {
    auto store = workload::Figure1StorePtr();
    scenarios.push_back(
        {"flight&hotel packages, goal Q2", store,
         core::JoinPredicate::Parse(store->schema(), workload::kQ2)
             .value()});
  }
  {
    util::Rng rng(77);
    auto store = workload::SetPairStore(/*sample_size=*/1500, rng);
    scenarios.push_back(
        {"tagged pictures (1500 card pairs), goal same Color+Shading",
         store, workload::SameColorAndShadingGoal(store->schema())});
  }

  constexpr size_t kRepetitions = 25;
  exec::ThreadPool pool(threads);
  const exec::BatchSessionRunner runner(threads > 1 ? &pool : nullptr);
  std::vector<exec::SessionSpec> specs;
  specs.reserve(scenarios.size() * 4 * kRepetitions);
  for (const Scenario& scenario : scenarios) {
    auto prototype =
        std::make_shared<const core::InferenceEngine>(scenario.store);
    for (int mode = 1; mode <= 4; ++mode) {
      for (size_t r = 0; r < kRepetitions; ++r) {
        // The same seed schedule bench::Repeat(base = 900 + mode) derives.
        const uint64_t seed = 900 + static_cast<uint64_t>(mode) + 1000003 * r;
        exec::SessionSpec spec(prototype, scenario.goal);
        spec.make_strategy = [seed] {
          return core::MakeStrategy("lookahead-entropy", seed).value();
        };
        spec.options.mode = static_cast<core::InteractionMode>(mode);
        spec.options.user_seed = seed * 3 + 1;
        specs.push_back(std::move(spec));
      }
    }
  }
  const std::vector<core::SessionResult> results = runner.Run(specs);

  size_t job = 0;
  for (const Scenario& scenario : scenarios) {
    std::cout << "== F4: " << scenario.name << " ==\n";
    std::vector<std::pair<std::string, size_t>> chart;
    for (int mode = 1; mode <= 4; ++mode) {
      bench::Series series;
      for (size_t r = 0; r < kRepetitions; ++r, ++job) {
        series.Add(static_cast<double>(results[job].interactions));
      }
      chart.emplace_back(
          std::string(core::InteractionModeToString(
              static_cast<core::InteractionMode>(mode))),
          static_cast<size_t>(series.Mean() + 0.5));
    }
    std::cout << ui::RenderSavingsChart(chart) << "\n";
  }
  std::cout << "(bars: mean interactions over " << kRepetitions
            << " simulated users; the demo shows this chart to the attendee "
               "after parts 1-3)\n";
  return 0;
}
