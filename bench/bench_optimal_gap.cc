// Experiment S4: the optimal strategy. The paper: "there exists
// an algorithm that computes the optimal strategy ... but it requires
// exponential time, which unfortunately renders it unusable in practice."
// This bench quantifies both halves of that sentence on tiny instances:
//   - the gap: heuristic interactions vs the minimax optimum;
//   - the cost: per-decision latency of optimal vs the heuristics.

#include <iostream>

#include "bench/bench_util.h"
#include "core/jim.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

int main() {
  using namespace jim;

  struct Scenario {
    std::string name;
    std::shared_ptr<const core::TupleStore> store;
    core::JoinPredicate goal;
  };
  std::vector<Scenario> scenarios;
  {
    auto store = workload::Figure1StorePtr();
    scenarios.push_back(
        {"travel/Q1", store,
         core::JoinPredicate::Parse(store->schema(), workload::kQ1)
             .value()});
    scenarios.push_back(
        {"travel/Q2", store,
         core::JoinPredicate::Parse(store->schema(), workload::kQ2)
             .value()});
  }
  // The minimax search is exponential in the class structure: ~16 tuple
  // classes is the practical ceiling (that is the paper's point — see the
  // solve-time column explode while the instances stay toy-sized).
  struct TinySpec {
    size_t attrs;
    size_t tuples;
  };
  for (const TinySpec& tiny : {TinySpec{4, 25}, TinySpec{4, 40},
                               TinySpec{5, 15}, TinySpec{5, 25}}) {
    util::Rng rng(11 * tiny.attrs + tiny.tuples);
    workload::SyntheticSpec spec;
    spec.num_attributes = tiny.attrs;
    spec.num_tuples = tiny.tuples;
    spec.domain_size = 3;
    spec.goal_constraints = 2;
    auto workload = workload::MakeSyntheticWorkload(spec, rng);
    scenarios.push_back({util::StrFormat("synthetic %zu attrs, %zu tuples",
                                         tiny.attrs, tiny.tuples),
                         workload.store, workload.goal});
  }

  std::cout << "== S4: heuristics vs the exponential optimal strategy ==\n\n";
  util::TablePrinter table({"scenario", "classes", "optimal worst-case",
                            "strategy", "interactions", "ms/decision"});
  table.SetAlignments({util::Align::kLeft, util::Align::kRight,
                       util::Align::kRight, util::Align::kLeft,
                       util::Align::kRight, util::Align::kRight});

  for (const Scenario& scenario : scenarios) {
    core::InferenceEngine probe(scenario.store);
    util::Stopwatch minimax_clock;
    const size_t optimal_worst =
        core::OptimalWorstCaseQuestions(probe, /*node_budget=*/4'000'000);
    const double minimax_seconds = minimax_clock.ElapsedSeconds();

    for (const std::string& name :
         {std::string("local-bottom-up"), std::string("lookahead-minmax"),
          std::string("optimal")}) {
      auto strategy = core::MakeStrategy(name, 3).value();
      util::Stopwatch session_clock;
      const auto result =
          core::RunSession(scenario.store, scenario.goal, *strategy);
      const double ms_per_decision =
          result.steps.empty()
              ? 0
              : session_clock.ElapsedSeconds() * 1e3 /
                    static_cast<double>(result.steps.size());
      table.AddRow({scenario.name, std::to_string(probe.num_classes()),
                    std::to_string(optimal_worst), name,
                    std::to_string(result.interactions),
                    util::StrFormat("%.3f", ms_per_decision)});
    }
    table.AddSeparator();
    std::cout << "  (" << scenario.name << ": full minimax solve took "
              << util::StrFormat("%.1f ms", minimax_seconds * 1e3) << ")\n";
  }
  std::cout << "\n" << table.ToString()
            << "\nExpected shape: heuristic interaction counts sit at or "
               "near the optimal worst case, at orders-of-magnitude lower "
               "per-decision cost; minimax solve time explodes with "
               "instance size.\n";
  return 0;
}
