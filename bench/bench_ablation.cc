// Ablation bench: quantifies the design choices of the lookahead machinery
// rather than a paper figure.
//   A1 — candidate cap: lookahead strategies score at most `max_candidates`
//        informative classes per step. How much interaction quality does the
//        cap cost, and how much decision latency does it buy?
//   A2 — entropy family: the generalized (Tsallis) α parameter of
//        lookahead-entropy. Does the choice of α matter?

#include <iostream>

#include "bench/bench_util.h"
#include "core/jim.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

namespace {

using namespace jim;

workload::SyntheticWorkload MakeWorkload(uint64_t seed) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_attributes = 7;
  spec.num_tuples = 1500;
  spec.domain_size = 4;
  spec.goal_constraints = 3;
  return workload::MakeSyntheticWorkload(spec, rng);
}

}  // namespace

int main() {
  constexpr size_t kRepetitions = 7;

  std::cout << "== A1: lookahead candidate cap (synthetic: 7 attrs, 1500 "
               "tuples, 3-eq goals; mean over "
            << kRepetitions << " instances) ==\n\n";
  util::TablePrinter cap_table(
      {"max_candidates", "interactions", "ms/decision"});
  cap_table.SetAlignments({util::Align::kRight, util::Align::kRight,
                           util::Align::kRight});
  for (size_t cap : {4u, 16u, 64u, 256u, 0u}) {
    bench::Series interactions;
    bench::Series millis;
    for (size_t rep = 0; rep < kRepetitions; ++rep) {
      const auto workload = MakeWorkload(500 + rep);
      core::LookaheadStrategy strategy(
          core::LookaheadStrategy::Objective::kEntropy, /*alpha=*/1.0, cap);
      util::Stopwatch clock;
      const auto result =
          core::RunSession(workload.store, workload.goal, strategy);
      interactions.Add(static_cast<double>(result.interactions));
      millis.Add(result.steps.empty()
                     ? 0
                     : clock.ElapsedSeconds() * 1e3 /
                           static_cast<double>(result.steps.size()));
    }
    cap_table.AddRow({cap == 0 ? "unlimited" : std::to_string(cap),
                      interactions.MeanStd(),
                      util::StrFormat("%.2f", millis.Mean())});
  }
  std::cout << cap_table.ToString()
            << "\nExpected: interactions degrade only mildly under small "
               "caps while per-decision latency drops sharply — the cap is "
               "what keeps lookahead interactive on big instances.\n";

  std::cout << "\n== A2: Tsallis α in lookahead-entropy (same workloads) ==\n\n";
  util::TablePrinter alpha_table({"alpha", "interactions"});
  alpha_table.SetAlignments({util::Align::kRight, util::Align::kRight});
  for (double alpha : {0.5, 1.0, 2.0, 3.0}) {
    bench::Series interactions;
    for (size_t rep = 0; rep < kRepetitions; ++rep) {
      const auto workload = MakeWorkload(500 + rep);
      core::LookaheadStrategy strategy(
          core::LookaheadStrategy::Objective::kEntropy, alpha, 256);
      const auto result =
          core::RunSession(workload.store, workload.goal, strategy);
      interactions.Add(static_cast<double>(result.interactions));
    }
    alpha_table.AddRow(
        {util::FormatDouble(alpha), interactions.MeanStd()});
  }
  std::cout << alpha_table.ToString()
            << "\nExpected: flat — the pruning-count signal dominates; the "
               "entropy family mostly reorders ties.\n";
  return 0;
}
