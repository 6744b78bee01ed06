// Experiment F5: "Joining sets of pictures" (paper §3,
// Figure 5). Infers every feature-match join over the 81 Set cards and
// reports the number of yes/no questions about pairs of pictures — the
// crowd-task currency the paper cares about.

#include <iostream>

#include "bench/bench_util.h"
#include "core/jim.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "workload/setgame.h"

int main() {
  using namespace jim;

  util::Rng rng(5);
  auto store = workload::SetPairStore(/*sample_size=*/0, rng);
  std::cout << "== F5: inferring picture joins over " << store->num_tuples()
            << " candidate card pairs ==\n\n";

  const std::vector<std::string> strategies = {"random", "local-bottom-up",
                                               "lookahead-entropy"};
  util::TablePrinter table(
      {"goal", "constraints", "random", "local-bottom-up",
       "lookahead-entropy", "identified"});
  table.SetAlignments({util::Align::kLeft, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kLeft});

  for (const auto& goal : workload::AllFeatureMatchGoals(store->schema())) {
    std::vector<std::string> row = {
        goal.name, std::to_string(goal.predicate.NumConstraints())};
    bool identified = true;
    for (const std::string& name : strategies) {
      const bench::Series series =
          bench::Repeat(name == "random" ? 9 : 1, 41, [&](uint64_t seed) {
            auto strategy = core::MakeStrategy(name, seed).value();
            const auto result =
                core::RunSession(store, goal.predicate, *strategy);
            if (!result.identified_goal) identified = false;
            return static_cast<double>(result.interactions);
          });
      row.push_back(util::StrFormat("%.1f", series.Mean()));
    }
    row.push_back(identified ? "yes" : "NO");
    table.AddRow(std::move(row));
  }
  std::cout << table.ToString()
            << "\n(values: membership questions to identify the join, "
               "random averaged over 9 seeds)\n"
            << "Expected shape: a handful of questions out of 6561 pairs; "
               "lookahead ≤ local ≤ random.\n";
  return 0;
}
