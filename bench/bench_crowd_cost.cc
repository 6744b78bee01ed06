// Experiment S5: the crowdsourcing cost argument (paper §1).
// "Since our goal is to minimize the number of interactions ... minimizing
// the number of interactions entails lower financial costs." Prices the
// same join three ways across worker reliability levels, plus a voting
// sweep showing how redundancy buys correctness.

#include <iostream>

#include "bench/bench_util.h"
#include "core/jim.h"
#include "crowd/baselines.h"
#include "crowd/crowd_join.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/setgame.h"

int main() {
  using namespace jim;

  const rel::Relation cards = workload::AllSetCards();
  util::Rng rng(3);
  auto pair_instance = workload::SetPairInstance(/*sample_size=*/0, rng);
  auto pair_store = core::MakeRelationStore(pair_instance);
  auto goal = core::JoinPredicate::Parse(pair_instance->schema(),
                                         "Left.Color=Right.Color")
                  .value();

  std::cout << "== S5: crowd cost of joining " << cards.num_rows()
            << " pictures on same-color (" << pair_instance->num_rows()
            << " pairs; $0.05/answer, 3 workers/question) ==\n\n";

  constexpr size_t kRepetitions = 7;
  util::TablePrinter table({"worker err", "method", "questions", "cost ($)",
                            "correct runs"});
  table.SetAlignments({util::Align::kRight, util::Align::kLeft,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight});

  for (double error : {0.0, 0.05, 0.1, 0.2}) {
    struct Method {
      std::string name;
      std::function<crowd::CrowdRunResult(const crowd::CrowdOptions&)> run;
    };
    const std::vector<Method> methods = {
        {"JIM (crowd-answered)",
         [&](const crowd::CrowdOptions& options) {
           auto strategy =
               core::MakeStrategy("lookahead-entropy", options.seed).value();
           return crowd::RunCrowdJim(pair_store, goal, *strategy, options);
         }},
        {"transitive [5]",
         [&](const crowd::CrowdOptions& options) {
           return crowd::RunTransitiveCrowdJoin(cards, goal, options);
         }},
        {"label everything",
         [&](const crowd::CrowdOptions& options) {
           return crowd::RunLabelEverything(pair_instance, goal, options);
         }},
    };
    for (const Method& method : methods) {
      bench::Series questions;
      bench::Series cost;
      size_t correct_runs = 0;
      for (size_t rep = 0; rep < kRepetitions; ++rep) {
        crowd::CrowdOptions options;
        options.worker_error_rate = error;
        options.seed = 71 + rep * 13;
        const auto result = method.run(options);
        questions.Add(static_cast<double>(result.questions));
        cost.Add(result.total_cost);
        if (result.correct) ++correct_runs;
      }
      table.AddRow({util::FormatDouble(error), method.name,
                    util::StrFormat("%.0f", questions.Mean()),
                    util::StrFormat("%.2f", cost.Mean()),
                    util::StrFormat("%zu/%zu", correct_runs, kRepetitions)});
    }
    table.AddSeparator();
  }
  std::cout << table.ToString();

  std::cout << "\n-- voting redundancy (worker error 0.2) --\n";
  util::TablePrinter voting({"workers/question", "majority err rate",
                             "JIM cost ($)", "JIM correct runs"});
  voting.SetAlignments({util::Align::kRight, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight});
  for (size_t workers : {1u, 3u, 5u, 7u, 9u}) {
    bench::Series cost;
    size_t correct_runs = 0;
    for (size_t rep = 0; rep < kRepetitions; ++rep) {
      crowd::CrowdOptions options;
      options.worker_error_rate = 0.2;
      options.workers_per_question = workers;
      options.seed = 501 + rep * 11;
      auto strategy =
          core::MakeStrategy("lookahead-entropy", options.seed).value();
      const auto result =
          crowd::RunCrowdJim(pair_instance, goal, *strategy, options);
      cost.Add(result.total_cost);
      if (result.correct) ++correct_runs;
    }
    voting.AddRow({std::to_string(workers),
                   util::StrFormat("%.3f",
                                   crowd::MajorityErrorRate(workers, 0.2)),
                   util::StrFormat("%.2f", cost.Mean()),
                   util::StrFormat("%zu/%zu", correct_runs, kRepetitions)});
  }
  std::cout << voting.ToString()
            << "\nExpected shape: JIM costs cents where exhaustive labeling "
               "costs hundreds of dollars; extra votes per question trade "
               "pennies for reliability.\n";
  return 0;
}
