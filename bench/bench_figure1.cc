// Experiment F1/F2: the paper's own worked example, measured.
//
// Regenerates, for the Figure 1 instance:
//   - the selected sets of Q1/Q2 and the tuple-(12) pruning sets quoted in
//     the paper's narrative (printed as a checklist),
//   - the number of interactions each strategy needs to infer Q1 and Q2
//     (the trace of the interactive scenario of Figure 2).

#include <iostream>

#include "bench/bench_util.h"
#include "core/jim.h"
#include "util/table_printer.h"
#include "workload/travel.h"

int main() {
  using namespace jim;

  auto instance = workload::Figure1InstancePtr();
  auto store = workload::Figure1StorePtr();
  const auto q1 =
      core::JoinPredicate::Parse(instance->schema(), workload::kQ1).value();
  const auto q2 =
      core::JoinPredicate::Parse(instance->schema(), workload::kQ2).value();

  std::cout << "== F1: paper-narrative checklist on the Figure 1 instance ==\n";
  auto print_check = [](const std::string& claim, bool ok) {
    std::cout << "  [" << (ok ? "ok" : "FAIL") << "] " << claim << "\n";
  };
  print_check("Q2 ⊆ Q1", q2.ContainedIn(q1));
  print_check("Q1 selects {3,4,8,10}",
              q1.SelectedRows(*instance).ToVector() ==
                  std::vector<size_t>({2, 3, 7, 9}));
  print_check("Q2 selects {3,4}", q2.SelectedRows(*instance).ToVector() ==
                                      std::vector<size_t>({2, 3}));
  {
    core::InferenceEngine engine(store);
    (void)engine.SubmitTupleLabel(11, core::Label::kPositive);
    size_t grayed = 0;
    for (size_t t = 0; t < 12; ++t) {
      const auto status = engine.tuple_status(t);
      if (status == core::TupleStatus::kForcedPositive ||
          status == core::TupleStatus::kForcedNegative) {
        ++grayed;
      }
    }
    print_check("(12)+ grays out exactly 3 tuples {3,4,7}", grayed == 3);
  }
  {
    core::InferenceEngine engine(store);
    (void)engine.SubmitTupleLabel(11, core::Label::kNegative);
    size_t grayed = 0;
    for (size_t t = 0; t < 12; ++t) {
      const auto status = engine.tuple_status(t);
      if (status == core::TupleStatus::kForcedPositive ||
          status == core::TupleStatus::kForcedNegative) {
        ++grayed;
      }
    }
    print_check("(12)- grays out exactly 3 tuples {1,5,9}", grayed == 3);
  }

  std::cout << "\n== F2: interactions per strategy (interactive scenario, "
               "Figure 2) ==\n";
  util::TablePrinter table({"strategy", "Q1 interactions", "Q2 interactions",
                            "identified both"});
  table.SetAlignments({util::Align::kLeft, util::Align::kRight,
                       util::Align::kRight, util::Align::kLeft});
  for (const std::string& name : core::KnownStrategyNames()) {
    size_t interactions_q1 = 0;
    size_t interactions_q2 = 0;
    bool identified = true;
    {
      auto strategy = core::MakeStrategy(name, 17).value();
      const auto result = core::RunSession(store, q1, *strategy);
      interactions_q1 = result.interactions;
      identified = identified && result.identified_goal;
    }
    {
      auto strategy = core::MakeStrategy(name, 17).value();
      const auto result = core::RunSession(store, q2, *strategy);
      interactions_q2 = result.interactions;
      identified = identified && result.identified_goal;
    }
    table.AddRow({name, std::to_string(interactions_q1),
                  std::to_string(interactions_q2), identified ? "yes" : "NO"});
  }
  std::cout << table.ToString();

  std::cout << "\ntrace of lookahead-entropy inferring Q2:\n";
  auto strategy = core::MakeStrategy("lookahead-entropy").value();
  const auto result = core::RunSession(store, q2, *strategy);
  for (size_t i = 0; i < result.steps.size(); ++i) {
    const auto& step = result.steps[i];
    std::cout << "  step " << i + 1 << ": asked tuple (" << step.tuple_index + 1
              << "), answer " << core::LabelToString(step.label) << ", pruned "
              << step.pruned_tuples << " tuples\n";
  }
  std::cout << "  -> " << result.result->ToString() << "\n";
  return 0;
}
