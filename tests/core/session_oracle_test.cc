// Session-level brute-force oracle: on random small instances, every
// observable of a running session must equal what a sweep over all Bell(n)
// candidate predicates says. θ selects tuple t iff θ ≤ Part(t); the
// consistent predicates are those agreeing with every accepted label. From
// that set alone the oracle derives which tuples are certainly in / out of
// the result, which are still informative, when inference is done, and
// what the result must be — nothing of the engine's caches or propagation
// is consulted. Every label's reported LabelImpact is checked against the
// engine's own before/after counts and its SimulateLabelBoth prediction.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/oracle.h"
#include "core/strategies.h"
#include "lattice/enumeration.h"
#include "lattice/partition.h"
#include "support/core_views.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace jim::core {
namespace {

// Like the parity suites, run with the invariant auditor on, so every
// engine mutation also re-derives its CheckInvariants contract.
const bool kAuditInvariantsOn = [] {
  ::jim::util::SetAuditInvariants(true);
  return true;
}();

/// Part(t) from the row's values: attributes holding equal values share a
/// block.
lat::Partition ValuePartition(const rel::Tuple& row) {
  std::vector<int> labels(row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    size_t first = 0;
    while (!(row[first] == row[i])) ++first;
    labels[i] = static_cast<int>(first);
  }
  return lat::Partition::FromLabels(labels);
}

/// Every partition of the schema with the tuples it selects, and the
/// session's accepted labels.
class BruteForceOracle {
 public:
  explicit BruteForceOracle(const rel::Relation& instance) {
    std::vector<lat::Partition> parts;
    for (size_t t = 0; t < instance.num_rows(); ++t) {
      parts.push_back(ValuePartition(instance.row(t)));
    }
    lat::VisitAllPartitions(
        instance.schema().num_attributes(), [&](const lat::Partition& theta) {
          std::vector<bool> selects(parts.size());
          for (size_t t = 0; t < parts.size(); ++t) {
            selects[t] = theta.Refines(parts[t]);
          }
          thetas_.push_back(theta);
          selects_.push_back(std::move(selects));
          return true;
        });
  }

  size_t num_tuples() const { return selects_.front().size(); }

  /// True iff some predicate agrees with every label in `labels`.
  bool AnyConsistent(const std::vector<LabeledExample>& labels) const {
    for (size_t p = 0; p < thetas_.size(); ++p) {
      if (Agrees(p, labels)) return true;
    }
    return false;
  }

  /// What the consistent predicates say about each tuple.
  struct Sweep {
    std::vector<size_t> consistent;  ///< indices into thetas()
    std::vector<bool> certain_in;    ///< selected by every consistent θ
    std::vector<bool> certain_out;   ///< selected by no consistent θ
  };
  Sweep Run(const std::vector<LabeledExample>& labels) const {
    Sweep sweep;
    sweep.certain_in.assign(num_tuples(), true);
    sweep.certain_out.assign(num_tuples(), true);
    for (size_t p = 0; p < thetas_.size(); ++p) {
      if (!Agrees(p, labels)) continue;
      sweep.consistent.push_back(p);
      for (size_t t = 0; t < num_tuples(); ++t) {
        if (selects_[p][t]) {
          sweep.certain_out[t] = false;
        } else {
          sweep.certain_in[t] = false;
        }
      }
    }
    return sweep;
  }

  const lat::Partition& theta(size_t p) const { return thetas_[p]; }

 private:
  bool Agrees(size_t p, const std::vector<LabeledExample>& labels) const {
    for (const LabeledExample& example : labels) {
      if (selects_[p][example.tuple_index] !=
          (example.label == Label::kPositive)) {
        return false;
      }
    }
    return true;
  }

  std::vector<lat::Partition> thetas_;
  std::vector<std::vector<bool>> selects_;
};

/// Checks every session observable against the oracle's sweep over the
/// labels accepted so far.
void ExpectEngineMatchesOracle(const InferenceEngine& engine,
                               const BruteForceOracle& oracle,
                               const std::vector<LabeledExample>& accepted,
                               const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(engine.history().size(), accepted.size());
  const BruteForceOracle::Sweep sweep = oracle.Run(accepted);
  ASSERT_FALSE(sweep.consistent.empty()) << "honest labels lost the goal";

  const util::DynamicBitset in = CertainResultTuples(engine);
  const util::DynamicBitset out = CertainNonResultTuples(engine);
  std::vector<size_t> informative_classes;
  size_t informative_tuples = 0;
  size_t certain_in = 0;
  size_t certain_out = 0;
  for (size_t t = 0; t < oracle.num_tuples(); ++t) {
    EXPECT_EQ(in.Test(t), static_cast<bool>(sweep.certain_in[t]))
        << "certain-result membership of tuple " << t;
    EXPECT_EQ(out.Test(t), static_cast<bool>(sweep.certain_out[t]))
        << "certain-non-result membership of tuple " << t;
    certain_in += sweep.certain_in[t];
    certain_out += sweep.certain_out[t];
    if (!sweep.certain_in[t] && !sweep.certain_out[t]) {
      ++informative_tuples;
      informative_classes.push_back(engine.class_of_tuple(t));
      EXPECT_EQ(engine.tuple_status(t), TupleStatus::kInformative)
          << "tuple " << t;
    }
  }
  std::sort(informative_classes.begin(), informative_classes.end());
  informative_classes.erase(
      std::unique(informative_classes.begin(), informative_classes.end()),
      informative_classes.end());
  EXPECT_EQ(engine.InformativeClasses(), informative_classes);

  // The four tuple buckets: labeled tuples count once, as labeled.
  std::vector<size_t> labeled_in;
  std::vector<size_t> labeled_out;
  for (const LabeledExample& example : accepted) {
    (example.label == Label::kPositive ? labeled_in : labeled_out)
        .push_back(example.tuple_index);
  }
  for (std::vector<size_t>* labeled : {&labeled_in, &labeled_out}) {
    std::sort(labeled->begin(), labeled->end());
    labeled->erase(std::unique(labeled->begin(), labeled->end()),
                   labeled->end());
  }
  const InferenceEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.informative_tuples, informative_tuples);
  EXPECT_EQ(stats.informative_classes, informative_classes.size());
  EXPECT_EQ(stats.explicitly_labeled_tuples,
            labeled_in.size() + labeled_out.size());
  EXPECT_EQ(stats.forced_positive_tuples, certain_in - labeled_in.size());
  EXPECT_EQ(stats.forced_negative_tuples, certain_out - labeled_out.size());

  // Done exactly when every consistent predicate selects the same tuples,
  // i.e. no tuple is left undecided.
  EXPECT_EQ(engine.IsDone(), informative_tuples == 0);

  // Result() is consistent and coarsens every consistent predicate: it is
  // the maximum of the consistent set.
  const lat::Partition result = engine.Result().partition();
  bool result_consistent = false;
  for (size_t p : sweep.consistent) {
    result_consistent |= oracle.theta(p) == result;
    EXPECT_TRUE(oracle.theta(p).Refines(result))
        << oracle.theta(p).ToString() << " does not refine the result "
        << result.ToString();
  }
  EXPECT_TRUE(result_consistent) << result.ToString();
}

/// Submits `label` on tuple `t` and checks the impact the engine reports:
/// zero on a refusal; on an accepted label, equal to the before/after
/// GetStats() diff (zero exactly when the label was wasted) and, when the
/// tuple's class was informative, to SimulateLabelBoth's prediction for
/// that answer.
util::Status SubmitCheckingImpact(InferenceEngine& engine, size_t t,
                                  Label label, const std::string& where) {
  SCOPED_TRACE(where + " impact");
  const InferenceEngine::Stats before = engine.GetStats();
  const size_t cls = engine.class_of_tuple(t);
  std::optional<InferenceEngine::LabelImpact> predicted;
  if (engine.class_status(cls) == ClassStatus::kInformative) {
    const InferenceEngine::LabelImpactPair both = engine.SimulateLabelBoth(cls);
    predicted = label == Label::kPositive ? both.positive : both.negative;
  }
  // Non-zero on entry, so a report the engine forgets to write shows.
  InferenceEngine::LabelImpact impact{7, 7};
  const util::Status status = engine.SubmitTupleLabel(t, label, &impact);
  const InferenceEngine::Stats after = engine.GetStats();
  if (!status.ok()) {
    EXPECT_EQ(impact.pruned_classes, 0u);
    EXPECT_EQ(impact.pruned_tuples, 0u);
    return status;
  }
  EXPECT_EQ(impact.pruned_classes,
            before.informative_classes - after.informative_classes);
  EXPECT_EQ(impact.pruned_tuples,
            before.informative_tuples - after.informative_tuples);
  EXPECT_EQ(impact.pruned_classes == 0,
            after.wasted_interactions == before.wasted_interactions + 1);
  if (predicted.has_value()) {
    EXPECT_EQ(impact.pruned_classes, predicted->pruned_classes);
    EXPECT_EQ(impact.pruned_tuples, predicted->pruned_tuples);
  }
  return status;
}

workload::SyntheticWorkload MakeInstance(size_t n, util::Rng& rng) {
  workload::SyntheticSpec spec;
  spec.num_attributes = n;
  spec.num_tuples = static_cast<size_t>(rng.UniformInt(20, 40));
  spec.domain_size = static_cast<size_t>(rng.UniformInt(2, 3));
  spec.goal_constraints =
      static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  return workload::MakeSyntheticWorkload(spec, rng);
}

TEST(SessionOracleTest, EverySessionStepMatchesTheBruteForceSweep) {
  util::Rng rng(2024);
  size_t sessions = 0;
  size_t wasted = 0;
  size_t rejected = 0;
  for (size_t n = 3; n <= 5; ++n) {
    for (int instance = 0; instance < 10; ++instance) {
      const workload::SyntheticWorkload workload = MakeInstance(n, rng);
      const BruteForceOracle oracle(*workload.instance);
      for (const char* name :
           {"random", "local-bottom-up", "lookahead-entropy"}) {
        const std::string session =
            "n=" + std::to_string(n) + " instance " +
            std::to_string(instance) + " " + name;
        auto strategy = MakeStrategy(name, rng.Next()).value();
        ExactOracle user(workload.goal);
        InferenceEngine engine(workload.instance);
        std::vector<LabeledExample> accepted;
        ExpectEngineMatchesOracle(engine, oracle, accepted, session);
        for (int step = 0; !engine.IsDone(); ++step) {
          ASSERT_LT(step, 200) << session << ": session does not terminate";
          const std::string where = session + " step " + std::to_string(step);
          // Now and then a mode-1 label on a settled tuple: its forced
          // label is accepted and wasted, the opposite one rejected.
          const BruteForceOracle::Sweep sweep = oracle.Run(accepted);
          std::vector<size_t> settled;
          for (size_t t = 0; t < oracle.num_tuples(); ++t) {
            if (sweep.certain_in[t] || sweep.certain_out[t]) {
              settled.push_back(t);
            }
          }
          if (!settled.empty() && rng.Bernoulli(0.3)) {
            const size_t t = rng.PickOne(settled);
            const Label forced =
                sweep.certain_in[t] ? Label::kPositive : Label::kNegative;
            const Label opposite = forced == Label::kPositive
                                       ? Label::kNegative
                                       : Label::kPositive;
            std::vector<LabeledExample> with_opposite = accepted;
            with_opposite.push_back({t, opposite});
            ASSERT_FALSE(oracle.AnyConsistent(with_opposite));
            EXPECT_FALSE(SubmitCheckingImpact(engine, t, opposite, where).ok())
                << where;
            ++rejected;
            ExpectEngineMatchesOracle(engine, oracle, accepted,
                                      where + " (rejected)");
            const size_t wasted_before = engine.GetStats().wasted_interactions;
            ASSERT_TRUE(SubmitCheckingImpact(engine, t, forced, where).ok())
                << where;
            EXPECT_EQ(engine.GetStats().wasted_interactions,
                      wasted_before + 1)
                << where;
            accepted.push_back({t, forced});
            ++wasted;
            ExpectEngineMatchesOracle(engine, oracle, accepted,
                                      where + " (wasted)");
          }
          const size_t cls = strategy->PickClass(engine);
          const size_t t = engine.tuple_class(cls).tuple_indices.front();
          ASSERT_FALSE(sweep.certain_in[t] || sweep.certain_out[t])
              << where << ": strategy picked a settled tuple";
          const Label label = user.LabelFor(workload.instance->row(t));
          ASSERT_TRUE(SubmitCheckingImpact(engine, t, label, where).ok())
              << where;
          accepted.push_back({t, label});
          ExpectEngineMatchesOracle(engine, oracle, accepted, where);
          if (HasFatalFailure()) return;
        }
        // The goal is among the consistent predicates to the end.
        const BruteForceOracle::Sweep final_sweep = oracle.Run(accepted);
        bool goal_consistent = false;
        for (size_t p : final_sweep.consistent) {
          goal_consistent |= oracle.theta(p) == workload.goal.partition();
        }
        EXPECT_TRUE(goal_consistent) << session;
        ++sessions;
      }
    }
  }
  EXPECT_EQ(sessions, 90u);
  EXPECT_GT(wasted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace jim::core
