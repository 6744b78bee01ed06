// Randomized parity tests for the incremental classification engine: the
// cached/incremental paths (knowledge cache + worklist propagation,
// SimulateLabelBoth, the state words the minimax memo keys on) must agree
// exactly with the naive
// references (fresh-state Classify, two SimulateLabel calls, CanonicalKey)
// over seeded random sessions.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/inference_state.h"
#include "core/oracle.h"
#include "core/strategies.h"
#include "exec/thread_pool.h"
#include "support/core_views.h"
#include "support/simulate_label.h"
#include "util/rng.h"
#include "workload/synthetic.h"
#include "util/check.h"

namespace jim::core {
namespace {

// Parity suites run with the invariant auditor on (see util/check.h): every
// JIM_AUDIT checkpoint inside the engine re-derives its CheckInvariants
// contract while the parity assertions run, so a divergence is caught at
// the mutation that introduced it, not at the final transcript diff.
const bool kAuditInvariantsOn = [] {
  ::jim::util::SetAuditInvariants(true);
  return true;
}();

workload::SyntheticWorkload MakeWorkload(uint64_t seed, size_t tuples,
                                         size_t attributes) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_tuples = tuples;
  spec.num_attributes = attributes;
  spec.domain_size = 3;  // small domain: rich accidental-equality structure
  spec.goal_constraints = 2;
  return workload::MakeSyntheticWorkload(spec, rng);
}

/// Replays the engine's label history into a fresh InferenceState and
/// classifies every class from scratch — the naive reference the incremental
/// engine must match.
void ExpectStatusesMatchFreshState(const InferenceEngine& engine) {
  InferenceState fresh(engine.store().num_attributes());
  for (const LabeledExample& example : engine.history()) {
    const size_t cls = engine.class_of_tuple(example.tuple_index);
    ASSERT_TRUE(
        ApplyLabel(fresh, engine.ClassPartition(cls), example.label)
            .ok());
  }
  size_t informative_count = 0;
  for (size_t c = 0; c < engine.num_classes(); ++c) {
    const ClassStatus status = engine.class_status(c);
    if (status == ClassStatus::kLabeledPositive ||
        status == ClassStatus::kLabeledNegative) {
      continue;  // explicit labels are engine bookkeeping, not classification
    }
    const TupleClassification expected =
        fresh.Classify(engine.ClassPartition(c));
    switch (expected) {
      case TupleClassification::kInformative:
        EXPECT_EQ(status, ClassStatus::kInformative) << "class " << c;
        ++informative_count;
        break;
      case TupleClassification::kForcedPositive:
        EXPECT_EQ(status, ClassStatus::kForcedPositive) << "class " << c;
        break;
      case TupleClassification::kForcedNegative:
        EXPECT_EQ(status, ClassStatus::kForcedNegative) << "class " << c;
        break;
    }
    // The cached knowledge of informative classes must be the true
    // K_c = θ_P ∧ Part(c) under the current state.
    if (expected == TupleClassification::kInformative) {
      const lat::Partition knowledge =
          fresh.theta_p().Meet(engine.ClassPartition(c));
      EXPECT_EQ(ClassKnowledge(engine, c), knowledge)
          << "stale knowledge cache for class " << c;
      EXPECT_EQ(engine.ClassKnowledgeRank(c), knowledge.Rank())
          << "class " << c;
    }
  }
  EXPECT_EQ(engine.InformativeClasses().size(), informative_count);
  // The worklist mirrors the statuses exactly, ascending.
  std::vector<size_t> expected_worklist;
  for (size_t c = 0; c < engine.num_classes(); ++c) {
    if (engine.class_status(c) == ClassStatus::kInformative) {
      expected_worklist.push_back(c);
    }
  }
  EXPECT_EQ(engine.InformativeClasses(), expected_worklist);
}

TEST(IncrementalParityTest, CachedClassificationMatchesFreshStateReplay) {
  util::Rng rng(11);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const auto workload = MakeWorkload(seed, 120, 5);
    InferenceEngine engine(workload.instance);
    ExpectStatusesMatchFreshState(engine);
    while (!engine.IsDone()) {
      const std::vector<size_t>& informative = engine.InformativeClasses();
      const size_t cls = rng.PickOne(informative);
      const Label label =
          rng.UniformInt(0, 1) == 0 ? Label::kPositive : Label::kNegative;
      ASSERT_TRUE(engine.SubmitClassLabel(cls, label).ok());
      ExpectStatusesMatchFreshState(engine);
    }
  }
}

TEST(IncrementalParityTest, SimulateLabelBothMatchesTwoSimulateLabelCalls) {
  util::Rng rng(23);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const auto workload = MakeWorkload(seed, 150, 6);
    InferenceEngine engine(workload.instance);
    while (!engine.IsDone()) {
      // Compare every informative candidate at every step of the session.
      const std::vector<size_t> informative = engine.InformativeClasses();
      for (size_t cls : informative) {
        const auto both = engine.SimulateLabelBoth(cls);
        const auto plus = SimulateLabel(engine, cls, Label::kPositive);
        const auto minus = SimulateLabel(engine, cls, Label::kNegative);
        EXPECT_EQ(both.positive.pruned_classes, plus.pruned_classes);
        EXPECT_EQ(both.positive.pruned_tuples, plus.pruned_tuples);
        EXPECT_EQ(both.negative.pruned_classes, minus.pruned_classes);
        EXPECT_EQ(both.negative.pruned_tuples, minus.pruned_tuples);
      }
      const size_t cls = rng.PickOne(informative);
      const Label label =
          rng.UniformInt(0, 1) == 0 ? Label::kPositive : Label::kNegative;
      ASSERT_TRUE(engine.SubmitClassLabel(cls, label).ok());
    }
  }
}

TEST(IncrementalParityTest, SimulatedImpactMatchesActualSubmission) {
  // SimulateLabelBoth's prediction must equal the real pruning when the
  // label is then submitted — across whole random sessions.
  util::Rng rng(37);
  for (uint64_t seed = 10; seed <= 13; ++seed) {
    const auto workload = MakeWorkload(seed, 100, 5);
    InferenceEngine engine(workload.instance);
    while (!engine.IsDone()) {
      const std::vector<size_t> informative = engine.InformativeClasses();
      const size_t before = engine.NumInformativeTuples();
      const size_t cls = rng.PickOne(informative);
      const Label label =
          rng.UniformInt(0, 1) == 0 ? Label::kPositive : Label::kNegative;
      const auto both = engine.SimulateLabelBoth(cls);
      const auto predicted =
          label == Label::kPositive ? both.positive : both.negative;
      ASSERT_TRUE(engine.SubmitClassLabel(cls, label).ok());
      EXPECT_EQ(before - engine.NumInformativeTuples(),
                predicted.pruned_tuples);
      EXPECT_EQ(informative.size() - engine.InformativeClasses().size(),
                predicted.pruned_classes);
    }
  }
}

TEST(IncrementalParityTest, StateKeyMatchesCanonicalKey) {
  // Two states agree on their words (the minimax memo key) iff they agree on
  // the string CanonicalKey — across the states reached by random sessions
  // on a fixed instance.
  const auto workload = MakeWorkload(3, 80, 5);
  util::Rng rng(51);
  std::vector<InferenceState> states;
  std::vector<std::string> canonical;
  for (int session = 0; session < 6; ++session) {
    InferenceEngine engine(workload.instance);
    states.push_back(engine.state());
    canonical.push_back(CanonicalKey(engine.state()));
    while (!engine.IsDone()) {
      const size_t cls = rng.PickOne(engine.InformativeClasses());
      const Label label =
          rng.UniformInt(0, 1) == 0 ? Label::kPositive : Label::kNegative;
      ASSERT_TRUE(engine.SubmitClassLabel(cls, label).ok());
      states.push_back(engine.state());
      canonical.push_back(CanonicalKey(engine.state()));
    }
  }
  for (size_t i = 0; i < states.size(); ++i) {
    for (size_t j = 0; j < states.size(); ++j) {
      EXPECT_EQ(states[i].words() == states[j].words(),
                canonical[i] == canonical[j])
          << "states " << i << " / " << j;
    }
  }
}

TEST(IncrementalParityTest, LookaheadPickUnchangedByFastPath) {
  // Score parity (tested above) already forces identical picks for every
  // aggregate; this cross-checks the end result once: the strategy's pick
  // equals the argmax of naively-scored candidates (ties toward the smaller
  // class id, matching the documented determinism).
  const auto workload = MakeWorkload(7, 150, 6);
  InferenceEngine engine(workload.instance);
  auto strategy = MakeStrategy("lookahead-minmax").value();
  int steps = 0;
  while (!engine.IsDone() && steps < 8) {
    const size_t pick = strategy->PickClass(engine);
    const std::vector<size_t>& candidates = engine.InformativeClasses();
    size_t best = candidates.front();
    size_t best_score = 0;
    bool first = true;
    for (size_t cls : candidates) {
      const auto plus = SimulateLabel(engine, cls, Label::kPositive);
      const auto minus = SimulateLabel(engine, cls, Label::kNegative);
      const size_t score = std::min(plus.pruned_tuples, minus.pruned_tuples);
      if (first || score > best_score) {
        best = cls;
        best_score = score;
        first = false;
      }
    }
    EXPECT_EQ(pick, best) << "step " << steps;
    ASSERT_TRUE(engine.SubmitClassLabel(pick, Label::kNegative).ok());
    ++steps;
  }
}

TEST(IncrementalParityTest, PairMaskScanMatchesNaiveAcrossMaskWidths) {
  // The impact scan runs on pair masks of n(n−1)/2 bits. The widths cover
  // one bit (n = 2), one word (7 and 11 → 21 and 55 bits), the first width
  // past the 64-bit boundary (12 → 66 bits) and two words (16 → 120 bits).
  const std::vector<std::pair<size_t, size_t>> widths = {
      {2, 1}, {7, 1}, {11, 1}, {12, 2}, {16, 2}};
  const std::vector<LookaheadStrategy::Objective> objectives = {
      LookaheadStrategy::Objective::kMinMax,
      LookaheadStrategy::Objective::kExpected,
      LookaheadStrategy::Objective::kEntropy};
  exec::ThreadPool pool(2);
  for (const auto& [n, words] : widths) {
    for (uint64_t seed : {5u, 6u}) {
      util::Rng rng(seed * 100 + n);
      workload::SyntheticSpec spec;
      spec.num_tuples = 150;
      spec.num_attributes = n;
      spec.domain_size = 3;
      spec.goal_constraints = std::min<size_t>(2, n - 1);
      const auto workload = workload::MakeSyntheticWorkload(spec, rng);
      InferenceEngine engine(workload.instance);
      ExactOracle oracle(workload.goal);
      bool scanned_with_antichain = false;
      for (int step = 0; step < 5 && !engine.IsDone(); ++step) {
        InferenceEngine::LookaheadColumns columns;
        engine.PrepareLookaheadColumns(columns);
        ASSERT_EQ((columns.pairs + 63) / 64, words) << "n=" << n;
        scanned_with_antichain |= engine.state().num_forbidden() > 0;

        const std::vector<size_t> informative = engine.InformativeClasses();
        std::vector<InferenceEngine::LabelImpactPair> naive;
        for (size_t cls : informative) {
          const auto both = engine.SimulateLabelBoth(cls);
          const auto plus = SimulateLabel(engine, cls, Label::kPositive);
          const auto minus = SimulateLabel(engine, cls, Label::kNegative);
          EXPECT_EQ(both.positive.pruned_classes, plus.pruned_classes)
              << "n=" << n << " class " << cls;
          EXPECT_EQ(both.positive.pruned_tuples, plus.pruned_tuples)
              << "n=" << n << " class " << cls;
          EXPECT_EQ(both.negative.pruned_classes, minus.pruned_classes)
              << "n=" << n << " class " << cls;
          EXPECT_EQ(both.negative.pruned_tuples, minus.pruned_tuples)
              << "n=" << n << " class " << cls;
          naive.push_back({plus, minus});
          EXPECT_EQ(engine.ClassKnowledgeRank(cls),
                    ClassKnowledge(engine, cls).Rank())
              << "n=" << n << " class " << cls;
        }
        for (auto objective : objectives) {
          // The pick the exhaustive scan makes: argmax of the naive scores,
          // ties toward the first candidate.
          LookaheadStrategy reference(objective, 1.0, /*max_candidates=*/0);
          size_t best = 0;
          for (size_t i = 1; i < informative.size(); ++i) {
            const auto score = [&](size_t j) {
              return reference.ObjectiveValue(naive[j].positive.pruned_tuples,
                                              naive[j].negative.pruned_tuples);
            };
            if (score(i) > score(best)) best = i;
          }
          for (exec::ThreadPool* scan_pool : {static_cast<exec::ThreadPool*>(
                                                  nullptr),
                                              &pool}) {
            LookaheadStrategy strategy(objective, 1.0, /*max_candidates=*/0);
            strategy.set_thread_pool(scan_pool);
            EXPECT_EQ(strategy.PickClass(engine), informative[best])
                << "n=" << n << " step " << step;
          }
        }
        const size_t cls = rng.PickOne(informative);
        const size_t tuple = engine.tuple_class(cls).tuple_indices.front();
        ASSERT_TRUE(engine
                        .SubmitClassLabel(cls, oracle.LabelFor(
                                                   workload.instance->row(tuple)))
                        .ok());
      }
      // n = 2 has one informative class at most, settled by its first label.
      if (n > 2) {
        EXPECT_TRUE(scanned_with_antichain) << "n=" << n << " seed " << seed;
      }
    }
  }
}

TEST(IncrementalParityTest, RaggedColumnsMatchNaiveAcrossBlockBoundaries) {
  // The transposed scan reads 64 worklist positions per column word and
  // 512 per tile, so a worklist's last word and last tile are usually
  // partial. A worklist is labeled down one answer at a time, across 512
  // (1-word pair masks, seven attributes) or from above 128 (2-word masks,
  // twelve attributes), then across 128 and 64, with a growing antichain;
  // at every step, every candidate's impacts over the shared columns equal
  // the naive ones.
  struct Case {
    size_t attributes;
    size_t domain;  ///< seven attributes need six values for 512 classes
    size_t tuples;
    size_t wider_than;
  };
  for (const Case& c : {Case{7, 6, 1220, 512}, Case{12, 3, 200, 128}}) {
    const size_t n = c.attributes;
    util::Rng rng(n);
    workload::SyntheticSpec spec;
    spec.num_tuples = c.tuples;
    spec.num_attributes = n;
    spec.domain_size = c.domain;
    const auto workload = workload::MakeSyntheticWorkload(spec, rng);
    InferenceEngine engine(workload.instance);
    ASSERT_GT(engine.InformativeClasses().size(), c.wider_than) << "n=" << n;
    // Worklist widths seen with a partial last word and a non-empty
    // antichain: above 512, in (128, 512], in (64, 128] and in (0, 64].
    bool ragged_with_antichain[4] = {false, false, false, false};
    InferenceEngine::LookaheadColumns columns;
    while (engine.InformativeClasses().size() > 40) {
      const std::vector<size_t> informative = engine.InformativeClasses();
      const size_t size = informative.size();
      engine.PrepareLookaheadColumns(columns);
      ASSERT_EQ(columns.tiles, (size + 511) / 512);
      if (engine.state().num_forbidden() > 0 && size % 64 != 0) {
        ragged_with_antichain[size > 512 ? 0 : size > 128 ? 1
                              : size > 64  ? 2 : 3] = true;
      }
      // The next answer (a negative one on ties) halves the distance to one
      // tile while the worklist spans two, then prunes about a quarter of
      // it down to 128 and an eighth below.
      const size_t target = size > 512   ? (size - 512) / 2 + 1
                            : size > 128 ? size / 4
                                         : std::max<size_t>(1, size / 8);
      const auto distance = [target](size_t pruned) {
        return pruned > target ? pruned - target : target - pruned;
      };
      size_t next = informative.front();
      Label answer = Label::kNegative;
      size_t best = SIZE_MAX;
      for (size_t cls : informative) {
        const auto both = engine.SimulateLabelBoth(cls, columns);
        const auto plus = SimulateLabel(engine, cls, Label::kPositive);
        const auto minus = SimulateLabel(engine, cls, Label::kNegative);
        ASSERT_EQ(both.positive.pruned_classes, plus.pruned_classes)
            << "n=" << n << " m=" << size << " class " << cls;
        ASSERT_EQ(both.positive.pruned_tuples, plus.pruned_tuples)
            << "n=" << n << " m=" << size << " class " << cls;
        ASSERT_EQ(both.negative.pruned_classes, minus.pruned_classes)
            << "n=" << n << " m=" << size << " class " << cls;
        ASSERT_EQ(both.negative.pruned_tuples, minus.pruned_tuples)
            << "n=" << n << " m=" << size << " class " << cls;
        if (2 * distance(minus.pruned_classes) < best) {
          best = 2 * distance(minus.pruned_classes);
          next = cls;
          answer = Label::kNegative;
        }
        if (2 * distance(plus.pruned_classes) + 1 < best) {
          best = 2 * distance(plus.pruned_classes) + 1;
          next = cls;
          answer = Label::kPositive;
        }
      }
      ASSERT_TRUE(engine.SubmitClassLabel(next, answer).ok());
    }
    for (size_t range = c.wider_than >= 512 ? 0 : 1; range < 4; ++range) {
      EXPECT_TRUE(ragged_with_antichain[range])
          << "n=" << n << " width range " << range;
    }
  }
}

TEST(IncrementalParityTest, SingleAttributeHasZeroWordMasksAndNothingToScan) {
  // One attribute has no pair: its masks are zero words long. Its only
  // partition is θ_P's initial top, so every class is forced positive from
  // the start and no candidate ever reaches the scan.
  rel::Relation relation{"t", rel::Schema::FromNames({"a"})};
  ASSERT_TRUE(relation.AddRow({rel::Value("x")}).ok());
  ASSERT_TRUE(relation.AddRow({rel::Value("y")}).ok());
  const InferenceEngine engine(
      std::make_shared<const rel::Relation>(std::move(relation)));
  EXPECT_TRUE(engine.IsDone());
  InferenceEngine::LookaheadColumns columns;
  engine.PrepareLookaheadColumns(columns);
  EXPECT_EQ(columns.pairs, 0u);
  EXPECT_TRUE(columns.bits.empty());
  EXPECT_TRUE(columns.class_tuples.empty());
}

}  // namespace
}  // namespace jim::core
