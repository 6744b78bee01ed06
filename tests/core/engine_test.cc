#include "core/engine.h"

#include <gtest/gtest.h>

#include "core/oracle.h"
#include "lattice/pair_mask.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "support/core_views.h"
#include "support/simulate_label.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

namespace jim::core {
namespace {

std::shared_ptr<const rel::Relation> SmallInstance() {
  return workload::Figure1InstancePtr();
}

TEST(EngineTest, BuildsClassesByValuePartition) {
  InferenceEngine engine(SmallInstance());
  EXPECT_EQ(engine.num_tuples(), 12u);
  // Figure 1 has 6 distinct value partitions:
  // ⊥:{1,5,9}, {F,C}:{2,6,11}, {T,C}{A,D}:{3,4}, {T,C}:{8,10},
  // {F,C}{A,D}:{7}, {A,D}:{12}.
  EXPECT_EQ(engine.num_classes(), 6u);
  // Tuples 3 and 4 (rows 2,3) share a class.
  EXPECT_EQ(engine.class_of_tuple(2), engine.class_of_tuple(3));
  EXPECT_NE(engine.class_of_tuple(2), engine.class_of_tuple(0));
  // Class sizes sum to the tuple count.
  size_t total = 0;
  for (size_t c = 0; c < engine.num_classes(); ++c) {
    total += engine.tuple_class(c).size();
  }
  EXPECT_EQ(total, 12u);
}

TEST(EngineTest, ClassTableBytesStayWithinTheCsrLayout) {
  // Nothing per tuple: a first tuple, a size and a Part(c) row per class,
  // and the Part(c) index's slots (a power of two, at least 16, at most
  // half full).
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  for (size_t n : {3u, 6u, 12u}) {
    util::Rng rng(90 + n);
    workload::SyntheticSpec spec;
    spec.num_attributes = n;
    spec.num_tuples = 3000;
    spec.domain_size = 3;
    const auto workload = workload::MakeSyntheticWorkload(spec, rng);
    const InferenceEngine engine(workload.store, /*pool=*/nullptr);
    const int64_t bytes = obs::MetricsRegistry::Instance()
                              .GetGauge(obs::kGaugeEngineClassTableBytes)
                              .Value();
    const size_t classes = engine.num_classes();
    size_t slots = 16;
    while (slots < 2 * classes) slots *= 2;
    EXPECT_EQ(bytes, static_cast<int64_t>(
                         (8 + 8 * lat::PairMaskWords(n)) * classes +
                         4 * slots))
        << "n=" << n;
  }
  obs::SetMetricsEnabled(was_enabled);
}

TEST(EngineDeathTest, StoreOfTwoToThe32TuplesIsRejectedBeforeBuilding) {
  // Tuple and class ids are uint32_t in the class table and in checkpoints.
  // This store reports 2^32 tuples and fails loudly if any code is read, so
  // the only acceptable death is the size check.
  class HugeStore final : public TupleStore {
   public:
    const std::string& name() const override { return name_; }
    const rel::Schema& schema() const override { return schema_; }
    size_t num_tuples() const override { return size_t{1} << 32; }
    uint32_t code(size_t, size_t) const override {
      JIM_CHECK(false) << "HugeStore serves no codes";
      return 0;
    }
    rel::Value DecodeValue(size_t, size_t) const override {
      JIM_CHECK(false) << "HugeStore serves no values";
      return rel::Value::Null();
    }
    size_t ApproxBytes() const override { return 0; }

   private:
    std::string name_ = "huge";
    rel::Schema schema_ = rel::Schema::FromNames({"a", "b", "c"});
  };
  const auto store = std::make_shared<const HugeStore>();
  EXPECT_DEATH(InferenceEngine(store, /*pool=*/nullptr),
               "tuple store too large");
}

TEST(EngineTest, InitiallyAllInformativeOnFigure1) {
  InferenceEngine engine(SmallInstance());
  EXPECT_EQ(engine.InformativeClasses().size(), 6u);
  EXPECT_EQ(engine.NumInformativeTuples(), 12u);
  EXPECT_FALSE(engine.IsDone());
}

TEST(EngineTest, AllEqualTupleIsForcedPositiveFromTheStart) {
  rel::Relation relation{"t", rel::Schema::FromNames({"a", "b"})};
  using rel::Value;
  ASSERT_TRUE(relation.AddRow({Value("x"), Value("x")}).ok());
  ASSERT_TRUE(relation.AddRow({Value("x"), Value("y")}).ok());
  InferenceEngine engine(
      std::make_shared<const rel::Relation>(std::move(relation)));
  // Tuple 0 satisfies every predicate over 2 attributes -> never informative.
  EXPECT_EQ(engine.tuple_status(0), TupleStatus::kForcedPositive);
  EXPECT_EQ(engine.tuple_status(1), TupleStatus::kInformative);
}

TEST(EngineTest, SimulateLabelMatchesActualSubmission) {
  util::Rng rng(808);
  workload::SyntheticSpec spec;
  spec.num_attributes = 5;
  spec.num_tuples = 120;
  spec.domain_size = 4;
  const auto workload = workload::MakeSyntheticWorkload(spec, rng);

  for (int step = 0; step < 30; ++step) {
    InferenceEngine engine(workload.instance);
    // Play a random prefix of labels.
    ExactOracle oracle(workload.goal);
    for (int pre = 0; pre < step % 4; ++pre) {
      const auto informative = engine.InformativeClasses();
      if (informative.empty()) break;
      const size_t cls = informative[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(informative.size()) - 1))];
      const size_t tuple = engine.tuple_class(cls).tuple_indices[0];
      ASSERT_TRUE(
          engine.SubmitClassLabel(cls, oracle.LabelFor(
                                           workload.instance->row(tuple)))
              .ok());
    }
    const auto informative = engine.InformativeClasses();
    if (informative.empty()) continue;
    const size_t cls = informative[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(informative.size()) - 1))];
    for (const Label label : {Label::kPositive, Label::kNegative}) {
      const auto predicted = SimulateLabel(engine, cls, label);
      InferenceEngine copy = engine;
      const size_t informative_before = copy.NumInformativeTuples();
      ASSERT_TRUE(copy.SubmitClassLabel(cls, label).ok());
      const size_t informative_after = copy.NumInformativeTuples();
      EXPECT_EQ(predicted.pruned_tuples,
                informative_before - informative_after);
    }
  }
}

TEST(EngineTest, PrunedClassesNeverComeBack) {
  // Monotonicity: once a class leaves the informative pool it stays out.
  util::Rng rng(909);
  workload::SyntheticSpec spec;
  spec.num_attributes = 6;
  spec.num_tuples = 150;
  spec.domain_size = 3;
  const auto workload = workload::MakeSyntheticWorkload(spec, rng);
  InferenceEngine engine(workload.instance);
  ExactOracle oracle(workload.goal);

  std::vector<bool> was_uninformative(engine.num_classes(), false);
  while (!engine.IsDone()) {
    for (size_t c = 0; c < engine.num_classes(); ++c) {
      const bool informative =
          engine.class_status(c) == ClassStatus::kInformative;
      if (was_uninformative[c]) {
        ASSERT_FALSE(informative) << "class " << c << " was resurrected";
      }
      if (!informative) was_uninformative[c] = true;
    }
    const auto informative = engine.InformativeClasses();
    const size_t cls = informative[0];
    const size_t tuple = engine.tuple_class(cls).tuple_indices[0];
    ASSERT_TRUE(engine
                    .SubmitClassLabel(
                        cls, oracle.LabelFor(workload.instance->row(tuple)))
                    .ok());
  }
}

TEST(EngineTest, StatsAreConserved) {
  InferenceEngine engine(SmallInstance());
  ASSERT_TRUE(engine.SubmitTupleLabel(2, Label::kPositive).ok());
  ASSERT_TRUE(engine.SubmitTupleLabel(6, Label::kNegative).ok());
  const auto stats = engine.GetStats();
  EXPECT_EQ(stats.num_tuples, 12u);
  EXPECT_EQ(stats.num_classes, 6u);
  EXPECT_EQ(stats.interactions, 2u);
  EXPECT_EQ(stats.wasted_interactions, 0u);
  EXPECT_EQ(stats.informative_tuples + stats.forced_positive_tuples +
                stats.forced_negative_tuples +
                stats.explicitly_labeled_tuples,
            12u);
}

TEST(EngineTest, WastedInteractionCounting) {
  InferenceEngine engine(SmallInstance());
  ASSERT_TRUE(engine.SubmitTupleLabel(2, Label::kPositive).ok());
  // Tuple 3 (row index) shares the class -> consistent but uninformative.
  ASSERT_TRUE(engine.SubmitTupleLabel(3, Label::kPositive).ok());
  EXPECT_EQ(engine.GetStats().wasted_interactions, 1u);
  EXPECT_EQ(engine.GetStats().interactions, 2u);
}

TEST(EngineTest, OutOfRangeInputsRejected) {
  InferenceEngine engine(SmallInstance());
  EXPECT_EQ(engine.SubmitTupleLabel(99, Label::kPositive).code(),
            util::StatusCode::kOutOfRange);
  EXPECT_EQ(engine.SubmitClassLabel(99, Label::kPositive).code(),
            util::StatusCode::kOutOfRange);
}

TEST(EngineTest, HistoryRecordsSubmissions) {
  InferenceEngine engine(SmallInstance());
  ASSERT_TRUE(engine.SubmitTupleLabel(11, Label::kNegative).ok());
  ASSERT_TRUE(engine.SubmitTupleLabel(2, Label::kPositive).ok());
  ASSERT_EQ(engine.history().size(), 2u);
  EXPECT_EQ(engine.history()[0].tuple_index, 11u);
  EXPECT_EQ(engine.history()[0].label, Label::kNegative);
  EXPECT_EQ(engine.history()[1].tuple_index, 2u);
}

TEST(EngineTest, ResultIsThetaP) {
  InferenceEngine engine(SmallInstance());
  ASSERT_TRUE(engine.SubmitTupleLabel(2, Label::kPositive).ok());
  EXPECT_EQ(engine.Result().partition(), engine.state().theta_p());
}

TEST(EngineTest, CertainAnswersAreMonotoneAndFinal) {
  const auto instance = SmallInstance();
  const auto goal =
      JoinPredicate::Parse(instance->schema(), workload::kQ2).value();
  InferenceEngine engine(instance);
  ExactOracle oracle(goal);
  util::DynamicBitset previous_in(engine.num_tuples());
  util::DynamicBitset previous_out(engine.num_tuples());
  while (!engine.IsDone()) {
    const auto certain_in = CertainResultTuples(engine);
    const auto certain_out = CertainNonResultTuples(engine);
    // Monotone growth, never overlapping.
    for (size_t t = 0; t < engine.num_tuples(); ++t) {
      EXPECT_TRUE(!previous_in.Test(t) || certain_in.Test(t)) << t;
      EXPECT_TRUE(!previous_out.Test(t) || certain_out.Test(t)) << t;
      EXPECT_FALSE(certain_in.Test(t) && certain_out.Test(t)) << t;
    }
    // Certain answers are sound w.r.t. the goal (honest oracle).
    for (size_t t : certain_in.ToVector()) {
      EXPECT_TRUE(goal.Selects(instance->row(t)));
    }
    for (size_t t : certain_out.ToVector()) {
      EXPECT_FALSE(goal.Selects(instance->row(t)));
    }
    previous_in = certain_in;
    previous_out = certain_out;
    const size_t cls = engine.InformativeClasses()[0];
    const size_t tuple = engine.tuple_class(cls).tuple_indices[0];
    ASSERT_TRUE(
        engine.SubmitClassLabel(cls, oracle.LabelFor(instance->row(tuple)))
            .ok());
  }
  // At termination the certain sets partition the instance and the positive
  // side equals the goal's selected set.
  const auto final_in = CertainResultTuples(engine);
  const auto final_out = CertainNonResultTuples(engine);
  EXPECT_EQ(final_in.Count() + final_out.Count(), engine.num_tuples());
  EXPECT_EQ(final_in, goal.SelectedRows(*instance));
}

/// GetStats()'s tuple buckets, recounted from tuple_status() over every
/// tuple.
struct TupleHistogram {
  size_t informative = 0;
  size_t forced_positive = 0;
  size_t forced_negative = 0;
  size_t labeled = 0;
};

TupleHistogram HistogramOf(const InferenceEngine& engine) {
  TupleHistogram histogram;
  for (size_t t = 0; t < engine.num_tuples(); ++t) {
    switch (engine.tuple_status(t)) {
      case TupleStatus::kInformative:
        ++histogram.informative;
        break;
      case TupleStatus::kForcedPositive:
        ++histogram.forced_positive;
        break;
      case TupleStatus::kForcedNegative:
        ++histogram.forced_negative;
        break;
      case TupleStatus::kLabeledPositive:
      case TupleStatus::kLabeledNegative:
        ++histogram.labeled;
        break;
    }
  }
  return histogram;
}

void ExpectStatsMatchTupleStatuses(const InferenceEngine& engine) {
  const TupleHistogram histogram = HistogramOf(engine);
  const InferenceEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.informative_tuples, histogram.informative);
  EXPECT_EQ(stats.forced_positive_tuples, histogram.forced_positive);
  EXPECT_EQ(stats.forced_negative_tuples, histogram.forced_negative);
  EXPECT_EQ(stats.explicitly_labeled_tuples, histogram.labeled);
  EXPECT_EQ(stats.informative_tuples + stats.forced_positive_tuples +
                stats.forced_negative_tuples +
                stats.explicitly_labeled_tuples,
            stats.num_tuples);
}

TEST(EngineTest, StatsMatchTupleStatusHistogramThroughoutASession) {
  util::Rng rng(4242);
  workload::SyntheticSpec spec;
  spec.num_attributes = 5;
  spec.num_tuples = 120;
  spec.domain_size = 3;
  const auto workload = workload::MakeSyntheticWorkload(spec, rng);
  InferenceEngine engine(workload.instance);
  ExactOracle oracle(workload.goal);
  ExpectStatsMatchTupleStatuses(engine);
  // Random tuples, not class representatives: the session also relabels
  // class-mates and labels grayed-out tuples (both wasted but accepted).
  for (int step = 0; step < 60; ++step) {
    const size_t t = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(engine.num_tuples()) - 1));
    ASSERT_TRUE(engine
                    .SubmitTupleLabel(
                        t, oracle.LabelFor(workload.instance->row(t)))
                    .ok());
    ExpectStatsMatchTupleStatuses(engine);
  }
  EXPECT_GT(engine.GetStats().wasted_interactions, 0u);
}

TEST(EngineTest, StatsMatchTupleStatusHistogramOnFigure1Labels) {
  InferenceEngine engine(SmallInstance());
  // The paper's identifying labels for Q2: (3)+, (7)−, (8)−.
  for (const auto& [tuple, label] :
       {std::pair{size_t{2}, Label::kPositive},
        std::pair{size_t{6}, Label::kNegative},
        std::pair{size_t{7}, Label::kNegative}}) {
    ASSERT_TRUE(engine.SubmitTupleLabel(tuple, label).ok());
    ExpectStatsMatchTupleStatuses(engine);
  }
  EXPECT_TRUE(engine.IsDone());
  // Only the three tuples the user labeled count as labeled; class-mate (4)
  // of (3) is forced, not labeled.
  EXPECT_EQ(engine.GetStats().explicitly_labeled_tuples, 3u);
}

TEST(EngineTest, LabeledTupleStandsOutFromItsClassMates) {
  InferenceEngine engine(SmallInstance());
  // Rows 8 and 10 (indices 7, 9) form one class.
  ASSERT_EQ(engine.class_of_tuple(7), engine.class_of_tuple(9));
  ASSERT_TRUE(engine.SubmitTupleLabel(7, Label::kNegative).ok());
  EXPECT_EQ(engine.class_status(engine.class_of_tuple(7)),
            ClassStatus::kLabeledNegative);
  EXPECT_EQ(engine.tuple_status(7), TupleStatus::kLabeledNegative);
  EXPECT_EQ(engine.tuple_status(9), TupleStatus::kForcedNegative);
  EXPECT_EQ(engine.GetStats().explicitly_labeled_tuples, 1u);
}

TEST(EngineTest, ConsistentRelabelOfClassMateMarksItLabeledAndWasted) {
  InferenceEngine engine(SmallInstance());
  ASSERT_TRUE(engine.SubmitTupleLabel(2, Label::kPositive).ok());
  EXPECT_EQ(engine.tuple_status(3), TupleStatus::kForcedPositive);
  // Row 4 shares row 3's class: the label is accepted, teaches nothing, and
  // from now on row 4 shows as labeled too.
  ASSERT_TRUE(engine.SubmitTupleLabel(3, Label::kPositive).ok());
  EXPECT_EQ(engine.tuple_status(2), TupleStatus::kLabeledPositive);
  EXPECT_EQ(engine.tuple_status(3), TupleStatus::kLabeledPositive);
  const auto stats = engine.GetStats();
  EXPECT_EQ(stats.wasted_interactions, 1u);
  EXPECT_EQ(stats.interactions, 2u);
  EXPECT_EQ(stats.explicitly_labeled_tuples, 2u);
  // Labeling the same tuple again adds an interaction, not a labeled tuple.
  ASSERT_TRUE(engine.SubmitTupleLabel(3, Label::kPositive).ok());
  EXPECT_EQ(engine.GetStats().wasted_interactions, 2u);
  EXPECT_EQ(engine.GetStats().explicitly_labeled_tuples, 2u);
  ExpectStatsMatchTupleStatuses(engine);
}

TEST(EngineTest, RejectedContradictionLeavesEveryTupleStatusUnchanged) {
  InferenceEngine engine(SmallInstance());
  ASSERT_TRUE(engine.SubmitTupleLabel(2, Label::kPositive).ok());
  ASSERT_TRUE(engine.SubmitTupleLabel(11, Label::kNegative).ok());
  const auto statuses = [&] {
    std::vector<TupleStatus> all;
    for (size_t t = 0; t < engine.num_tuples(); ++t) {
      all.push_back(engine.tuple_status(t));
    }
    return all;
  };
  const std::vector<TupleStatus> before = statuses();
  // Each labeled tuple, a class-mate of one, and a tuple forced by
  // propagation (row 1), each with the opposite label.
  for (const auto& [tuple, opposite] :
       {std::pair{size_t{2}, Label::kNegative},
        std::pair{size_t{3}, Label::kNegative},
        std::pair{size_t{11}, Label::kPositive},
        std::pair{size_t{0}, Label::kPositive}}) {
    EXPECT_EQ(engine.SubmitTupleLabel(tuple, opposite).code(),
              util::StatusCode::kFailedPrecondition)
        << "tuple " << tuple;
  }
  EXPECT_EQ(statuses(), before);
  EXPECT_EQ(engine.history().size(), 2u);
  ExpectStatsMatchTupleStatuses(engine);
}

TEST(EngineTest, CopyIsIndependent) {
  InferenceEngine engine(SmallInstance());
  InferenceEngine copy = engine;
  ASSERT_TRUE(copy.SubmitTupleLabel(2, Label::kPositive).ok());
  EXPECT_EQ(engine.GetStats().interactions, 0u);
  EXPECT_EQ(copy.GetStats().interactions, 1u);
  EXPECT_EQ(engine.tuple_status(3), TupleStatus::kInformative);
}

}  // namespace
}  // namespace jim::core
