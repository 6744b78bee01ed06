// Failure injection and adversarial inputs: dishonest users, degenerate
// instances, and hostile label orders. The engine must reject contradictions
// with clean errors (never corrupt state), and terminate on everything else.

#include <gtest/gtest.h>

#include "core/jim.h"
#include "support/simulate_label.h"
#include "util/rng.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

namespace jim::core {
namespace {

TEST(AdversarialTest, RandomDishonestLabelsNeverCorruptState) {
  // A user labeling at random will eventually contradict herself; every
  // contradiction must surface as kFailedPrecondition and leave the engine
  // in a state that still accepts consistent labels.
  util::Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    InferenceEngine engine(workload::Figure1InstancePtr());
    size_t rejected = 0;
    for (int step = 0; step < 40; ++step) {
      const size_t tuple = static_cast<size_t>(rng.UniformInt(0, 11));
      const Label label =
          rng.Bernoulli(0.5) ? Label::kPositive : Label::kNegative;
      const std::string key_before = engine.state().CanonicalKey();
      const util::Status status = engine.SubmitTupleLabel(tuple, label);
      if (!status.ok()) {
        ++rejected;
        EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
        EXPECT_EQ(engine.state().CanonicalKey(), key_before)
            << "state changed on a rejected label";
      }
      // The invariant of the honest core: θ_P is always consistent.
      EXPECT_TRUE(engine.state().IsConsistent(engine.state().theta_p()));
    }
    // Random labeling of 40 tuples over 12 rows virtually always trips at
    // least one contradiction.
    EXPECT_GT(rejected + 1, 1u);  // tautological guard; keep loop hot
  }
}

TEST(AdversarialTest, AdversarialAnswersStillTerminate) {
  // An adversary answering to maximize remaining ambiguity (the minimax
  // opponent) cannot prevent termination within #classes questions.
  const auto instance = workload::Figure1InstancePtr();
  InferenceEngine engine(instance);
  auto strategy = MakeStrategy("lookahead-minmax").value();
  size_t questions = 0;
  while (!engine.IsDone()) {
    const size_t cls = strategy->PickClass(engine);
    // Adversary: choose the answer that leaves MORE informative tuples.
    const auto plus = SimulateLabel(engine, cls, Label::kPositive);
    const auto minus = SimulateLabel(engine, cls, Label::kNegative);
    const Label worst = plus.pruned_tuples <= minus.pruned_tuples
                            ? Label::kPositive
                            : Label::kNegative;
    ASSERT_TRUE(engine.SubmitClassLabel(cls, worst).ok());
    ASSERT_LE(++questions, engine.num_classes());
  }
  EXPECT_TRUE(engine.IsDone());
}

TEST(AdversarialTest, AllNegativeAnswers) {
  // A user who wants nothing: every answer negative. The engine must
  // conclude "no consistent predicate selects anything you were shown".
  const auto instance = workload::Figure1InstancePtr();
  InferenceEngine engine(instance);
  auto strategy = MakeStrategy("local-top-down").value();
  while (!engine.IsDone()) {
    ASSERT_TRUE(
        engine.SubmitClassLabel(strategy->PickClass(engine), Label::kNegative)
            .ok());
  }
  // Result selects nothing on the instance.
  EXPECT_EQ(engine.Result().SelectedRows(*instance).Count(), 0u);
}

TEST(AdversarialTest, AllPositiveAnswers) {
  const auto instance = workload::Figure1InstancePtr();
  InferenceEngine engine(instance);
  auto strategy = MakeStrategy("local-bottom-up").value();
  while (!engine.IsDone()) {
    ASSERT_TRUE(
        engine.SubmitClassLabel(strategy->PickClass(engine), Label::kPositive)
            .ok());
  }
  // Everything positive ⇒ the empty predicate (selects all) is the answer.
  EXPECT_TRUE(engine.Result().IsEmptyPredicate());
  EXPECT_EQ(engine.Result().SelectedRows(*instance).Count(), 12u);
}

TEST(DegenerateInstanceTest, SingleTuple) {
  rel::Relation relation{"t", rel::Schema::FromNames({"a", "b", "c"})};
  using rel::Value;
  ASSERT_TRUE(relation.AddRow({Value("x"), Value("x"), Value("y")}).ok());
  InferenceEngine engine(
      std::make_shared<const rel::Relation>(std::move(relation)));
  EXPECT_FALSE(engine.IsDone());
  ASSERT_TRUE(engine.SubmitTupleLabel(0, Label::kPositive).ok());
  EXPECT_TRUE(engine.IsDone());
  EXPECT_EQ(engine.Result().partition().ToString(), "{0,1|2}");
}

TEST(DegenerateInstanceTest, EmptyInstanceIsImmediatelyDone) {
  rel::Relation relation{"t", rel::Schema::FromNames({"a", "b"})};
  InferenceEngine engine(
      std::make_shared<const rel::Relation>(std::move(relation)));
  EXPECT_TRUE(engine.IsDone());
  EXPECT_EQ(engine.num_classes(), 0u);
  EXPECT_EQ(engine.Result().partition(), lat::Partition::Top(2));
}

TEST(DegenerateInstanceTest, AllTuplesIdentical) {
  rel::Relation relation{"t", rel::Schema::FromNames({"a", "b"})};
  using rel::Value;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(relation.AddRow({Value("u"), Value("v")}).ok());
  }
  InferenceEngine engine(
      std::make_shared<const rel::Relation>(std::move(relation)));
  EXPECT_EQ(engine.num_classes(), 1u);
  ASSERT_TRUE(engine.SubmitTupleLabel(0, Label::kNegative).ok());
  EXPECT_TRUE(engine.IsDone());
  // All other tuples grayed negative.
  for (size_t t = 1; t < 5; ++t) {
    EXPECT_EQ(engine.tuple_status(t), TupleStatus::kForcedNegative);
  }
}

TEST(DegenerateInstanceTest, SingleAttribute) {
  // With one attribute the only predicates are ⊥ = ⊤ = "select all";
  // any tuple is forced positive from the start.
  rel::Relation relation{"t", rel::Schema::FromNames({"a"})};
  using rel::Value;
  ASSERT_TRUE(relation.AddRow({Value("x")}).ok());
  ASSERT_TRUE(relation.AddRow({Value("y")}).ok());
  InferenceEngine engine(
      std::make_shared<const rel::Relation>(std::move(relation)));
  EXPECT_TRUE(engine.IsDone());
  EXPECT_EQ(engine.tuple_status(0), TupleStatus::kForcedPositive);
}

TEST(DegenerateInstanceTest, NullHeavyInstance) {
  // NULLs never satisfy equalities; an all-NULL instance can only support
  // negative knowledge about non-trivial predicates.
  rel::Relation relation{"t", rel::Schema::FromNames({"a", "b", "c"})};
  using rel::Value;
  ASSERT_TRUE(relation.AddRow({Value(), Value(), Value()}).ok());
  ASSERT_TRUE(relation.AddRow({Value("x"), Value(), Value()}).ok());
  auto instance = std::make_shared<const rel::Relation>(std::move(relation));
  InferenceEngine engine(instance);
  // Both rows have Part(t) = ⊥, so one class.
  EXPECT_EQ(engine.num_classes(), 1u);
  ASSERT_TRUE(engine.SubmitTupleLabel(0, Label::kNegative).ok());
  EXPECT_TRUE(engine.IsDone());
  EXPECT_EQ(engine.Result().SelectedRows(*instance).Count(), 0u);
}

TEST(AdversarialTest, HostileLabelOrderMatchesAnyOrderResult) {
  // Labels are commutative knowledge: any permutation of the same honest
  // label set must yield the same final state.
  util::Rng rng(555);
  const auto instance = workload::Figure1InstancePtr();
  const auto goal =
      JoinPredicate::Parse(instance->schema(), workload::kQ2).value();
  // Label every class per the goal, in 10 random orders.
  std::string reference_key;
  for (int trial = 0; trial < 10; ++trial) {
    InferenceEngine engine(instance);
    std::vector<size_t> order(engine.num_classes());
    for (size_t c = 0; c < order.size(); ++c) order[c] = c;
    rng.Shuffle(order);
    for (size_t cls : order) {
      const size_t tuple = engine.tuple_class(cls).tuple_indices[0];
      const Label label = goal.Selects(instance->row(tuple))
                              ? Label::kPositive
                              : Label::kNegative;
      ASSERT_TRUE(engine.SubmitClassLabel(cls, label).ok());
    }
    const std::string key = engine.state().CanonicalKey();
    if (trial == 0) {
      reference_key = key;
    } else {
      EXPECT_EQ(key, reference_key) << "order-dependent final state";
    }
  }
}

}  // namespace
}  // namespace jim::core
