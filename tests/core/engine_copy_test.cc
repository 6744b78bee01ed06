// Value semantics of InferenceEngine copies ("clones"): the immutable class
// table is shared outright, every clone starts from the prototype's session
// state, and no mutation of a clone is ever visible through its siblings or
// the prototype.

#include <memory>

#include "core/engine.h"
#include "core/jim.h"
#include "gtest/gtest.h"
#include "support/core_views.h"
#include "support/simulate_label.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace jim::core {
namespace {

workload::SyntheticWorkload MakeWorkload(uint64_t seed) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_attributes = 6;
  spec.num_tuples = 150;
  spec.domain_size = 4;
  spec.goal_constraints = 2;
  return workload::MakeSyntheticWorkload(spec, rng);
}

/// First still-informative class of an engine.
size_t AnyInformative(const InferenceEngine& engine) {
  const auto& informative = engine.InformativeClasses();
  EXPECT_FALSE(informative.empty());
  return informative.front();
}

TEST(EngineCopyTest, CloneSharesTheImmutableClassTable) {
  const auto workload = MakeWorkload(1);
  const InferenceEngine prototype(workload.instance);
  const InferenceEngine clone = prototype;

  // The shared class table is observable through accessor addresses: same
  // objects, not equal copies.
  const size_t c = AnyInformative(prototype);
  EXPECT_EQ(&clone.tuple_class(c), &prototype.tuple_class(c));
}

TEST(EngineCopyTest, PositiveLabelOnCloneLeavesPrototypeUntouched) {
  const auto workload = MakeWorkload(2);
  const InferenceEngine prototype(workload.instance);
  InferenceEngine clone = prototype;

  const size_t labeled = AnyInformative(clone);
  // Remember a class that stays informative in the clone so its (refreshed)
  // K_c can be compared across the engines afterwards.
  ASSERT_TRUE(clone.SubmitClassLabel(labeled, Label::kPositive).ok());

  // The class table is immutable and stays shared.
  EXPECT_EQ(&clone.tuple_class(labeled), &prototype.tuple_class(labeled));

  // The prototype saw nothing: same informative pool, no history, and its
  // K_c is still the construction-time value Part(c) (θ_P = ⊤).
  EXPECT_EQ(prototype.history().size(), 0u);
  EXPECT_EQ(prototype.class_status(labeled), ClassStatus::kInformative);
  EXPECT_EQ(ClassKnowledge(prototype, labeled),
            prototype.ClassPartition(labeled));

  // Part(c) lives in the shared class table, so it is the same in both
  // engines for every class, even though their knowledge rows now differ.
  for (size_t c = 0; c < prototype.num_classes(); ++c) {
    EXPECT_EQ(clone.ClassPartition(c), prototype.ClassPartition(c))
        << "class " << c;
  }
}

TEST(EngineCopyTest, NegativeLabelsLeaveKnowledgeUnchanged) {
  const auto workload = MakeWorkload(3);
  const InferenceEngine prototype(workload.instance);
  InferenceEngine clone = prototype;

  // Negative labels grow the forbidden antichain but never touch K_c.
  for (int i = 0; i < 3 && !clone.IsDone(); ++i) {
    const size_t c = AnyInformative(clone);
    ASSERT_TRUE(clone.SubmitClassLabel(c, Label::kNegative).ok());
  }
  EXPECT_TRUE(clone.Result() == prototype.Result());
  for (size_t c : clone.InformativeClasses()) {
    EXPECT_EQ(ClassKnowledge(clone, c), ClassKnowledge(prototype, c))
        << "class " << c;
  }
}

TEST(EngineCopyTest, CloneBehavesExactlyLikeAFreshEngine) {
  const auto workload = MakeWorkload(4);
  const InferenceEngine prototype(workload.instance);

  InferenceEngine clone = prototype;
  InferenceEngine fresh(workload.instance);

  // Drive both with the same labels; every observable must stay equal.
  util::Rng rng(99);
  while (!fresh.IsDone()) {
    ASSERT_FALSE(clone.IsDone());
    const auto& informative = fresh.InformativeClasses();
    const size_t c = informative[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(informative.size()) - 1))];
    const Label label = rng.Bernoulli(0.5) ? Label::kPositive
                                           : Label::kNegative;
    ASSERT_EQ(fresh.SubmitClassLabel(c, label).ok(),
              clone.SubmitClassLabel(c, label).ok());
    ASSERT_EQ(fresh.InformativeClasses(), clone.InformativeClasses());
    ASSERT_EQ(fresh.GetStats().informative_tuples,
              clone.GetStats().informative_tuples);
  }
  EXPECT_TRUE(clone.IsDone());
  EXPECT_EQ(fresh.Result().ToString(), clone.Result().ToString());
  EXPECT_EQ(prototype.history().size(), 0u);  // never touched
}

TEST(EngineCopyTest, CloneIsIndependentOfThePrototype) {
  const auto workload = MakeWorkload(6);
  const InferenceEngine prototype(workload.instance);
  InferenceEngine clone = prototype;

  const size_t c = AnyInformative(clone);
  ASSERT_TRUE(clone.SubmitClassLabel(c, Label::kNegative).ok());

  // The prototype's view is untouched.
  EXPECT_EQ(prototype.class_status(c), ClassStatus::kInformative);
  EXPECT_EQ(prototype.history().size(), 0u);
  EXPECT_EQ(prototype.GetStats().explicitly_labeled_tuples, 0u);
}

TEST(EngineCopyTest, WastedLabelOnCloneLeavesPrototypeUntouched) {
  const auto workload = MakeWorkload(7);
  const InferenceEngine prototype(workload.instance);
  InferenceEngine clone = prototype;

  const size_t c = AnyInformative(clone);
  ASSERT_TRUE(clone.SubmitClassLabel(c, Label::kPositive).ok());
  // Re-labeling the same class consistently is a wasted interaction — it
  // appends to the clone's own history and writes no session array.
  const size_t tuple = clone.tuple_class(c).tuple_indices.front();
  ASSERT_TRUE(clone.SubmitTupleLabel(tuple, Label::kPositive).ok());
  EXPECT_EQ(clone.GetStats().wasted_interactions, 1u);
  EXPECT_EQ(prototype.tuple_status(tuple), TupleStatus::kInformative);
  EXPECT_EQ(prototype.GetStats().wasted_interactions, 0u);
}

std::vector<TupleStatus> AllTupleStatuses(const InferenceEngine& engine) {
  std::vector<TupleStatus> statuses;
  for (size_t t = 0; t < engine.num_tuples(); ++t) {
    statuses.push_back(engine.tuple_status(t));
  }
  return statuses;
}

/// First class with at least two members that is still informative.
size_t MultiMemberInformative(const InferenceEngine& engine) {
  for (size_t c : engine.InformativeClasses()) {
    if (engine.tuple_class(c).size() >= 2) return c;
  }
  ADD_FAILURE() << "no informative class with two members";
  return 0;
}

TEST(EngineCopyTest, RepeatedLabelOnCloneIsSeenOnlyByTheClone) {
  const auto workload = MakeWorkload(8);
  InferenceEngine prototype(workload.instance);
  const size_t c = MultiMemberInformative(prototype);
  ASSERT_TRUE(prototype.SubmitClassLabel(c, Label::kPositive).ok());
  const size_t mate = ClassMembers(prototype)[c][1];
  ASSERT_EQ(prototype.tuple_status(mate), TupleStatus::kForcedPositive);

  InferenceEngine clone = prototype;
  // A consistent relabel of a class-mate changes no class status, yet only
  // the clone sees the class-mate as labeled.
  ASSERT_TRUE(clone.SubmitTupleLabel(mate, Label::kPositive).ok());
  EXPECT_EQ(clone.tuple_status(mate), TupleStatus::kLabeledPositive);
  EXPECT_EQ(prototype.tuple_status(mate), TupleStatus::kForcedPositive);
  EXPECT_FALSE(clone.SubmitTupleLabel(mate, Label::kNegative).ok());
}

TEST(EngineCopyTest, CloneTupleStatusesStayIsolated) {
  const auto workload = MakeWorkload(9);
  InferenceEngine prototype(workload.instance);
  const size_t shared = MultiMemberInformative(prototype);
  ASSERT_TRUE(prototype.SubmitClassLabel(shared, Label::kPositive).ok());
  const std::vector<TupleStatus> prototype_view = AllTupleStatuses(prototype);

  InferenceEngine a = prototype;
  InferenceEngine b = prototype;
  // a: a fresh label plus a relabel of a class-mate of the shared label.
  ASSERT_TRUE(a.SubmitClassLabel(AnyInformative(a), Label::kNegative).ok());
  const size_t mate = ClassMembers(prototype)[shared][1];
  ASSERT_TRUE(a.SubmitTupleLabel(mate, Label::kPositive).ok());
  // b: a rejected contradiction, then a different fresh label.
  EXPECT_FALSE(b.SubmitTupleLabel(mate, Label::kNegative).ok());
  EXPECT_EQ(AllTupleStatuses(b), prototype_view);
  ASSERT_FALSE(b.IsDone());
  ASSERT_TRUE(
      b.SubmitClassLabel(b.InformativeClasses().back(), Label::kNegative)
          .ok());

  EXPECT_EQ(AllTupleStatuses(prototype), prototype_view);
  EXPECT_EQ(a.tuple_status(mate), TupleStatus::kLabeledPositive);
  EXPECT_EQ(b.tuple_status(mate), TupleStatus::kForcedPositive);
  EXPECT_EQ(prototype.tuple_status(mate), TupleStatus::kForcedPositive);
  EXPECT_NE(AllTupleStatuses(a), AllTupleStatuses(b));
}

TEST(EngineCopyTest, SiblingClonesAreIndependent) {
  const auto workload = MakeWorkload(5);
  const InferenceEngine prototype(workload.instance);
  InferenceEngine a = prototype;
  InferenceEngine b = prototype;

  const size_t c = AnyInformative(prototype);
  ASSERT_TRUE(a.SubmitClassLabel(c, Label::kPositive).ok());
  ASSERT_TRUE(b.SubmitClassLabel(c, Label::kNegative).ok());

  EXPECT_EQ(a.class_status(c), ClassStatus::kLabeledPositive);
  EXPECT_EQ(b.class_status(c), ClassStatus::kLabeledNegative);
  EXPECT_EQ(prototype.class_status(c), ClassStatus::kInformative);

  // SimulateLabelBoth on the untouched prototype still agrees with the
  // naive reference (the caches of a/b diverged, the prototype's did not).
  const auto both = prototype.SimulateLabelBoth(c);
  const auto pos = SimulateLabel(prototype, c, Label::kPositive);
  const auto neg = SimulateLabel(prototype, c, Label::kNegative);
  EXPECT_EQ(both.positive.pruned_tuples, pos.pruned_tuples);
  EXPECT_EQ(both.negative.pruned_tuples, neg.pruned_tuples);
}

}  // namespace
}  // namespace jim::core
