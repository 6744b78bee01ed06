// Paper-faithfulness tests: every concrete claim the paper makes about the
// Figure 1 instance must hold in this implementation, byte for byte.
//
// The claims (paper §2, "Motivating example" and "Interactive scenario"):
//  (a) Q1 = To≈City and Q2 = To≈City ∧ Airline≈Discount; Q2 ⊆ Q1.
//  (b) Tuple (3) is selected by both Q1 and Q2.
//  (c) After labeling (3) +, tuple (4) is uninformative.
//  (d) Tuple (8) distinguishes Q1 from Q2: Q1 selects it, Q2 does not.
//  (e) With (3)+, (7)−, (8)−, the unique consistent predicate is Q2.
//  (f) From the empty state, labeling (12) + prunes exactly {(3),(4),(7)};
//      labeling (12) − prunes exactly {(1),(5),(9)}.
//  (g) Positive examples alone cannot distinguish Q2 from Q1.

#include <set>

#include <gtest/gtest.h>

#include "core/jim.h"
#include "support/core_views.h"
#include "support/refinements.h"
#include "workload/travel.h"

namespace jim::core {
namespace {

using workload::Figure1Instance;
using workload::Figure1InstancePtr;

/// Paper tuples are numbered (1)..(12); rows are 0-based.
size_t Row(int paper_number) { return static_cast<size_t>(paper_number - 1); }

class Figure1Test : public ::testing::Test {
 protected:
  Figure1Test()
      : relation_(Figure1InstancePtr()),
        q1_(JoinPredicate::Parse(relation_->schema(), workload::kQ1).value()),
        q2_(JoinPredicate::Parse(relation_->schema(), workload::kQ2).value()) {}

  std::shared_ptr<const rel::Relation> relation_;
  JoinPredicate q1_;
  JoinPredicate q2_;
};

TEST_F(Figure1Test, InstanceMatchesThePaper) {
  ASSERT_EQ(relation_->num_rows(), 12u);
  ASSERT_EQ(relation_->num_attributes(), 5u);
  // Spot-check the rows quoted in the paper's narrative.
  EXPECT_EQ(relation_->row(Row(3))[0].AsString(), "Paris");
  EXPECT_EQ(relation_->row(Row(3))[1].AsString(), "Lille");
  EXPECT_EQ(relation_->row(Row(3))[2].AsString(), "AF");
  EXPECT_EQ(relation_->row(Row(3))[3].AsString(), "Lille");
  EXPECT_EQ(relation_->row(Row(3))[4].AsString(), "AF");
  EXPECT_EQ(relation_->row(Row(8))[0].AsString(), "NYC");
  EXPECT_EQ(relation_->row(Row(8))[3].AsString(), "Paris");
}

TEST_F(Figure1Test, ClaimA_Q2ContainedInQ1) {
  EXPECT_TRUE(q2_.ContainedIn(q1_));
  EXPECT_FALSE(q1_.ContainedIn(q2_));
}

TEST_F(Figure1Test, ClaimB_BothQueriesSelectTuple3) {
  EXPECT_TRUE(q1_.Selects(relation_->row(Row(3))));
  EXPECT_TRUE(q2_.Selects(relation_->row(Row(3))));
  // And tuple 4, per "if the user labels next the tuple (4) with +, both
  // queries remain consistent".
  EXPECT_TRUE(q1_.Selects(relation_->row(Row(4))));
  EXPECT_TRUE(q2_.Selects(relation_->row(Row(4))));
}

TEST_F(Figure1Test, SelectedSetsOfQ1AndQ2) {
  const auto selected_q1 = q1_.SelectedRows(*relation_).ToVector();
  const auto selected_q2 = q2_.SelectedRows(*relation_).ToVector();
  EXPECT_EQ(selected_q1,
            (std::vector<size_t>{Row(3), Row(4), Row(8), Row(10)}));
  EXPECT_EQ(selected_q2, (std::vector<size_t>{Row(3), Row(4)}));
}

TEST_F(Figure1Test, ClaimC_Tuple4UninformativeAfterTuple3Positive) {
  InferenceEngine engine(relation_);
  EXPECT_EQ(engine.tuple_status(Row(4)), TupleStatus::kInformative);
  ASSERT_TRUE(engine.SubmitTupleLabel(Row(3), Label::kPositive).ok());
  // (3) shows as explicitly labeled; (4) is grayed out as uninformative.
  EXPECT_EQ(engine.tuple_status(Row(3)), TupleStatus::kLabeledPositive);
  EXPECT_EQ(engine.tuple_status(Row(4)), TupleStatus::kForcedPositive);
}

TEST_F(Figure1Test, ClaimD_Tuple8DistinguishesQ1FromQ2) {
  EXPECT_TRUE(q1_.Selects(relation_->row(Row(8))));
  EXPECT_FALSE(q2_.Selects(relation_->row(Row(8))));
}

TEST_F(Figure1Test, ClaimE_ThreeLabelsIdentifyQ2) {
  InferenceEngine engine(relation_);
  ASSERT_TRUE(engine.SubmitTupleLabel(Row(3), Label::kPositive).ok());
  ASSERT_TRUE(engine.SubmitTupleLabel(Row(7), Label::kNegative).ok());
  ASSERT_TRUE(engine.SubmitTupleLabel(Row(8), Label::kNegative).ok());

  // "there is only one consistent join predicate (i.e., the above Q2)"
  EXPECT_TRUE(engine.IsDone());
  EXPECT_EQ(engine.Result().partition(), q2_.partition());
  EXPECT_EQ(CountConsistent(engine.state()), 1u);
}

/// Tuples grayed out (forced either way) but not explicitly labeled.
std::set<size_t> GrayedOutTuples(const InferenceEngine& engine) {
  std::set<size_t> grayed;
  for (size_t t = 0; t < engine.num_tuples(); ++t) {
    const TupleStatus status = engine.tuple_status(t);
    if (status == TupleStatus::kForcedPositive ||
        status == TupleStatus::kForcedNegative) {
      grayed.insert(t);
    }
  }
  return grayed;
}

TEST_F(Figure1Test, ClaimF_PruningAfterTuple12Positive) {
  InferenceEngine engine(relation_);
  ASSERT_TRUE(engine.SubmitTupleLabel(Row(12), Label::kPositive).ok());
  // "we are able to prune the tuples that become uninformative: (3),(4),(7)"
  EXPECT_EQ(GrayedOutTuples(engine),
            (std::set<size_t>{Row(3), Row(4), Row(7)}));
}

TEST_F(Figure1Test, ClaimF_PruningAfterTuple12Negative) {
  InferenceEngine engine(relation_);
  ASSERT_TRUE(engine.SubmitTupleLabel(Row(12), Label::kNegative).ok());
  // "...if the user labels tuple (12) as a negative example, we are able to
  // prune the uninformative tuples: (1),(5),(9)"
  EXPECT_EQ(GrayedOutTuples(engine),
            (std::set<size_t>{Row(1), Row(5), Row(9)}));
}

TEST_F(Figure1Test, ClaimG_PositiveExamplesAloneCannotSeparateQ2FromQ1) {
  // Label every tuple Q2 selects as positive; Q1 must remain consistent.
  InferenceEngine engine(relation_);
  for (size_t t : q2_.SelectedRows(*relation_).ToVector()) {
    ASSERT_TRUE(engine.SubmitTupleLabel(t, Label::kPositive).ok());
  }
  EXPECT_TRUE(IsConsistent(engine.state(), q1_.partition()));
  EXPECT_TRUE(IsConsistent(engine.state(), q2_.partition()));
  EXPECT_FALSE(engine.IsDone());
}

TEST_F(Figure1Test, EndToEndSessionInfersQ2WithEveryStrategy) {
  for (const std::string& name : KnownStrategyNames()) {
    auto strategy = MakeStrategy(name, /*seed=*/42);
    ASSERT_TRUE(strategy.ok()) << name;
    SessionResult result = RunSession(core::MakeRelationStore(relation_),
                                      q2_, **strategy);
    EXPECT_TRUE(result.identified_goal) << name;
    EXPECT_TRUE(
        InstanceEquivalent(*relation_, *result.result, q2_)) << name;
    EXPECT_GE(result.interactions, 1u) << name;
    EXPECT_LE(result.interactions, 12u) << name;
  }
}

TEST_F(Figure1Test, ContradictoryLabelIsRejected) {
  InferenceEngine engine(relation_);
  ASSERT_TRUE(engine.SubmitTupleLabel(Row(3), Label::kPositive).ok());
  // Tuple (4) is now forced positive; a negative label must be rejected.
  const util::Status status =
      engine.SubmitTupleLabel(Row(4), Label::kNegative);
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  // And the engine state is unchanged — (4) remains grayed out positive.
  EXPECT_EQ(engine.tuple_status(Row(4)), TupleStatus::kForcedPositive);
}

}  // namespace
}  // namespace jim::core
