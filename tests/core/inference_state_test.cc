#include "core/inference_state.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/join_predicate.h"
#include "lattice/enumeration.h"
#include "support/refinements.h"
#include "util/rng.h"

namespace jim::core {
namespace {

using lat::Partition;

TEST(InferenceStateTest, InitialStateAcceptsEverything) {
  const InferenceState state(4);
  EXPECT_EQ(state.theta_p(), Partition::Top(4));
  EXPECT_EQ(state.num_forbidden(), 0u);
  EXPECT_FALSE(state.has_positive_example());
  lat::VisitAllPartitions(4, [&](const Partition& theta) {
    EXPECT_TRUE(state.IsConsistent(theta));
    return true;
  });
  EXPECT_EQ(CountConsistent(state), lat::BellNumber(4));
}

TEST(InferenceStateTest, PositiveLabelShrinksThetaP) {
  InferenceState state(4);
  const Partition part = Partition::FromLabels({0, 0, 1, 2});
  ASSERT_TRUE(state.ApplyLabel(part, Label::kPositive).ok());
  EXPECT_EQ(state.theta_p(), part);
  EXPECT_TRUE(state.has_positive_example());
  // A second positive meets in.
  const Partition part2 = Partition::FromLabels({0, 0, 1, 1});
  ASSERT_TRUE(state.ApplyLabel(part2, Label::kPositive).ok());
  EXPECT_EQ(state.theta_p(), part.Meet(part2));
}

TEST(InferenceStateTest, NegativeLabelForbidsDownSet) {
  InferenceState state(4);
  const Partition part = Partition::FromLabels({0, 0, 1, 2});  // {01}
  ASSERT_TRUE(state.ApplyLabel(part, Label::kNegative).ok());
  EXPECT_FALSE(state.IsConsistent(Partition::Singletons(4)));
  EXPECT_FALSE(state.IsConsistent(part));
  EXPECT_TRUE(state.IsConsistent(Partition::FromLabels({0, 1, 0, 2})));
  EXPECT_TRUE(state.IsConsistent(Partition::Top(4)));
}

TEST(InferenceStateTest, ClassifyForcedPositive) {
  InferenceState state(3);
  ASSERT_TRUE(
      state.ApplyLabel(Partition::FromLabels({0, 0, 1}), Label::kPositive)
          .ok());
  // Any tuple whose partition coarsens θ_P is forced positive.
  EXPECT_EQ(state.Classify(Partition::FromLabels({0, 0, 1})),
            TupleClassification::kForcedPositive);
  EXPECT_EQ(state.Classify(Partition::Top(3)),
            TupleClassification::kForcedPositive);
  EXPECT_EQ(state.Classify(Partition::Singletons(3)),
            TupleClassification::kInformative);
}

TEST(InferenceStateTest, ClassifyForcedNegative) {
  InferenceState state(3);
  ASSERT_TRUE(
      state.ApplyLabel(Partition::FromLabels({0, 0, 1}), Label::kNegative)
          .ok());
  // Tuples with no equalities can only be selected by predicates ≤ {01},
  // all of which are now forbidden.
  EXPECT_EQ(state.Classify(Partition::Singletons(3)),
            TupleClassification::kForcedNegative);
  EXPECT_EQ(state.Classify(Partition::FromLabels({0, 0, 1})),
            TupleClassification::kForcedNegative);
  EXPECT_EQ(state.Classify(Partition::FromLabels({0, 1, 0})),
            TupleClassification::kInformative);
}

TEST(InferenceStateTest, ContradictionsAreRejectedAndStatePreserved) {
  InferenceState state(3);
  const Partition part = Partition::FromLabels({0, 0, 1});
  ASSERT_TRUE(state.ApplyLabel(part, Label::kPositive).ok());
  const std::string key_before = state.CanonicalKey();
  // part is now forced positive; a negative label must fail cleanly.
  const auto status = state.ApplyLabel(part, Label::kNegative);
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(state.CanonicalKey(), key_before);
}

TEST(InferenceStateTest, RedundantLabelsAreNoOps) {
  InferenceState state(3);
  const Partition part = Partition::FromLabels({0, 0, 1});
  ASSERT_TRUE(state.ApplyLabel(part, Label::kPositive).ok());
  const std::string key = state.CanonicalKey();
  ASSERT_TRUE(state.ApplyLabel(part, Label::kPositive).ok());
  EXPECT_EQ(state.CanonicalKey(), key);
  ASSERT_TRUE(state.ApplyLabel(Partition::Top(3), Label::kPositive).ok());
  EXPECT_EQ(state.CanonicalKey(), key);
}

TEST(InferenceStateTest, CanonicalKeyDistinguishesStates) {
  InferenceState a(3);
  InferenceState b(3);
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
  ASSERT_TRUE(a.ApplyLabel(Partition::FromLabels({0, 0, 1}), Label::kNegative)
                  .ok());
  EXPECT_NE(a.CanonicalKey(), b.CanonicalKey());
  ASSERT_TRUE(b.ApplyLabel(Partition::FromLabels({0, 0, 1}), Label::kNegative)
                  .ok());
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
}

// ------------------------------------------------------------------------
// The central property test: Classify and IsConsistent agree with a brute
// force over the entire hypothesis lattice, across random label histories.
// ------------------------------------------------------------------------

class BruteForceAgreement : public ::testing::TestWithParam<size_t> {};

TEST_P(BruteForceAgreement, ClassifyMatchesEnumeration) {
  const size_t n = GetParam();
  util::Rng rng(7000 + n);
  const auto all = lat::AllPartitions(n);

  for (int trial = 0; trial < 20; ++trial) {
    // A random goal guarantees an honest (consistent) label sequence.
    const Partition& goal = rng.PickOne(all);
    InferenceState state(n);
    std::vector<std::pair<Partition, Label>> labels;

    for (int step = 0; step < 6; ++step) {
      // Random tuple partition.
      const Partition& part = rng.PickOne(all);
      const Label label = goal.Refines(part) ? Label::kPositive
                                             : Label::kNegative;

      // Brute-force the consistent set from the raw label list.
      labels.emplace_back(part, label);
      auto consistent_brute = [&](const Partition& theta) {
        for (const auto& [p, l] : labels) {
          const bool selects = theta.Refines(p);
          if (l == Label::kPositive && !selects) return false;
          if (l == Label::kNegative && selects) return false;
        }
        return true;
      };

      ASSERT_TRUE(state.ApplyLabel(part, label).ok());

      // (1) IsConsistent agrees pointwise.
      uint64_t consistent_count = 0;
      for (const Partition& theta : all) {
        const bool brute = consistent_brute(theta);
        EXPECT_EQ(state.IsConsistent(theta), brute)
            << "theta=" << theta.ToString() << " after " << labels.size()
            << " labels";
        if (brute) ++consistent_count;
      }
      // (2) CountConsistent agrees in aggregate.
      EXPECT_EQ(CountConsistent(state), consistent_count);

      // (3) Classify agrees with the quantifier definition.
      for (const Partition& tuple_part : all) {
        bool some_select = false;
        bool some_reject = false;
        for (const Partition& theta : all) {
          if (!consistent_brute(theta)) continue;
          if (theta.Refines(tuple_part)) {
            some_select = true;
          } else {
            some_reject = true;
          }
        }
        TupleClassification expected;
        if (some_select && some_reject) {
          expected = TupleClassification::kInformative;
        } else if (some_select) {
          expected = TupleClassification::kForcedPositive;
        } else {
          expected = TupleClassification::kForcedNegative;
        }
        EXPECT_EQ(state.Classify(tuple_part), expected)
            << "tuple partition " << tuple_part.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallSchemas, BruteForceAgreement,
                         ::testing::Values(3, 4));

TEST(InferenceStateTest, HonestGoalStaysConsistentForever) {
  util::Rng rng(4242);
  const size_t n = 5;
  const auto all = lat::AllPartitions(n);
  for (int trial = 0; trial < 40; ++trial) {
    const Partition& goal = rng.PickOne(all);
    InferenceState state(n);
    for (int step = 0; step < 12; ++step) {
      const Partition& part = rng.PickOne(all);
      const Label label =
          goal.Refines(part) ? Label::kPositive : Label::kNegative;
      ASSERT_TRUE(state.ApplyLabel(part, label).ok());
      ASSERT_TRUE(state.IsConsistent(goal))
          << "honest labeling made the goal inconsistent";
      // θ_P is always the maximal consistent predicate.
      ASSERT_TRUE(state.IsConsistent(state.theta_p()));
      ASSERT_TRUE(goal.Refines(state.theta_p()));
    }
  }
}

// ------------------------------------------------------------------------
// The forbidden zones as an antichain of pair masks: after every label the
// state's members must be exactly the maximal elements of {θ_P ∧ Part(s)}
// over the accepted negatives s, pairwise incomparable and strictly below
// θ_P. ForbiddenModel keeps the labels and recomputes that set by brute
// force; the hand cases below and the random histories all run through it.
// ------------------------------------------------------------------------

std::vector<Partition> Sorted(std::vector<Partition> partitions) {
  std::sort(partitions.begin(), partitions.end());
  return partitions;
}

class ForbiddenModel {
 public:
  explicit ForbiddenModel(size_t n) : theta_p_(Partition::Top(n)) {}

  /// Labels `part` on `state` and on the model, then checks the state's
  /// forbidden members against the brute force. A rejected label must leave
  /// the state unchanged.
  util::Status Apply(InferenceState& state, const Partition& part,
                     Label label) {
    const std::vector<uint64_t> before = state.words();
    const util::Status status = state.ApplyLabel(part, label);
    if (!status.ok()) {
      EXPECT_EQ(state.words(), before) << "rejected label changed the state";
      return status;
    }
    if (label == Label::kPositive) {
      theta_p_ = theta_p_.Meet(part);
    } else {
      negatives_.push_back(part);
    }
    Check(state);
    return status;
  }

  /// Maximal elements of {θ_P ∧ Part(s)}, duplicates collapsed.
  std::vector<Partition> MaximalZones() const {
    std::vector<Partition> zones;
    for (const Partition& s : negatives_) zones.push_back(theta_p_.Meet(s));
    std::vector<Partition> maximal;
    for (const Partition& z : zones) {
      const bool dominated =
          std::any_of(zones.begin(), zones.end(), [&](const Partition& o) {
            return z.StrictlyRefines(o);
          });
      if (!dominated &&
          std::find(maximal.begin(), maximal.end(), z) == maximal.end()) {
        maximal.push_back(z);
      }
    }
    return Sorted(maximal);
  }

  void Check(const InferenceState& state) const {
    state.CheckInvariants();
    ASSERT_EQ(state.theta_p(), theta_p_);
    const std::vector<Partition> members = state.Forbidden();
    EXPECT_EQ(Sorted(members), MaximalZones());
    for (size_t i = 0; i < members.size(); ++i) {
      EXPECT_TRUE(members[i].StrictlyRefines(theta_p_))
          << members[i].ToString() << " not strictly below θ_P";
      for (size_t j = 0; j < members.size(); ++j) {
        if (i != j) {
          EXPECT_FALSE(members[i].Refines(members[j]))
              << members[i].ToString() << " refines "
              << members[j].ToString();
        }
      }
    }
    // For small n, sweep the whole lattice: θ is consistent iff it refines
    // θ_P and no zone contains it.
    const size_t n = theta_p_.num_elements();
    if (n > 6) return;
    lat::VisitAllPartitions(n, [&](const Partition& theta) {
      bool forbidden = false;
      for (const Partition& s : negatives_) {
        forbidden |= theta.Refines(theta_p_.Meet(s));
      }
      EXPECT_EQ(state.IsConsistent(theta),
                theta.Refines(theta_p_) && !forbidden)
          << theta.ToString();
      return true;
    });
  }

 private:
  Partition theta_p_;
  std::vector<Partition> negatives_;
};

TEST(AntichainTest, InsertKeepsMaximalElements) {
  InferenceState state(4);
  ForbiddenModel model(4);
  const Partition small = Partition::FromLabels({0, 1, 2, 3});
  const Partition big = Partition::FromLabels({0, 0, 1, 2});
  ASSERT_TRUE(model.Apply(state, small, Label::kNegative).ok());
  EXPECT_EQ(state.Forbidden(), std::vector<Partition>{small});
  // A dominating zone replaces the dominated one.
  ASSERT_TRUE(model.Apply(state, big, Label::kNegative).ok());
  EXPECT_EQ(state.Forbidden(), std::vector<Partition>{big});
  // Re-labeling either is a no-op: both now lie in the zone.
  const std::vector<uint64_t> words = state.words();
  ASSERT_TRUE(model.Apply(state, small, Label::kNegative).ok());
  ASSERT_TRUE(model.Apply(state, big, Label::kNegative).ok());
  EXPECT_EQ(state.words(), words);
}

TEST(AntichainTest, IncomparableMembersCoexist) {
  InferenceState state(4);
  ForbiddenModel model(4);
  const Partition a = Partition::FromLabels({0, 0, 1, 2});
  const Partition b = Partition::FromLabels({0, 1, 1, 2});
  ASSERT_TRUE(model.Apply(state, a, Label::kNegative).ok());
  ASSERT_TRUE(model.Apply(state, b, Label::kNegative).ok());
  EXPECT_EQ(Sorted(state.Forbidden()), Sorted({a, b}));
}

TEST(AntichainTest, DominatedBySemantics) {
  InferenceState state(4);
  ForbiddenModel model(4);
  ASSERT_TRUE(model
                  .Apply(state, Partition::FromLabels({0, 0, 1, 2}),  // {01}
                         Label::kNegative)
                  .ok());
  EXPECT_FALSE(state.IsConsistent(Partition::Singletons(4)));
  EXPECT_FALSE(state.IsConsistent(Partition::FromLabels({0, 0, 1, 2})));
  EXPECT_TRUE(state.IsConsistent(Partition::FromLabels({0, 1, 0, 2})));
  EXPECT_TRUE(state.IsConsistent(Partition::Top(4)));
}

TEST(AntichainTest, RestrictToMeetsMembers) {
  InferenceState state(4);
  ForbiddenModel model(4);
  ASSERT_TRUE(model
                  .Apply(state, Partition::FromLabels({0, 0, 0, 1}),  // {012}
                         Label::kNegative)
                  .ok());
  ASSERT_TRUE(model
                  .Apply(state, Partition::FromLabels({0, 0, 1, 1}),  // {01|23}
                         Label::kPositive)
                  .ok());
  // {012} ∧ {01|23} = {01|2|3}
  EXPECT_EQ(state.Forbidden(),
            std::vector<Partition>{Partition::FromLabels({0, 0, 1, 2})});
}

TEST(AntichainTest, RestrictToKeepsMembersAlreadyBelowBound) {
  InferenceState state(4);
  ForbiddenModel model(4);
  const Partition below = Partition::FromLabels({0, 0, 1, 2});    // {01|2|3}
  const Partition clipped = Partition::FromLabels({0, 1, 2, 2});  // {0|1|23}
  ASSERT_TRUE(model.Apply(state, below, Label::kNegative).ok());
  ASSERT_TRUE(model.Apply(state, clipped, Label::kNegative).ok());
  ASSERT_EQ(state.num_forbidden(), 2u);
  // θ_P becomes {012|3}: `below` lies under it and stays as it is, while
  // `clipped` ∧ θ_P = ⊥ lies in `below` and must go.
  ASSERT_TRUE(model
                  .Apply(state, Partition::FromLabels({0, 0, 0, 1}),
                         Label::kPositive)
                  .ok());
  EXPECT_EQ(state.Forbidden(), std::vector<Partition>{below});
}

TEST(AntichainTest, RestrictToMixedKeptAndClippedMembers) {
  InferenceState state(5);
  ForbiddenModel model(5);
  const Partition kept = Partition::FromLabels({0, 0, 1, 2, 3});   // {01}
  const Partition other = Partition::FromLabels({0, 1, 2, 2, 2});  // {234}
  ASSERT_TRUE(model.Apply(state, kept, Label::kNegative).ok());
  ASSERT_TRUE(model.Apply(state, other, Label::kNegative).ok());
  ASSERT_TRUE(model
                  .Apply(state, Partition::FromLabels({0, 0, 1, 1, 2}),
                         Label::kPositive)  // {01|23}
                  .ok());
  // kept ≤ θ_P survives as it is; other ∧ θ_P = {23} stays maximal.
  EXPECT_EQ(Sorted(state.Forbidden()),
            Sorted({kept, Partition::FromLabels({0, 1, 2, 2, 3})}));
}

TEST(AntichainTest, ToStringIsCanonical) {
  // The member order is canonical: the same zones inserted in either order
  // give the same words and the same rendering.
  InferenceState a(3);
  InferenceState b(3);
  const Partition p = Partition::FromLabels({0, 0, 1});
  const Partition q = Partition::FromLabels({0, 1, 0});
  ASSERT_TRUE(a.ApplyLabel(p, Label::kNegative).ok());
  ASSERT_TRUE(a.ApplyLabel(q, Label::kNegative).ok());
  ASSERT_TRUE(b.ApplyLabel(q, Label::kNegative).ok());
  ASSERT_TRUE(b.ApplyLabel(p, Label::kNegative).ok());
  EXPECT_EQ(a.words(), b.words());
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
}

TEST(AntichainPropertyTest, RestrictToMatchesNaiveReference) {
  // A positive label clips every member to the new θ_P and re-maximalizes;
  // the model's reference meets every negative with θ_P and keeps the
  // maximal meets.
  util::Rng rng(4242);
  const auto all = lat::AllPartitions(5);
  for (int trial = 0; trial < 200; ++trial) {
    InferenceState state(5);
    ForbiddenModel model(5);
    for (int i = 0; i < 6; ++i) {
      (void)model.Apply(state, rng.PickOne(all), Label::kNegative);
    }
    (void)model.Apply(state, rng.PickOne(all), Label::kPositive);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "trial " << trial;
  }
}

TEST(AntichainPropertyTest, MembersArePairwiseIncomparable) {
  util::Rng rng(99);
  const auto all = lat::AllPartitions(5);
  for (int trial = 0; trial < 30; ++trial) {
    InferenceState state(5);
    for (int i = 0; i < 20; ++i) {
      // ⊤ is forced positive, so its negative label is refused.
      (void)state.ApplyLabel(rng.PickOne(all), Label::kNegative);
    }
    const std::vector<Partition> members = state.Forbidden();
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = 0; j < members.size(); ++j) {
        if (i == j) continue;
        EXPECT_FALSE(members[i].Refines(members[j]))
            << members[i].ToString() << " refines " << members[j].ToString();
      }
    }
  }
}

TEST(AntichainPropertyTest, DominationMatchesBruteForce) {
  // With θ_P = ⊤, a partition is forbidden iff it refines some negative.
  util::Rng rng(101);
  const auto all = lat::AllPartitions(4);
  for (int trial = 0; trial < 20; ++trial) {
    InferenceState state(4);
    std::vector<Partition> negatives;
    for (int i = 0; i < 8; ++i) {
      const Partition& p = rng.PickOne(all);
      if (state.ApplyLabel(p, Label::kNegative).ok()) negatives.push_back(p);
    }
    for (const Partition& q : all) {
      bool brute = false;
      for (const Partition& m : negatives) brute |= q.Refines(m);
      EXPECT_EQ(state.IsConsistent(q), !brute) << q.ToString();
    }
  }
}

Partition RandomPartition(size_t n, util::Rng& rng) {
  // A domain of 2–4 values gives coarse partitions whose meets stay
  // non-trivial over a history of several labels.
  const int64_t domain = rng.UniformInt(2, 4);
  std::vector<int> labels(n);
  for (int& label : labels) {
    label = static_cast<int>(rng.UniformInt(0, domain - 1));
  }
  return Partition::FromLabels(labels);
}

TEST(InferenceStateTest, ForbiddenZonesAreTheMaximalNegativeMeets) {
  // Random label histories, honest and not: a rejected label must leave the
  // state as it was, and every accepted one is checked against the model.
  // n = 12 and 13 take two-word masks.
  util::Rng rng(2121);
  for (size_t n : {3, 4, 5, 6, 12, 13}) {
    for (int trial = 0; trial < 40; ++trial) {
      InferenceState state(n);
      ForbiddenModel model(n);
      for (int step = 0; step < 10; ++step) {
        const Partition part = RandomPartition(n, rng);
        // Negatives dominate so the antichain grows wide before positives
        // clip it.
        const Label label =
            rng.UniformInt(0, 2) == 0 ? Label::kPositive : Label::kNegative;
        (void)model.Apply(state, part, label);
        if (::testing::Test::HasFailure()) {
          FAIL() << "n=" << n << " trial " << trial << " step " << step;
        }
      }
    }
  }
}

}  // namespace
}  // namespace jim::core
