// Randomized parity tests: the pair-mask kernels (lattice/pair_mask.h) must
// compute exactly what the Partition reference operations compute, over
// seeded random partitions of varying sizes (including the degenerate ones:
// singletons, top, n = 1, and masks of more than one word). The forbidden
// antichain that InferenceState keeps as mask rows is checked the same way.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/inference_state.h"
#include "lattice/pair_mask.h"
#include "lattice/partition.h"
#include "support/core_views.h"
#include "util/rng.h"
#include "util/check.h"

namespace jim::lat {
namespace {

// Parity suites run with the invariant auditor on (see util/check.h): every
// JIM_AUDIT checkpoint inside the engine re-derives its CheckInvariants
// contract while the parity assertions run, so a divergence is caught at
// the mutation that introduced it, not at the final transcript diff.
const bool kAuditInvariantsOn = [] {
  ::jim::util::SetAuditInvariants(true);
  return true;
}();

Partition RandomPartition(size_t n, util::Rng& rng) {
  // Labels drawn from a domain about half the size of n create a healthy mix
  // of merged and singleton blocks; small domains force coarse partitions.
  const int64_t domain = std::max<int64_t>(1, static_cast<int64_t>(n) / 2);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(rng.UniformInt(0, domain));
  }
  return Partition::FromLabels(labels);
}

std::vector<uint64_t> MaskOf(const Partition& p) {
  std::vector<uint64_t> mask(PairMaskWords(p.num_elements()), 0);
  FillPairMask(p, mask.data());
  return mask;
}

TEST(KernelParityTest, MaskRoundTripAndRank) {
  util::Rng rng(2024);
  for (size_t n : {1, 2, 3, 5, 8, 12, 13, 21, 40}) {
    for (int trial = 0; trial < 200; ++trial) {
      const Partition p = RandomPartition(n, rng);
      const std::vector<uint64_t> mask = MaskOf(p);
      EXPECT_EQ(PairMaskToPartition(mask.data(), n), p) << p.ToString();
      EXPECT_EQ(MaskRank(mask.data(), mask.size(), n), p.Rank())
          << p.ToString();
    }
  }
}

TEST(KernelParityTest, MeetIntoMatchesMeet) {
  // The meet kernel is the word-wise AND of the operands' masks, here
  // written into one output buffer reused across all trials.
  util::Rng rng(2024);
  std::vector<uint64_t> out;
  for (size_t n : {1, 2, 3, 5, 8, 13, 21, 40}) {
    for (int trial = 0; trial < 200; ++trial) {
      const Partition a = RandomPartition(n, rng);
      const Partition b = RandomPartition(n, rng);
      const Partition reference = a.Meet(b);
      const std::vector<uint64_t> mask_a = MaskOf(a);
      const std::vector<uint64_t> mask_b = MaskOf(b);
      out.resize(mask_a.size());
      for (size_t w = 0; w < out.size(); ++w) out[w] = mask_a[w] & mask_b[w];
      EXPECT_EQ(out, MaskOf(reference))
          << a.ToString() << " ∧ " << b.ToString();
      EXPECT_EQ(MaskRank(out.data(), out.size(), n), reference.Rank());
      const Partition decoded = PairMaskToPartition(out.data(), n);
      EXPECT_EQ(decoded, reference);
      EXPECT_EQ(decoded.num_blocks(), reference.num_blocks());
      EXPECT_EQ(decoded.Hash(), reference.Hash());
    }
  }
}

TEST(KernelParityTest, MeetIntoSupportsAliasing) {
  util::Rng rng(77);
  for (size_t n : {1, 4, 9, 12, 17, 40}) {
    for (int trial = 0; trial < 200; ++trial) {
      const Partition a = RandomPartition(n, rng);
      const Partition b = RandomPartition(n, rng);
      const std::vector<uint64_t> reference = MaskOf(a.Meet(b));
      // Output aliases the left operand, as the engine refreshes
      // K_c ← K_c ∧ θ_P in place.
      std::vector<uint64_t> left = MaskOf(a);
      const std::vector<uint64_t> mask_b = MaskOf(b);
      for (size_t w = 0; w < left.size(); ++w) left[w] &= mask_b[w];
      EXPECT_EQ(left, reference) << a.ToString() << " ∧ " << b.ToString();
      // Output aliases the right operand.
      const std::vector<uint64_t> mask_a = MaskOf(a);
      std::vector<uint64_t> right = MaskOf(b);
      for (size_t w = 0; w < right.size(); ++w) right[w] &= mask_a[w];
      EXPECT_EQ(right, reference);
    }
  }
}

TEST(KernelParityTest, MaskSubsetMatchesRefines) {
  util::Rng rng(31337);
  for (size_t n : {1, 2, 4, 7, 12, 25}) {
    for (int trial = 0; trial < 300; ++trial) {
      const Partition a = RandomPartition(n, rng);
      // Mix genuinely comparable pairs in: a.Join(x) is coarser than a, and
      // a.Meet(x) finer, so all three relations (≤, ≥, incomparable) occur.
      const Partition x = RandomPartition(n, rng);
      for (const Partition& b : {x, a.Join(x), a.Meet(x), a}) {
        const std::vector<uint64_t> ma = MaskOf(a);
        const std::vector<uint64_t> mb = MaskOf(b);
        EXPECT_EQ(MaskSubset(ma.data(), mb.data(), ma.size()), a.Refines(b))
            << a.ToString() << " vs " << b.ToString();
        EXPECT_EQ(MaskSubset(mb.data(), ma.data(), ma.size()), b.Refines(a));
      }
    }
  }
}

TEST(KernelParityTest, MeetEqualsLeftMatchesMaterializedMeet) {
  // The forced-positive test θ_P ∧ Part(t) == θ_P runs as θ_P ⊆ Part(t),
  // with no meet materialized; the forced-negative test (θ_P ∧ Part(t)) ≤ M
  // as one three-operand word test.
  util::Rng rng(99);
  for (size_t n : {1, 3, 6, 11, 12, 20}) {
    for (int trial = 0; trial < 300; ++trial) {
      const Partition a = RandomPartition(n, rng);
      const Partition x = RandomPartition(n, rng);
      const Partition m = RandomPartition(n, rng);
      for (const Partition& b : {x, a.Join(x), a}) {
        const std::vector<uint64_t> ma = MaskOf(a);
        const std::vector<uint64_t> mb = MaskOf(b);
        const std::vector<uint64_t> mm = MaskOf(m);
        EXPECT_EQ(MaskSubset(ma.data(), mb.data(), ma.size()), a.Meet(b) == a)
            << a.ToString() << " vs " << b.ToString();
        EXPECT_EQ(MaskMeetSubset(ma.data(), mb.data(), mm.data(), ma.size()),
                  a.Meet(b).Refines(m))
            << a.ToString() << " ∧ " << b.ToString() << " vs "
            << m.ToString();
      }
    }
  }
}

TEST(KernelParityTest, FingerprintIsContentDetermined) {
  util::Rng rng(5);
  for (size_t n : {1, 4, 10, 30}) {
    for (int trial = 0; trial < 100; ++trial) {
      const Partition a = RandomPartition(n, rng);
      // Rebuilding from the same labels (differently encoded) must land on
      // the identical fingerprint: it is a function of the canonical RGS.
      std::vector<int> shifted(a.labels());
      for (int& v : shifted) v += 1000;
      const Partition b = Partition::FromLabels(shifted);
      ASSERT_EQ(a, b);
      EXPECT_EQ(a.Hash(), b.Hash());
      // A copy carries the fingerprint along.
      const Partition c = a;
      EXPECT_EQ(c.Hash(), a.Hash());
    }
  }
}

TEST(KernelParityTest, AntichainDominatedByScratchOverloadMatches) {
  // The antichain of maximal forbidden zones lives in InferenceState as
  // pair-mask rows. With θ_P = ⊤ (negatives only), a partition is dominated
  // iff it refines some inserted negative; both the Partition entry points
  // and the word-level row overload must agree with that brute force.
  util::Rng rng(1234);
  for (size_t n : {6, 12}) {
    for (int trial = 0; trial < 100; ++trial) {
      core::InferenceState state(n);
      std::vector<Partition> inserted;
      for (int i = 0; i < 10; ++i) {
        const Partition p = RandomPartition(n, rng);
        if (ApplyLabel(state, p, core::Label::kNegative).ok()) {
          inserted.push_back(p);
        }
      }
      for (int probe = 0; probe < 50; ++probe) {
        const Partition q = RandomPartition(n, rng);
        bool brute = false;
        for (const Partition& m : inserted) {
          if (q.Refines(m)) brute = true;
        }
        EXPECT_EQ(IsConsistent(state, q), !brute) << q.ToString();
        const core::TupleClassification expected =
            q.num_blocks() == 1 ? core::TupleClassification::kForcedPositive
            : brute             ? core::TupleClassification::kForcedNegative
                                : core::TupleClassification::kInformative;
        EXPECT_EQ(state.Classify(q), expected) << q.ToString();
        EXPECT_EQ(state.Classify(MaskOf(q).data()), expected) << q.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace jim::lat
