#include "lattice/antichain.h"

#include <algorithm>

#include "util/check.h"

namespace jim::lat {

void Antichain::InsertOrdered(const Partition& p) {
  const size_t rank = p.Rank();
  auto pos = std::upper_bound(
      members_.begin(), members_.end(), rank,
      [](size_t r, const Partition& m) { return r > m.Rank(); });
  members_.insert(pos, p);
}

bool Antichain::Insert(const Partition& p) {
  const size_t rank = p.Rank();
  for (const Partition& m : members_) {
    // Only members at least as coarse can dominate p; the list is rank-
    // descending, so the first member below p's rank ends the scan.
    if (m.Rank() < rank) break;
    if (p.Refines(m)) return false;  // dominated (or already present)
  }
  // Remove members now dominated by p (necessarily of rank ≤ p's).
  members_.erase(std::remove_if(members_.begin(), members_.end(),
                                [&p, rank](const Partition& m) {
                                  return m.Rank() <= rank && m.Refines(p);
                                }),
                 members_.end());
  InsertOrdered(p);
  return true;
}

bool Antichain::DominatedBy(const Partition& q) const {
  const size_t rank = q.Rank();
  for (const Partition& m : members_) {
    if (m.Rank() < rank) break;  // rank-descending order: no dominator left
    if (q.Refines(m)) return true;
  }
  return false;
}

bool Antichain::DominatedBy(const Partition& q,
                            PartitionScratch& scratch) const {
  const size_t rank = q.Rank();
  for (const Partition& m : members_) {
    if (m.Rank() < rank) break;
    if (q.RefinesWith(m, scratch)) return true;
  }
  return false;
}

bool Antichain::Contains(const Partition& q) const {
  for (const Partition& m : members_) {
    if (m == q) return true;
  }
  return false;
}

void Antichain::RestrictTo(const Partition& bound) {
  std::vector<Partition> old = std::move(members_);
  members_.clear();
  // First pass: members already ≤ bound are their own meet. They were
  // maximal among the old members and remain maximal among all the meets
  // (m ≤ m' ∧ bound ≤ m' would contradict antichain incomparability), so
  // they go back in directly — no meet, no dominance scan. Order-preserving
  // push_back keeps the rank-descending invariant.
  std::vector<const Partition*> to_meet;
  to_meet.reserve(old.size());
  for (const Partition& m : old) {
    if (m.Refines(bound)) {
      members_.push_back(m);
    } else {
      to_meet.push_back(&m);
    }
  }
  // Second pass: genuinely clipped members get the full treatment — their
  // meets can be dominated by kept members or by each other.
  for (const Partition* m : to_meet) {
    Insert(m->Meet(bound));
  }
}

void Antichain::CheckInvariants() const {
  for (size_t i = 0; i < members_.size(); ++i) {
    members_[i].CheckInvariants();
    if (i > 0) {
      JIM_CHECK_EQ(members_[i].num_elements(), members_[0].num_elements())
          << "mixed-arity antichain member " << i;
      // The rank early exits in Insert/DominatedBy assume this order.
      JIM_CHECK_GE(members_[i - 1].Rank(), members_[i].Rank())
          << "rank order violated between members " << i - 1 << " and " << i;
    }
    for (size_t j = 0; j < i; ++j) {
      JIM_CHECK(!members_[i].Refines(members_[j]) &&
                !members_[j].Refines(members_[i]))
          << "comparable members " << members_[j].ToString() << " and "
          << members_[i].ToString();
    }
  }
}

std::string Antichain::ToString() const {
  std::vector<Partition> sorted = members_;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "[";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ", ";
    out += sorted[i].ToString();
  }
  out += "]";
  return out;
}

}  // namespace jim::lat
