#include "lattice/partition.h"

#include <algorithm>
#include <unordered_map>

#include "lattice/union_find.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace jim::lat {

Partition::Partition(std::vector<int> canonical_labels)
    : block_of_(std::move(canonical_labels)) {
  int max_label = -1;
  for (int label : block_of_) max_label = std::max(max_label, label);
  num_blocks_ = static_cast<size_t>(max_label + 1);
  // Length-seeded so different-arity RGS vectors hash from distinct states;
  // n = 0 degenerates to the plain offset basis, matching the default-
  // constructed fingerprint.
  fingerprint_ = util::Fnv1a64(
      block_of_.begin(), block_of_.end(),
      util::kFnv1a64OffsetBasis ^ (block_of_.size() * util::kFnv1a64Prime));
}

std::vector<int> Partition::Canonicalize(const std::vector<int>& labels) {
  std::vector<int> canonical(labels.size());
  std::unordered_map<int, int> remap;
  remap.reserve(labels.size());
  int next = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    auto [it, inserted] = remap.emplace(labels[i], next);
    if (inserted) ++next;
    canonical[i] = it->second;
  }
  return canonical;
}

Partition Partition::Top(size_t n) {
  return Partition(std::vector<int>(n, 0));
}

Partition Partition::FromLabels(const std::vector<int>& labels) {
  return Partition(Canonicalize(labels));
}

util::StatusOr<Partition> Partition::FromPairs(
    size_t n, const std::vector<std::pair<size_t, size_t>>& pairs) {
  UnionFind uf(n);
  for (const auto& [i, j] : pairs) {
    if (i >= n || j >= n) {
      return util::OutOfRangeError(util::StrFormat(
          "pair (%zu, %zu) out of range for n=%zu", i, j, n));
    }
    uf.Union(i, j);
  }
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(uf.Find(i));
  return Partition(Canonicalize(labels));
}

bool Partition::Refines(const Partition& other) const {
  JIM_CHECK_EQ(num_elements(), other.num_elements());
  // A refinement splits blocks, so it cannot have fewer of them.
  if (num_blocks_ < other.num_blocks_) return false;
  // *this refines other iff elements sharing a block here also share one
  // there, i.e. the map (this-block -> other-block) is well defined.
  std::vector<int> image(num_blocks_, -1);
  for (size_t i = 0; i < block_of_.size(); ++i) {
    int& slot = image[static_cast<size_t>(block_of_[i])];
    if (slot == -1) {
      slot = other.block_of_[i];
    } else if (slot != other.block_of_[i]) {
      return false;
    }
  }
  return true;
}

Partition Partition::Meet(const Partition& other) const {
  JIM_CHECK_EQ(num_elements(), other.num_elements());
  const size_t n = num_elements();
  // Elements are co-block in the meet iff co-block in both inputs: label by
  // the pair (block here, block there), then canonicalize.
  std::vector<int> labels(n);
  std::unordered_map<int64_t, int> remap;
  remap.reserve(n);
  int next = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t key = static_cast<int64_t>(block_of_[i]) *
                            static_cast<int64_t>(other.num_blocks_) +
                        other.block_of_[i];
    auto [it, inserted] = remap.emplace(key, next);
    if (inserted) ++next;
    labels[i] = it->second;
  }
  return Partition(std::move(labels));
}

Partition Partition::Join(const Partition& other) const {
  JIM_CHECK_EQ(num_elements(), other.num_elements());
  const size_t n = num_elements();
  UnionFind uf(n);
  // Union consecutive members of each block in both partitions.
  auto merge_blocks = [&uf, n](const Partition& p) {
    std::vector<int> first_of_block(p.num_blocks(), -1);
    for (size_t i = 0; i < n; ++i) {
      int& first = first_of_block[static_cast<size_t>(p.block_of_[i])];
      if (first == -1) {
        first = static_cast<int>(i);
      } else {
        uf.Union(static_cast<size_t>(first), i);
      }
    }
  };
  merge_blocks(*this);
  merge_blocks(other);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(uf.Find(i));
  return Partition(Canonicalize(labels));
}

std::vector<std::vector<size_t>> Partition::Blocks() const {
  std::vector<std::vector<size_t>> blocks(num_blocks_);
  for (size_t i = 0; i < block_of_.size(); ++i) {
    blocks[static_cast<size_t>(block_of_[i])].push_back(i);
  }
  // RGS labeling already orders blocks by first (= smallest) member, and
  // members are pushed in ascending order.
  return blocks;
}

std::vector<std::pair<size_t, size_t>> Partition::GeneratorPairs() const {
  std::vector<std::pair<size_t, size_t>> pairs;
  for (const auto& block : Blocks()) {
    for (size_t a = 1; a < block.size(); ++a) {
      pairs.emplace_back(block[0], block[a]);
    }
  }
  return pairs;
}

std::string Partition::ToString() const {
  std::string out = "{";
  bool first_block = true;
  for (const auto& block : Blocks()) {
    if (!first_block) out += "|";
    first_block = false;
    bool first_element = true;
    for (size_t element : block) {
      if (!first_element) out += ",";
      first_element = false;
      out += std::to_string(element);
    }
  }
  out += "}";
  return out;
}

void Partition::CheckInvariants() const {
  // Restricted growth string: the first element is block 0, and every label
  // is at most one past the running maximum (block ids appear in order of
  // first occurrence, with no gaps).
  int max_seen = -1;
  for (size_t i = 0; i < block_of_.size(); ++i) {
    JIM_CHECK_GE(block_of_[i], 0) << "negative block id at element " << i;
    JIM_CHECK_LE(block_of_[i], max_seen + 1)
        << "non-canonical RGS at element " << i << " of " << ToString();
    max_seen = std::max(max_seen, block_of_[i]);
  }
  JIM_CHECK_EQ(num_blocks_, static_cast<size_t>(max_seen + 1))
      << "cached block count disagrees with the RGS of " << ToString();
  // The construction-time fingerprint must equal a from-scratch recompute.
  const uint64_t recomputed = util::Fnv1a64(
      block_of_.begin(), block_of_.end(),
      util::kFnv1a64OffsetBasis ^ (block_of_.size() * util::kFnv1a64Prime));
  JIM_CHECK_EQ(fingerprint_, recomputed)
      << "stale fingerprint on " << ToString();
}

size_t Partition::Hash() const {
  // The construction-time fingerprint: hashing is O(1) instead of a rescan.
  return static_cast<size_t>(fingerprint_);
}

}  // namespace jim::lat
