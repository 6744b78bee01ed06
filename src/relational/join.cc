#include "relational/join.h"

#include <unordered_map>

#include "util/hash.h"
#include "util/string_util.h"

namespace jim::rel {

namespace {

util::Status ValidateKeys(const Relation& left, const Relation& right,
                          const JoinKeys& keys) {
  for (const auto& [l, r] : keys) {
    if (l >= left.num_attributes()) {
      return util::OutOfRangeError(util::StrFormat(
          "left join key %zu out of range (%zu attributes)", l,
          left.num_attributes()));
    }
    if (r >= right.num_attributes()) {
      return util::OutOfRangeError(util::StrFormat(
          "right join key %zu out of range (%zu attributes)", r,
          right.num_attributes()));
    }
  }
  return util::OkStatus();
}

Schema OutputSchema(const Relation& left, const Relation& right,
                    const JoinOptions& options) {
  return Schema::Concat(left.schema(), options.left_qualifier, right.schema(),
                        options.right_qualifier);
}

Tuple ConcatRows(const Tuple& left, const Tuple& right) {
  Tuple out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

/// True iff the key columns match under SQL semantics (no NULLs, all equal).
bool KeysMatch(const Tuple& left, const Tuple& right, const JoinKeys& keys) {
  for (const auto& [l, r] : keys) {
    if (!left[l].Equals(right[r])) return false;
  }
  return true;
}

/// Composite key for hashing; empty optional when any component is NULL.
struct HashKey {
  std::vector<Value> parts;

  bool operator==(const HashKey& other) const {
    if (parts.size() != other.parts.size()) return false;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (!parts[i].Equals(other.parts[i])) return false;
    }
    return true;
  }
};

struct HashKeyHasher {
  size_t operator()(const HashKey& key) const {
    size_t seed = key.parts.size();
    for (const Value& v : key.parts) util::HashCombine(seed, v.Hash());
    return seed;
  }
};

/// Extracts the composite key; returns false if any component is NULL
/// (such rows never join).
bool ExtractKey(const Tuple& row, const JoinKeys& keys, bool left_side,
                HashKey* out) {
  out->parts.clear();
  out->parts.reserve(keys.size());
  for (const auto& [l, r] : keys) {
    const Value& v = row[left_side ? l : r];
    if (v.is_null()) return false;
    out->parts.push_back(v);
  }
  return true;
}

}  // namespace

util::StatusOr<Relation> NestedLoopJoin(const Relation& left,
                                        const Relation& right,
                                        const JoinKeys& keys,
                                        const JoinOptions& options) {
  RETURN_IF_ERROR(ValidateKeys(left, right, keys));
  Relation result{options.result_name, OutputSchema(left, right, options)};
  for (const Tuple& l : left.rows()) {
    for (const Tuple& r : right.rows()) {
      if (KeysMatch(l, r, keys)) {
        result.AddRowUnchecked(ConcatRows(l, r));
      }
    }
  }
  return result;
}

util::StatusOr<Relation> HashJoin(const Relation& left, const Relation& right,
                                  const JoinKeys& keys,
                                  const JoinOptions& options) {
  RETURN_IF_ERROR(ValidateKeys(left, right, keys));
  if (keys.empty()) {
    // Degenerate: no key means Cartesian product semantics.
    return NestedLoopJoin(left, right, keys, options);
  }
  Relation result{options.result_name, OutputSchema(left, right, options)};

  // Build on the smaller side; probe with the larger.
  const bool build_left = left.num_rows() <= right.num_rows();
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;

  std::unordered_map<HashKey, std::vector<size_t>, HashKeyHasher> table;
  table.reserve(build.num_rows());
  HashKey key;
  for (size_t i = 0; i < build.num_rows(); ++i) {
    if (ExtractKey(build.row(i), keys, /*left_side=*/build_left, &key)) {
      table[key].push_back(i);
    }
  }
  for (const Tuple& probe_row : probe.rows()) {
    if (!ExtractKey(probe_row, keys, /*left_side=*/!build_left, &key)) continue;
    auto it = table.find(key);
    if (it == table.end()) continue;
    for (size_t build_index : it->second) {
      const Tuple& build_row = build.row(build_index);
      result.AddRowUnchecked(build_left ? ConcatRows(build_row, probe_row)
                                        : ConcatRows(probe_row, build_row));
    }
  }
  return result;
}

util::StatusOr<Relation> CrossProduct(const Relation& left,
                                      const Relation& right,
                                      const JoinOptions& options) {
  return NestedLoopJoin(left, right, /*keys=*/{}, options);
}

util::StatusOr<Relation> SampledCrossProduct(const Relation& left,
                                             const Relation& right,
                                             size_t sample_size,
                                             util::Rng& rng,
                                             const JoinOptions& options) {
  const size_t total = left.num_rows() * right.num_rows();
  if (total <= sample_size) {
    return CrossProduct(left, right, options);
  }
  Relation result{options.result_name, OutputSchema(left, right, options)};
  result.Reserve(sample_size);
  const std::vector<size_t> picks = rng.SampleIndices(total, sample_size);
  for (size_t flat : picks) {
    const size_t li = flat / right.num_rows();
    const size_t ri = flat % right.num_rows();
    result.AddRowUnchecked(ConcatRows(left.row(li), right.row(ri)));
  }
  return result;
}

}  // namespace jim::rel
