#include "core/join_predicate.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace jim::core {

JoinPredicate::JoinPredicate(rel::Schema schema, lat::Partition partition)
    : schema_(std::move(schema)), partition_(std::move(partition)) {
  JIM_CHECK_EQ(schema_.num_attributes(), partition_.num_elements());
}

util::StatusOr<JoinPredicate> JoinPredicate::Parse(const rel::Schema& schema,
                                                   std::string_view text) {
  // Normalize the conjunction separators to '&'.
  std::string normalized;
  normalized.reserve(text.size());
  for (size_t i = 0; i < text.size();) {
    // "∧" is the UTF-8 sequence E2 88 A7.
    if (i + 2 < text.size() && static_cast<unsigned char>(text[i]) == 0xE2 &&
        static_cast<unsigned char>(text[i + 1]) == 0x88 &&
        static_cast<unsigned char>(text[i + 2]) == 0xA7) {
      normalized.push_back('&');
      i += 3;
      continue;
    }
    // "≈" is the UTF-8 sequence E2 89 88.
    if (i + 2 < text.size() && static_cast<unsigned char>(text[i]) == 0xE2 &&
        static_cast<unsigned char>(text[i + 1]) == 0x89 &&
        static_cast<unsigned char>(text[i + 2]) == 0x88) {
      normalized.push_back('=');
      i += 3;
      continue;
    }
    normalized.push_back(text[i]);
    ++i;
  }
  // Textual "AND" (any case, token-delimited) -> '&'.
  std::string lowered = util::ToLower(normalized);
  std::string collapsed;
  for (size_t i = 0; i < normalized.size();) {
    if (i + 3 <= normalized.size() && lowered.compare(i, 3, "and") == 0 &&
        (i == 0 || std::isspace(static_cast<unsigned char>(normalized[i - 1]))) &&
        (i + 3 == normalized.size() ||
         std::isspace(static_cast<unsigned char>(normalized[i + 3])))) {
      collapsed.push_back('&');
      i += 3;
    } else {
      collapsed.push_back(normalized[i]);
      ++i;
    }
  }

  std::vector<std::pair<size_t, size_t>> pairs;
  for (const std::string& raw_conjunct : util::Split(collapsed, '&')) {
    const std::string_view conjunct = util::StripWhitespace(raw_conjunct);
    if (conjunct.empty()) continue;  // tolerate "a=b && && c=d" and "&&"
    const auto sides = util::Split(std::string(conjunct), '=');
    if (sides.size() != 2) {
      return util::InvalidArgumentError(
          "expected exactly one '=' in conjunct '" + std::string(conjunct) +
          "'");
    }
    const auto left = util::StripWhitespace(sides[0]);
    const auto right = util::StripWhitespace(sides[1]);
    // An unknown attribute name is malformed *input text*, not a missing
    // resource: report kInvalidArgument like every other parse failure
    // (kNotFound is reserved for absent files/relations, and callers route
    // on that distinction).
    const auto resolve = [&schema](std::string_view side)
        -> util::StatusOr<size_t> {
      auto index = schema.IndexOf(side);
      if (!index.ok()) {
        return util::InvalidArgumentError(
            "unknown attribute '" + std::string(side) +
            "' in join predicate (" + std::string(index.status().message()) +
            ")");
      }
      return index;
    };
    ASSIGN_OR_RETURN(size_t left_index, resolve(left));
    ASSIGN_OR_RETURN(size_t right_index, resolve(right));
    pairs.emplace_back(left_index, right_index);
  }
  ASSIGN_OR_RETURN(
      lat::Partition partition,
      lat::Partition::FromPairs(schema.num_attributes(), pairs));
  return JoinPredicate(schema, std::move(partition));
}

bool JoinPredicate::Selects(const rel::Tuple& tuple) const {
  JIM_DCHECK(tuple.size() == partition_.num_elements());
  // Every generator equality must hold; generators suffice because value
  // equality is transitive.
  for (const auto& [i, j] : partition_.GeneratorPairs()) {
    if (!tuple[i].Equals(tuple[j])) return false;
  }
  return true;
}

namespace {

/// Code-level generator-pair check shared by SelectsCodes and the
/// SelectedRows(TupleStore) scan (which hoists the pair extraction out of
/// its per-tuple loop).
bool SelectsCodesWithPairs(
    const std::vector<std::pair<size_t, size_t>>& pairs,
    const uint32_t* codes) {
  for (const auto& [i, j] : pairs) {
    if (codes[i] == rel::kNullCode || codes[i] != codes[j]) return false;
  }
  return true;
}

}  // namespace

bool JoinPredicate::SelectsCodes(const uint32_t* codes) const {
  return SelectsCodesWithPairs(partition_.GeneratorPairs(), codes);
}

util::DynamicBitset JoinPredicate::SelectedRows(
    const rel::Relation& relation) const {
  JIM_CHECK_EQ(relation.num_attributes(), partition_.num_elements());
  util::DynamicBitset selected(relation.num_rows());
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    if (Selects(relation.row(r))) selected.Set(r);
  }
  return selected;
}

util::DynamicBitset JoinPredicate::SelectedRows(const TupleStore& store) const {
  JIM_CHECK_EQ(store.num_attributes(), partition_.num_elements());
  const auto pairs = partition_.GeneratorPairs();
  std::vector<uint32_t> codes(store.num_attributes());
  util::DynamicBitset selected(store.num_tuples());
  for (size_t t = 0; t < store.num_tuples(); ++t) {
    store.TupleCodes(t, codes.data());
    if (SelectsCodesWithPairs(pairs, codes.data())) selected.Set(t);
  }
  return selected;
}

bool JoinPredicate::ContainedIn(const JoinPredicate& other) const {
  // *this demands at least other's equalities iff other's partition refines
  // ours... no: this ⊆ other (fewer results) iff this has MORE constraints,
  // i.e. other.partition_ ≤ this->partition_.
  return other.partition_.Refines(partition_);
}

std::string JoinPredicate::ToString() const {
  if (IsEmptyPredicate()) return "(empty predicate)";
  std::vector<std::string> parts;
  for (const auto& [i, j] : partition_.GeneratorPairs()) {
    parts.push_back(schema_.attribute(i).QualifiedName() + "\xE2\x89\x88" +
                    schema_.attribute(j).QualifiedName());
  }
  return util::Join(parts, " \xE2\x88\xA7 ");
}

std::string JoinPredicate::ToSqlWhere() const {
  if (IsEmptyPredicate()) return "TRUE";
  std::vector<std::string> parts;
  for (const auto& [i, j] : partition_.GeneratorPairs()) {
    parts.push_back(schema_.attribute(i).QualifiedName() + " = " +
                    schema_.attribute(j).QualifiedName());
  }
  return util::Join(parts, " AND ");
}

lat::Partition TuplePartition(const rel::Tuple& tuple) {
  const size_t n = tuple.size();
  std::vector<int> labels(n);
  // Group attributes by pairwise Equals. NULLs never group (Equals is false
  // for them), which is exactly SQL join semantics. Quadratic in n, which is
  // fine: n is the attribute count (small), not the tuple count.
  int next = 0;
  std::vector<bool> assigned(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (assigned[i]) continue;
    labels[i] = next;
    assigned[i] = true;
    if (!tuple[i].is_null()) {
      for (size_t j = i + 1; j < n; ++j) {
        if (!assigned[j] && tuple[i].Equals(tuple[j])) {
          labels[j] = next;
          assigned[j] = true;
        }
      }
    }
    ++next;
  }
  return lat::Partition::FromLabels(labels);
}

bool InstanceEquivalent(const rel::Relation& relation, const JoinPredicate& p1,
                        const JoinPredicate& p2) {
  return p1.SelectedRows(relation) == p2.SelectedRows(relation);
}

bool InstanceEquivalent(const TupleStore& store, const JoinPredicate& p1,
                        const JoinPredicate& p2) {
  return p1.SelectedRows(store) == p2.SelectedRows(store);
}

}  // namespace jim::core
