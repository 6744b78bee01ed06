#include "query/universal_table.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace jim::query {

namespace {

/// One source occurrence of the factorized table: the shared relation, its
/// dictionary-encoded columns, the translation of those column-local codes
/// into the table's shared dictionary, and the mixed-radix geometry.
/// Per column: local dictionary code → shared dictionary code.
using CodeTranslation = std::vector<std::vector<uint32_t>>;

struct Occurrence {
  std::shared_ptr<const rel::Relation> relation;
  std::shared_ptr<const rel::EncodedRelation> encoded;
  /// First attribute of this occurrence in the universal schema.
  size_t attr_offset = 0;
  /// Shared across occurrences of one relation when safe (see the NaN
  /// caveat in Build); never null after Build.
  std::shared_ptr<const CodeTranslation> shared_codes;
  /// Dense mode only: source rows surviving candidate dedup, ascending
  /// (null = every row), shared across occurrences of one relation. See
  /// RepresentationKeptRows.
  std::shared_ptr<const std::vector<uint32_t>> kept_rows;
  /// Dense mode: digit cardinality and row-major mixed-radix stride.
  size_t size = 0;
  size_t stride = 1;
};

/// The TupleStore behind a UniversalTable. Two shapes:
///  - dense (the product fit the cap): a candidate tuple IS its mixed-radix
///    id over the occurrences' kept rows — nothing per-tuple is stored;
///  - sampled: an explicit num_tuples × k matrix of source-row draws.
class FactorizedTupleStore final : public core::TupleStore {
 public:
  FactorizedTupleStore(rel::Schema schema, std::vector<Occurrence> occurrences,
                       size_t num_tuples, bool dense,
                       std::vector<uint32_t> row_ids)
      : schema_(std::move(schema)),
        occurrences_(std::move(occurrences)),
        num_tuples_(num_tuples),
        dense_(dense),
        row_ids_(std::move(row_ids)) {
    attr_source_.reserve(schema_.num_attributes());
    for (size_t i = 0; i < occurrences_.size(); ++i) {
      const size_t columns = occurrences_[i].relation->num_attributes();
      for (size_t c = 0; c < columns; ++c) attr_source_.emplace_back(i, c);
    }
    JIM_CHECK_EQ(attr_source_.size(), schema_.num_attributes());
  }

  const std::string& name() const override { return name_; }
  const rel::Schema& schema() const override { return schema_; }
  size_t num_tuples() const override { return num_tuples_; }

  /// Source row (into the occurrence's relation) backing tuple `t`.
  size_t SourceRow(size_t t, size_t occurrence) const {
    if (!dense_) return row_ids_[t * occurrences_.size() + occurrence];
    const Occurrence& source = occurrences_[occurrence];
    const size_t digit = (t / source.stride) % source.size;
    return source.kept_rows == nullptr ? digit : (*source.kept_rows)[digit];
  }

  uint32_t code(size_t t, size_t a) const override {
    const auto& [occurrence, column] = attr_source_[a];
    const Occurrence& source = occurrences_[occurrence];
    const uint32_t local =
        source.encoded->code(SourceRow(t, occurrence), column);
    return local == rel::kNullCode ? rel::kNullCode
                                   : (*source.shared_codes)[column][local];
  }

  void TupleCodes(size_t t, uint32_t* out) const override {
    // One radix decomposition per occurrence, then a straight column walk
    // (the JIMC writer's row-major scan).
    for (size_t i = 0; i < occurrences_.size(); ++i) {
      const Occurrence& source = occurrences_[i];
      const size_t row = SourceRow(t, i);
      uint32_t* cell = out + source.attr_offset;
      const CodeTranslation& translation = *source.shared_codes;
      const size_t columns = translation.size();
      for (size_t c = 0; c < columns; ++c) {
        const uint32_t local = source.encoded->code(row, c);
        cell[c] = local == rel::kNullCode ? rel::kNullCode
                                          : translation[c][local];
      }
    }
  }

  void ColumnCodes(size_t a, size_t first, size_t count,
                   uint32_t* out) const override {
    // The class build reads one factor's rows through it (tuples 0 … rows −
    // 1 of the last occurrence), or every tuple of a sample.
    const auto& [occurrence, column] = attr_source_[a];
    const Occurrence& source = occurrences_[occurrence];
    const std::vector<uint32_t>& local =
        source.encoded->column(column).codes;
    const std::vector<uint32_t>& translation = (*source.shared_codes)[column];
    for (size_t k = 0; k < count; ++k) {
      const uint32_t code = local[SourceRow(first + k, occurrence)];
      out[k] = code == rel::kNullCode ? rel::kNullCode : translation[code];
    }
  }

  std::vector<core::StoreFactor> Factors() const override {
    // A dense product is one factor per occurrence. A sample, an empty
    // product and an occurrence without attributes are one factor.
    const bool factored =
        dense_ && num_tuples_ > 0 &&
        std::all_of(occurrences_.begin(), occurrences_.end(),
                    [](const Occurrence& source) {
                      return source.relation->num_attributes() > 0;
                    });
    if (!factored) return TupleStore::Factors();
    std::vector<core::StoreFactor> factors;
    for (const Occurrence& source : occurrences_) {
      factors.push_back({source.attr_offset,
                         source.relation->num_attributes(), source.size,
                         source.stride});
    }
    return factors;
  }

  rel::Value DecodeValue(size_t t, size_t a) const override {
    const auto& [occurrence, column] = attr_source_[a];
    return occurrences_[occurrence]
        .relation->row(SourceRow(t, occurrence))[column];
  }

  size_t ApproxBytes() const override {
    // Only structures the store actually retains, each resident object
    // counted once (self-join occurrences alias the encoded mirror and the
    // translation); the shared dictionary used to mint the translations is
    // a Build() local and is not resident here.
    size_t bytes = row_ids_.capacity() * sizeof(uint32_t);
    std::set<const void*> counted;
    for (const Occurrence& source : occurrences_) {
      if (source.kept_rows != nullptr &&
          counted.insert(source.kept_rows.get()).second) {
        bytes += source.kept_rows->capacity() * sizeof(uint32_t);
      }
      if (counted.insert(source.encoded.get()).second) {
        bytes += source.encoded->ApproxBytes();
      }
      if (counted.insert(source.shared_codes.get()).second) {
        for (const auto& translation : *source.shared_codes) {
          bytes += translation.capacity() * sizeof(uint32_t);
        }
      }
    }
    return bytes;
  }

 private:
  std::string name_ = "universal";
  rel::Schema schema_;
  std::vector<Occurrence> occurrences_;
  size_t num_tuples_ = 0;
  bool dense_ = true;
  std::vector<uint32_t> row_ids_;
  /// Attribute → (occurrence, source column).
  std::vector<std::pair<size_t, size_t>> attr_source_;
};

/// Dense representation id per row: equal ids ⇔ equal representation keys
/// (rel::TupleRepresentationKey's equality — NULLs compare equal).
std::vector<uint32_t> RepresentationIds(const rel::Relation& relation) {
  std::unordered_map<std::string, uint32_t> ids;
  std::vector<uint32_t> rep;
  rep.reserve(relation.num_rows());
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    auto [it, inserted] = ids.emplace(
        rel::TupleRepresentationKey(relation.row(r)),
        static_cast<uint32_t>(ids.size()));
    rep.push_back(it->second);
  }
  return rep;
}

/// Rows surviving a first-occurrence representation-level dedup, ascending.
/// Empty when no row is dropped (the caller's "identity" encoding). The
/// product of per-source kept rows equals the dedup of the full product:
/// candidates with one representation form a product set S₀×…×S_{k−1}, whose
/// row-major-first element is the componentwise first (min S₀, …, min S_{k−1}).
std::vector<uint32_t> RepresentationKeptRows(const rel::Relation& relation) {
  const std::vector<uint32_t> rep = RepresentationIds(relation);
  std::vector<uint32_t> kept;
  kept.reserve(relation.num_rows());
  std::vector<bool> seen;
  for (size_t r = 0; r < rep.size(); ++r) {
    if (rep[r] >= seen.size()) seen.resize(rep[r] + 1, false);
    if (!seen[rep[r]]) {
      seen[rep[r]] = true;
      kept.push_back(static_cast<uint32_t>(r));
    }
  }
  if (kept.size() == relation.num_rows()) kept.clear();
  return kept;
}

struct RepTupleHash {
  size_t operator()(const std::vector<uint32_t>& rep) const {
    size_t seed = rep.size();
    for (uint32_t id : rep) util::HashCombine(seed, id);
    return seed;
  }
};

}  // namespace

util::StatusOr<UniversalTable> UniversalTable::Build(
    const rel::Catalog& catalog,
    const std::vector<std::string>& relation_names,
    const UniversalTableOptions& options) {
  if (relation_names.empty()) {
    return util::InvalidArgumentError(
        "universal table needs at least one relation");
  }
  const size_t k = relation_names.size();

  // Resolve relations (shared, plus their catalog-cached encodings) and
  // compute occurrence aliases.
  std::vector<Occurrence> occurrences(k);
  std::vector<std::string> aliases;
  for (size_t i = 0; i < k; ++i) {
    ASSIGN_OR_RETURN(occurrences[i].relation,
                     catalog.GetShared(relation_names[i]));
    ASSIGN_OR_RETURN(occurrences[i].encoded,
                     catalog.GetEncoded(relation_names[i]));
    size_t total = 0;
    size_t occurrence = 0;
    for (size_t j = 0; j < k; ++j) {
      if (relation_names[j] == relation_names[i]) {
        if (j < i) ++occurrence;
        ++total;
      }
    }
    aliases.push_back(total == 1 ? relation_names[i]
                                 : util::StrFormat("%s_%zu",
                                                   relation_names[i].c_str(),
                                                   occurrence + 1));
  }

  UniversalTable table;
  table.relation_names_ = relation_names;

  // Provenance and schema in occurrence-major order, every attribute
  // qualified by its occurrence alias — exactly the schema the historical
  // RenameRelation/Schema::Concat chain produced.
  rel::Schema schema;
  size_t attr_offset = 0;
  for (size_t i = 0; i < k; ++i) {
    const rel::Relation& relation = *occurrences[i].relation;
    occurrences[i].attr_offset = attr_offset;
    for (size_t c = 0; c < relation.num_attributes(); ++c) {
      table.provenance_.push_back(Provenance{i, c});
      rel::Attribute attribute = relation.schema().attribute(c);
      attribute.qualifier = aliases[i];
      schema.AddAttribute(std::move(attribute));
    }
    attr_offset += relation.num_attributes();
  }

  // Full product size (with overflow guard).
  size_t full_size = 1;
  for (const Occurrence& source : occurrences) {
    const size_t rows = source.relation->num_rows();
    if (rows != 0 && full_size > std::numeric_limits<size_t>::max() / rows) {
      full_size = std::numeric_limits<size_t>::max();
      break;
    }
    full_size *= rows;
  }
  table.full_product_size_ = full_size;

  // Translate each occurrence's column-local dictionary codes into one
  // shared dictionary, so codes compare across every attribute of the
  // universal schema (Part(t) extraction needs exactly this).
  rel::Dictionary shared;
  std::map<const rel::EncodedRelation*,
           std::pair<std::shared_ptr<const CodeTranslation>, bool>>
      translation_cache;
  for (Occurrence& source : occurrences) {
    // Occurrences of one relation (self-joins) share the encoded mirror, so
    // translate each distinct relation only once — UNLESS it holds NaNs:
    // every NaN occurrence mints a fresh shared code (NaN ≠ NaN, like NULL),
    // so a self-join over a NaN-bearing relation must re-translate per
    // occurrence or the diagonal candidates would see equal codes where
    // Value::Equals says unequal.
    auto it = translation_cache.find(source.encoded.get());
    if (it != translation_cache.end() && !it->second.second) {
      source.shared_codes = it->second.first;
      continue;
    }
    CodeTranslation codes;
    bool has_nan = false;
    for (size_t c = 0; c < source.encoded->num_columns(); ++c) {
      const rel::Dictionary& local = source.encoded->column(c).dictionary;
      std::vector<uint32_t> translation(local.size());
      for (uint32_t code = 0; code < local.size(); ++code) {
        const rel::Value& value = local.value(code);
        has_nan = has_nan || (value.type() == rel::ValueType::kDouble &&
                              std::isnan(value.AsDouble()));
        translation[code] = shared.GetOrAdd(value);
      }
      codes.push_back(std::move(translation));
    }
    source.shared_codes =
        std::make_shared<const CodeTranslation>(std::move(codes));
    if (it == translation_cache.end()) {
      translation_cache.emplace(source.encoded.get(),
                                std::make_pair(source.shared_codes, has_nan));
    }
  }

  // Replay the historical left-to-right fold on *sizes* only to learn
  // whether any step samples (the fold samples down to the cap after each
  // step; see SampledCrossProduct).
  const size_t cap = options.sample_cap == 0
                         ? std::numeric_limits<size_t>::max()
                         : options.sample_cap;
  bool sampled = false;
  size_t fold_rows = occurrences[0].relation->num_rows();
  for (size_t i = 1; i < k; ++i) {
    const size_t next = occurrences[i].relation->num_rows();
    if (next != 0 &&
        fold_rows > std::numeric_limits<size_t>::max() / next) {
      return util::InvalidArgumentError(
          "cross product too large to enumerate; set a sample_cap");
    }
    const size_t total = fold_rows * next;
    if (total <= cap) {
      fold_rows = total;
    } else {
      sampled = true;
      fold_rows = cap;
    }
  }
  table.is_sampled_ = sampled;

  size_t num_tuples = 0;
  std::vector<uint32_t> row_ids;
  if (!sampled) {
    // Dense: candidate tuples are mixed-radix ids; dedup factorizes into a
    // per-source first-occurrence filter (see RepresentationKeptRows).
    num_tuples = 1;
    std::map<const rel::Relation*,
             std::shared_ptr<const std::vector<uint32_t>>>
        kept_cache;
    for (Occurrence& source : occurrences) {
      // One representation-key pass per distinct relation; occurrences of
      // one relation (self-joins) share the resulting kept list.
      auto [cached, inserted] = kept_cache.try_emplace(source.relation.get());
      if (inserted) {
        std::vector<uint32_t> kept = RepresentationKeptRows(*source.relation);
        if (!kept.empty()) {
          cached->second = std::make_shared<const std::vector<uint32_t>>(
              std::move(kept));
        }
      }
      source.kept_rows = cached->second;
      source.size = source.kept_rows == nullptr ? source.relation->num_rows()
                                                : source.kept_rows->size();
      num_tuples *= source.size;
    }
    size_t stride = 1;
    for (size_t i = k; i-- > 0;) {
      occurrences[i].stride = stride;
      stride *= occurrences[i].size;
    }
  } else {
    // Sampled: materialize the fold as row-id draws, consuming the RNG in
    // exactly the historical sequence (one SampleIndices per oversized
    // step), then dedup the drawn candidates by representation.
    util::Rng rng(options.seed);
    size_t width = 1;
    size_t rows = occurrences[0].relation->num_rows();
    row_ids.reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      row_ids.push_back(static_cast<uint32_t>(r));
    }
    for (size_t i = 1; i < k; ++i) {
      const size_t next = occurrences[i].relation->num_rows();
      const size_t total = rows * next;
      std::vector<uint32_t> folded;
      if (total <= cap) {
        folded.reserve(total * (width + 1));
        for (size_t p = 0; p < rows; ++p) {
          for (size_t r = 0; r < next; ++r) {
            folded.insert(folded.end(), row_ids.begin() + p * width,
                          row_ids.begin() + (p + 1) * width);
            folded.push_back(static_cast<uint32_t>(r));
          }
        }
        rows = total;
      } else {
        const std::vector<size_t> picks = rng.SampleIndices(total, cap);
        folded.reserve(picks.size() * (width + 1));
        for (size_t flat : picks) {
          const size_t p = flat / next;
          const size_t r = flat % next;
          folded.insert(folded.end(), row_ids.begin() + p * width,
                        row_ids.begin() + (p + 1) * width);
          folded.push_back(static_cast<uint32_t>(r));
        }
        rows = cap;
      }
      row_ids = std::move(folded);
      ++width;
    }
    JIM_CHECK_EQ(width, k);

    // One representation-id pass per distinct relation; occurrences
    // borrow the cached vector (no copies).
    std::vector<const std::vector<uint32_t>*> rep(k);
    std::map<const rel::Relation*, std::vector<uint32_t>> rep_cache;
    for (size_t i = 0; i < k; ++i) {
      auto [cached, inserted] =
          rep_cache.try_emplace(occurrences[i].relation.get());
      if (inserted) {
        cached->second = RepresentationIds(*occurrences[i].relation);
      }
      rep[i] = &cached->second;
    }
    std::unordered_set<std::vector<uint32_t>, RepTupleHash> seen;
    seen.reserve(rows);
    std::vector<uint32_t> compacted;
    compacted.reserve(row_ids.size());
    std::vector<uint32_t> key(k);
    for (size_t t = 0; t < rows; ++t) {
      for (size_t i = 0; i < k; ++i) {
        key[i] = (*rep[i])[row_ids[t * k + i]];
      }
      if (seen.insert(key).second) {
        compacted.insert(compacted.end(), row_ids.begin() + t * k,
                         row_ids.begin() + (t + 1) * k);
      }
    }
    row_ids = std::move(compacted);
    rows = row_ids.size() / k;
    num_tuples = rows;
  }

  table.store_ = std::make_shared<const FactorizedTupleStore>(
      std::move(schema), std::move(occurrences), num_tuples, !sampled,
      std::move(row_ids));
  JIM_CHECK_EQ(table.store_->num_attributes(), table.provenance_.size());
  return table;
}

JoinQuery UniversalTable::ToJoinQuery(
    const core::JoinPredicate& predicate) const {
  JIM_CHECK_EQ(predicate.num_attributes(), provenance_.size());
  JoinQuery query(relation_names_);
  for (const auto& [i, j] : predicate.partition().GeneratorPairs()) {
    const Provenance& a = provenance_[i];
    const Provenance& b = provenance_[j];
    query.AddEquality(
        QualifiedColumn{a.relation_occurrence, a.column_index},
        QualifiedColumn{b.relation_occurrence, b.column_index});
  }
  return query;
}

}  // namespace jim::query
