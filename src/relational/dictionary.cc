#include "relational/dictionary.h"

#include <cmath>

#include "exec/thread_pool.h"
#include "util/logging.h"

namespace jim::rel {

uint32_t Dictionary::GetOrAdd(const Value& value) {
  JIM_CHECK(!value.is_null()) << "NULL has no dictionary code (see kNullCode)";
  // NaN caveat: a NaN never compares equal to anything (Value::Equals is
  // IEEE ==), so every NaN occurrence mints a fresh code — exactly the
  // semantics the partition kernels need (NaN ≠ NaN, like NULL ≠ NULL). Mint
  // it directly: NaNs all hash alike but never compare equal, so letting
  // them into the map would grow one bucket's collision chain per
  // occurrence (quadratic encoding on NaN-heavy columns), and a lookup
  // could never return them anyway.
  const bool is_nan = value.type() == ValueType::kDouble &&
                      std::isnan(value.AsDouble());
  if (!is_nan) {
    auto [it, inserted] =
        code_of_.emplace(value, static_cast<uint32_t>(values_.size()));
    if (!inserted) return it->second;
  }
  JIM_CHECK_LT(values_.size(), size_t{kNullCode})
      << "dictionary overflow: too many distinct values for uint32 codes";
  values_.push_back(value);
  return static_cast<uint32_t>(values_.size() - 1);
}

void Dictionary::CheckInvariants() const {
  size_t nan_values = 0;
  for (size_t c = 0; c < values_.size(); ++c) {
    const Value& value = values_[c];
    JIM_CHECK(!value.is_null()) << "NULL stored under code " << c;
    const bool is_nan = value.type() == ValueType::kDouble &&
                        std::isnan(value.AsDouble());
    if (is_nan) {
      // Fresh-code-per-occurrence discipline: NaNs bypass the reverse map.
      ++nan_values;
      continue;
    }
    const auto found = code_of_.find(value);
    JIM_CHECK(found != code_of_.end() && found->second == c)
        << "value→code lookup of '" << value.ToString()
        << "' does not return its code " << c;
  }
  // Forward and reverse directions cover each other exactly (modulo NaNs):
  // every non-NaN code looked itself up above, so a size match means the
  // reverse map holds those entries and nothing else.
  JIM_CHECK_EQ(code_of_.size() + nan_values, values_.size())
      << "reverse map out of step with the value table";
}

size_t Dictionary::ApproxBytes() const {
  size_t bytes = values_.capacity() * sizeof(Value) +
                 code_of_.size() * (sizeof(Value) + sizeof(uint32_t) +
                                    2 * sizeof(void*));
  for (const Value& value : values_) {
    if (value.type() == ValueType::kString) bytes += value.AsString().size();
  }
  return bytes;
}

EncodedColumn EncodeColumn(const Relation& relation, size_t column) {
  JIM_CHECK_LT(column, relation.num_attributes());
  EncodedColumn encoded;
  encoded.codes.reserve(relation.num_rows());
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    const Value& value = relation.row(r)[column];
    encoded.codes.push_back(value.is_null()
                                ? kNullCode
                                : encoded.dictionary.GetOrAdd(value));
  }
  return encoded;
}

std::vector<std::vector<uint32_t>> MergeChunkDictionaries(
    const std::vector<Dictionary>& chunks, Dictionary& target) {
  std::vector<std::vector<uint32_t>> remaps(chunks.size());
  for (size_t j = 0; j < chunks.size(); ++j) {
    remaps[j].resize(chunks[j].size());
    for (uint32_t local = 0; local < chunks[j].size(); ++local) {
      // GetOrAdd in chunk order = global first-occurrence order; NaN values
      // mint one fresh code per chunk-local code, i.e. per occurrence —
      // exactly the serial discipline.
      remaps[j][local] = target.GetOrAdd(chunks[j].value(local));
    }
  }
  return remaps;
}

EncodedColumn EncodeColumn(const Relation& relation, size_t column,
                           exec::ThreadPool* pool) {
  if (pool == nullptr || pool->threads() <= 1 ||
      relation.num_rows() < kParallelIngestMinRows) {
    return EncodeColumn(relation, column);
  }
  JIM_CHECK_LT(column, relation.num_attributes());
  const size_t rows = relation.num_rows();
  EncodedColumn encoded;
  encoded.codes.assign(rows, 0);
  // Phase 1: each static chunk encodes its contiguous row range into its own
  // dictionary (codes are chunk-local for now). Chunk assignment depends
  // only on (rows, threads), so the two ParallelFors below see identical
  // chunking.
  std::vector<Dictionary> chunk_dictionaries(pool->threads());
  pool->ParallelFor(rows, [&](size_t r, size_t chunk) {
    const Value& value = relation.row(r)[column];
    encoded.codes[r] = value.is_null()
                           ? kNullCode
                           : chunk_dictionaries[chunk].GetOrAdd(value);
  });
  // Phase 2 (serial): merge in chunk order. Phase 3: rewrite in parallel.
  const std::vector<std::vector<uint32_t>> remaps =
      MergeChunkDictionaries(chunk_dictionaries, encoded.dictionary);
  pool->ParallelFor(rows, [&](size_t r, size_t chunk) {
    uint32_t& code = encoded.codes[r];
    if (code != kNullCode) code = remaps[chunk][code];
  });
  return encoded;
}

EncodedRelation EncodedRelation::FromRelation(const Relation& relation,
                                              exec::ThreadPool* pool) {
  EncodedRelation encoded;
  encoded.columns_.reserve(relation.num_attributes());
  for (size_t c = 0; c < relation.num_attributes(); ++c) {
    encoded.columns_.push_back(EncodeColumn(relation, c, pool));
  }
  return encoded;
}

size_t EncodedRelation::ApproxBytes() const {
  size_t bytes = sizeof(EncodedRelation);
  for (const EncodedColumn& column : columns_) bytes += column.ApproxBytes();
  return bytes;
}

}  // namespace jim::rel
