#include "core/tuple_store.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "util/logging.h"

namespace jim::core {

void TupleStore::TupleCodes(size_t t, uint32_t* out) const {
  const size_t n = num_attributes();
  for (size_t a = 0; a < n; ++a) out[a] = code(t, a);
}

void TupleStore::ColumnCodes(size_t a, size_t first, size_t count,
                             uint32_t* out) const {
  for (size_t k = 0; k < count; ++k) out[k] = code(first + k, a);
}

std::vector<StoreFactor> TupleStore::Factors() const {
  return {StoreFactor{0, num_attributes(), num_tuples(), 1}};
}

rel::Tuple TupleStore::DecodeTuple(size_t t) const {
  const size_t n = num_attributes();
  rel::Tuple tuple;
  tuple.reserve(n);
  for (size_t a = 0; a < n; ++a) tuple.push_back(DecodeValue(t, a));
  return tuple;
}

RelationTupleStore::RelationTupleStore(
    std::shared_ptr<const rel::Relation> relation)
    : RelationTupleStore(relation,
                         relation != nullptr &&
                                 relation->num_rows() >=
                                     rel::kParallelIngestMinRows
                             ? &exec::SharedPool()
                             : nullptr) {}

RelationTupleStore::RelationTupleStore(
    std::shared_ptr<const rel::Relation> relation, exec::ThreadPool* pool)
    : relation_(std::move(relation)) {
  JIM_CHECK(relation_ != nullptr);
  stride_ = relation_->num_attributes();
  const size_t rows = relation_->num_rows();
  if (pool == nullptr || pool->threads() <= 1 ||
      rows < rel::kParallelIngestMinRows) {
    codes_.reserve(rows * stride_);
    for (size_t t = 0; t < rows; ++t) {
      const rel::Tuple& row = relation_->row(t);
      for (size_t a = 0; a < stride_; ++a) {
        codes_.push_back(row[a].is_null() ? rel::kNullCode
                                          : dictionary_.GetOrAdd(row[a]));
      }
    }
    return;
  }
  // Parallel ingest over row chunks: chunk-local dictionaries first, then a
  // serial first-occurrence merge, then a parallel code rewrite. Chunk
  // boundaries fall on rows and both ParallelFors chunk identically (the
  // assignment depends only on (rows, threads)), so the shared dictionary's
  // code order — cell-major first occurrence, one fresh code per NaN
  // occurrence — is bitwise-identical to the serial path above.
  codes_.assign(rows * stride_, 0);
  std::vector<rel::Dictionary> chunk_dictionaries(pool->threads());
  pool->ParallelFor(rows, [&](size_t t, size_t chunk) {
    const rel::Tuple& row = relation_->row(t);
    uint32_t* cell = codes_.data() + t * stride_;
    for (size_t a = 0; a < stride_; ++a) {
      cell[a] = row[a].is_null()
                    ? rel::kNullCode
                    : chunk_dictionaries[chunk].GetOrAdd(row[a]);
    }
  });
  const std::vector<std::vector<uint32_t>> remaps =
      rel::MergeChunkDictionaries(chunk_dictionaries, dictionary_);
  pool->ParallelFor(rows, [&](size_t t, size_t chunk) {
    uint32_t* cell = codes_.data() + t * stride_;
    for (size_t a = 0; a < stride_; ++a) {
      if (cell[a] != rel::kNullCode) cell[a] = remaps[chunk][cell[a]];
    }
  });
}

void RelationTupleStore::TupleCodes(size_t t, uint32_t* out) const {
  const uint32_t* row = codes_.data() + t * stride_;
  for (size_t a = 0; a < stride_; ++a) out[a] = row[a];
}

size_t RelationTupleStore::ApproxBytes() const {
  return codes_.capacity() * sizeof(uint32_t) + dictionary_.ApproxBytes();
}

void CheckStoreInvariants(const TupleStore& store) {
  const size_t num_tuples = store.num_tuples();
  const size_t n = store.num_attributes();
  JIM_CHECK_EQ(store.schema().num_attributes(), n);
  // code ↔ value agreement, built up cell by cell (lookup-only maps; the
  // audit's verdict is order-independent).
  std::unordered_map<uint32_t, rel::Value> value_of_code;
  std::unordered_map<rel::Value, uint32_t, rel::ValueHash> code_of_value;
  std::unordered_set<uint32_t> nan_codes;
  std::vector<uint32_t> row(n);
  for (size_t t = 0; t < num_tuples; ++t) {
    store.TupleCodes(t, row.data());
    for (size_t a = 0; a < n; ++a) {
      const uint32_t code = store.code(t, a);
      JIM_CHECK_EQ(row[a], code)
          << "TupleCodes disagrees with code() at cell (" << t << ", " << a
          << ")";
      const rel::Value value = store.DecodeValue(t, a);
      // kNullCode discipline: the sentinel exactly marks NULL cells.
      JIM_CHECK_EQ(value.is_null(), code == rel::kNullCode)
          << "NULL/kNullCode mismatch at cell (" << t << ", " << a << ")";
      if (value.is_null()) continue;
      if (value.type() == rel::ValueType::kDouble &&
          std::isnan(value.AsDouble())) {
        // NaN ≠ NaN: no other cell of the tuple may carry a NaN cell's code,
        // and that code can never also serve a comparable value.
        JIM_CHECK_EQ(std::count(row.begin(), row.end(), code), 1)
            << "NaN cell (" << t << ", " << a << ") shares its code " << code;
        nan_codes.insert(code);
        JIM_CHECK(value_of_code.find(code) == value_of_code.end())
            << "code " << code << " serves both NaN and a comparable value";
        continue;
      }
      JIM_CHECK(nan_codes.find(code) == nan_codes.end())
          << "code " << code << " serves both NaN and a comparable value";
      const auto [code_it, fresh_code] = value_of_code.emplace(code, value);
      JIM_CHECK(fresh_code || code_it->second.Equals(value))
          << "code " << code << " decodes to unequal values at cell (" << t
          << ", " << a << ")";
      const auto [value_it, fresh_value] = code_of_value.emplace(value, code);
      JIM_CHECK(fresh_value || value_it->second == code)
          << "value '" << value.ToString() << "' carries two codes at cell ("
          << t << ", " << a << ")";
    }
  }
  // The factorization: attribute ranges tile the schema in order, strides
  // are the products of the later factors' rows, the rows multiply to the
  // tuple count, and every cell holds its factor row's code.
  const std::vector<StoreFactor> factors = store.Factors();
  JIM_CHECK(!factors.empty());
  size_t next_attribute = n;
  size_t stride = 1;
  for (size_t f = factors.size(); f-- > 0;) {
    const StoreFactor& factor = factors[f];
    JIM_CHECK_EQ(factor.first_attribute + factor.num_attributes,
                 next_attribute)
        << "factor " << f << " does not end where factor " << f + 1
        << " starts";
    JIM_CHECK_EQ(factor.stride, stride) << "factor " << f << " stride";
    if (factors.size() > 1) {
      JIM_CHECK_GT(factor.rows, 0u) << "factor " << f << " is empty";
      JIM_CHECK_GT(factor.num_attributes, 0u)
          << "factor " << f << " has no attributes";
    }
    next_attribute = factor.first_attribute;
    stride *= factor.rows;
  }
  JIM_CHECK_EQ(next_attribute, 0u) << "factors do not start at attribute 0";
  JIM_CHECK_EQ(stride, num_tuples) << "factor rows do not multiply out";
  for (const StoreFactor& factor : factors) {
    const size_t end = factor.first_attribute + factor.num_attributes;
    for (size_t t = 0; t < num_tuples; ++t) {
      const size_t row_tuple = (t / factor.stride) % factor.rows * factor.stride;
      for (size_t a = factor.first_attribute; a < end; ++a) {
        JIM_CHECK_EQ(store.code(t, a), store.code(row_tuple, a))
            << "cell (" << t << ", " << a << ") is not its factor row's";
      }
    }
  }

  // Column blocks of a size no caller uses, so every block starts at a new
  // offset and the last one is ragged.
  constexpr size_t kAuditBlock = 7;
  std::vector<uint32_t> block(kAuditBlock);
  for (size_t a = 0; a < n; ++a) {
    for (size_t first = 0; first < num_tuples; first += kAuditBlock) {
      const size_t count = std::min(kAuditBlock, num_tuples - first);
      store.ColumnCodes(a, first, count, block.data());
      for (size_t k = 0; k < count; ++k) {
        JIM_CHECK_EQ(block[k], store.code(first + k, a))
            << "ColumnCodes disagrees with code() at cell (" << first + k
            << ", " << a << ")";
      }
    }
  }
}

std::shared_ptr<const TupleStore> MakeRelationStore(
    std::shared_ptr<const rel::Relation> relation) {
  return std::make_shared<const RelationTupleStore>(std::move(relation));
}

std::shared_ptr<const TupleStore> MakeRelationStore(
    std::shared_ptr<const rel::Relation> relation, exec::ThreadPool* pool) {
  return std::make_shared<const RelationTupleStore>(std::move(relation),
                                                    pool);
}

}  // namespace jim::core
