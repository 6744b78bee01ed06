#ifndef JIM_CORE_TUPLE_STORE_H_
#define JIM_CORE_TUPLE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "relational/dictionary.h"
#include "relational/relation.h"
#include "relational/schema.h"

namespace jim::exec {
class ThreadPool;
}  // namespace jim::exec

namespace jim::core {

/// The narrow seam between storage and inference: everything the engine
/// needs from an instance of candidate tuples, and nothing more.
///
/// Tuples are exposed as *codes*, not values: `code(t, a)` returns a dense
/// integer such that, within one store, for cells that are not NaN,
///
///   code(t, a) == code(t', a')  ⇔  the two cells hold strictly equal Values
///                                  (rel::Value::Equals),
///   code(t, a) == rel::kNullCode ⇔ the cell is NULL (never equal to
///                                  anything, itself included).
///
/// A NaN cell's code is carried by no other cell of its tuple and by no
/// non-NaN cell; NaN cells of different tuples may share one (the factorized
/// store and the JIMC writer repeat a source NaN's code), which suffices
/// because the engine compares codes only within a tuple.
///
/// Codes are comparable ACROSS attributes — the property Part(t) extraction
/// needs — because every implementation funnels its per-column dictionaries
/// through one shared dictionary. The engine's class construction is thereby
/// a pure integer kernel; `Values` only materialize on demand (question
/// prompts, oracles, rendering) via DecodeValue/DecodeTuple.
///
/// Implementations: RelationTupleStore (a materialized denormalized
/// relation, encoded once at wrap time) and the factorized store behind
/// query::UniversalTable (mixed-radix row ids over the source relations'
/// encoded columns — no materialized rows at all), plus the mmap'd JIMC
/// file behind storage::MappedTupleStore.
class TupleStore {
 public:
  virtual ~TupleStore() = default;

  virtual const std::string& name() const = 0;
  virtual const rel::Schema& schema() const = 0;
  virtual size_t num_tuples() const = 0;
  size_t num_attributes() const { return schema().num_attributes(); }

  /// Shared-dictionary code of attribute `a` of tuple `t` (see class
  /// comment; rel::kNullCode for NULL).
  virtual uint32_t code(size_t t, size_t a) const = 0;

  /// Bulk variant: writes all num_attributes() codes of tuple `t` into
  /// `out`. Overridden by implementations that can amortize the per-tuple
  /// address computation; the JIMC writer numbers shared codes through it,
  /// row by row.
  virtual void TupleCodes(size_t t, uint32_t* out) const;

  /// Column-bulk variant: writes code(first + k, a) for k < `count` into
  /// `out`. The engine's class build reads tuples in column blocks through
  /// it; the JIMC mapping overrides it with a memcpy and the factorized
  /// store with a mixed-radix walk.
  virtual void ColumnCodes(size_t a, size_t first, size_t count,
                           uint32_t* out) const;

  /// The cell's Value (decoded on demand — display, oracles, provenance).
  virtual rel::Value DecodeValue(size_t t, size_t a) const = 0;

  /// The full tuple, decoded.
  rel::Tuple DecodeTuple(size_t t) const;

  /// Approximate resident bytes of the store's own structures (codes,
  /// dictionaries, row ids) — the number the scalability bench tracks to
  /// show factorized memory does not scale with the candidate count.
  virtual size_t ApproxBytes() const = 0;
};

/// TupleStore over a materialized denormalized relation: the degenerate
/// single-source case (synthetic workloads, CSV loads, Figure 1). All
/// columns are encoded through one shared dictionary at construction, so
/// cross-attribute code equality holds by construction.
class RelationTupleStore final : public TupleStore {
 public:
  /// Large relations (≥ rel::kParallelIngestMinRows) encode on the
  /// process-wide exec::SharedPool; the result is bitwise-identical to
  /// serial encoding at any thread count, so this only moves latency. Use
  /// the two-argument overload to control the pool explicitly (nullptr =
  /// serial, the reference path parity tests pin against).
  explicit RelationTupleStore(std::shared_ptr<const rel::Relation> relation);

  /// Parallel ingest: `pool` chunks the rows, each chunk encodes into a
  /// private dictionary, and a serial in-order merge (see
  /// rel::MergeChunkDictionaries) renumbers — codes and dictionary order are
  /// bitwise-identical to the serial constructor at any thread count.
  /// nullptr / 1-thread pools and small relations take the serial path.
  RelationTupleStore(std::shared_ptr<const rel::Relation> relation,
                     exec::ThreadPool* pool);

  const std::string& name() const override { return relation_->name(); }
  const rel::Schema& schema() const override { return relation_->schema(); }
  size_t num_tuples() const override { return relation_->num_rows(); }
  uint32_t code(size_t t, size_t a) const override {
    return codes_[t * stride_ + a];
  }
  void TupleCodes(size_t t, uint32_t* out) const override;
  rel::Value DecodeValue(size_t t, size_t a) const override {
    return relation_->row(t)[a];
  }
  size_t ApproxBytes() const override;

  const std::shared_ptr<const rel::Relation>& relation() const {
    return relation_;
  }
  /// Distinct non-NULL values across all columns (bench/diagnostics).
  size_t num_distinct_values() const { return dictionary_.size(); }

 private:
  std::shared_ptr<const rel::Relation> relation_;
  rel::Dictionary dictionary_;
  /// Row-major N × n code matrix (kNullCode for NULLs).
  std::vector<uint32_t> codes_;
  size_t stride_ = 0;
};

/// Invariant audit of the TupleStore *contract* on any backend (see
/// util/check.h): decodes every cell once and JIM_CHECK-fails unless
///   - code == rel::kNullCode exactly for NULL cells;
///   - TupleCodes and ColumnCodes agree with per-cell code(), tuple by
///     tuple and in column blocks of every offset;
///   - code equality is strict Value equality across all non-NaN cells:
///     equal codes decode to Equals values and each value maps to exactly
///     one code, and a NaN cell's code is its own (see the class comment).
/// O(N·n) decodes + hashing — test/audit-mode cost, not a hot path. The
/// parity and storage suites run it over every backend (relation-backed,
/// factorized, mapped).
void CheckStoreInvariants(const TupleStore& store);

/// Wraps `relation` into a RelationTupleStore (large relations encode on
/// the shared pool — see the single-argument constructor).
std::shared_ptr<const TupleStore> MakeRelationStore(
    std::shared_ptr<const rel::Relation> relation);

/// Same, encoding on `pool` explicitly (nullptr = serial).
std::shared_ptr<const TupleStore> MakeRelationStore(
    std::shared_ptr<const rel::Relation> relation, exec::ThreadPool* pool);

}  // namespace jim::core

#endif  // JIM_CORE_TUPLE_STORE_H_
