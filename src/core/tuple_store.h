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

/// One factor of a TupleStore's factorization (TupleStore::Factors): the
/// attributes [first_attribute, first_attribute + num_attributes), whose
/// codes depend only on the tuple's digit in this factor.
struct StoreFactor {
  size_t first_attribute = 0;
  size_t num_attributes = 0;
  size_t rows = 0;
  /// Product of the later factors' rows: tuples per step of this digit.
  size_t stride = 1;
};

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
/// A store may also report a factorization (Factors): the instance as the
/// product of a few small factors, which lets the engine's class build and
/// the JIMC writer walk the factors instead of the product.
///
/// Implementations: RelationTupleStore (a materialized denormalized
/// relation, encoded once at wrap time; one factor), the factorized store
/// behind query::UniversalTable (a dense product is one factor per source
/// occurrence, its tuples mixed-radix ids over the sources' encoded columns;
/// a sampled one is one factor of row-id draws), and the mmap'd JIMC file
/// behind storage::MappedTupleStore (the factors the file was written with).
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
  /// `out`. The engine's class build reads its last factor's rows (tuples
  /// 0 … rows − 1) in column blocks through it; the JIMC mapping overrides
  /// it with a memcpy and the factorized store with a walk of source rows.
  virtual void ColumnCodes(size_t a, size_t first, size_t count,
                           uint32_t* out) const;

  /// The store as a product of factors F_0 … F_{k−1} (see StoreFactor):
  /// their attribute ranges tile [0, num_attributes()) in order, their rows
  /// multiply to num_tuples(), and the last factor varies fastest. Tuple
  /// t's row in F_f is its digit (t / stride_f) % rows_f, and its codes on
  /// F_f's attributes are that row's alone:
  ///
  ///   code(t, a) == code(digit_f(t) · stride_f, a)   for a in F_f,
  ///
  /// so F_f's row r reads as tuple r · stride_f, and the last factor's rows
  /// are tuples 0 … rows − 1. With more than one factor no factor is empty
  /// and none has zero attributes. The default is the whole store as one
  /// factor.
  virtual std::vector<StoreFactor> Factors() const;

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

  /// Distinct non-NULL values across all columns: the dictionary size.
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
///     one code, and a NaN cell's code is its own (see the class comment);
///   - Factors() tiles the attributes, multiplies to num_tuples(), carries
///     consistent strides, and every cell's code is its factor row's.
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
