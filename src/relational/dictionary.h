#ifndef JIM_RELATIONAL_DICTIONARY_H_
#define JIM_RELATIONAL_DICTIONARY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "relational/relation.h"
#include "relational/value.h"

namespace jim::exec {
class ThreadPool;
}  // namespace jim::exec

namespace jim::rel {

/// Sentinel code marking NULL in an encoded column. NULL deliberately has no
/// dictionary entry: NULL ≠ NULL under SQL join semantics, so a shared code
/// would wrongly make two NULLs compare equal. Kernels that consume codes
/// must special-case this value (the partition kernels give each NULL its
/// own singleton block).
inline constexpr uint32_t kNullCode = 0xFFFFFFFFu;

/// A per-column value dictionary: distinct non-NULL `Value`s mapped to dense
/// `uint32_t` codes in order of first appearance. Code equality is exactly
/// strict `Value::Equals` equality (type-sensitive), so once two columns'
/// codes are translated into one shared dictionary, tuple-level equality
/// tests become integer compares — the basis of the columnar ingest path.
class Dictionary {
 public:
  Dictionary() = default;

  /// Code of `value`, inserting it if unseen. Requires a non-NULL value.
  /// Insertion order is deterministic: codes are dense and first-come.
  uint32_t GetOrAdd(const Value& value);

  /// The value behind `code`. Requires code < size().
  const Value& value(uint32_t code) const { return values_[code]; }

  size_t size() const { return values_.size(); }

  /// Rough heap footprint (for the bench memory accounting).
  size_t ApproxBytes() const;

  /// Invariant audit (see util/check.h): codes are dense, no value is NULL,
  /// the code→value and value→code directions agree entry for entry, and
  /// NaN values (which never compare equal) stay out of the reverse map —
  /// one fresh code per occurrence. JIM_CHECK-fails on any violation.
  void CheckInvariants() const;

 private:
  std::unordered_map<Value, uint32_t, ValueHash> code_of_;
  std::vector<Value> values_;
};

/// One dictionary-encoded column: a code per row (kNullCode for NULL) plus
/// the dictionary that decodes them.
struct EncodedColumn {
  Dictionary dictionary;
  std::vector<uint32_t> codes;

  size_t ApproxBytes() const {
    return codes.capacity() * sizeof(uint32_t) + dictionary.ApproxBytes();
  }
};

/// Encodes one column of `relation`.
EncodedColumn EncodeColumn(const Relation& relation, size_t column);

/// Rows below this, parallel encoding falls back to the serial path (chunk
/// bookkeeping would cost more than the hashing it splits).
inline constexpr size_t kParallelIngestMinRows = 2048;

/// Parallel variant: ParallelFor chunks encode into per-chunk dictionaries,
/// then a serial in-chunk-order merge (MergeChunkDictionaries) renumbers
/// into the final first-occurrence code space and a second ParallelFor
/// rewrites the chunk-local codes. Codes and dictionary order are
/// bitwise-identical to the serial path at any thread count — including the
/// fresh-code-per-occurrence NaN discipline — because chunk boundaries
/// partition the row order and the merge walks chunks in that order.
/// nullptr / 1-thread pools and small columns take the serial path.
EncodedColumn EncodeColumn(const Relation& relation, size_t column,
                           exec::ThreadPool* pool);

/// Folds per-chunk dictionaries (chunk order = row order) into `target` by
/// first occurrence, returning for each chunk the local → merged code remap.
/// The deterministic-merge half of every parallel ingest path.
std::vector<std::vector<uint32_t>> MergeChunkDictionaries(
    const std::vector<Dictionary>& chunks, Dictionary& target);

/// The columnar, dictionary-encoded mirror of a Relation — built once at
/// relation load / catalog registration time (see Catalog::GetEncoded) and
/// shared by every universal table the relation participates in. Codes are
/// column-local; cross-column comparisons go through a translation into a
/// shared dictionary (see query::UniversalTable).
class EncodedRelation {
 public:
  /// Encodes every column through EncodeColumn(…, pool): nullptr encodes
  /// serially, and the mirror is bitwise-identical at any thread count.
  static EncodedRelation FromRelation(const Relation& relation,
                                      exec::ThreadPool* pool);

  size_t num_columns() const { return columns_.size(); }
  const EncodedColumn& column(size_t c) const { return columns_[c]; }
  uint32_t code(size_t row, size_t c) const { return columns_[c].codes[row]; }

  size_t ApproxBytes() const;

 private:
  std::vector<EncodedColumn> columns_;
};

}  // namespace jim::rel

#endif  // JIM_RELATIONAL_DICTIONARY_H_
