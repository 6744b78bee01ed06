#ifndef JIM_STORAGE_MAPPED_STORE_H_
#define JIM_STORAGE_MAPPED_STORE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/tuple_store.h"
#include "storage/env.h"
#include "util/status.h"

namespace jim::storage {

/// How to open a JIMC file.
struct OpenOptions {
  /// Filesystem to read through (nullptr → DefaultEnv()).
  Env* env = nullptr;
};

/// A TupleStore served straight from an mmap'd JIMC file (see
/// storage/format.h): `code()` / `TupleCodes()` / `ColumnCodes()` read
/// straight from the mapped per-column code arrays (ColumnCodes is one
/// memcpy), and `DecodeValue()` parses the value record out of the mapped
/// dictionary pages on demand — no Value ever materializes before someone
/// asks for it. An engine built over a mapped
/// store therefore starts in O(sections + distinct values) work after one
/// sequential validation pass, not the O(N·n) hash-heavy ingest of the
/// in-memory path, and any number of sessions (BatchSessionRunner fan-outs
/// included) share one read-only mapping.
///
/// Open is strict: magic, version, header/section bounds, truncation,
/// per-section checksums, dictionary-page structure, and code ranges are all
/// verified before the first access, and every failure is a typed
/// util::Status naming the offending section — corrupt input can never reach
/// undefined behavior. The validation pass reads the file once (a code
/// array's checksum also bounds its codes); it is still far cheaper than
/// re-encoding (no hashing, no allocation per cell).
class MappedTupleStore final : public core::TupleStore {
 public:
  /// Maps and validates `path` through `env` (nullptr → DefaultEnv()).
  /// Errors: kNotFound for a missing file, kInvalidArgument for anything
  /// malformed (wrong magic/version, bounds, truncation, checksum mismatch,
  /// out-of-range codes, empty file), kUnimplemented on big-endian hosts.
  ///
  /// Graceful degradation: when the env refuses or fails the mapping for
  /// any reason other than those verdicts (no mmap on this host, injected
  /// refusal, transient failure), Open logs the downgrade and falls back to
  /// a heap copy with identical read semantics — zero_copy() then reports
  /// false.
  static util::StatusOr<std::shared_ptr<const MappedTupleStore>> Open(
      const std::string& path, Env* env = nullptr);

  ~MappedTupleStore() override = default;
  MappedTupleStore(const MappedTupleStore&) = delete;
  MappedTupleStore& operator=(const MappedTupleStore&) = delete;

  const std::string& name() const override { return name_; }
  const rel::Schema& schema() const override { return schema_; }
  size_t num_tuples() const override { return num_tuples_; }
  uint32_t code(size_t t, size_t a) const override {
    return column_codes_[a][t];
  }
  void TupleCodes(size_t t, uint32_t* out) const override {
    const size_t n = column_codes_.size();
    for (size_t a = 0; a < n; ++a) out[a] = column_codes_[a][t];
  }
  void ColumnCodes(size_t a, size_t first, size_t count,
                   uint32_t* out) const override {
    std::memcpy(out, column_codes_[a] + first, count * sizeof(uint32_t));
  }
  rel::Value DecodeValue(size_t t, size_t a) const override;

  /// Resident bytes: the open-time index structures only — the mapped file
  /// is shared, read-only page cache, not a per-store copy. The scalability
  /// bench reports file_bytes() next to this to show the split.
  size_t ApproxBytes() const override;

  /// Invariant audit (see util/check.h): the open-time index structures are
  /// coherent with the mapping — one code array per attribute, every mapped
  /// code inside the shared dictionary (or kNullCode), every dictionary
  /// offset inside the file, and every shared code decodable. Open already
  /// validated the bytes once; this re-derives the index-side contract, so
  /// tests can pin that validation and indexing never drift apart.
  /// O(N·n) integer reads + O(distinct) decodes.
  void CheckInvariants() const;

  /// Total size of the backing file.
  size_t file_bytes() const { return size_; }
  /// Distinct non-NULL values in the file's shared dictionary.
  size_t shared_dictionary_size() const { return value_offsets_.size(); }
  /// True when the bytes are served from an actual mapping (shared page
  /// cache); false on the graceful-degradation heap fallback.
  bool zero_copy() const { return region_->zero_copy(); }

 private:
  MappedTupleStore() = default;

  util::Status Parse();

  std::string path_;
  /// Owns the bytes: an mmap region or its heap-copy fallback. `data_` /
  /// `size_` cache region_->data()/size() for the hot read paths.
  std::unique_ptr<ReadRegion> region_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;

  std::string name_;
  rel::Schema schema_;
  size_t num_tuples_ = 0;
  /// Per attribute, the mapped code array (shared codes, kNullCode = NULL).
  std::vector<const uint32_t*> column_codes_;
  /// Shared code → absolute file offset of its value record, filled from the
  /// dictionary pages at open time (O(distinct values), the only index a
  /// lazy decode needs).
  std::vector<uint64_t> value_offsets_;
};

/// Opens `path` behind the TupleStore seam (the store factory the engine and
/// CLI consume).
util::StatusOr<std::shared_ptr<const core::TupleStore>> OpenStore(
    const std::string& path, Env* env = nullptr);

/// As above, with explicit options.
util::StatusOr<std::shared_ptr<const core::TupleStore>> OpenStore(
    const std::string& path, const OpenOptions& options);

}  // namespace jim::storage

#endif  // JIM_STORAGE_MAPPED_STORE_H_
