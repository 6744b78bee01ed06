#ifndef JIM_STORAGE_STORE_WRITER_H_
#define JIM_STORAGE_STORE_WRITER_H_

#include <cstddef>
#include <string>

#include "core/tuple_store.h"
#include "storage/env.h"
#include "util/status.h"

namespace jim::storage {

/// Options for WriteStore.
struct StoreWriterOptions {
  /// Overrides the persisted store name (empty keeps store.name()).
  std::string name;
  /// Filesystem to write through (nullptr → DefaultEnv()).
  Env* env = nullptr;
  /// Transient I/O errors (Status kUnavailable — EINTR/EAGAIN-class) retry
  /// the whole atomic write up to max_attempts times with exponential
  /// backoff through the env's injectable clock.
  RetryPolicy retry;
};

/// Serializes `store` (any TupleStore — in-memory, factorized, mapped) into
/// a JIMC file at `path`, atomically: the bytes are staged in `path`.tmp and
/// renamed over the target only after a successful flush, so a crashed or
/// failed write never leaves a half-written file under the final name.
///
/// The file keeps the store's factorization (TupleStore::Factors): each
/// factor's rows are read once, as tuple r · stride, and written as that
/// factor's code arrays, so a dense universal table is written as its
/// sources' kept rows and never as the product.
///
/// The file's shared-dictionary code space is a dense renumbering of the
/// codes the store actually uses (first occurrence wins, factor by factor,
/// rows in order), so the file is self-contained: equality structure — the
/// only thing the inference engine consumes — is preserved exactly,
/// including NULL sentinels and the one-fresh-code-per-occurrence NaN
/// discipline. Values are decoded from the source store once per distinct
/// code.
///
/// Writer memory is O(distinct codes + Σ factor rows × attributes × 4 B):
/// the factors' code arrays are staged before writing. That is the
/// sources' cells for a dense join, and the whole code matrix for a
/// one-factor store.
util::Status WriteStore(const core::TupleStore& store, const std::string& path,
                        const StoreWriterOptions& options = {});

}  // namespace jim::storage

#endif  // JIM_STORAGE_STORE_WRITER_H_
