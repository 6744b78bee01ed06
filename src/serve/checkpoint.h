#ifndef JIM_SERVE_CHECKPOINT_H_
#define JIM_SERVE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "storage/env.h"
#include "util/status.h"

namespace jim::serve {

/// Durable record of one live session: its immutable configuration plus the
/// accepted-label transcript so far. A restarted daemon rebuilds the exact
/// in-memory session — engine state *and* strategy RNG state — by replaying
/// the transcript against a fresh engine clone: for every step that was
/// preceded by a `suggest`, the strategy's PickClass is re-driven exactly
/// once (and must reproduce `suggested_class`, else the checkpoint is
/// rejected as diverged), so the remaining transcript after recovery is
/// byte-identical to an uninterrupted run.
///
/// On-disk format (`session_<id>.jims`, little-endian, storage/format.h
/// primitives): magic "JIMS", version, length-prefixed session id /
/// instance / strategy / goal, seed, max_steps, step count, steps, then a
/// trailing storage::Checksum over everything before it. Files are written
/// with the storage tier's atomic-persist recipe, so a crash mid-checkpoint
/// leaves either the previous transcript or the new one — never a torn file.
///
/// Version 2 replaced version 1's byte-wise FNV-1a trailer with
/// storage::Checksum. There is no version-1 reader: the decoder reads magic
/// and version before the checksum, so an old file fails as an unsupported
/// version, not as a corrupt one.
inline constexpr uint32_t kCheckpointMagic = 0x534D494Au;  // "JIMS"
inline constexpr uint32_t kCheckpointVersion = 2;

/// `suggested_class` sentinel for a label that was not preceded by a
/// suggest on the same step (mode-1 style direct labeling).
inline constexpr uint32_t kNoSuggestion = 0xFFFFFFFFu;

struct CheckpointStep {
  uint32_t suggested_class = kNoSuggestion;
  uint32_t class_id = 0;
  uint32_t tuple_index = 0;  ///< representative tuple shown to the user
  uint8_t answer = 0;        ///< 1 = positive, 0 = negative
};

struct SessionCheckpoint {
  std::string session_id;
  std::string instance;  ///< instance name/path as passed to `create`
  std::string strategy;
  std::string goal;  ///< optional reference goal ("" = none)
  uint64_t seed = 1;
  uint64_t max_steps = 0;
  std::vector<CheckpointStep> steps;
};

std::string EncodeCheckpoint(const SessionCheckpoint& checkpoint);

/// Decodes and verifies (magic and version first, then the trailing
/// checksum, then the fields and the exact length).
/// kInvalidArgument with `context` named on any mismatch.
util::StatusOr<SessionCheckpoint> DecodeCheckpoint(std::string_view bytes,
                                                   const std::string& context);

/// "session_<id>.jims". Session ids are [A-Za-z0-9_-]+ by construction
/// (SessionManager mints "s<counter>"), so the name is filesystem-safe.
std::string CheckpointFileName(const std::string& session_id);

/// Atomically persists `checkpoint` under `dir`, retrying transient I/O
/// errors per `retry`.
util::Status WriteCheckpoint(storage::Env& env, const std::string& dir,
                             const SessionCheckpoint& checkpoint,
                             const storage::RetryPolicy& retry);

/// Reads and decodes one checkpoint file.
util::StatusOr<SessionCheckpoint> ReadCheckpoint(storage::Env& env,
                                                 const std::string& path);

}  // namespace jim::serve

#endif  // JIM_SERVE_CHECKPOINT_H_
