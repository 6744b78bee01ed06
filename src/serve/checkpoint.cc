#include "serve/checkpoint.h"

#include "storage/format.h"
#include "util/string_util.h"

namespace jim::serve {

std::string EncodeCheckpoint(const SessionCheckpoint& checkpoint) {
  std::string out;
  storage::AppendU32(out, kCheckpointMagic);
  storage::AppendU32(out, kCheckpointVersion);
  storage::AppendLengthPrefixed(out, checkpoint.session_id);
  storage::AppendLengthPrefixed(out, checkpoint.instance);
  storage::AppendLengthPrefixed(out, checkpoint.strategy);
  storage::AppendLengthPrefixed(out, checkpoint.goal);
  storage::AppendU64(out, checkpoint.seed);
  storage::AppendU64(out, checkpoint.max_steps);
  storage::AppendU32(out, static_cast<uint32_t>(checkpoint.steps.size()));
  for (const CheckpointStep& step : checkpoint.steps) {
    storage::AppendU32(out, step.suggested_class);
    storage::AppendU32(out, step.class_id);
    storage::AppendU32(out, step.tuple_index);
    storage::AppendU8(out, step.answer);
  }
  storage::AppendU64(out, storage::Checksum(out.data(), out.size()));
  return out;
}

util::StatusOr<SessionCheckpoint> DecodeCheckpoint(std::string_view bytes,
                                                   const std::string& context) {
  const auto* data = reinterpret_cast<const uint8_t*>(bytes.data());
  // Magic and version come before the checksum: a file of another version
  // may checksum differently, and must fail as unsupported, not as corrupt.
  storage::ByteReader header(data, bytes.size(), context);
  ASSIGN_OR_RETURN(uint32_t magic, header.ReadU32());
  if (magic != kCheckpointMagic) {
    return util::InvalidArgumentError(
        util::StrFormat("%s: not a JIMS checkpoint (bad magic)",
                        context.c_str()));
  }
  ASSIGN_OR_RETURN(uint32_t version, header.ReadU32());
  if (version != kCheckpointVersion) {
    return util::InvalidArgumentError(
        util::StrFormat("%s: unsupported checkpoint version %u",
                        context.c_str(), version));
  }
  if (header.remaining() < sizeof(uint64_t)) {
    return util::InvalidArgumentError(
        util::StrFormat("%s: checkpoint too short (%zu bytes)",
                        context.c_str(), bytes.size()));
  }
  const size_t body_size = bytes.size() - sizeof(uint64_t);
  storage::ByteReader trailer(data + body_size, sizeof(uint64_t), context);
  ASSIGN_OR_RETURN(uint64_t stored_checksum, trailer.ReadU64());
  if (stored_checksum != storage::Checksum(data, body_size)) {
    return util::InvalidArgumentError(
        util::StrFormat("%s: checkpoint checksum mismatch", context.c_str()));
  }
  storage::ByteReader reader(data + header.position(),
                            body_size - header.position(), context);
  SessionCheckpoint checkpoint;
  ASSIGN_OR_RETURN(checkpoint.session_id, reader.ReadLengthPrefixed());
  ASSIGN_OR_RETURN(checkpoint.instance, reader.ReadLengthPrefixed());
  ASSIGN_OR_RETURN(checkpoint.strategy, reader.ReadLengthPrefixed());
  ASSIGN_OR_RETURN(checkpoint.goal, reader.ReadLengthPrefixed());
  ASSIGN_OR_RETURN(checkpoint.seed, reader.ReadU64());
  ASSIGN_OR_RETURN(checkpoint.max_steps, reader.ReadU64());
  ASSIGN_OR_RETURN(uint32_t num_steps, reader.ReadU32());
  // 13 bytes per step; bound before reserving so a corrupt count cannot
  // drive a huge allocation (the checksum above already makes this
  // unreachable for bit rot, but not for a hand-built file).
  if (static_cast<uint64_t>(num_steps) * 13 > reader.remaining()) {
    return util::InvalidArgumentError(
        util::StrFormat("%s: step count %u exceeds checkpoint size",
                        context.c_str(), num_steps));
  }
  checkpoint.steps.reserve(num_steps);
  for (uint32_t i = 0; i < num_steps; ++i) {
    CheckpointStep step;
    ASSIGN_OR_RETURN(step.suggested_class, reader.ReadU32());
    ASSIGN_OR_RETURN(step.class_id, reader.ReadU32());
    ASSIGN_OR_RETURN(step.tuple_index, reader.ReadU32());
    ASSIGN_OR_RETURN(step.answer, reader.ReadU8());
    checkpoint.steps.push_back(step);
  }
  if (reader.remaining() != 0) {
    return util::InvalidArgumentError(util::StrFormat(
        "%s: %zu trailing bytes after checkpoint steps", context.c_str(),
        reader.remaining()));
  }
  return checkpoint;
}

std::string CheckpointFileName(const std::string& session_id) {
  return "session_" + session_id + ".jims";
}

util::Status WriteCheckpoint(storage::Env& env, const std::string& dir,
                             const SessionCheckpoint& checkpoint,
                             const storage::RetryPolicy& retry) {
  std::string path = dir + "/" + CheckpointFileName(checkpoint.session_id);
  std::string bytes = EncodeCheckpoint(checkpoint);
  return storage::RetryWithBackoff(env, retry, [&] {
    return storage::WriteFileAtomically(env, path, bytes);
  });
}

util::StatusOr<SessionCheckpoint> ReadCheckpoint(storage::Env& env,
                                                 const std::string& path) {
  ASSIGN_OR_RETURN(std::string bytes, env.ReadFileToString(path));
  return DecodeCheckpoint(bytes, path);
}

}  // namespace jim::serve
