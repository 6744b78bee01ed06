// The JIMS checkpoint codec (serve/checkpoint.h): a checkpoint round trips
// from a buffer at any alignment, every single-byte flip and every
// truncation of an encoded checkpoint is rejected as kInvalidArgument, and a
// file of another version fails on its version before its checksum is read.
// No case pins a checksum value; the hand-built version-1 file computes its
// own.

#include <cstdint>
#include <string>
#include <string_view>

#include "gtest/gtest.h"
#include "serve/checkpoint.h"
#include "storage/format.h"
#include "util/status.h"

namespace jim::serve {
namespace {

SessionCheckpoint LabeledCheckpoint() {
  SessionCheckpoint checkpoint;
  checkpoint.session_id = "s12";
  checkpoint.instance = "travel.jimc";
  checkpoint.strategy = "lookahead-entropy";
  checkpoint.goal = "To=City";
  checkpoint.seed = 7;
  checkpoint.max_steps = 4096;
  checkpoint.steps = {{3, 3, 17, 1}, {kNoSuggestion, 5, 40, 0}, {0, 0, 0, 1}};
  return checkpoint;
}

void ExpectRejected(std::string_view bytes, const std::string& what) {
  const auto decoded = DecodeCheckpoint(bytes, "test checkpoint");
  ASSERT_FALSE(decoded.ok()) << what << ": accepted";
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kInvalidArgument)
      << what << ": " << decoded.status();
}

TEST(CheckpointCodecTest, RoundTripsAtAnyBufferAlignment) {
  const SessionCheckpoint checkpoint = LabeledCheckpoint();
  const std::string encoded = EncodeCheckpoint(checkpoint);
  for (size_t shift = 0; shift < 8; ++shift) {
    const std::string buffer = std::string(shift, '\0') + encoded;
    const auto decoded = DecodeCheckpoint(
        std::string_view(buffer).substr(shift), "shifted checkpoint");
    ASSERT_TRUE(decoded.ok()) << "shift " << shift << ": "
                              << decoded.status();
    EXPECT_EQ(decoded->session_id, checkpoint.session_id);
    EXPECT_EQ(decoded->goal, checkpoint.goal);
    EXPECT_EQ(decoded->steps.size(), checkpoint.steps.size());
    EXPECT_EQ(EncodeCheckpoint(*decoded), encoded);
  }
}

TEST(CheckpointCodecTest, EveryFlippedByteIsRejected) {
  const std::string encoded = EncodeCheckpoint(LabeledCheckpoint());
  for (size_t at = 0; at < encoded.size(); ++at) {
    std::string flipped = encoded;
    flipped[at] = static_cast<char>(~flipped[at]);
    ExpectRejected(flipped, "byte " + std::to_string(at) + " flipped");
  }
}

TEST(CheckpointCodecTest, EveryTruncationIsRejected) {
  const std::string encoded = EncodeCheckpoint(LabeledCheckpoint());
  for (size_t size = 0; size < encoded.size(); ++size) {
    ExpectRejected(std::string_view(encoded).substr(0, size),
                   "truncated to " + std::to_string(size) + " bytes");
  }
}

TEST(CheckpointCodecTest, VersionOneFailsAsUnsupported) {
  // A version-1 file as that version wrote it: the same fields, then a
  // byte-wise FNV-1a 64 over them.
  std::string bytes;
  storage::AppendU32(bytes, kCheckpointMagic);
  storage::AppendU32(bytes, 1);
  for (const char* field : {"s1", "travel.jimc", "random", ""}) {
    storage::AppendLengthPrefixed(bytes, field);
  }
  storage::AppendU64(bytes, 1);     // seed
  storage::AppendU64(bytes, 4096);  // max_steps
  storage::AppendU32(bytes, 0);     // steps
  uint64_t fnv = 14695981039346656037ull;
  for (const char byte : bytes) {
    fnv = (fnv ^ static_cast<uint8_t>(byte)) * 1099511628211ull;
  }
  storage::AppendU64(bytes, fnv);

  const auto decoded = DecodeCheckpoint(bytes, "v1 checkpoint");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find(
                "unsupported checkpoint version 1"),
            std::string::npos)
      << decoded.status();
}

}  // namespace
}  // namespace jim::serve
