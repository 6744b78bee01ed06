// Trusted-reopen mode of MappedTupleStore::Open: the warm-restart path a
// serving daemon uses for files it already validated in a previous life.
// Trusted mode skips the per-section checksum pass and the per-cell
// code-range scan but keeps every structural check, so:
//   - on an intact file it is read-for-read identical to a full open;
//   - a scribbled checksum is rejected by the default full open and
//     accepted by trusted (the bytes it guards are untouched);
//   - an out-of-range code (checksum recomputed to hide it) is rejected
//     typed by the full open, while under trusted it opens and the
//     DecodeValue JIM_CHECK backstop catches the access — corrupt data
//     still cannot decode silently;
//   - structural damage (magic, truncation) fails typed in BOTH modes.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/tuple_store.h"
#include "gtest/gtest.h"
#include "storage/env.h"
#include "storage/format.h"
#include "storage/mapped_store.h"
#include "storage/store_writer.h"
#include "util/status.h"
#include "workload/travel.h"

namespace jim::storage {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "trusted_reopen_" + name + ".jimc";
}

std::string WriteFigure1(const std::string& tag) {
  const std::string path = TestPath(tag);
  EXPECT_TRUE(WriteStore(*workload::Figure1StorePtr(), path).ok());
  return path;
}

std::string ReadAll(const std::string& path) {
  auto contents = DefaultEnv()->ReadFileToString(path);
  EXPECT_TRUE(contents.ok()) << contents.status();
  return contents.ok() ? *contents : std::string();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  ASSERT_TRUE(WriteFileAtomically(*DefaultEnv(), path, bytes).ok());
}

struct Section {
  uint32_t id = 0;
  uint32_t column = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  size_t entry_offset = 0;  ///< of this entry in the section table
};

/// Minimal section-table walk (the test's own view of the format, so it
/// can corrupt surgically).
std::vector<Section> ReadSections(const std::string& bytes) {
  uint32_t num_sections = 0;
  std::memcpy(&num_sections, bytes.data() + 20, sizeof(num_sections));
  std::vector<Section> sections(num_sections);
  for (uint32_t s = 0; s < num_sections; ++s) {
    const size_t at = kHeaderBytes + s * kSectionEntryBytes;
    std::memcpy(&sections[s].id, bytes.data() + at, 4);
    std::memcpy(&sections[s].column, bytes.data() + at + 4, 4);
    std::memcpy(&sections[s].offset, bytes.data() + at + 8, 8);
    std::memcpy(&sections[s].length, bytes.data() + at + 16, 8);
    sections[s].entry_offset = at;
  }
  return sections;
}

OpenOptions Trusted() {
  OpenOptions options;
  options.trusted = true;
  return options;
}

TEST(TrustedReopenTest, IntactFileReadsIdentically) {
  const std::string path = WriteFigure1("parity");
  auto full = MappedTupleStore::Open(path);
  auto trusted = MappedTupleStore::Open(path, Trusted());
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(trusted.ok()) << trusted.status();

  EXPECT_EQ((*full)->name(), (*trusted)->name());
  ASSERT_EQ((*full)->num_tuples(), (*trusted)->num_tuples());
  ASSERT_EQ((*full)->num_attributes(), (*trusted)->num_attributes());
  EXPECT_EQ((*full)->shared_dictionary_size(),
            (*trusted)->shared_dictionary_size());
  for (size_t t = 0; t < (*full)->num_tuples(); ++t) {
    for (size_t a = 0; a < (*full)->num_attributes(); ++a) {
      EXPECT_EQ((*full)->code(t, a), (*trusted)->code(t, a));
      EXPECT_EQ((*full)->DecodeValue(t, a).ToString(),
                (*trusted)->DecodeValue(t, a).ToString());
    }
  }
  (*trusted)->CheckInvariants();
}

TEST(TrustedReopenTest, ScribbledChecksumOnlyFailsTheFullOpen) {
  const std::string path = WriteFigure1("checksum");
  std::string bytes = ReadAll(path);
  // Flip a bit of the first section's *stored checksum* — data untouched.
  bytes[kHeaderBytes + 24] ^= 0x01;
  WriteAll(path, bytes);

  auto full = MappedTupleStore::Open(path);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(full.status().message().find("checksum mismatch"),
            std::string::npos)
      << full.status();

  auto trusted = MappedTupleStore::Open(path, Trusted());
  ASSERT_TRUE(trusted.ok()) << trusted.status();
  EXPECT_GT((*trusted)->num_tuples(), 0u);
  (*trusted)->CheckInvariants();
}

TEST(TrustedReopenTest, OutOfRangeCodeRejectedFullCheckedTrusted) {
  const std::string path = WriteFigure1("badcode");
  std::string bytes = ReadAll(path);
  const auto sections = ReadSections(bytes);
  const Section* codes = nullptr;
  for (const Section& section : sections) {
    if (section.id == static_cast<uint32_t>(SectionId::kCodes)) {
      codes = &section;
      break;
    }
  }
  ASSERT_NE(codes, nullptr);
  // Patch the first code of the first code array out of range, then
  // recompute the section checksum so only the range scan can see it.
  const uint32_t evil = 0x7FFFFFFFu;
  std::memcpy(bytes.data() + codes->offset, &evil, sizeof(evil));
  const uint64_t checksum = Checksum(
      reinterpret_cast<const uint8_t*>(bytes.data()) + codes->offset,
      static_cast<size_t>(codes->length));
  std::memcpy(bytes.data() + codes->entry_offset + 24, &checksum,
              sizeof(checksum));
  WriteAll(path, bytes);

  // Full validation still rejects, typed, naming the range violation.
  auto full = MappedTupleStore::Open(path);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(full.status().message().find("outside the shared dictionary"),
            std::string::npos)
      << full.status();

  // Trusted opens — and the decode backstop catches the poisoned cell.
  auto trusted = MappedTupleStore::Open(path, Trusted());
  ASSERT_TRUE(trusted.ok()) << trusted.status();
  const auto& store = **trusted;
  EXPECT_EQ(store.code(0, 0), evil);
  EXPECT_DEATH(store.DecodeValue(0, 0), "");
  // Unpoisoned cells still decode.
  EXPECT_FALSE(store.DecodeValue(1, 0).ToString().empty());
}

TEST(TrustedReopenTest, StructuralDamageFailsBothModes) {
  {
    const std::string path = WriteFigure1("magic");
    std::string bytes = ReadAll(path);
    bytes[0] ^= 0xFF;
    WriteAll(path, bytes);
    EXPECT_FALSE(MappedTupleStore::Open(path).ok());
    auto trusted = MappedTupleStore::Open(path, Trusted());
    ASSERT_FALSE(trusted.ok());
    EXPECT_EQ(trusted.status().code(), util::StatusCode::kInvalidArgument);
  }
  {
    const std::string path = WriteFigure1("truncated");
    std::string bytes = ReadAll(path);
    bytes.resize(bytes.size() / 2);
    WriteAll(path, bytes);
    EXPECT_FALSE(MappedTupleStore::Open(path).ok());
    auto trusted = MappedTupleStore::Open(path, Trusted());
    ASSERT_FALSE(trusted.ok());
    EXPECT_EQ(trusted.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(TrustedReopenTest, OpenStoreOverloadHonorsOptions) {
  const std::string path = WriteFigure1("factory");
  std::string bytes = ReadAll(path);
  bytes[kHeaderBytes + 24] ^= 0x01;  // scribble a stored checksum
  WriteAll(path, bytes);
  EXPECT_FALSE(OpenStore(path).ok());
  auto trusted = OpenStore(path, Trusted());
  ASSERT_TRUE(trusted.ok()) << trusted.status();
  EXPECT_GT((*trusted)->num_tuples(), 0u);
}

}  // namespace
}  // namespace jim::storage
