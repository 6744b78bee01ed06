// The JIMC on-disk format: write → map round trips preserve everything the
// TupleStore contract promises, and every validation branch of
// MappedTupleStore::Open turns corruption into a typed error (the ASAN stage
// runs this suite, so "no UB on corrupt input" is machine-checked too).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/tuple_store.h"
#include "query/universal_table.h"
#include "relational/dictionary.h"
#include "relational/relation.h"
#include "storage/format.h"
#include "storage/mapped_store.h"
#include "storage/store_writer.h"
#include "support/equality.h"
#include "util/status.h"
#include "util/string_util.h"
#include "workload/travel.h"

namespace jim::storage {
namespace {

using rel::Value;

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "jimc_format_" + name + ".jimc";
}

/// A relation hitting every value shape: all three types, NULLs, NaN,
/// duplicate values across columns, empty and separator-embedding strings.
std::shared_ptr<const rel::Relation> MixedRelation() {
  rel::Schema schema;
  schema.AddAttribute({"i", rel::ValueType::kInt64, ""});
  schema.AddAttribute({"d", rel::ValueType::kDouble, ""});
  schema.AddAttribute({"s", rel::ValueType::kString, "Q"});
  schema.AddAttribute({"t", rel::ValueType::kString, ""});
  rel::Relation relation{"mixed", schema};
  relation.AddRowUnchecked(
      {Value(int64_t{7}), Value(1.5), Value("x"), Value("x")});
  relation.AddRowUnchecked({Value(int64_t{7}), Value(std::nan("")),
                            Value(""), Value("a,b\tc")});
  relation.AddRowUnchecked({Value::Null(), Value(std::nan("")),
                            Value("x"), Value::Null()});
  relation.AddRowUnchecked({Value(int64_t{-3}), Value(1.5),
                            Value("a,b\tc"), Value("x")});
  return std::make_shared<const rel::Relation>(std::move(relation));
}

TEST(JimcFormatTest, RoundTripPreservesContract) {
  const auto relation = MixedRelation();
  const auto original = core::MakeRelationStore(relation);
  const std::string path = TestPath("round_trip");
  ASSERT_TRUE(WriteStore(*original, path).ok());

  const auto opened = MappedTupleStore::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  const auto& mapped = **opened;
  EXPECT_EQ(mapped.name(), "mixed");
  EXPECT_TRUE(mapped.schema() == original->schema());
  ASSERT_EQ(mapped.num_tuples(), original->num_tuples());
  ASSERT_EQ(mapped.num_attributes(), original->num_attributes());

  const size_t n = original->num_tuples();
  const size_t columns = original->num_attributes();
  for (size_t t = 0; t < n; ++t) {
    for (size_t a = 0; a < columns; ++a) {
      const Value original_value = original->DecodeValue(t, a);
      const Value mapped_value = mapped.DecodeValue(t, a);
      EXPECT_EQ(original_value.is_null(), mapped_value.is_null());
      EXPECT_EQ(original_value.type(), mapped_value.type());
      if (!original_value.is_null()) {
        // NaN never Equals; compare renderings instead (bit pattern holds).
        EXPECT_EQ(original_value.ToString(), mapped_value.ToString())
            << "cell (" << t << ", " << a << ")";
      }
      EXPECT_EQ(mapped.code(t, a) == rel::kNullCode,
                original->code(t, a) == rel::kNullCode);
    }
  }
  // Codes are renumbered, but the equality *pattern* — all the engine reads
  // — must match cell for cell.
  std::vector<uint32_t> original_row(columns), mapped_row(columns);
  for (size_t t = 0; t < n; ++t) {
    mapped.TupleCodes(t, mapped_row.data());
    for (size_t a = 0; a < columns; ++a) {
      EXPECT_EQ(mapped_row[a], mapped.code(t, a));
    }
    for (size_t u = 0; u < n; ++u) {
      for (size_t a = 0; a < columns; ++a) {
        for (size_t b = 0; b < columns; ++b) {
          EXPECT_EQ(original->code(t, a) == original->code(u, b),
                    mapped.code(t, a) == mapped.code(u, b))
              << "(" << t << "," << a << ") vs (" << u << "," << b << ")";
        }
      }
    }
  }
  EXPECT_GT(mapped.file_bytes(), kHeaderBytes);
  EXPECT_GT(mapped.shared_dictionary_size(), 0u);
}

/// Figure 1's Flights × Hotels as a dense universal table: two factors
/// (4 flights × 3 hotels, 3 + 2 attributes).
std::shared_ptr<const core::TupleStore> TwoFactorStore() {
  return query::UniversalTable::Build(workload::TravelCatalog(),
                                      {"Flights", "Hotels"})
      .value()
      .store();
}

/// (first attribute, attributes, rows, stride) of each factor.
std::vector<std::vector<size_t>> FactorShapes(const core::TupleStore& store) {
  std::vector<std::vector<size_t>> shapes;
  for (const core::StoreFactor& f : store.Factors()) {
    shapes.push_back({f.first_attribute, f.num_attributes, f.rows, f.stride});
  }
  return shapes;
}

TEST(JimcFormatTest, EmptySliceRoundTrips) {
  // A zero-row relation with the full mixed schema: the file carries the
  // schema and no tuples.
  const auto empty = std::make_shared<const rel::Relation>(
      "empty", MixedRelation()->schema());
  const auto original = core::MakeRelationStore(empty);
  const std::string path = TestPath("empty");
  ASSERT_TRUE(WriteStore(*original, path).ok());
  const auto opened = MappedTupleStore::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ((*opened)->num_tuples(), 0u);
  EXPECT_EQ((*opened)->name(), "empty");
  EXPECT_TRUE((*opened)->schema() == original->schema());
}

// ---------------------------------------------------------------------------
// Corruption matrix. FileImage reads a valid file, mutates bytes, patches
// checksums where the mutation is *below* the checksum (so the deeper
// validation branch is the one that fires), and expects a typed error.
// ---------------------------------------------------------------------------

class FileImage {
 public:
  explicit FileImage(const std::string& path) : path_(path) {
    std::ifstream in(path, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }

  size_t size() const { return bytes_.size(); }

  uint32_t ReadU32(size_t offset) const {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[offset + i]))
           << (8 * i);
    }
    return v;
  }
  uint64_t ReadU64(size_t offset) const {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[offset + i]))
           << (8 * i);
    }
    return v;
  }
  void WriteU32(size_t offset, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_[offset + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  }
  void WriteU64(size_t offset, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_[offset + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  }
  uint8_t ReadByte(size_t offset) const {
    return static_cast<uint8_t>(bytes_[offset]);
  }
  void WriteByte(size_t offset, uint8_t v) {
    bytes_[offset] = static_cast<char>(v);
  }

  /// Byte offset of section-table entry `i`.
  size_t EntryOffset(size_t i) const {
    return kHeaderBytes + i * kSectionEntryBytes;
  }

  /// Index of the table entry matching (id, column); -1 if absent.
  int FindSection(SectionId id, uint32_t column) const {
    const size_t sections = ReadU32(20);
    for (size_t i = 0; i < sections; ++i) {
      const size_t entry = EntryOffset(i);
      if (ReadU32(entry) == static_cast<uint32_t>(id) &&
          ReadU32(entry + 4) == column) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  size_t SectionPayloadOffset(int i) const {
    return static_cast<size_t>(ReadU64(EntryOffset(static_cast<size_t>(i)) + 8));
  }
  size_t SectionLength(int i) const {
    return static_cast<size_t>(
        ReadU64(EntryOffset(static_cast<size_t>(i)) + 16));
  }

  /// Recomputes entry i's checksum from its (possibly mutated) payload.
  void FixChecksum(int i) { FixChecksumWith(i, Checksum); }

  /// As FixChecksum, with another checksum function.
  void FixChecksumWith(int i, uint64_t (*checksum)(const void*, size_t)) {
    WriteU64(EntryOffset(static_cast<size_t>(i)) + 24,
             checksum(bytes_.data() + SectionPayloadOffset(i),
                      SectionLength(i)));
  }

  void Truncate(size_t new_size) { bytes_.resize(new_size); }

  void Save() const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
  }

 private:
  std::string path_;
  std::vector<char> bytes_;
};

/// The version-1 section checksum: FNV-1a 64 one byte at a time.
uint64_t ByteWiseFnv1a64(const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) hash = (hash ^ bytes[i]) * 1099511628211ull;
  return hash;
}

/// Writes a fresh valid file of `store` (default: MixedRelation, one
/// factor), applies `mutate`, and asserts Open fails with kInvalidArgument
/// and a message containing `expect_substring`.
void ExpectCorruption(const std::string& tag,
                      const std::function<void(FileImage&)>& mutate,
                      const std::string& expect_substring,
                      std::shared_ptr<const core::TupleStore> store = nullptr) {
  const std::string path = TestPath("corrupt_" + tag);
  const auto original =
      store != nullptr ? store : core::MakeRelationStore(MixedRelation());
  ASSERT_TRUE(WriteStore(*original, path).ok());
  FileImage image(path);
  mutate(image);
  image.Save();
  const auto opened = MappedTupleStore::Open(path);
  ASSERT_FALSE(opened.ok()) << tag << ": corruption went undetected";
  EXPECT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument)
      << tag << ": " << opened.status();
  EXPECT_NE(opened.status().message().find(expect_substring),
            std::string::npos)
      << tag << ": got '" << opened.status().message() << "', expected it to "
      << "mention '" << expect_substring << "'";
}

TEST(JimcFormatTest, FactoredRoundTripKeepsTheFactorsAndNotTheProduct) {
  // A two-factor join and a three-factor self-join: the file holds one code
  // per factor row, serves every tuple's codes by digit, and decodes the
  // same values as the store it was written from.
  const rel::Catalog catalog = workload::TravelCatalog();
  for (const std::vector<std::string>& names :
       {std::vector<std::string>{"Flights", "Hotels"},
        std::vector<std::string>{"Hotels", "Hotels", "Hotels"}}) {
    const auto table = query::UniversalTable::Build(catalog, names).value();
    const core::TupleStore& original = *table.store();
    ASSERT_EQ(original.Factors().size(), names.size());
    const std::string path =
        TestPath("factored_" + std::to_string(names.size()));
    ASSERT_TRUE(WriteStore(original, path).ok());
    const auto opened = MappedTupleStore::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status();
    const MappedTupleStore& mapped = **opened;
    EXPECT_EQ(FactorShapes(mapped), FactorShapes(original));
    ASSERT_EQ(mapped.num_tuples(), original.num_tuples());
    (*opened)->CheckInvariants();
    core::CheckStoreInvariants(mapped);
    size_t factor_cells = 0;
    for (const core::StoreFactor& f : original.Factors()) {
      factor_cells += f.rows * f.num_attributes;
    }
    size_t code_bytes = 0;
    const FileImage image(path);
    for (uint32_t a = 0; a < original.num_attributes(); ++a) {
      code_bytes += image.SectionLength(image.FindSection(SectionId::kCodes, a));
    }
    EXPECT_EQ(code_bytes, factor_cells * sizeof(uint32_t));
    for (size_t t = 0; t < original.num_tuples(); ++t) {
      for (size_t a = 0; a < original.num_attributes(); ++a) {
        EXPECT_EQ(mapped.DecodeValue(t, a).ToString(),
                  original.DecodeValue(t, a).ToString())
            << "cell (" << t << ", " << a << ")";
        for (size_t b = 0; b < original.num_attributes(); ++b) {
          EXPECT_EQ(original.code(t, a) == original.code(t, b),
                    mapped.code(t, a) == mapped.code(t, b));
        }
      }
    }
  }
}

TEST(JimcCorruptionTest, MissingFileIsNotFound) {
  const auto opened = MappedTupleStore::Open(TestPath("never_written"));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), util::StatusCode::kNotFound);
}

TEST(JimcCorruptionTest, EmptyAndTinyFiles) {
  ExpectCorruption("tiny", [](FileImage& f) { f.Truncate(17); },
                   "smaller than");
}

TEST(JimcCorruptionTest, BadMagic) {
  ExpectCorruption("magic", [](FileImage& f) { f.WriteU32(0, 0xDEADBEEF); },
                   "bad magic");
}

TEST(JimcCorruptionTest, UnsupportedVersion) {
  ExpectCorruption("version", [](FileImage& f) { f.WriteU32(4, 99); },
                   "unsupported format version");
}

TEST(JimcCorruptionTest, VersionOneFileIsUnsupported) {
  // A well-formed version-1 file: its byte-wise FNV-1a section checksums
  // all hold, and it still fails on its version, not on a checksum.
  ExpectCorruption(
      "version_one",
      [](FileImage& f) {
        f.WriteU32(4, 1);
        for (int i = 0; i < static_cast<int>(f.ReadU32(20)); ++i) {
          f.FixChecksumWith(i, ByteWiseFnv1a64);
        }
      },
      "unsupported format version 1");
}

TEST(JimcCorruptionTest, TruncatedFile) {
  ExpectCorruption("truncated",
                   [](FileImage& f) { f.Truncate(f.size() - 1); },
                   "truncated or over-long");
}

TEST(JimcCorruptionTest, ZeroAttributes) {
  ExpectCorruption("zero_attrs", [](FileImage& f) { f.WriteU32(16, 0); },
                   "zero attributes");
}

TEST(JimcCorruptionTest, SectionCountMismatch) {
  ExpectCorruption("section_count", [](FileImage& f) { f.WriteU32(20, 3); },
                   "sections");
}

TEST(JimcCorruptionTest, AbsurdTupleCount) {
  // A count no uint32_t tuple id can address is refused from the header,
  // before any factor is read.
  ExpectCorruption("tuple_count",
                   [](FileImage& f) { f.WriteU64(8, ~uint64_t{0} / 2); },
                   "2^32 or more");
}

TEST(JimcCorruptionTest, DictionarySizeBeyondWhatPagesCouldDefine) {
  // The header is unchecksummed; a crafted shared_dict_size must be
  // rejected *before* the offset-table allocation it would size.
  ExpectCorruption("dict_size",
                   [](FileImage& f) {
                     f.WriteU64(24, f.size());  // passes the ≤ size_ check
                   },
                   "could define");
}

TEST(JimcCorruptionTest, SectionOutOfBounds) {
  ExpectCorruption("section_bounds",
                   [](FileImage& f) {
                     const int i = f.FindSection(SectionId::kName, kNoColumn);
                     ASSERT_GE(i, 0);
                     f.WriteU64(f.EntryOffset(static_cast<size_t>(i)) + 8,
                                f.size() + 8);
                   },
                   "falls outside");
}

TEST(JimcCorruptionTest, ChecksumMismatch) {
  ExpectCorruption("checksum",
                   [](FileImage& f) {
                     const int i = f.FindSection(SectionId::kCodes, 0);
                     ASSERT_GE(i, 0);
                     const size_t payload = f.SectionPayloadOffset(i);
                     f.WriteByte(payload, 0xAB);
                   },
                   "checksum mismatch");
  // The stored checksum scribbled instead, payload untouched: rejected the
  // same way, and through the OpenStore factory too.
  ExpectCorruption("stored_checksum",
                   [](FileImage& f) {
                     f.WriteByte(f.EntryOffset(0) + 24,
                                 f.ReadByte(f.EntryOffset(0) + 24) ^ 0x01);
                   },
                   "checksum mismatch");
  EXPECT_FALSE(OpenStore(TestPath("corrupt_stored_checksum")).ok());
}

TEST(JimcCorruptionTest, DuplicateSection) {
  // Retagging the name section as a second schema section trips the
  // duplicate check (section-table bytes are not under any checksum).
  ExpectCorruption("duplicate",
                   [](FileImage& f) {
                     const int i = f.FindSection(SectionId::kName, kNoColumn);
                     ASSERT_GE(i, 0);
                     f.WriteU32(f.EntryOffset(static_cast<size_t>(i)),
                                static_cast<uint32_t>(SectionId::kSchema));
                   },
                   "duplicate schema section");
}

TEST(JimcCorruptionTest, UnknownSectionId) {
  ExpectCorruption("unknown_id",
                   [](FileImage& f) {
                     const int i = f.FindSection(SectionId::kName, kNoColumn);
                     ASSERT_GE(i, 0);
                     f.WriteU32(f.EntryOffset(static_cast<size_t>(i)), 77);
                   },
                   "unknown section id");
}

TEST(JimcCorruptionTest, ColumnIndexOutOfRange) {
  ExpectCorruption("column_range",
                   [](FileImage& f) {
                     const int i = f.FindSection(SectionId::kCodes, 1);
                     ASSERT_GE(i, 0);
                     f.WriteU32(f.EntryOffset(static_cast<size_t>(i)) + 4,
                                1000);
                   },
                   "names column");
}

TEST(JimcCorruptionTest, SchemaAttributeCountMismatch) {
  ExpectCorruption("schema_count",
                   [](FileImage& f) {
                     const int i =
                         f.FindSection(SectionId::kSchema, kNoColumn);
                     ASSERT_GE(i, 0);
                     f.WriteU32(f.SectionPayloadOffset(i), 2);
                     f.FixChecksum(i);
                   },
                   "header claims");
}

TEST(JimcCorruptionTest, DictionaryRemapOutOfRange) {
  ExpectCorruption("remap_range",
                   [](FileImage& f) {
                     const int i = f.FindSection(SectionId::kDictionary, 0);
                     ASSERT_GE(i, 0);
                     // First entry's shared code sits right after the count.
                     f.WriteU32(f.SectionPayloadOffset(i) + 4, 0xFFFFFF);
                     f.FixChecksum(i);
                   },
                   "shared code");
}

TEST(JimcCorruptionTest, DictionaryTrailingBytes) {
  ExpectCorruption("trailing",
                   [](FileImage& f) {
                     const int i = f.FindSection(SectionId::kDictionary, 0);
                     ASSERT_GE(i, 0);
                     const uint32_t entries =
                         f.ReadU32(f.SectionPayloadOffset(i));
                     ASSERT_GT(entries, 0u);
                     f.WriteU32(f.SectionPayloadOffset(i), entries - 1);
                     f.FixChecksum(i);
                   },
                   "trailing bytes");
}

TEST(JimcCorruptionTest, UnknownValueTag) {
  ExpectCorruption("value_tag",
                   [](FileImage& f) {
                     const int i = f.FindSection(SectionId::kDictionary, 0);
                     ASSERT_GE(i, 0);
                     // count u32, shared u32, then the first record's tag.
                     f.WriteByte(f.SectionPayloadOffset(i) + 8, 42);
                     f.FixChecksum(i);
                   },
                   "unknown value tag");
}

TEST(JimcCorruptionTest, StringLengthRunsPastSection) {
  ExpectCorruption(
      "string_length",
      [](FileImage& f) {
        // Column 2 ("s") is a string column; its first record is
        // count u32 | shared u32 | tag u8 | length u32 | bytes.
        const int i = f.FindSection(SectionId::kDictionary, 2);
        ASSERT_GE(i, 0);
        f.WriteU32(f.SectionPayloadOffset(i) + 9, 0x00FFFFFF);
        f.FixChecksum(i);
      },
      "truncated");
}

TEST(JimcCorruptionTest, CodeArrayWrongLength) {
  ExpectCorruption("codes_length",
                   [](FileImage& f) {
                     const int i = f.FindSection(SectionId::kCodes, 0);
                     ASSERT_GE(i, 0);
                     const size_t entry =
                         f.EntryOffset(static_cast<size_t>(i));
                     f.WriteU64(entry + 16, f.SectionLength(i) - 4);
                     f.FixChecksum(i);
                   },
                   "expected");
}

TEST(JimcCorruptionTest, CodeArrayMisaligned) {
  ExpectCorruption("codes_misaligned",
                   [](FileImage& f) {
                     const int i = f.FindSection(SectionId::kCodes, 0);
                     ASSERT_GE(i, 0);
                     const size_t entry =
                         f.EntryOffset(static_cast<size_t>(i));
                     f.WriteU64(entry + 8, f.SectionPayloadOffset(i) + 2);
                     f.FixChecksum(i);
                   },
                   "misaligned");
}

TEST(JimcCorruptionTest, CodeOutOfDictionaryRange) {
  ExpectCorruption("code_range",
                   [](FileImage& f) {
                     const int i = f.FindSection(SectionId::kCodes, 0);
                     ASSERT_GE(i, 0);
                     f.WriteU32(f.SectionPayloadOffset(i), 0x7FFFFFFF);
                     f.FixChecksum(i);
                   },
                   "outside the shared dictionary");
}

TEST(JimcCorruptionTest, CodeRangeEdgesAtEveryTuple) {
  // 37 tuples: each code array is two 64-byte blocks and a 20-byte tail,
  // so the range check is exercised in the blocks and in the tail. One code
  // at a time is set to a value at an edge of the shared dictionary and the
  // checksum re-fixed: dict_size, 0xFFFFFFFE and 0x7FFFFFFF are rejected
  // naming that very (column, tuple), while dict_size − 1 and kNullCode
  // are accepted.
  constexpr size_t kTuples = 37;
  rel::Relation relation{"edges", rel::Schema::FromNames({"a", "b"})};
  for (size_t t = 0; t < kTuples; ++t) {
    relation.AddRowUnchecked({Value(static_cast<int64_t>(t % 5)),
                              Value(static_cast<int64_t>(t % 3))});
  }
  const std::string path = TestPath("code_range_edges");
  ASSERT_TRUE(WriteStore(*core::MakeRelationStore(
                             std::make_shared<const rel::Relation>(
                                 std::move(relation))),
                         path)
                  .ok());
  const FileImage pristine(path);
  const uint64_t dict_size = pristine.ReadU64(24);
  ASSERT_GT(dict_size, 0u);
  const uint32_t dict = static_cast<uint32_t>(dict_size);
  for (uint32_t column : {0u, 1u}) {
    const int i = pristine.FindSection(SectionId::kCodes, column);
    ASSERT_GE(i, 0);
    ASSERT_EQ(pristine.SectionLength(i), kTuples * sizeof(uint32_t));
    for (size_t t = 0; t < kTuples; ++t) {
      const size_t cell = pristine.SectionPayloadOffset(i) + 4 * t;
      for (uint32_t code : {dict, 0xFFFFFFFEu, 0x7FFFFFFFu}) {
        FileImage image = pristine;
        image.WriteU32(cell, code);
        image.FixChecksum(i);
        image.Save();
        const auto opened = MappedTupleStore::Open(path);
        ASSERT_FALSE(opened.ok()) << "column " << column << " tuple " << t
                                  << " code " << code;
        EXPECT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument);
        const std::string expected = util::StrFormat(
            "code array %u row %zu holds code %u outside the shared "
            "dictionary of %llu entries",
            column, t, code, static_cast<unsigned long long>(dict_size));
        EXPECT_NE(opened.status().message().find(expected), std::string::npos)
            << "got '" << opened.status().message() << "', expected '"
            << expected << "'";
      }
      for (uint32_t code : {dict - 1, rel::kNullCode}) {
        FileImage image = pristine;
        image.WriteU32(cell, code);
        image.FixChecksum(i);
        image.Save();
        const auto opened = MappedTupleStore::Open(path);
        ASSERT_TRUE(opened.ok()) << "column " << column << " tuple " << t
                                 << " code " << code << ": "
                                 << opened.status();
        EXPECT_EQ((*opened)->code(t, column), code);
      }
    }
  }
}

TEST(JimcCorruptionTest, SharedCodeNeverDefined) {
  ExpectCorruption(
      "undefined_code",
      [](FileImage& f) {
        // Remap a column-0 dictionary entry onto shared code 0; whichever
        // code it used to define is now orphaned. MixedRelation has more
        // than one distinct value in column 0, so an orphan must exist.
        const int i = f.FindSection(SectionId::kDictionary, 0);
        ASSERT_GE(i, 0);
        const size_t payload = f.SectionPayloadOffset(i);
        const uint32_t entries = f.ReadU32(payload);
        ASSERT_GE(entries, 2u);
        // Entry 0 is {shared u32, tag u8 = int64, value u64}: 13 bytes.
        const uint32_t first = f.ReadU32(payload + 4);
        f.WriteU32(payload + 4 + 13, first);
        f.FixChecksum(i);
      },
      "never defined");
}

TEST(JimcCorruptionTest, EveryFlippedSectionByteIsRejected) {
  // Every byte of every section's payload, flipped one at a time: the
  // section checksum must catch each one (none is re-fixed).
  const std::string path = TestPath("flip_every_byte");
  ASSERT_TRUE(
      WriteStore(*core::MakeRelationStore(MixedRelation()), path).ok());
  const FileImage pristine(path);
  const size_t sections = pristine.ReadU32(20);
  size_t flipped = 0;
  for (int i = 0; i < static_cast<int>(sections); ++i) {
    const size_t payload = pristine.SectionPayloadOffset(i);
    for (size_t b = 0; b < pristine.SectionLength(i); ++b) {
      FileImage image = pristine;
      image.WriteByte(payload + b, ~image.ReadByte(payload + b));
      image.Save();
      const auto opened = MappedTupleStore::Open(path);
      ASSERT_FALSE(opened.ok()) << "section " << i << " byte " << b;
      EXPECT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument);
      EXPECT_NE(opened.status().message().find("checksum mismatch"),
                std::string::npos)
          << opened.status();
      ++flipped;
    }
  }
  EXPECT_GT(flipped, 100u);
}

// ---------------------------------------------------------------------------
// The factor table (TwoFactorStore: factor 0 = Flights, attributes 0-2, 4
// rows; factor 1 = Hotels, attributes 3-4, 3 rows). The FACTORS payload is
// u32 count, then per factor {u32 first, u32 width, u64 rows}.
// ---------------------------------------------------------------------------

/// Byte offset of factor `f`'s entry in the FACTORS payload.
size_t FactorEntry(const FileImage& f, size_t factor) {
  const int i = f.FindSection(SectionId::kFactors, kNoColumn);
  EXPECT_GE(i, 0);
  return f.SectionPayloadOffset(i) + 4 + 16 * factor;
}

/// Applies `edit` to the FACTORS payload and re-fixes its checksum, so the
/// factor validation is the branch that fires.
std::function<void(FileImage&)> EditFactors(
    std::function<void(FileImage&)> edit) {
  return [edit](FileImage& f) {
    ASSERT_EQ(f.ReadU32(FactorEntry(f, 0) - 4), 2u);
    edit(f);
    f.FixChecksum(f.FindSection(SectionId::kFactors, kNoColumn));
  };
}

TEST(JimcCorruptionTest, FactorRowsMustMultiplyToTheTupleCount) {
  // The header (unchecksummed) disagrees with the factors' product.
  ExpectCorruption("factor_product",
                   [](FileImage& f) { f.WriteU64(8, f.ReadU64(8) - 1); },
                   "the product of the factor rows is 12, but the header "
                   "claims 11 tuples",
                   TwoFactorStore());
  // A product that overflows the uint32_t tuple ids.
  ExpectCorruption("factor_overflow", EditFactors([](FileImage& f) {
                     f.WriteU64(FactorEntry(f, 0) + 8, uint64_t{1} << 31);
                     f.WriteU64(FactorEntry(f, 1) + 8, 4);
                   }),
                   "the product of the factor rows overflows at factor 1",
                   TwoFactorStore());
  ExpectCorruption("factor_rows_u64", EditFactors([](FileImage& f) {
                     f.WriteU64(FactorEntry(f, 1) + 8, ~uint64_t{0});
                   }),
                   "overflows", TwoFactorStore());
}

TEST(JimcCorruptionTest, FactorRangesMustTileTheSchema) {
  ExpectCorruption("factor_gap", EditFactors([](FileImage& f) {
                     f.WriteU32(FactorEntry(f, 1), 4);
                     f.WriteU32(FactorEntry(f, 1) + 4, 1);
                   }),
                   "factor 1 starts at attribute 4, leaving a gap at attribute 3",
                   TwoFactorStore());
  ExpectCorruption("factor_overlap", EditFactors([](FileImage& f) {
                     f.WriteU32(FactorEntry(f, 1), 2);
                     f.WriteU32(FactorEntry(f, 1) + 4, 3);
                   }),
                   "factor 1 starts at attribute 2 and overlaps",
                   TwoFactorStore());
  ExpectCorruption("factor_past_n", EditFactors([](FileImage& f) {
                     f.WriteU32(FactorEntry(f, 1) + 4, 3);
                   }),
                   "factor 1 covers 3 attributes from 3, past the 5 "
                   "attributes",
                   TwoFactorStore());
  ExpectCorruption("factor_short", EditFactors([](FileImage& f) {
                     f.WriteU32(FactorEntry(f, 1) + 4, 1);
                   }),
                   "factors cover 4 of 5 attributes", TwoFactorStore());
  ExpectCorruption("factor_width_zero", EditFactors([](FileImage& f) {
                     f.WriteU32(FactorEntry(f, 1) + 4, 0);
                   }),
                   "factor 1 has no attributes", TwoFactorStore());
  ExpectCorruption("factor_count", EditFactors([](FileImage& f) {
                     f.WriteU32(FactorEntry(f, 0) - 4, 6);
                   }),
                   "6 factors for 5 attributes", TwoFactorStore());
}

TEST(JimcCorruptionTest, FactorCodeArrayOfTheWrongLength) {
  // A code section one code short of its factor's rows.
  ExpectCorruption("factor_codes_length",
                   [](FileImage& f) {
                     const int i = f.FindSection(SectionId::kCodes, 3);
                     ASSERT_GE(i, 0);
                     f.WriteU64(f.EntryOffset(static_cast<size_t>(i)) + 16,
                                f.SectionLength(i) - 4);
                     f.FixChecksum(i);
                   },
                   "code array 3 holds 8 bytes, expected 12 for the 3 rows "
                   "of its factor",
                   TwoFactorStore());
  // Factor rows and the header agree (2 × 6 = 12), but the code arrays
  // were written for 4 × 3.
  ExpectCorruption("factor_rows_vs_codes", EditFactors([](FileImage& f) {
                     f.WriteU64(FactorEntry(f, 0) + 8, 2);
                     f.WriteU64(FactorEntry(f, 1) + 8, 6);
                   }),
                   "code array 0 holds 16 bytes, expected 8 for the 2 rows",
                   TwoFactorStore());
}

TEST(JimcCorruptionTest, FactorCodeOutOfDictionaryRange) {
  for (uint32_t column : {1u, 4u}) {
    ExpectCorruption(
        "factor_code_range_" + std::to_string(column),
        [column](FileImage& f) {
          const int i = f.FindSection(SectionId::kCodes, column);
          ASSERT_GE(i, 0);
          f.WriteU32(f.SectionPayloadOffset(i) + 4 * 2, 0x7FFFFFFF);
          f.FixChecksum(i);
        },
        util::StrFormat("code array %u row 2 holds code 2147483647 outside "
                        "the shared dictionary",
                        column),
        TwoFactorStore());
  }
}

TEST(JimcCorruptionTest, FactorWithZeroRows) {
  // With the header's count patched to the product (0), the empty factor
  // itself is what is refused.
  ExpectCorruption("factor_zero_rows", EditFactors([](FileImage& f) {
                     f.WriteU64(FactorEntry(f, 1) + 8, 0);
                     f.WriteU64(8, 0);
                   }),
                   "factor 1 has zero rows", TwoFactorStore());
}

TEST(JimcCorruptionTest, VersionTwoFileIsUnsupported) {
  // Version 2 had the same checksum and no factor section; a file stamped
  // version 2 fails on its version before any section is read.
  ExpectCorruption("version_two", [](FileImage& f) { f.WriteU32(4, 2); },
                   "unsupported format version 2 (this build reads version "
                   "3)",
                   TwoFactorStore());
}

// ---------------------------------------------------------------------------
// The checksum itself. Lengths 0-200 cover no whole 64-byte block, one,
// two and three, each with every tail length.
// ---------------------------------------------------------------------------

std::vector<uint8_t> PseudoRandomBytes(size_t size) {
  std::vector<uint8_t> bytes(size);
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (uint8_t& byte : bytes) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<uint8_t>(state >> 56);
  }
  return bytes;
}

TEST(JimcChecksumTest, EverySingleByteChangeChangesTheValue) {
  constexpr size_t kMaxLength = 200;
  std::vector<uint8_t> bytes = PseudoRandomBytes(kMaxLength);
  for (size_t length = 0; length <= kMaxLength; ++length) {
    const uint64_t original = Checksum(bytes.data(), length);
    for (size_t at = 0; at < length; ++at) {
      const uint8_t kept = bytes[at];
      for (int delta = 1; delta < 256; ++delta) {
        bytes[at] = static_cast<uint8_t>(kept + delta);
        ASSERT_NE(Checksum(bytes.data(), length), original)
            << "length " << length << " byte " << at << " delta " << delta;
      }
      bytes[at] = kept;
    }
  }
}

TEST(JimcChecksumTest, EveryOneByteTruncationChangesTheValue) {
  constexpr size_t kMaxLength = 200;
  // All-zero bytes too: a truncation there changes only the length.
  for (const std::vector<uint8_t>& bytes :
       {PseudoRandomBytes(kMaxLength), std::vector<uint8_t>(kMaxLength, 0)}) {
    for (size_t length = 1; length <= kMaxLength; ++length) {
      EXPECT_NE(Checksum(bytes.data(), length),
                Checksum(bytes.data(), length - 1))
          << "length " << length;
    }
  }
}

TEST(JimcChecksumTest, ValueDoesNotDependOnAlignment) {
  const std::vector<uint8_t> bytes = PseudoRandomBytes(200);
  for (size_t shift = 1; shift < 8; ++shift) {
    std::vector<uint8_t> shifted(shift, 0);
    shifted.insert(shifted.end(), bytes.begin(), bytes.end());
    EXPECT_EQ(Checksum(shifted.data() + shift, bytes.size()),
              Checksum(bytes.data(), bytes.size()));
  }
}

}  // namespace
}  // namespace jim::storage
