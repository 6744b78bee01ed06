#ifndef JIM_STORAGE_FORMAT_H_
#define JIM_STORAGE_FORMAT_H_

#include <cstdint>
#include <string>

#include "relational/value.h"
#include "util/status.h"

namespace jim::storage {

/// The JIMC on-disk columnar tuple-store format, version 3.
///
/// A JIMC file is the persistent form of a core::TupleStore: everything the
/// engine needs to serve `code()` / `ColumnCodes()` straight out of an mmap
/// and to decode `Value`s lazily, and nothing else. All integers are
/// little-endian regardless of host; doubles are their IEEE-754 bit pattern
/// (NaN payloads survive a round trip).
///
///   ┌──────────────────────────────────────────────────────────────┐
///   │ header (48 B): magic "JIMC", version, num_tuples,            │
///   │   num_attributes, num_sections, shared_dict_size, file_bytes │
///   ├──────────────────────────────────────────────────────────────┤
///   │ section table: num_sections × {id, column, offset, length,   │
///   │   checksum}  (offsets 8-byte aligned, Checksum per section)  │
///   ├──────────────────────────────────────────────────────────────┤
///   │ NAME    store name                                           │
///   │ SCHEMA  attributes: type, name, qualifier                    │
///   │ FACTORS k, then per factor {first_attribute, num_attributes, │
///   │   rows}: the instance as a product of k factors              │
///   │ DICT a  per-column dictionary page, one per attribute:       │
///   │   entries in local-code order, each {shared_code (the remap  │
///   │   into the file's shared dictionary), value record}          │
///   │ CODES a per-column code array, one per attribute: rows_f ×   │
///   │   u32 *shared* codes (kNullCode for NULL), one per row of    │
///   │   the factor f that holds attribute a                        │
///   └──────────────────────────────────────────────────────────────┘
///
/// The factors are core::TupleStore::Factors: their attribute ranges tile
/// the schema in order, their rows multiply to num_tuples, and tuple t's
/// row in factor f is its mixed-radix digit (t / stride_f) % rows_f, the
/// last factor varying fastest. A CSV, synthetic or sampled instance is one
/// factor of num_tuples rows; a dense universal table is one factor per
/// source occurrence, so its file holds the sources' kept rows and never
/// the product. With more than one factor, no factor is empty.
///
/// Code arrays hold codes in the file's *shared* dictionary space — a dense
/// renumbering (first occurrence wins, factor by factor, rows in order) of
/// the source store's codes — so within one file, code equality across any
/// two cells of any two columns is exactly strict Value equality (NaN
/// occurrences keep their distinct codes; NULL is the kNullCode sentinel
/// and never equal). The per-column dictionary pages exist so a reader can
/// decode lazily with column locality.
///
/// Version 2 replaced version 1's byte-wise FNV-1a section checksum with the
/// word-lane Checksum below, and version 3 added the FACTORS section. There
/// is one reader, for version 3, so an older file fails as "unsupported
/// format version".
inline constexpr uint32_t kMagic = 0x434D494Au;  // "JIMC" little-endian
inline constexpr uint32_t kFormatVersion = 3;
inline constexpr size_t kHeaderBytes = 48;
inline constexpr size_t kSectionEntryBytes = 32;
/// Section payload offsets are aligned to this (so u32 code arrays can be
/// served by pointer straight from the mapping).
inline constexpr size_t kSectionAlignment = 8;

/// Section ids. DICT/CODES sections additionally carry the column index;
/// the others use kNoColumn.
enum class SectionId : uint32_t {
  kName = 1,
  kSchema = 2,
  kDictionary = 3,
  kCodes = 4,
  kFactors = 5,
};
inline constexpr uint32_t kNoColumn = 0xFFFFFFFFu;

/// Value-record type tags (NULL never appears in a dictionary page).
enum class ValueTag : uint8_t { kInt64 = 1, kDouble = 2, kString = 3 };

/// The checksum of JIMC sections and JIMS checkpoints: eight FNV-1a lanes,
/// each step `lane = (lane ^ word) * prime`, over the little-endian 64-bit
/// words of every whole 64-byte block; the lanes are then folded, in order,
/// into an FNV-1a hash seeded with `size`, and the < 64-byte tail is hashed
/// into it byte by byte. Each step is a bijection of its lane (or of the
/// fold) for fixed other inputs, so any single-byte change is always
/// detected; eight independent multiply chains make a pass over a mapping
/// run at memory speed instead of one multiply latency per byte.
///
/// Deliberately separate from util::Fnv1a64, the in-memory fingerprint of
/// lat::Partition, which is free to change with the code: this function is
/// fixed by kFormatVersion and kCheckpointVersion, and changing it means
/// bumping both.
uint64_t Checksum(const void* data, size_t size);

/// Checksum(data, size) of a code array that, in the same pass, sets
/// `*code_end` to the max of `code + 1` over its little-endian u32 codes (0
/// for none; kNullCode wraps to 0): every code is NULL or below D iff
/// `*code_end <= D`.
uint64_t ChecksumCodes(const void* data, size_t size, uint32_t* code_end);

// The atomic-persist recipe (WriteFileAtomicallyWith) and the fsync/rename
// primitives live behind the storage::Env seam (env.h) so fault-injection
// tests can interpose on every one of them.

/// Little-endian append helpers (host-endianness independent).
void AppendU8(std::string& out, uint8_t v);
void AppendU32(std::string& out, uint32_t v);
void AppendU64(std::string& out, uint64_t v);
void AppendDouble(std::string& out, double v);
void AppendLengthPrefixed(std::string& out, std::string_view s);
/// Serializes one non-NULL value record (ValueTag + payload).
void AppendValueRecord(std::string& out, const rel::Value& value);

/// Bounds-checked little-endian reader over a byte range. Every Read*
/// advances the cursor; failures report the reading context so corruption
/// errors name the section that tripped them.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size, std::string context)
      : data_(data), size_(size), context_(std::move(context)) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

  util::StatusOr<uint8_t> ReadU8();
  util::StatusOr<uint32_t> ReadU32();
  util::StatusOr<uint64_t> ReadU64();
  util::StatusOr<double> ReadDouble();
  /// u32 length + that many bytes.
  util::StatusOr<std::string> ReadLengthPrefixed();
  /// One value record (ValueTag + payload).
  util::StatusOr<rel::Value> ReadValueRecord();

 private:
  util::Status Truncated(const char* what, size_t need);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  std::string context_;
};

}  // namespace jim::storage

#endif  // JIM_STORAGE_FORMAT_H_
