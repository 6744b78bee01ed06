#include "storage/mapped_store.h"

#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "relational/dictionary.h"
#include "storage/env.h"
#include "storage/format.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace jim::storage {

namespace {

util::Status Corrupt(const std::string& path, const std::string& detail) {
  return util::InvalidArgumentError(
      util::StrFormat("JIMC %s: %s", path.c_str(), detail.c_str()));
}

struct SectionEntry {
  uint32_t id = 0;
  uint32_t column = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t checksum = 0;
  uint32_t code_end = 0;  ///< ChecksumCodes' bound (code arrays only)
};

}  // namespace

util::StatusOr<std::shared_ptr<const MappedTupleStore>> MappedTupleStore::Open(
    const std::string& path, Env* env) {
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__)
  return util::UnimplementedError(
      "JIMC mapping requires a little-endian host");
#endif
  Env& fs = env != nullptr ? *env : *DefaultEnv();
  // Private ctor, so no make_shared; the aliasing around mutable Parse state
  // stays local to Open.
  std::shared_ptr<MappedTupleStore> store(new MappedTupleStore());
  store->path_ = path;
  auto mapped = fs.MapReadOnly(path);
  if (mapped.ok()) {
    store->region_ = std::move(mapped).value();
  } else if (mapped.status().code() == util::StatusCode::kNotFound ||
             mapped.status().code() == util::StatusCode::kInvalidArgument) {
    // A missing file or an unmappable-because-empty one is a verdict on the
    // input, not on the environment — no fallback can change it.
    return mapped.status();
  } else {
    // Graceful degradation: a refused or failed mapping (no mmap on this
    // host, fd pressure, injected refusal) downgrades to a heap copy with
    // identical read semantics — slower start, same bytes, and Parse still
    // stands between the content and the engine.
    JIM_LOG(kWarning) << "mapping " << path << " failed ("
                      << mapped.status().message()
                      << "); degrading to heap read";
    auto contents = fs.ReadFileToString(path);
    if (!contents.ok()) return contents.status();
    store->region_ = NewHeapRegion(std::move(contents).value());
  }
  store->data_ = store->region_->data();
  store->size_ = store->region_->size();
  RETURN_IF_ERROR(store->Parse());
  return std::shared_ptr<const MappedTupleStore>(std::move(store));
}

util::Status MappedTupleStore::Parse() {
  if (size_ < kHeaderBytes) {
    return Corrupt(path_, util::StrFormat(
        "file of %zu bytes is smaller than the %zu-byte header", size_,
        kHeaderBytes));
  }
  ByteReader header(data_, kHeaderBytes, "header");
  ASSIGN_OR_RETURN(const uint32_t magic, header.ReadU32());
  if (magic != kMagic) {
    return Corrupt(path_, util::StrFormat(
        "bad magic 0x%08x (not a JIMC file)", magic));
  }
  ASSIGN_OR_RETURN(const uint32_t version, header.ReadU32());
  if (version != kFormatVersion) {
    return Corrupt(path_, util::StrFormat(
        "unsupported format version %u (this build reads version %u)",
        version, kFormatVersion));
  }
  ASSIGN_OR_RETURN(const uint64_t num_tuples, header.ReadU64());
  ASSIGN_OR_RETURN(const uint32_t num_attributes, header.ReadU32());
  ASSIGN_OR_RETURN(const uint32_t num_sections, header.ReadU32());
  ASSIGN_OR_RETURN(const uint64_t dict_size, header.ReadU64());
  ASSIGN_OR_RETURN(const uint64_t file_bytes, header.ReadU64());
  if (file_bytes != size_) {
    return Corrupt(path_, util::StrFormat(
        "header claims %llu bytes but the file has %zu (truncated or "
        "over-long)", static_cast<unsigned long long>(file_bytes), size_));
  }
  if (num_attributes == 0) {
    return Corrupt(path_, "zero attributes");
  }
  if (num_sections != 2 + 2 * static_cast<uint64_t>(num_attributes)) {
    return Corrupt(path_, util::StrFormat(
        "expected %llu sections for %u attributes, header claims %u",
        2 + 2 * static_cast<unsigned long long>(num_attributes),
        num_attributes, num_sections));
  }
  if ((size_ - kHeaderBytes) / kSectionEntryBytes < num_sections) {
    return Corrupt(path_, "section table extends past end of file");
  }
  if (num_tuples > size_ / sizeof(uint32_t)) {
    return Corrupt(path_, util::StrFormat(
        "tuple count %llu cannot fit in a %zu-byte file",
        static_cast<unsigned long long>(num_tuples), size_));
  }
  if (dict_size > size_) {
    return Corrupt(path_, "shared dictionary size exceeds file size");
  }
  num_tuples_ = static_cast<size_t>(num_tuples);

  // Section table: bounds and checksums first, so every later parse touches
  // only verified bytes.
  std::vector<SectionEntry> sections(num_sections);
  ByteReader table(data_ + kHeaderBytes, num_sections * kSectionEntryBytes,
                   "section table");
  for (SectionEntry& section : sections) {
    ASSIGN_OR_RETURN(section.id, table.ReadU32());
    ASSIGN_OR_RETURN(section.column, table.ReadU32());
    ASSIGN_OR_RETURN(section.offset, table.ReadU64());
    ASSIGN_OR_RETURN(section.length, table.ReadU64());
    ASSIGN_OR_RETURN(section.checksum, table.ReadU64());
    if (section.offset > size_ || section.length > size_ - section.offset) {
      return Corrupt(path_, util::StrFormat(
          "section id=%u column=%u [%llu, +%llu) falls outside the %zu-byte "
          "file", section.id, section.column,
          static_cast<unsigned long long>(section.offset),
          static_cast<unsigned long long>(section.length), size_));
    }
    const uint8_t* payload = data_ + section.offset;
    const size_t length = static_cast<size_t>(section.length);
    const uint64_t actual =
        static_cast<SectionId>(section.id) == SectionId::kCodes
            ? ChecksumCodes(payload, length, &section.code_end)
            : Checksum(payload, length);
    if (actual != section.checksum) {
      return Corrupt(path_, util::StrFormat(
          "checksum mismatch in section id=%u column=%u (stored "
          "%016llx, computed %016llx)", section.id, section.column,
          static_cast<unsigned long long>(section.checksum),
          static_cast<unsigned long long>(actual)));
    }
  }

  // Locate the singleton name/schema sections and the per-column pair.
  const SectionEntry* name_section = nullptr;
  const SectionEntry* schema_section = nullptr;
  std::vector<const SectionEntry*> dict_sections(num_attributes, nullptr);
  std::vector<const SectionEntry*> code_sections(num_attributes, nullptr);
  for (const SectionEntry& section : sections) {
    switch (static_cast<SectionId>(section.id)) {
      case SectionId::kName:
        if (name_section != nullptr) return Corrupt(path_, "duplicate name section");
        name_section = &section;
        continue;
      case SectionId::kSchema:
        if (schema_section != nullptr) {
          return Corrupt(path_, "duplicate schema section");
        }
        schema_section = &section;
        continue;
      case SectionId::kDictionary:
      case SectionId::kCodes: {
        if (section.column >= num_attributes) {
          return Corrupt(path_, util::StrFormat(
              "section id=%u names column %u of %u", section.id,
              section.column, num_attributes));
        }
        auto& slot = static_cast<SectionId>(section.id) == SectionId::kDictionary
                         ? dict_sections[section.column]
                         : code_sections[section.column];
        if (slot != nullptr) {
          return Corrupt(path_, util::StrFormat(
              "duplicate section id=%u for column %u", section.id,
              section.column));
        }
        slot = &section;
        continue;
      }
    }
    return Corrupt(path_, util::StrFormat("unknown section id %u", section.id));
  }
  if (name_section == nullptr) return Corrupt(path_, "missing name section");
  if (schema_section == nullptr) {
    return Corrupt(path_, "missing schema section");
  }
  for (uint32_t a = 0; a < num_attributes; ++a) {
    if (dict_sections[a] == nullptr || code_sections[a] == nullptr) {
      return Corrupt(path_, util::StrFormat(
          "column %u is missing its dictionary or code section", a));
    }
  }

  {
    ByteReader reader(data_ + name_section->offset,
                      static_cast<size_t>(name_section->length),
                      "name section");
    ASSIGN_OR_RETURN(name_, reader.ReadLengthPrefixed());
  }

  {
    ByteReader reader(data_ + schema_section->offset,
                      static_cast<size_t>(schema_section->length),
                      "schema section");
    ASSIGN_OR_RETURN(const uint32_t count, reader.ReadU32());
    if (count != num_attributes) {
      return Corrupt(path_, util::StrFormat(
          "schema lists %u attributes, header claims %u", count,
          num_attributes));
    }
    for (uint32_t a = 0; a < count; ++a) {
      ASSIGN_OR_RETURN(const uint8_t type, reader.ReadU8());
      if (type > static_cast<uint8_t>(rel::ValueType::kString)) {
        return Corrupt(path_, util::StrFormat(
            "attribute %u has unknown type tag %u", a, unsigned{type}));
      }
      rel::Attribute attribute;
      attribute.type = static_cast<rel::ValueType>(type);
      ASSIGN_OR_RETURN(attribute.name, reader.ReadLengthPrefixed());
      ASSIGN_OR_RETURN(attribute.qualifier, reader.ReadLengthPrefixed());
      schema_.AddAttribute(std::move(attribute));
    }
  }

  // The header is the one region no checksum covers, so bound the
  // shared-dictionary size against the pages that would have to define it
  // *before* sizing the offset table: every defined code costs at least 9
  // payload bytes (shared u32 + tag + the smallest record payload), so a
  // crafted dict_size cannot force an allocation bigger than the
  // dictionary sections could ever justify.
  uint64_t dictionary_bytes = 0;
  for (uint32_t a = 0; a < num_attributes; ++a) {
    dictionary_bytes += dict_sections[a]->length;
  }
  if (dict_size > dictionary_bytes / 9) {
    return Corrupt(path_, util::StrFormat(
        "shared dictionary claims %llu entries, more than %llu bytes of "
        "dictionary pages could define",
        static_cast<unsigned long long>(dict_size),
        static_cast<unsigned long long>(dictionary_bytes)));
  }

  // Dictionary pages: every entry remaps a page-local code to a shared code;
  // recording each record's offset is all the index lazy decode needs.
  value_offsets_.assign(static_cast<size_t>(dict_size),
                        std::numeric_limits<uint64_t>::max());
  for (uint32_t a = 0; a < num_attributes; ++a) {
    const SectionEntry& section = *dict_sections[a];
    const std::string context = util::StrFormat("dictionary page %u", a);
    ByteReader reader(data_ + section.offset,
                      static_cast<size_t>(section.length), context);
    ASSIGN_OR_RETURN(const uint32_t entries, reader.ReadU32());
    for (uint32_t e = 0; e < entries; ++e) {
      ASSIGN_OR_RETURN(const uint32_t shared, reader.ReadU32());
      if (shared >= dict_size) {
        return Corrupt(path_, util::StrFormat(
            "dictionary page %u entry %u remaps to shared code %u, but the "
            "shared dictionary has %llu entries", a, e, shared,
            static_cast<unsigned long long>(dict_size)));
      }
      const uint64_t record_offset = section.offset + reader.position();
      // Full structural parse now, so decode-time reads of the same record
      // cannot fail later.
      const auto record = reader.ReadValueRecord();
      if (!record.ok()) return record.status();
      if (value_offsets_[shared] == std::numeric_limits<uint64_t>::max()) {
        value_offsets_[shared] = record_offset;
      }
    }
    if (reader.remaining() != 0) {
      return Corrupt(path_, util::StrFormat(
          "dictionary page %u has %zu trailing bytes", a,
          reader.remaining()));
    }
  }
  for (size_t code = 0; code < value_offsets_.size(); ++code) {
    if (value_offsets_[code] == std::numeric_limits<uint64_t>::max()) {
      return Corrupt(path_, util::StrFormat(
          "shared code %zu is never defined by any dictionary page", code));
    }
  }

  // Code arrays: alignment, exact length, and every code in range — after
  // this loop, serving codes is a bare load and decode a bare table index.
  column_codes_.resize(num_attributes);
  for (uint32_t a = 0; a < num_attributes; ++a) {
    const SectionEntry& section = *code_sections[a];
    if (section.offset % alignof(uint32_t) != 0) {
      return Corrupt(path_, util::StrFormat(
          "code array %u is misaligned (offset %llu)", a,
          static_cast<unsigned long long>(section.offset)));
    }
    if (section.length != num_tuples_ * sizeof(uint32_t)) {
      return Corrupt(path_, util::StrFormat(
          "code array %u holds %llu bytes, expected %zu for %zu tuples", a,
          static_cast<unsigned long long>(section.length),
          num_tuples_ * sizeof(uint32_t), num_tuples_));
    }
    const uint32_t* codes =
        reinterpret_cast<const uint32_t*>(data_ + section.offset);
    // The checksum pass bounded the codes; only an array holding one out of
    // range is read again, to name it.
    if (section.code_end > dict_size) {
      for (size_t t = 0; t < num_tuples_; ++t) {
        if (codes[t] >= dict_size && codes[t] != rel::kNullCode) {
          return Corrupt(path_, util::StrFormat(
              "code array %u tuple %zu holds code %u outside the shared "
              "dictionary of %llu entries", a, t, codes[t],
              static_cast<unsigned long long>(dict_size)));
        }
      }
    }
    column_codes_[a] = codes;
  }
  return util::OkStatus();
}

rel::Value MappedTupleStore::DecodeValue(size_t t, size_t a) const {
  const uint32_t code = column_codes_[a][t];
  if (code == rel::kNullCode) return rel::Value::Null();
  JIM_CHECK_LT(code, value_offsets_.size());
  const uint64_t offset = value_offsets_[code];
  ByteReader reader(data_ + offset, size_ - static_cast<size_t>(offset),
                    "value record");
  auto value = reader.ReadValueRecord();
  // The record was structurally validated at Open; a failure here would be a
  // programming error, not bad input.
  JIM_CHECK(value.ok()) << value.status();
  return *std::move(value);
}

void MappedTupleStore::CheckInvariants() const {
  JIM_CHECK(data_ != nullptr);
  JIM_CHECK_GE(size_, kHeaderBytes);
  JIM_CHECK_EQ(column_codes_.size(), schema_.num_attributes());
  // Every dictionary offset points at a record strictly inside the file and
  // past the header (no value record can live in the header region).
  for (size_t code = 0; code < value_offsets_.size(); ++code) {
    JIM_CHECK_GE(value_offsets_[code], kHeaderBytes)
        << "shared code " << code << " offset inside the header";
    JIM_CHECK_LT(value_offsets_[code], size_)
        << "shared code " << code << " offset past end of file";
  }
  // Every mapped code array lies inside the mapping and serves only shared
  // codes (or the NULL sentinel) — the precondition that makes DecodeValue's
  // bare table index safe.
  const uint8_t* const end = data_ + size_;
  for (size_t a = 0; a < column_codes_.size(); ++a) {
    const uint8_t* const first =
        reinterpret_cast<const uint8_t*>(column_codes_[a]);
    JIM_CHECK(first >= data_ &&
              first + num_tuples_ * sizeof(uint32_t) <= end)
        << "code array " << a << " escapes the mapping";
    for (size_t t = 0; t < num_tuples_; ++t) {
      const uint32_t c = column_codes_[a][t];
      JIM_CHECK(c == rel::kNullCode || c < value_offsets_.size())
          << "code array " << a << " tuple " << t
          << " holds out-of-range code " << c;
    }
  }
}

size_t MappedTupleStore::ApproxBytes() const {
  size_t bytes = value_offsets_.capacity() * sizeof(uint64_t) +
                 column_codes_.capacity() * sizeof(const uint32_t*) +
                 name_.size() + path_.size();
  for (const rel::Attribute& attribute : schema_.attributes()) {
    bytes += sizeof(rel::Attribute) + attribute.name.size() +
             attribute.qualifier.size();
  }
  return bytes;
}

util::StatusOr<std::shared_ptr<const core::TupleStore>> OpenStore(
    const std::string& path, Env* env) {
  ASSIGN_OR_RETURN(auto store, MappedTupleStore::Open(path, env));
  return std::shared_ptr<const core::TupleStore>(std::move(store));
}

util::StatusOr<std::shared_ptr<const core::TupleStore>> OpenStore(
    const std::string& path, const OpenOptions& options) {
  return OpenStore(path, options.env);
}

}  // namespace jim::storage
