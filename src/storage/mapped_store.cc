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
  if (num_sections != 3 + 2 * static_cast<uint64_t>(num_attributes)) {
    return Corrupt(path_, util::StrFormat(
        "expected %llu sections for %u attributes, header claims %u",
        3 + 2 * static_cast<unsigned long long>(num_attributes),
        num_attributes, num_sections));
  }
  if ((size_ - kHeaderBytes) / kSectionEntryBytes < num_sections) {
    return Corrupt(path_, "section table extends past end of file");
  }
  if (num_tuples >= uint64_t{1} << 32) {
    return Corrupt(path_, util::StrFormat(
        "tuple count %llu is 2^32 or more, past what uint32_t tuple ids "
        "address",
        static_cast<unsigned long long>(num_tuples)));
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
  const SectionEntry* factor_section = nullptr;
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
      case SectionId::kFactors:
        if (factor_section != nullptr) {
          return Corrupt(path_, "duplicate factor section");
        }
        factor_section = &section;
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
  if (factor_section == nullptr) {
    return Corrupt(path_, "missing factor section");
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

  RETURN_IF_ERROR(ParseFactors(data_ + factor_section->offset,
                               static_cast<size_t>(factor_section->length)));

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

  // Code arrays: alignment, exact length (one code per row of the factor
  // holding the column), and every code in range — after this loop,
  // serving codes is a digit and a load, and decode a bare table index.
  for (uint32_t a = 0; a < num_attributes; ++a) {
    const SectionEntry& section = *code_sections[a];
    Column& column = columns_[a];
    if (section.offset % alignof(uint32_t) != 0) {
      return Corrupt(path_, util::StrFormat(
          "code array %u is misaligned (offset %llu)", a,
          static_cast<unsigned long long>(section.offset)));
    }
    if (section.length != column.rows * sizeof(uint32_t)) {
      return Corrupt(path_, util::StrFormat(
          "code array %u holds %llu bytes, expected %zu for the %zu rows of "
          "its factor", a, static_cast<unsigned long long>(section.length),
          column.rows * sizeof(uint32_t), column.rows));
    }
    const uint32_t* codes =
        reinterpret_cast<const uint32_t*>(data_ + section.offset);
    // The checksum pass bounded the codes; only an array holding one out of
    // range is read again, to name it.
    if (section.code_end > dict_size) {
      for (size_t r = 0; r < column.rows; ++r) {
        if (codes[r] >= dict_size && codes[r] != rel::kNullCode) {
          return Corrupt(path_, util::StrFormat(
              "code array %u row %zu holds code %u outside the shared "
              "dictionary of %llu entries", a, r, codes[r],
              static_cast<unsigned long long>(dict_size)));
        }
      }
    }
    column.codes = codes;
  }
  return util::OkStatus();
}

util::Status MappedTupleStore::ParseFactors(const uint8_t* payload,
                                            size_t length) {
  // Every factor is checked against the schema and the header's tuple
  // count before any column is sized from it.
  const size_t n = schema_.num_attributes();
  ByteReader reader(payload, length, "factor section");
  ASSIGN_OR_RETURN(const uint32_t count, reader.ReadU32());
  if (count == 0 || count > n) {
    return Corrupt(path_, util::StrFormat(
        "%u factors for %zu attributes", count, n));
  }
  factors_.resize(count);
  size_t next_attribute = 0;
  uint64_t product = 1;
  for (uint32_t f = 0; f < count; ++f) {
    ASSIGN_OR_RETURN(const uint32_t first, reader.ReadU32());
    ASSIGN_OR_RETURN(const uint32_t width, reader.ReadU32());
    ASSIGN_OR_RETURN(const uint64_t rows, reader.ReadU64());
    if (first > next_attribute) {
      return Corrupt(path_, util::StrFormat(
          "factor %u starts at attribute %u, leaving a gap at attribute %zu",
          f, first, next_attribute));
    }
    if (first < next_attribute) {
      return Corrupt(path_, util::StrFormat(
          "factor %u starts at attribute %u and overlaps the factor before "
          "it, which ends at %zu", f, first, next_attribute));
    }
    if (width == 0) {
      return Corrupt(path_, util::StrFormat(
          "factor %u has no attributes", f));
    }
    if (width > n - first) {
      return Corrupt(path_, util::StrFormat(
          "factor %u covers %u attributes from %u, past the %zu attributes "
          "of the schema", f, width, first, n));
    }
    if (rows == 0 && count > 1) {
      return Corrupt(path_, util::StrFormat("factor %u has zero rows", f));
    }
    if (rows != 0 && product > (uint64_t{1} << 32) / rows) {
      return Corrupt(path_, util::StrFormat(
          "the product of the factor rows overflows at factor %u", f));
    }
    product *= rows;
    factors_[f] = core::StoreFactor{first, width, static_cast<size_t>(rows), 1};
    next_attribute = first + width;
  }
  if (reader.remaining() != 0) {
    return Corrupt(path_, util::StrFormat(
        "factor section has %zu trailing bytes", reader.remaining()));
  }
  if (next_attribute != n) {
    return Corrupt(path_, util::StrFormat(
        "factors cover %zu of %zu attributes", next_attribute, n));
  }
  if (product != num_tuples_) {
    return Corrupt(path_, util::StrFormat(
        "the product of the factor rows is %llu, but the header claims %zu "
        "tuples", static_cast<unsigned long long>(product), num_tuples_));
  }
  columns_.resize(n);
  size_t stride = 1;
  for (size_t f = count; f-- > 0;) {
    core::StoreFactor& factor = factors_[f];
    factor.stride = stride;
    stride *= factor.rows;
    for (size_t a = factor.first_attribute;
         a < factor.first_attribute + factor.num_attributes; ++a) {
      columns_[a].rows = factor.rows;
      columns_[a].stride = factor.stride;
    }
  }
  return util::OkStatus();
}

void MappedTupleStore::TupleCodes(size_t t, uint32_t* out) const {
  for (const core::StoreFactor& factor : factors_) {
    const size_t row = t / factor.stride % factor.rows;
    const size_t end = factor.first_attribute + factor.num_attributes;
    for (size_t a = factor.first_attribute; a < end; ++a) {
      out[a] = columns_[a].codes[row];
    }
  }
}

void MappedTupleStore::ColumnCodes(size_t a, size_t first, size_t count,
                                   uint32_t* out) const {
  // Tuples inside the factor's first run of rows (every tuple of a
  // one-factor file, and the last factor's rows the class build reads) are
  // one copy; any other block goes cell by cell.
  const Column& column = columns_[a];
  if (column.stride == 1 && first + count <= column.rows) {
    std::memcpy(out, column.codes + first, count * sizeof(uint32_t));
  } else {
    TupleStore::ColumnCodes(a, first, count, out);
  }
}

rel::Value MappedTupleStore::DecodeValue(size_t t, size_t a) const {
  const uint32_t code = this->code(t, a);
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
  JIM_CHECK_EQ(columns_.size(), schema_.num_attributes());
  // Each column carries its factor's rows and stride, and the rows
  // multiply to the tuple count (CheckStoreInvariants audits the rest of
  // the factor contract).
  size_t product = 1;
  for (const core::StoreFactor& factor : factors_) {
    const size_t end = factor.first_attribute + factor.num_attributes;
    JIM_CHECK_LE(end, columns_.size());
    for (size_t a = factor.first_attribute; a < end; ++a) {
      JIM_CHECK_EQ(columns_[a].rows, factor.rows) << "column " << a;
      JIM_CHECK_EQ(columns_[a].stride, factor.stride) << "column " << a;
    }
    product *= factor.rows;
  }
  JIM_CHECK_EQ(product, num_tuples_) << "factor rows do not multiply out";
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
  for (size_t a = 0; a < columns_.size(); ++a) {
    const Column& column = columns_[a];
    const uint8_t* const first =
        reinterpret_cast<const uint8_t*>(column.codes);
    JIM_CHECK(first >= data_ &&
              first + column.rows * sizeof(uint32_t) <= end)
        << "code array " << a << " escapes the mapping";
    for (size_t r = 0; r < column.rows; ++r) {
      const uint32_t c = column.codes[r];
      JIM_CHECK(c == rel::kNullCode || c < value_offsets_.size())
          << "code array " << a << " row " << r
          << " holds out-of-range code " << c;
    }
  }
}

size_t MappedTupleStore::ApproxBytes() const {
  size_t bytes = value_offsets_.capacity() * sizeof(uint64_t) +
                 columns_.capacity() * sizeof(Column) +
                 factors_.capacity() * sizeof(core::StoreFactor) +
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
