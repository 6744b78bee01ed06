#include "storage/store_writer.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "relational/dictionary.h"
#include "storage/env.h"
#include "storage/format.h"
#include "util/logging.h"

namespace jim::storage {

namespace {

/// Whether raw uint32 arrays already have the file's byte order — on such
/// hosts (everything the mapped reader supports) CODES payloads are
/// checksummed and written straight from the staged code vectors instead of
/// being copied into a second byte-identical string, halving writer memory.
constexpr bool kLittleEndianHost =
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
    true;
#else
    false;
#endif

struct SectionRecord {
  SectionId id;
  uint32_t column = kNoColumn;
  /// Metadata sections own their bytes; CODES sections borrow the staged
  /// code vector on little-endian hosts (`codes` set, `payload` empty).
  std::string payload;
  const std::vector<uint32_t>* codes = nullptr;

  size_t length() const {
    return codes != nullptr ? codes->size() * sizeof(uint32_t)
                            : payload.size();
  }
  const char* data() const {
    return codes != nullptr ? reinterpret_cast<const char*>(codes->data())
                            : payload.data();
  }
};

size_t AlignUp(size_t offset) {
  return (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

std::string BuildSchemaPayload(const rel::Schema& schema) {
  std::string payload;
  AppendU32(payload, static_cast<uint32_t>(schema.num_attributes()));
  for (const rel::Attribute& attribute : schema.attributes()) {
    AppendU8(payload, static_cast<uint8_t>(attribute.type));
    AppendLengthPrefixed(payload, attribute.name);
    AppendLengthPrefixed(payload, attribute.qualifier);
  }
  return payload;
}

}  // namespace

util::Status WriteStore(const core::TupleStore& store, const std::string& path,
                        const StoreWriterOptions& options) {
  const size_t rows = store.num_tuples();
  const size_t columns = store.num_attributes();
  if (columns == 0) {
    return util::InvalidArgumentError(
        "WriteStore: store has no attributes (nothing to persist)");
  }

  // One scan of every factor's rows, factor by factor, assigns the file's
  // shared codes (a dense renumbering of the source codes, first occurrence
  // wins) and fills the factor's columnar code arrays; the first occurrence
  // of each source code decodes its Value into the owning column's
  // dictionary page. Factor f's row r is tuple r · stride_f (see
  // TupleStore::Factors), so a dense join is written without its product.
  const std::vector<core::StoreFactor> factors = store.Factors();
  std::unordered_map<uint32_t, uint32_t> shared_of_source;
  struct DictionaryPage {
    /// Entry count (local codes are dense 0..n-1 in append order).
    uint32_t num_entries = 0;
    /// Serialized entries: {shared_code, value record} each.
    std::string entries;
  };
  std::vector<DictionaryPage> dictionary_pages(columns);
  std::vector<std::vector<uint32_t>> code_arrays(columns);
  std::vector<uint32_t> row(columns);
  for (const core::StoreFactor& factor : factors) {
    const size_t first = factor.first_attribute;
    const size_t end = first + factor.num_attributes;
    for (size_t a = first; a < end; ++a) code_arrays[a].reserve(factor.rows);
    for (size_t r = 0; r < factor.rows; ++r) {
      const size_t t = r * factor.stride;
      store.TupleCodes(t, row.data());
      for (size_t a = first; a < end; ++a) {
        const uint32_t source = row[a];
        if (source == rel::kNullCode) {
          code_arrays[a].push_back(rel::kNullCode);
          continue;
        }
        const auto [it, inserted] = shared_of_source.emplace(
            source, static_cast<uint32_t>(shared_of_source.size()));
        if (inserted) {
          DictionaryPage& page = dictionary_pages[a];
          AppendU32(page.entries, it->second);
          AppendValueRecord(page.entries, store.DecodeValue(t, a));
          ++page.num_entries;
        }
        code_arrays[a].push_back(it->second);
      }
    }
  }
  const size_t shared_dict_size = shared_of_source.size();

  // Assemble the section list in a fixed order: name, schema, factors, then
  // per column its dictionary page and code array (column locality on
  // disk).
  std::vector<SectionRecord> sections;
  {
    SectionRecord name;
    name.id = SectionId::kName;
    AppendLengthPrefixed(name.payload,
                         options.name.empty() ? store.name() : options.name);
    sections.push_back(std::move(name));
  }
  sections.push_back(
      {SectionId::kSchema, kNoColumn, BuildSchemaPayload(store.schema())});
  {
    SectionRecord factor_table;
    factor_table.id = SectionId::kFactors;
    AppendU32(factor_table.payload, static_cast<uint32_t>(factors.size()));
    for (const core::StoreFactor& factor : factors) {
      AppendU32(factor_table.payload,
                static_cast<uint32_t>(factor.first_attribute));
      AppendU32(factor_table.payload,
                static_cast<uint32_t>(factor.num_attributes));
      AppendU64(factor_table.payload, factor.rows);
    }
    sections.push_back(std::move(factor_table));
  }
  for (size_t a = 0; a < columns; ++a) {
    SectionRecord dictionary;
    dictionary.id = SectionId::kDictionary;
    dictionary.column = static_cast<uint32_t>(a);
    AppendU32(dictionary.payload, dictionary_pages[a].num_entries);
    dictionary.payload += dictionary_pages[a].entries;
    sections.push_back(std::move(dictionary));

    SectionRecord codes;
    codes.id = SectionId::kCodes;
    codes.column = static_cast<uint32_t>(a);
    if (kLittleEndianHost) {
      codes.codes = &code_arrays[a];
    } else {
      codes.payload.reserve(code_arrays[a].size() * sizeof(uint32_t));
      for (const uint32_t code : code_arrays[a]) {
        AppendU32(codes.payload, code);
      }
    }
    sections.push_back(std::move(codes));
  }

  // Lay the sections out (8-byte aligned) and compute the total size, then
  // emit header + section table + zero-padded payloads.
  const size_t table_end =
      kHeaderBytes + sections.size() * kSectionEntryBytes;
  std::vector<size_t> offsets(sections.size());
  size_t cursor = AlignUp(table_end);
  for (size_t i = 0; i < sections.size(); ++i) {
    offsets[i] = cursor;
    cursor = AlignUp(cursor + sections[i].length());
  }
  const size_t file_bytes = cursor;

  std::string header;
  header.reserve(kHeaderBytes);
  AppendU32(header, kMagic);
  AppendU32(header, kFormatVersion);
  AppendU64(header, rows);
  AppendU32(header, static_cast<uint32_t>(columns));
  AppendU32(header, static_cast<uint32_t>(sections.size()));
  AppendU64(header, shared_dict_size);
  AppendU64(header, file_bytes);
  AppendU64(header, 0);  // reserved
  JIM_CHECK_EQ(header.size(), kHeaderBytes);

  std::string table;
  table.reserve(sections.size() * kSectionEntryBytes);
  for (size_t i = 0; i < sections.size(); ++i) {
    AppendU32(table, static_cast<uint32_t>(sections[i].id));
    AppendU32(table, sections[i].column);
    AppendU64(table, offsets[i]);
    AppendU64(table, sections[i].length());
    AppendU64(table, Checksum(sections[i].data(), sections[i].length()));
  }

  Env& env = options.env != nullptr ? *options.env : *DefaultEnv();
  // The staged bytes are reusable, so a transient I/O failure (classified
  // kUnavailable by the env) retries the whole atomic-persist sequence
  // after a backoff — each attempt is all-or-nothing, so a retry can never
  // observe a half-written target.
  return RetryWithBackoff(env, options.retry, [&] {
    return WriteFileAtomicallyWith(env, path, [&](WritableFile& out) {
      RETURN_IF_ERROR(out.Append(header));
      RETURN_IF_ERROR(out.Append(table));
      size_t written = table_end;
      for (size_t i = 0; i < sections.size(); ++i) {
        if (written < offsets[i]) {
          RETURN_IF_ERROR(out.Append(std::string(offsets[i] - written, '\0')));
          written = offsets[i];
        }
        RETURN_IF_ERROR(out.Append(sections[i].data(), sections[i].length()));
        written += sections[i].length();
      }
      if (written < file_bytes) {
        RETURN_IF_ERROR(out.Append(std::string(file_bytes - written, '\0')));
      }
      return util::OkStatus();
    });
  });
}

}  // namespace jim::storage
