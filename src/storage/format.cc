#include "storage/format.h"

#include <algorithm>
#include <cstring>

#include "util/string_util.h"

namespace jim::storage {

namespace {

/// The one lane loop of Checksum and, with kCodes, of ChecksumCodes.
template <bool kCodes>
uint64_t LaneChecksum(const void* data, size_t size, uint32_t* code_end) {
  constexpr uint64_t kOffsetBasis = 14695981039346656037ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  constexpr size_t kLanes = 8;
  constexpr size_t kBlockBytes = kLanes * sizeof(uint64_t);
  constexpr size_t kBlockCodes = kBlockBytes / sizeof(uint32_t);
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t lanes[kLanes];
  for (uint64_t& lane : lanes) lane = kOffsetBasis;
  uint32_t ends[kBlockCodes] = {};  // by code position within a block
  const auto keep_ends = [&ends](const uint8_t* codes, size_t count) {
    for (size_t k = 0; k < count; ++k) {
      uint32_t code;
      std::memcpy(&code, codes + k * sizeof(code), sizeof(code));
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_BIG_ENDIAN__)
      code = __builtin_bswap32(code);
#endif
      ends[k] = std::max(ends[k], code + 1);
    }
  };
  const size_t blocks_end = size - size % kBlockBytes;
  for (size_t i = 0; i < blocks_end; i += kBlockBytes) {
    for (size_t l = 0; l < kLanes; ++l) {
      uint64_t word;
      std::memcpy(&word, bytes + i + l * sizeof(uint64_t), sizeof(word));
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_BIG_ENDIAN__)
      word = __builtin_bswap64(word);
#endif
      lanes[l] = (lanes[l] ^ word) * kPrime;
    }
    if constexpr (kCodes) keep_ends(bytes + i, kBlockCodes);
  }
  uint64_t hash = (kOffsetBasis ^ static_cast<uint64_t>(size)) * kPrime;
  for (const uint64_t lane : lanes) hash = (hash ^ lane) * kPrime;
  for (size_t i = blocks_end; i < size; ++i) hash = (hash ^ bytes[i]) * kPrime;
  if constexpr (kCodes) {
    keep_ends(bytes + blocks_end, (size - blocks_end) / sizeof(uint32_t));
    *code_end = *std::max_element(ends, ends + kBlockCodes);
  }
  return hash;
}

}  // namespace

uint64_t Checksum(const void* data, size_t size) {
  return LaneChecksum<false>(data, size, nullptr);
}

uint64_t ChecksumCodes(const void* data, size_t size, uint32_t* code_end) {
  return LaneChecksum<true>(data, size, code_end);
}

void AppendU8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void AppendU32(std::string& out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void AppendU64(std::string& out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void AppendDouble(std::string& out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

void AppendLengthPrefixed(std::string& out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

void AppendValueRecord(std::string& out, const rel::Value& value) {
  switch (value.type()) {
    case rel::ValueType::kInt64:
      AppendU8(out, static_cast<uint8_t>(ValueTag::kInt64));
      AppendU64(out, static_cast<uint64_t>(value.AsInt64()));
      return;
    case rel::ValueType::kDouble:
      AppendU8(out, static_cast<uint8_t>(ValueTag::kDouble));
      AppendDouble(out, value.AsDouble());
      return;
    case rel::ValueType::kString:
      AppendU8(out, static_cast<uint8_t>(ValueTag::kString));
      AppendLengthPrefixed(out, value.AsString());
      return;
    case rel::ValueType::kNull:
      break;
  }
  // NULL cells are the kNullCode sentinel in the code arrays; they never
  // reach a dictionary page. Reaching here is a writer bug, not bad input.
  std::abort();
}

util::Status ByteReader::Truncated(const char* what, size_t need) {
  return util::InvalidArgumentError(util::StrFormat(
      "%s: truncated %s at offset %zu (need %zu bytes, have %zu)",
      context_.c_str(), what, pos_, need, remaining()));
}

util::StatusOr<uint8_t> ByteReader::ReadU8() {
  if (remaining() < 1) return Truncated("u8", 1);
  return data_[pos_++];
}

util::StatusOr<uint32_t> ByteReader::ReadU32() {
  if (remaining() < 4) return Truncated("u32", 4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

util::StatusOr<uint64_t> ByteReader::ReadU64() {
  if (remaining() < 8) return Truncated("u64", 8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

util::StatusOr<double> ByteReader::ReadDouble() {
  ASSIGN_OR_RETURN(const uint64_t bits, ReadU64());
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

util::StatusOr<std::string> ByteReader::ReadLengthPrefixed() {
  ASSIGN_OR_RETURN(const uint32_t length, ReadU32());
  if (remaining() < length) return Truncated("string payload", length);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), length);
  pos_ += length;
  return s;
}

util::StatusOr<rel::Value> ByteReader::ReadValueRecord() {
  ASSIGN_OR_RETURN(const uint8_t tag, ReadU8());
  switch (static_cast<ValueTag>(tag)) {
    case ValueTag::kInt64: {
      ASSIGN_OR_RETURN(const uint64_t bits, ReadU64());
      return rel::Value(static_cast<int64_t>(bits));
    }
    case ValueTag::kDouble: {
      ASSIGN_OR_RETURN(const double v, ReadDouble());
      return rel::Value(v);
    }
    case ValueTag::kString: {
      ASSIGN_OR_RETURN(std::string s, ReadLengthPrefixed());
      return rel::Value(std::move(s));
    }
  }
  return util::InvalidArgumentError(util::StrFormat(
      "%s: unknown value tag %u at offset %zu", context_.c_str(),
      unsigned{tag}, pos_ - 1));
}

}  // namespace jim::storage
