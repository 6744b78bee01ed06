#include "fuzz/fuzz_targets.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/join_predicate.h"
#include "core/tuple_store.h"
#include "query/universal_table.h"
#include "relational/catalog.h"
#include "relational/dictionary.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "serve/checkpoint.h"
#include "serve/protocol.h"
#include "storage/mapped_store.h"
#include "storage/store_writer.h"
#include "util/check.h"
#include "util/status.h"
#include "util/string_util.h"
#include "workload/travel.h"

namespace jim::fuzz {

namespace {

using Image = std::vector<uint8_t>;

/// The schema every goal-parse iteration runs against: the paper's running
/// example plus a qualified attribute, so bare and qualified spellings both
/// have something to resolve to.
const rel::Schema& GoalSchema() {
  static const rel::Schema* schema = [] {
    auto* s = new rel::Schema();
    s->AddAttribute({"From", rel::ValueType::kString, ""});
    s->AddAttribute({"To", rel::ValueType::kString, ""});
    s->AddAttribute({"City", rel::ValueType::kString, "Hotels"});
    s->AddAttribute({"Airline", rel::ValueType::kString, ""});
    s->AddAttribute({"Discount", rel::ValueType::kString, ""});
    return s;
  }();
  return *schema;
}

uint64_t LittleEndian(const uint8_t* bytes, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) v |= uint64_t{bytes[i]} << (8 * i);
  return v;
}

/// The range rejection full validation owes `image`, found by reading its
/// code sections byte by byte: the message naming the first code at or past
/// the shared dictionary's size (NULL excepted) in the lowest column that
/// holds one, or "" when every code is in range. Independent of the
/// checksum pass that bounds the codes inside Open.
std::string ExpectedRangeRejection(const uint8_t* image, size_t size) {
  constexpr size_t kHeader = 48;
  constexpr size_t kEntry = 32;
  if (size < kHeader) return "";
  const uint64_t num_attributes = LittleEndian(image + 16, 4);
  const uint64_t num_sections = LittleEndian(image + 20, 4);
  const uint64_t dict_size = LittleEndian(image + 24, 8);
  std::string expected;
  uint64_t expected_column = num_attributes;
  for (uint64_t i = 0; i < num_sections && i < (size - kHeader) / kEntry;
       ++i) {
    const uint8_t* entry = image + kHeader + i * kEntry;
    const uint64_t column = LittleEndian(entry + 4, 4);
    const uint64_t offset = LittleEndian(entry + 8, 8);
    const uint64_t length = LittleEndian(entry + 16, 8);
    if (LittleEndian(entry, 4) != 4 /* CODES */ ||
        column >= expected_column || offset > size ||
        length > size - offset) {
      continue;
    }
    for (uint64_t t = 0; t < length / 4; ++t) {
      const uint64_t code = LittleEndian(image + offset + 4 * t, 4);
      if (code >= dict_size && code != rel::kNullCode) {
        expected = util::StrFormat(
            "code array %u row %zu holds code %u outside the shared "
            "dictionary of %llu entries",
            static_cast<unsigned>(column), static_cast<size_t>(t),
            static_cast<unsigned>(code),
            static_cast<unsigned long long>(dict_size));
        expected_column = column;
        break;
      }
    }
  }
  return expected;
}

/// Two seed relations with different shapes: the mixed-type relation the
/// format tests use (NULLs, NaN, strings with separators) and a wider
/// integer relation, so splices between the images cross section layouts,
/// not just values.
// GCC 12 falsely flags the moved-from std::variant<..., std::string> inside
// rel::Value as maybe-uninitialized when this function inlines into
// SeedImage (gcc bug 105562 family); the values are all initialized above.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
std::shared_ptr<const rel::Relation> SeedRelation(int variant) {
  using rel::Value;
  if (variant == 0) {
    rel::Schema schema;
    schema.AddAttribute({"i", rel::ValueType::kInt64, ""});
    schema.AddAttribute({"d", rel::ValueType::kDouble, ""});
    schema.AddAttribute({"s", rel::ValueType::kString, "Q"});
    rel::Relation relation{"fuzz_mixed", schema};
    relation.AddRowUnchecked({Value(int64_t{7}), Value(1.5), Value("x")});
    relation.AddRowUnchecked(
        {Value(int64_t{7}), Value(std::nan("")), Value("a,b\tc")});
    relation.AddRowUnchecked({Value::Null(), Value(2.5), Value("")});
    return std::make_shared<const rel::Relation>(std::move(relation));
  }
  rel::Schema schema;
  for (int a = 0; a < 6; ++a) {
    schema.AddAttribute(
        {"c" + std::to_string(a), rel::ValueType::kInt64, ""});
  }
  rel::Relation relation{"fuzz_wide", schema};
  for (int64_t t = 0; t < 8; ++t) {
    rel::Tuple row;
    for (int64_t a = 0; a < 6; ++a) {
      row.push_back(rel::Value(int64_t{(t * a) % 5}));
    }
    relation.AddRowUnchecked(std::move(row));
  }
  return std::make_shared<const rel::Relation>(std::move(relation));
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// The store behind seed image `variant`: the two relations above (one
/// factor each), Figure 1's Flights × Hotels (two factors) and a three-way
/// self-join of the mixed relation (three factors).
std::shared_ptr<const core::TupleStore> SeedStore(int variant) {
  if (variant < 2) return core::MakeRelationStore(SeedRelation(variant));
  if (variant == 2) {
    return query::UniversalTable::Build(workload::TravelCatalog(),
                                        {"Flights", "Hotels"})
        .value()
        .store();
  }
  rel::Catalog catalog;
  JIM_CHECK_OK(catalog.Add(*SeedRelation(0)));
  return query::UniversalTable::Build(
             catalog, {"fuzz_mixed", "fuzz_mixed", "fuzz_mixed"})
      .value()
      .store();
}

Image SeedImage(int variant, const std::string& scratch_path) {
  const auto store = SeedStore(variant);
  const util::Status written = storage::WriteStore(*store, scratch_path);
  JIM_CHECK(written.ok()) << written.ToString();
  std::ifstream in(scratch_path, std::ios::binary | std::ios::ate);
  JIM_CHECK(in.good()) << "cannot reopen seed image " << scratch_path;
  const std::streamsize size = in.tellg();
  in.seekg(0);
  Image image(static_cast<size_t>(size));
  JIM_CHECK(
      in.read(reinterpret_cast<char*>(image.data()), size).good());
  return image;
}

}  // namespace

std::vector<std::vector<uint8_t>> JimcSeedImages(
    const std::string& scratch_path) {
  std::vector<Image> images;
  for (int variant = 0; variant < 4; ++variant) {
    images.push_back(SeedImage(variant, scratch_path));
  }
  return images;
}

int FuzzJimcImage(const uint8_t* data, size_t size,
                  const std::string& scratch_path) {
  {
    std::ofstream out(scratch_path, std::ios::binary | std::ios::trunc);
    JIM_CHECK(out.good()) << "cannot stage fuzz image at " << scratch_path;
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    JIM_CHECK(out.good()) << "short write staging fuzz image";
  }
  auto opened = storage::MappedTupleStore::Open(scratch_path);
  if (!opened.ok()) {
    const util::Status& status = opened.status();
    // A rejection must be one of Open's documented error codes — an
    // unknown code would mean some validation branch leaks an untyped or
    // mis-typed failure.
    const util::StatusCode code = status.code();
    JIM_CHECK(code == util::StatusCode::kInvalidArgument ||
              code == util::StatusCode::kNotFound ||
              code == util::StatusCode::kInternal ||
              code == util::StatusCode::kUnimplemented)
        << "unexpected rejection code: " << status.ToString();
    JIM_CHECK(!status.message().empty())
        << "rejection without a diagnostic message";
    // A range rejection must name a code that really is out of range: the
    // bound Open keeps during its checksum pass can never reject a valid
    // file.
    if (status.message().find("outside the shared dictionary") !=
        std::string::npos) {
      const std::string expected = ExpectedRangeRejection(data, size);
      JIM_CHECK(!expected.empty() &&
                status.message().find(expected) != std::string::npos)
          << "range rejection '" << status.message()
          << "' not confirmed by a byte scan (expected '" << expected
          << "')";
    }
    return 0;
  }

  // Accepted: Open promised every later access is safe, so take it at its
  // word and read everything. The sanitizers (and the mapping bounds) are
  // the referee; `mix` defeats dead-read elimination.
  const auto& store = **opened;
  JIM_CHECK_EQ(store.num_attributes(), store.schema().num_attributes());
  uint64_t mix = store.name().size();
  const size_t columns = store.num_attributes();
  // A product of valid factors can be far larger than the file; the scan
  // and the engine build below stop at kMaxScannedTuples.
  constexpr size_t kMaxScannedTuples = size_t{1} << 16;
  const size_t scanned = std::min(store.num_tuples(), kMaxScannedTuples);
  std::vector<uint32_t> row(columns);
  for (size_t t = 0; t < scanned; ++t) {
    store.TupleCodes(t, row.data());
    for (size_t a = 0; a < columns; ++a) {
      JIM_CHECK_EQ(row[a], store.code(t, a))
          << "TupleCodes vs code() drift at (" << t << ", " << a << ")";
      const rel::Value value = store.DecodeValue(t, a);
      JIM_CHECK_EQ(value.is_null(), row[a] == rel::kNullCode)
          << "NULL sentinel drift at (" << t << ", " << a << ")";
      mix = mix * 1099511628211ull + row[a];
      if (!value.is_null()) mix += value.ToString().size();
    }
  }
  std::vector<uint32_t> column(scanned);
  for (size_t a = 0; a < columns; ++a) {
    store.ColumnCodes(a, 0, column.size(), column.data());
    for (size_t t = 0; t < column.size(); ++t) {
      JIM_CHECK_EQ(column[t], store.code(t, a))
          << "ColumnCodes vs code() drift at (" << t << ", " << a << ")";
    }
  }
  store.CheckInvariants();
  // The class build walks the file's factors; its audit re-derives every
  // tuple's class from the codes.
  if (store.num_tuples() <= kMaxScannedTuples) {
    const core::InferenceEngine engine(*opened, /*pool=*/nullptr);
    engine.CheckInvariants();
    mix += engine.num_classes();
  }
  // Volatile sink: the cell scan above must not be dead-read-eliminated.
  volatile uint64_t sink = mix;
  (void)sink;
  return 1;
}

int FuzzGoalParse(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  auto parsed = core::JoinPredicate::Parse(GoalSchema(), text);
  if (!parsed.ok()) {
    // Every rejection — malformed syntax and unknown attribute names alike —
    // is kInvalidArgument: the input text is bad, nothing is "missing"
    // (kNotFound stays reserved for absent files/relations). Anything else
    // leaks.
    const util::StatusCode code = parsed.status().code();
    JIM_CHECK(code == util::StatusCode::kInvalidArgument)
        << "unexpected goal rejection code: " << parsed.status().ToString();
    JIM_CHECK(!parsed.status().message().empty())
        << "goal rejection without a diagnostic message";
    return 0;
  }
  const core::JoinPredicate& predicate = *parsed;
  // Whatever Parse accepts must be a canonical partition over the schema.
  predicate.partition().CheckInvariants();
  JIM_CHECK_EQ(predicate.num_attributes(),
               GoalSchema().num_attributes());
  (void)predicate.ToString();
  // Non-empty predicates must round-trip through their SQL rendering (the
  // empty predicate renders as "TRUE", which Parse deliberately rejects).
  if (!predicate.IsEmptyPredicate()) {
    auto reparsed =
        core::JoinPredicate::Parse(GoalSchema(), predicate.ToSqlWhere());
    JIM_CHECK(reparsed.ok())
        << "ToSqlWhere of an accepted goal does not re-parse: "
        << predicate.ToSqlWhere();
    JIM_CHECK(*reparsed == predicate)
        << "goal round trip changed the predicate: " << predicate.ToString()
        << " vs " << reparsed->ToString();
  }
  return 1;
}

int FuzzRequestLine(const uint8_t* data, size_t size) {
  const std::string line(reinterpret_cast<const char*>(data), size);
  auto parsed = serve::ParseRequest(line);
  if (!parsed.ok()) {
    // Malformed JSON, a missing verb and a wrongly-typed member are all the
    // client's bad input.
    JIM_CHECK(parsed.status().code() == util::StatusCode::kInvalidArgument)
        << "unexpected request rejection code: "
        << parsed.status().ToString();
    JIM_CHECK(!parsed.status().message().empty())
        << "request rejection without a diagnostic message";
    return 0;
  }
  const serve::Request& request = *parsed;
  const std::string rendered = serve::RequestToLine(request);
  auto reparsed = serve::ParseRequest(rendered);
  JIM_CHECK(reparsed.ok()) << "RequestToLine of an accepted request does "
                              "not re-parse: "
                           << rendered;
  const serve::Request& again = *reparsed;
  JIM_CHECK(again.verb == request.verb && again.session == request.session &&
            again.instance == request.instance &&
            again.strategy == request.strategy && again.goal == request.goal &&
            again.seed == request.seed &&
            again.max_steps == request.max_steps &&
            again.class_id == request.class_id &&
            again.has_class_id == request.has_class_id &&
            again.answer == request.answer &&
            again.has_answer == request.has_answer)
      << "request round trip changed a member: " << line << " -> "
      << rendered;
  return 1;
}

int FuzzCheckpoint(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  auto decoded = serve::DecodeCheckpoint(bytes, "fuzz checkpoint");
  if (!decoded.ok()) {
    // A checkpoint file is daemon input: every way it can be bad — short,
    // torn, bit-rotted, hand-built — is the file's fault.
    JIM_CHECK(decoded.status().code() == util::StatusCode::kInvalidArgument)
        << "unexpected checkpoint rejection code: "
        << decoded.status().ToString();
    JIM_CHECK(!decoded.status().message().empty())
        << "checkpoint rejection without a diagnostic message";
    return 0;
  }
  // The format has one encoding per checkpoint, so whatever decodes must
  // re-encode to the very bytes it came from.
  JIM_CHECK(serve::EncodeCheckpoint(*decoded) == bytes)
      << "checkpoint re-encodes differently (" << size << " bytes in)";
  return 1;
}

}  // namespace jim::fuzz
