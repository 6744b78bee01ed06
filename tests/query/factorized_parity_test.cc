// Byte-level parity of the factorized UniversalTable against the historical
// materializing builder: same candidate tuples, in the same order, with the
// same sampling draws and the same dedup semantics — over randomized
// catalogs with duplicates, NULLs, mixed types, and self-joins. The legacy
// builder is reimplemented here verbatim (fold of SampledCrossProduct, then
// rel::Deduplicated) as an independent reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/tuple_store.h"
#include "query/universal_table.h"
#include "relational/catalog.h"
#include "relational/join.h"
#include "relational/operators.h"
#include "relational/relation.h"
#include "storage/mapped_store.h"
#include "storage/store_writer.h"
#include "support/equality.h"
#include "support/materialize.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/tpch.h"
#include "workload/travel.h"
#include "util/check.h"

namespace jim::query {
namespace {

// Parity suites run with the invariant auditor on (see util/check.h): every
// JIM_AUDIT checkpoint inside the engine re-derives its CheckInvariants
// contract while the parity assertions run, so a divergence is caught at
// the mutation that introduced it, not at the final transcript diff.
const bool kAuditInvariantsOn = [] {
  ::jim::util::SetAuditInvariants(true);
  return true;
}();

/// The pre-factorization UniversalTable::Build, kept as the parity
/// reference: fold the product left to right through SampledCrossProduct
/// (sampling down to the cap after each step), then dedup rows.
rel::Relation LegacyUniversalRelation(
    const rel::Catalog& catalog, const std::vector<std::string>& names,
    const UniversalTableOptions& options) {
  std::vector<const rel::Relation*> resolved;
  std::vector<std::string> aliases;
  for (size_t i = 0; i < names.size(); ++i) {
    resolved.push_back(catalog.Get(names[i]).value());
    size_t total = 0;
    size_t occurrence = 0;
    for (size_t j = 0; j < names.size(); ++j) {
      if (names[j] == names[i]) {
        if (j < i) ++occurrence;
        ++total;
      }
    }
    aliases.push_back(total == 1
                          ? names[i]
                          : util::StrFormat("%s_%zu", names[i].c_str(),
                                            occurrence + 1));
  }

  util::Rng rng(options.seed);
  const size_t cap = options.sample_cap == 0
                         ? std::numeric_limits<size_t>::max()
                         : options.sample_cap;
  rel::Relation product = rel::RenameRelation(*resolved[0], aliases[0]);
  for (size_t i = 1; i < resolved.size(); ++i) {
    const rel::Relation next = rel::RenameRelation(*resolved[i], aliases[i]);
    product = rel::SampledCrossProduct(product, next, cap, rng,
                                       rel::JoinOptions::Named("universal"))
                  .value();
  }
  product = rel::Deduplicated(product);
  product.set_name("universal");
  return product;
}

/// Rows compared at representation level (NULL == NULL, type-tagged): the
/// strongest equality both paths can guarantee and the one dedup uses.
void ExpectSameRows(const rel::Relation& expected, const rel::Relation& actual,
                    const std::string& context) {
  ASSERT_EQ(actual.num_rows(), expected.num_rows()) << context;
  ASSERT_EQ(actual.num_attributes(), expected.num_attributes()) << context;
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    EXPECT_EQ(rel::TupleRepresentationKey(actual.row(r)),
              rel::TupleRepresentationKey(expected.row(r)))
        << context << " row " << r;
  }
}

void ExpectParity(const rel::Catalog& catalog,
                  const std::vector<std::string>& names,
                  const UniversalTableOptions& options,
                  const std::string& context) {
  const auto table = UniversalTable::Build(catalog, names, options);
  ASSERT_TRUE(table.ok()) << context;
  const rel::Relation legacy =
      LegacyUniversalRelation(catalog, names, options);
  const rel::Relation materialized = Materialize(*table);

  EXPECT_EQ(materialized.schema(), legacy.schema()) << context;
  EXPECT_EQ(materialized.name(), legacy.name()) << context;
  ExpectSameRows(legacy, materialized, context);

  // The store's codes agree with the decoded rows: equal codes ⇔ strictly
  // equal values, NULLs sentinel-coded.
  const core::TupleStore& store = *table->store();
  std::vector<uint32_t> codes(store.num_attributes());
  for (size_t t = 0; t < store.num_tuples(); ++t) {
    store.TupleCodes(t, codes.data());
    const rel::Tuple& row = materialized.row(t);
    for (size_t a = 0; a < row.size(); ++a) {
      EXPECT_EQ(codes[a] == rel::kNullCode, row[a].is_null())
          << context << " t=" << t << " a=" << a;
      for (size_t b = a + 1; b < row.size(); ++b) {
        const bool codes_equal =
            codes[a] != rel::kNullCode && codes[a] == codes[b];
        EXPECT_EQ(codes_equal, row[a].Equals(row[b]))
            << context << " t=" << t << " (" << a << "," << b << ")";
      }
    }
  }
  // The column walk the class build reads (ColumnCodes), in blocks of 7 so
  // that blocks start inside a mixed-radix digit's run, agrees with code().
  constexpr size_t kBlock = 7;
  std::vector<uint32_t> column(kBlock);
  for (size_t a = 0; a < store.num_attributes(); ++a) {
    for (size_t first = 0; first < store.num_tuples(); first += kBlock) {
      const size_t count = std::min(kBlock, store.num_tuples() - first);
      store.ColumnCodes(a, first, count, column.data());
      for (size_t k = 0; k < count; ++k) {
        EXPECT_EQ(column[k], store.code(first + k, a))
            << context << " t=" << first + k << " a=" << a;
      }
    }
  }
}

/// A random relation with duplicates, NULLs, and type-colliding payloads
/// (1 vs "1" vs 1.0) — the cases dedup and dictionary encoding must not
/// conflate.
rel::Relation RandomRelation(const std::string& name, size_t rows,
                             size_t columns, util::Rng& rng) {
  std::vector<std::string> column_names;
  for (size_t c = 0; c < columns; ++c) {
    column_names.push_back(util::StrFormat("%s_c%zu", name.c_str(), c));
  }
  rel::Relation relation{name, rel::Schema::FromNames(column_names)};
  using rel::Value;
  for (size_t r = 0; r < rows; ++r) {
    rel::Tuple row;
    for (size_t c = 0; c < columns; ++c) {
      const int64_t payload = rng.UniformInt(0, 3);
      switch (rng.UniformInt(0, 3)) {
        case 0:
          row.push_back(Value::Null());
          break;
        case 1:
          row.push_back(Value(payload));
          break;
        case 2:
          row.push_back(Value(static_cast<double>(payload)));
          break;
        default:
          row.push_back(Value(std::to_string(payload)));
          break;
      }
    }
    relation.AddRowUnchecked(std::move(row));
  }
  return relation;
}

TEST(FactorizedParityTest, RandomizedCatalogsDenseAndSampled) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed * 1000 + 7);
    rel::Catalog catalog;
    ASSERT_TRUE(
        catalog.Add(RandomRelation("A", 3 + seed % 5, 2, rng)).ok());
    ASSERT_TRUE(
        catalog.Add(RandomRelation("B", 2 + seed % 4, 1 + seed % 2, rng))
            .ok());
    ASSERT_TRUE(catalog.Add(RandomRelation("C", 4, 2, rng)).ok());

    for (const size_t cap : {size_t{0}, size_t{10}, size_t{25}}) {
      UniversalTableOptions options;
      options.sample_cap = cap;
      options.seed = seed * 31 + 5;
      const std::string context =
          util::StrFormat("seed=%zu cap=%zu", size_t{seed}, cap);
      ExpectParity(catalog, {"A", "B"}, options, context + " A×B");
      ExpectParity(catalog, {"A", "B", "C"}, options, context + " A×B×C");
      ExpectParity(catalog, {"B", "B"}, options, context + " B×B");
      ExpectParity(catalog, {"A"}, options, context + " A");
    }
  }
}

TEST(FactorizedParityTest, TravelAndSelfJoin) {
  const rel::Catalog catalog = workload::TravelCatalog();
  ExpectParity(catalog, {"Flights", "Hotels"}, {}, "travel");
  ExpectParity(catalog, {"Flights", "Flights"}, {}, "self-join");
  ExpectParity(catalog, {"Hotels"}, {}, "single");
}

TEST(FactorizedParityTest, TpchSampledScenarios) {
  util::Rng rng(2026);
  workload::TpchSpec spec;
  spec.num_customers = 20;
  spec.num_orders = 30;
  const rel::Catalog catalog = workload::MakeTpchCatalog(spec, rng);
  for (const workload::TpchScenario& scenario :
       workload::TpchScenarios()) {
    UniversalTableOptions options;
    options.sample_cap = 500;
    options.seed = 606;
    ExpectParity(catalog, scenario.relations, options, scenario.name);
  }
}

TEST(FactorizedParityTest, SeparatorEmbeddingStringsDedupExactly) {
  // Representation keys are length-prefixed, so payloads that embed key
  // syntax (separators, digit runs) can never make two different candidate
  // tuples collide — the per-source dedup of the dense path must agree
  // with the legacy whole-tuple dedup on these adversarial strings.
  using rel::Value;
  rel::Relation left{"L", rel::Schema::FromNames({"a"})};
  left.AddRowUnchecked({Value(std::string("x\x1f") + "3y")});
  left.AddRowUnchecked({Value("x")});
  left.AddRowUnchecked({Value("x")});  // genuine duplicate
  rel::Relation right{"R", rel::Schema::FromNames({"b"})};
  right.AddRowUnchecked({Value("y")});
  right.AddRowUnchecked({Value(std::string("\x1f") + "3yy")});
  right.AddRowUnchecked({Value("1:x")});
  rel::Catalog catalog;
  ASSERT_TRUE(catalog.Add(std::move(left)).ok());
  ASSERT_TRUE(catalog.Add(std::move(right)).ok());
  ExpectParity(catalog, {"L", "R"}, {}, "separator-embedding");
}

TEST(FactorizedParityTest, NanDoublesNeverCompareEqualEvenInSelfJoins) {
  // NaN ≠ NaN under Value::Equals. In a self-join, the diagonal candidate
  // pairs a NaN cell with *itself* through two occurrences — the codes must
  // still differ (each occurrence re-mints NaN codes; ExpectParity's
  // codes_equal ⇔ Equals sweep is the assertion that catches sharing).
  using rel::Value;
  const double nan = std::nan("");
  rel::Relation relation{"N", rel::Schema::FromNames({"a", "b"})};
  relation.AddRowUnchecked({Value(nan), Value(1.5)});
  relation.AddRowUnchecked({Value(nan), Value(nan)});
  relation.AddRowUnchecked({Value(1.5), Value(1.5)});
  rel::Catalog catalog;
  ASSERT_TRUE(catalog.Add(std::move(relation)).ok());
  ExpectParity(catalog, {"N", "N"}, {}, "nan-self-join");
  ExpectParity(catalog, {"N"}, {}, "nan-single");
  // The store contract the engine relies on: within one tuple a NaN cell's
  // code is its own (across tuples, one source NaN may keep one code), on
  // the factorized store and on a JIMC file written from it.
  for (const std::vector<std::string>& names :
       {std::vector<std::string>{"N", "N"}, std::vector<std::string>{"N"}}) {
    const auto table = UniversalTable::Build(catalog, names, {});
    ASSERT_TRUE(table.ok());
    core::CheckStoreInvariants(*table->store());
    const std::string path = ::testing::TempDir() + "factorized_nan_" +
                             std::to_string(names.size()) + ".jimc";
    ASSERT_TRUE(storage::WriteStore(*table->store(), path).ok());
    const auto mapped = storage::OpenStore(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    core::CheckStoreInvariants(**mapped);
  }
}

TEST(FactorizedParityTest, EmptyRelationYieldsEmptyProduct) {
  rel::Catalog catalog;
  ASSERT_TRUE(
      catalog.Add(rel::Relation{"E", rel::Schema::FromNames({"x"})}).ok());
  util::Rng rng(3);
  ASSERT_TRUE(catalog.Add(RandomRelation("F", 4, 2, rng)).ok());
  ExpectParity(catalog, {"E", "F"}, {}, "empty-left");
  ExpectParity(catalog, {"F", "E"}, {}, "empty-right");
}

}  // namespace
}  // namespace jim::query
