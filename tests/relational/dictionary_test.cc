#include "relational/dictionary.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "relational/catalog.h"
#include "relational/relation.h"
#include "relational/schema.h"

namespace jim::rel {
namespace {

TEST(DictionaryTest, CodesAreDenseAndFirstCome) {
  Dictionary dict;
  EXPECT_EQ(dict.GetOrAdd(Value("Paris")), 0u);
  EXPECT_EQ(dict.GetOrAdd(Value("Lille")), 1u);
  EXPECT_EQ(dict.GetOrAdd(Value("Paris")), 0u);  // stable on re-insert
  EXPECT_EQ(dict.GetOrAdd(Value(int64_t{42})), 2u);
  EXPECT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.value(0).AsString(), "Paris");
  EXPECT_EQ(dict.value(2).AsInt64(), 42);
}

TEST(DictionaryTest, EqualityIsTypeStrict) {
  // 1 (int), 1.0 (double) and "1" (string) are three distinct values under
  // Value::Equals, so they must get three distinct codes.
  Dictionary dict;
  const uint32_t as_int = dict.GetOrAdd(Value(int64_t{1}));
  const uint32_t as_double = dict.GetOrAdd(Value(1.0));
  const uint32_t as_string = dict.GetOrAdd(Value("1"));
  EXPECT_NE(as_int, as_double);
  EXPECT_NE(as_int, as_string);
  EXPECT_NE(as_double, as_string);
  EXPECT_EQ(dict.size(), 3u);
}

TEST(DictionaryTest, EveryNanOccurrenceMintsAFreshCode) {
  // NaN ≠ NaN under Value::Equals, so occurrences must never share a code
  // (and must not pile up in one hash bucket — they bypass the map).
  Dictionary dict;
  const double nan = std::nan("");
  const uint32_t first = dict.GetOrAdd(Value(nan));
  const uint32_t second = dict.GetOrAdd(Value(nan));
  EXPECT_NE(first, second);
  EXPECT_EQ(dict.size(), 2u);
  // Regular values interleaved with NaNs still dedupe normally.
  const uint32_t x = dict.GetOrAdd(Value(1.5));
  dict.GetOrAdd(Value(nan));
  EXPECT_EQ(dict.GetOrAdd(Value(1.5)), x);
}

Relation TwoColumnRelation() {
  Relation relation{"r", Schema::FromNames({"a", "b"})};
  relation.AddRowUnchecked({Value("x"), Value("y")});
  relation.AddRowUnchecked({Value("y"), Value::Null()});
  relation.AddRowUnchecked({Value("x"), Value("x")});
  return relation;
}

TEST(EncodeColumnTest, NullGetsTheSentinelAndNoDictionaryEntry) {
  const Relation relation = TwoColumnRelation();
  const EncodedColumn column = EncodeColumn(relation, 1);
  ASSERT_EQ(column.codes.size(), 3u);
  EXPECT_EQ(column.codes[1], kNullCode);
  EXPECT_EQ(column.dictionary.size(), 2u);  // "y" and "x"; no NULL entry
  EXPECT_EQ(column.dictionary.value(column.codes[0]).AsString(), "y");
}

TEST(EncodeColumnTest, EqualValuesShareACodeWithinAColumn) {
  const Relation relation = TwoColumnRelation();
  const EncodedColumn column = EncodeColumn(relation, 0);
  EXPECT_EQ(column.codes[0], column.codes[2]);  // "x" twice
  EXPECT_NE(column.codes[0], column.codes[1]);
}

TEST(EncodedRelationTest, RoundTripsEveryCell) {
  const Relation relation = TwoColumnRelation();
  const EncodedRelation encoded =
      EncodedRelation::FromRelation(relation, /*pool=*/nullptr);
  ASSERT_EQ(encoded.num_columns(), relation.num_attributes());
  for (size_t c = 0; c < encoded.num_columns(); ++c) {
    ASSERT_EQ(encoded.column(c).codes.size(), relation.num_rows());
  }
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    for (size_t c = 0; c < relation.num_attributes(); ++c) {
      const Value& original = relation.row(r)[c];
      const uint32_t code = encoded.code(r, c);
      if (original.is_null()) {
        EXPECT_EQ(code, kNullCode);
      } else {
        ASSERT_NE(code, kNullCode);
        EXPECT_TRUE(original.Equals(encoded.column(c).dictionary.value(code)))
            << "row " << r << " col " << c;
      }
    }
  }
  EXPECT_GT(encoded.ApproxBytes(), 0u);
}

TEST(EncodedRelationTest, ColumnDictionariesAreIndependent) {
  // "x" appears in both columns; its *local* code may differ per column —
  // cross-column comparability is the shared-dictionary layer's job.
  const Relation relation = TwoColumnRelation();
  const EncodedRelation encoded =
      EncodedRelation::FromRelation(relation, /*pool=*/nullptr);
  EXPECT_EQ(encoded.column(0).dictionary.value(encoded.code(2, 0)).AsString(),
            "x");
  EXPECT_EQ(encoded.column(1).dictionary.value(encoded.code(2, 1)).AsString(),
            "x");
}

/// A column big enough to cross the parallel-ingest threshold, mixing
/// duplicates, NULLs, NaNs (fresh code per occurrence), and type collisions
/// — everything whose code assignment depends on scan order.
Relation WideMixedRelation(size_t rows) {
  Relation relation{"wide", Schema::FromNames({"a"})};
  for (size_t r = 0; r < rows; ++r) {
    switch (r % 7) {
      case 0:
        relation.AddRowUnchecked({Value(static_cast<int64_t>(r % 31))});
        break;
      case 1:
        relation.AddRowUnchecked({Value("s" + std::to_string(r % 13))});
        break;
      case 2:
        relation.AddRowUnchecked({Value::Null()});
        break;
      case 3:
        relation.AddRowUnchecked({Value(std::nan(""))});
        break;
      case 4:
        relation.AddRowUnchecked({Value(static_cast<double>(r % 11))});
        break;
      case 5:
        relation.AddRowUnchecked({Value(std::to_string(r % 31))});
        break;
      default:
        relation.AddRowUnchecked({Value(int64_t{-7})});
        break;
    }
  }
  return relation;
}

TEST(ParallelEncodeTest, CodesBitwiseIdenticalToSerialAtAnyThreadCount) {
  const Relation relation = WideMixedRelation(6000);
  const EncodedColumn serial = EncodeColumn(relation, 0);
  for (const size_t threads : {2u, 3u, 8u}) {
    exec::ThreadPool pool(threads);
    const EncodedColumn parallel = EncodeColumn(relation, 0, &pool);
    ASSERT_EQ(parallel.codes, serial.codes) << threads << " threads";
    ASSERT_EQ(parallel.dictionary.size(), serial.dictionary.size());
    for (uint32_t code = 0; code < serial.dictionary.size(); ++code) {
      // Same value behind every code, NaN payloads included (compare the
      // rendering: NaN never Equals itself).
      EXPECT_EQ(parallel.dictionary.value(code).ToString(),
                serial.dictionary.value(code).ToString())
          << "code " << code << " at " << threads << " threads";
      EXPECT_EQ(parallel.dictionary.value(code).type(),
                serial.dictionary.value(code).type());
    }
  }
}

TEST(ParallelEncodeTest, NullPoolAndSmallColumnsTakeTheSerialPath) {
  const Relation relation = WideMixedRelation(100);  // below the threshold
  const EncodedColumn serial = EncodeColumn(relation, 0);
  exec::ThreadPool pool(4);
  const EncodedColumn small = EncodeColumn(relation, 0, &pool);
  EXPECT_EQ(small.codes, serial.codes);
  const EncodedColumn no_pool = EncodeColumn(relation, 0, nullptr);
  EXPECT_EQ(no_pool.codes, serial.codes);
}

TEST(ParallelEncodeTest, ConcurrentCatalogEncodesOnTheSharedPoolAreSafe) {
  // Catalog::GetEncoded dispatches large relations to the process-wide
  // SharedPool; several threads hitting the first (uncached) encode at once
  // must be race-free and agree bitwise with the serial encode. This is the
  // scenario the TSAN stage exists for.
  Relation big = WideMixedRelation(6000);
  big.set_name("big");
  const EncodedColumn serial = EncodeColumn(big, 0);
  Catalog catalog;
  ASSERT_TRUE(catalog.Add(std::move(big)).ok());
  std::vector<std::shared_ptr<const EncodedRelation>> results(4);
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    threads.emplace_back([&catalog, &results, i] {
      results[i] = catalog.GetEncoded("big").value();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& encoded : results) {
    ASSERT_NE(encoded, nullptr);
    ASSERT_EQ(encoded->column(0).codes, serial.codes);
  }
}

TEST(ParallelEncodeTest, MergeChunkDictionariesKeepsFirstOccurrenceOrder) {
  std::vector<Dictionary> chunks(2);
  chunks[0].GetOrAdd(Value("b"));
  chunks[0].GetOrAdd(Value("a"));
  chunks[1].GetOrAdd(Value("a"));
  chunks[1].GetOrAdd(Value("c"));
  Dictionary target;
  const auto remaps = MergeChunkDictionaries(chunks, target);
  ASSERT_EQ(target.size(), 3u);
  EXPECT_EQ(target.value(0).AsString(), "b");
  EXPECT_EQ(target.value(1).AsString(), "a");
  EXPECT_EQ(target.value(2).AsString(), "c");
  EXPECT_EQ(remaps[0], (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(remaps[1], (std::vector<uint32_t>{1, 2}));
}

}  // namespace
}  // namespace jim::rel
