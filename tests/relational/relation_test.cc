#include "relational/relation.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "relational/catalog.h"
#include "relational/csv_io.h"
#include "relational/schema.h"
#include "support/materialize.h"

namespace jim::rel {
namespace {

Schema TestSchema() {
  Schema schema;
  schema.AddAttribute({"id", ValueType::kInt64, ""});
  schema.AddAttribute({"name", ValueType::kString, ""});
  schema.AddAttribute({"score", ValueType::kDouble, ""});
  return schema;
}

TEST(SchemaTest, IndexOfBareAndQualified) {
  Schema schema;
  schema.AddAttribute({"City", ValueType::kString, "Hotels"});
  schema.AddAttribute({"City", ValueType::kString, "Flights"});
  schema.AddAttribute({"Airline", ValueType::kString, "Flights"});
  EXPECT_EQ(schema.IndexOf("Hotels.City").value(), 0u);
  EXPECT_EQ(schema.IndexOf("Flights.City").value(), 1u);
  EXPECT_EQ(schema.IndexOf("Airline").value(), 2u);
  // Bare "City" is ambiguous.
  EXPECT_EQ(schema.IndexOf("City").status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(schema.IndexOf("Nope").status().code(),
            util::StatusCode::kNotFound);
}

TEST(SchemaTest, ConcatAppliesQualifiers) {
  const Schema left = Schema::FromNames({"a", "b"});
  const Schema right = Schema::FromNames({"b", "c"});
  const Schema combined = Schema::Concat(left, "L", right, "R");
  EXPECT_EQ(combined.num_attributes(), 4u);
  EXPECT_EQ(combined.Names(),
            (std::vector<std::string>{"L.a", "L.b", "R.b", "R.c"}));
}

TEST(RelationTest, AddRowValidatesArityAndTypes) {
  Relation relation{"t", TestSchema()};
  EXPECT_TRUE(
      relation.AddRow({Value(int64_t{1}), Value("x"), Value(0.5)}).ok());
  // Wrong arity.
  EXPECT_FALSE(relation.AddRow({Value(int64_t{1}), Value("x")}).ok());
  // Wrong type in column 0.
  EXPECT_FALSE(relation.AddRow({Value("1"), Value("x"), Value(0.5)}).ok());
  // NULLs allowed anywhere.
  EXPECT_TRUE(relation.AddRow({Value(), Value(), Value()}).ok());
  EXPECT_EQ(relation.num_rows(), 2u);
}

TEST(RelationTest, DeduplicateTreatsNullRowsAsEqual) {
  Relation relation{"t", Schema::FromNames({"x"})};
  ASSERT_TRUE(relation.AddRow({Value()}).ok());
  ASSERT_TRUE(relation.AddRow({Value()}).ok());
  EXPECT_EQ(Deduplicated(relation).num_rows(), 1u);
}

TEST(CatalogTest, AddAndGet) {
  Catalog catalog;
  EXPECT_TRUE(catalog.Add(Relation{"t", TestSchema()}).ok());
  EXPECT_EQ(catalog.Add(Relation{"t", TestSchema()}).code(),
            util::StatusCode::kAlreadyExists);
  EXPECT_FALSE(catalog.Add(Relation{"", TestSchema()}).ok());
  EXPECT_TRUE(catalog.Get("t").ok());
  EXPECT_EQ(catalog.Get("nope").status().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(catalog.Names(), (std::vector<std::string>{"t"}));
  EXPECT_EQ(catalog.Names().size(), 1u);
}

TEST(CsvIoTest, TypeInference) {
  const auto relation =
      RelationFromCsv("t", "id,score,name\n1,0.5,a\n2,1,b\n3,,c\n").value();
  EXPECT_EQ(relation.schema().attribute(0).type, ValueType::kInt64);
  EXPECT_EQ(relation.schema().attribute(1).type, ValueType::kDouble);
  EXPECT_EQ(relation.schema().attribute(2).type, ValueType::kString);
  EXPECT_EQ(relation.num_rows(), 3u);
  EXPECT_TRUE(relation.row(2)[1].is_null());  // empty field -> NULL
}

TEST(CsvIoTest, IntColumnWithDoubleBecomesDouble) {
  const auto relation = RelationFromCsv("t", "x\n1\n2.5\n").value();
  EXPECT_EQ(relation.schema().attribute(0).type, ValueType::kDouble);
}

TEST(CsvIoTest, QuotedFieldsAndEmptyFields) {
  const auto relation =
      RelationFromCsv("t", "a,b\nhello,1\n\"x,y\",2\n,3\n").value();
  ASSERT_EQ(relation.num_rows(), 3u);
  EXPECT_EQ(relation.row(0)[0].AsString(), "hello");
  EXPECT_EQ(relation.row(1)[0].AsString(), "x,y");  // quoted delimiter
  EXPECT_TRUE(relation.row(2)[0].is_null());        // empty field -> NULL
  EXPECT_EQ(relation.row(2)[1].AsInt64(), 3);
}

TEST(CsvIoTest, Errors) {
  EXPECT_FALSE(RelationFromCsv("t", "").ok());
  EXPECT_FALSE(RelationFromCsv("t", "a,b\n1\n").ok());  // ragged row
  EXPECT_FALSE(RelationFromCsv("t", "a,\n1,2\n").ok()); // empty header name
}

TEST(CsvIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/jim_relation.csv";
  std::ofstream(path) << "k,v\n1,x\n2,y\n";
  const auto loaded = LoadRelationFromCsvFile(path).value();
  EXPECT_EQ(loaded.name(), "jim_relation");  // basename default
  EXPECT_EQ(loaded.num_rows(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jim::rel
