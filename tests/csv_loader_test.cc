#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "engine/scan_db.h"
#include "storage/csv_loader.h"
#include "tests/test_util.h"
#include "zql/executor.h"

namespace zv {
namespace {

constexpr char kCsv[] =
    "year,product,region,sales,note\n"
    "2014,chair,east,10.5,ok\n"
    "2015,chair,west,11.0,\n"
    "2014,desk,east,20.25,fine\n"
    "2015,desk,west,19.75,ok\n";

TEST(CsvLoaderTest, InfersTypes) {
  ZV_ASSERT_OK_AND_ASSIGN(CsvTable csv, ParseCsv(kCsv));
  ZV_ASSERT_OK_AND_ASSIGN(Schema schema, InferCsvSchema(csv));
  // year: low-cardinality ints -> categorical; product/region/note:
  // strings -> categorical; sales: doubles -> measure.
  EXPECT_EQ(schema.column(0).type, ColumnType::kCategorical);
  EXPECT_EQ(schema.column(1).type, ColumnType::kCategorical);
  EXPECT_EQ(schema.column(3).type, ColumnType::kCategorical)
      << "4 distinct values is under the categorical threshold";
  EXPECT_EQ(schema.column(4).type, ColumnType::kCategorical);
}

TEST(CsvLoaderTest, HighCardinalityNumericBecomesMeasure) {
  CsvTable csv;
  csv.header = {"id", "value"};
  for (int i = 0; i < 200; ++i) {
    csv.rows.push_back(
        {std::to_string(i), std::to_string(i) + ".5"});
  }
  ZV_ASSERT_OK_AND_ASSIGN(Schema schema, InferCsvSchema(csv));
  EXPECT_EQ(schema.column(0).type, ColumnType::kInt);
  EXPECT_EQ(schema.column(1).type, ColumnType::kDouble);
}

TEST(CsvLoaderTest, OverridesWin) {
  ZV_ASSERT_OK_AND_ASSIGN(CsvTable csv, ParseCsv(kCsv));
  CsvLoadOptions opts;
  opts.overrides = {{"sales", ColumnType::kDouble}};
  ZV_ASSERT_OK_AND_ASSIGN(Schema schema, InferCsvSchema(csv, opts));
  EXPECT_EQ(schema.column(3).type, ColumnType::kDouble);
  opts.overrides = {{"nope", ColumnType::kDouble}};
  EXPECT_FALSE(InferCsvSchema(csv, opts).ok());
}

TEST(CsvLoaderTest, NumericCategoricalsKeepNumericValues) {
  ZV_ASSERT_OK_AND_ASSIGN(CsvTable csv, ParseCsv(kCsv));
  ZV_ASSERT_OK_AND_ASSIGN(auto table, TableFromCsv("t", csv));
  EXPECT_EQ(table->ValueAt(0, 0), Value::Int(2014));
  EXPECT_EQ(table->ValueAt(0, 1), Value::Str("chair"));
}

TEST(CsvLoaderTest, LoadedTableAnswersZql) {
  ZV_ASSERT_OK_AND_ASSIGN(CsvTable csv, ParseCsv(kCsv));
  CsvLoadOptions opts;
  opts.overrides = {{"sales", ColumnType::kDouble}};
  ZV_ASSERT_OK_AND_ASSIGN(auto table, TableFromCsv("t", csv));
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(table));
  zql::ZqlExecutor exec(&db, "t");
  ZV_ASSERT_OK_AND_ASSIGN(
      zql::ZqlResult r,
      exec.ExecuteText("*f1 | 'year' | 'sales' | v1 <- 'product'.* | | "
                       "bar.(y=agg('sum')) |"));
  ASSERT_EQ(r.outputs[0].visuals.size(), 2u);
  // chair: 2014 -> 10.5, 2015 -> 11.0 (sales stayed numeric through the
  // categorical dictionary).
  EXPECT_EQ(r.outputs[0].visuals[0].ys(), (std::vector<double>{10.5, 11.0}));
}

TEST(CsvLoaderTest, MissingFileFails) {
  EXPECT_FALSE(TableFromCsvFile("t", "/no/such/file.csv").ok());
}

/// The file path streams the text twice instead of keeping a parsed copy;
/// it must load exactly what ParseCsv + TableFromCsv load, and fail the
/// same way.
TEST(CsvLoaderTest, FileLoadMatchesParsedLoad) {
  std::string text = "id,\"name\",score,year,note\r\n";
  for (int i = 0; i < 150; ++i) {
    text += std::to_string(i) + ",\"n, \"\"" + std::to_string(i % 7) +
            "\"\"\"," + std::to_string(i * 0.25) + "," +
            std::to_string(2010 + i % 3) + "," + (i % 5 ? "x" : "") + "\r\n";
    if (i % 40 == 0) text += "\n";  // blank lines are skipped
  }
  const std::string path = ::testing::TempDir() + "/csv_loader_test.csv";
  const auto write = [&path](const std::string& body) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  };
  write(text);
  ZV_ASSERT_OK_AND_ASSIGN(CsvTable csv, ParseCsv(text));
  ZV_ASSERT_OK_AND_ASSIGN(auto expected, TableFromCsv("t", csv));
  ZV_ASSERT_OK_AND_ASSIGN(auto loaded, TableFromCsvFile("t", path));
  ASSERT_EQ(loaded->num_rows(), 150u);
  ASSERT_EQ(loaded->schema().num_columns(), expected->schema().num_columns());
  for (size_t c = 0; c < loaded->schema().num_columns(); ++c) {
    EXPECT_EQ(loaded->schema().column(c).name,
              expected->schema().column(c).name);
    EXPECT_EQ(loaded->column_type(c), expected->column_type(c));
    for (size_t r = 0; r < loaded->num_rows(); ++r) {
      EXPECT_EQ(loaded->ValueAt(r, c).ToString(),
                expected->ValueAt(r, c).ToString());
    }
  }
  EXPECT_EQ(loaded->column_type(0), ColumnType::kInt);
  EXPECT_EQ(loaded->column_type(2), ColumnType::kDouble);
  EXPECT_EQ(loaded->ValueAt(3, 1), Value::Str("n, \"3\""));

  write("a,b\n1,2\n3\n");
  const Status parsed = ParseCsv("a,b\n1,2\n3\n").status();
  const Status streamed = TableFromCsvFile("t", path).status();
  EXPECT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.ToString(), parsed.ToString());
  std::remove(path.c_str());
}

TEST(ZqlSqlTraceTest, TraceShowsParagraph51Shape) {
  ZV_ASSERT_OK_AND_ASSIGN(CsvTable csv, ParseCsv(kCsv));
  ZV_ASSERT_OK_AND_ASSIGN(auto table, TableFromCsv("t", csv));
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(table));
  std::vector<std::string> trace;
  zql::ZqlOptions opts;
  opts.sql_trace = &trace;
  zql::ZqlExecutor exec(&db, "t", opts);
  ZV_ASSERT_OK(exec.ExecuteText("*f1 | 'year' | 'sales' | v1 <- 'product'.* "
                                "| region='east' | bar.(y=agg('sum')) |")
                   .status());
  ASSERT_EQ(trace.size(), 1u);
  // The §5.1 translation: SELECT x, z, agg(y) ... WHERE z IN ... GROUP BY
  // x, z ORDER BY z, x.
  EXPECT_EQ(trace[0],
            "SELECT year, product, SUM(sales) FROM t WHERE product IN "
            "('chair', 'desk') AND region = 'east' GROUP BY year, product "
            "ORDER BY product, year");
}

}  // namespace
}  // namespace zv
