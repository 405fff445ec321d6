#include <gtest/gtest.h>

#include <cstring>

#include "common/parallel.h"
#include "engine/roaring_db.h"
#include "engine/scan_db.h"
#include "tests/test_util.h"
#include "zql/canonical.h"
#include "zql/executor.h"
#include "zql/explain.h"
#include "zql/parser.h"
#include "zql/plan.h"

namespace zv::zql {
namespace {

class ZqlExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ZV_ASSERT_OK(db_.RegisterTable(testing::MakeTinySales()));
  }

  ZqlResult Run(const std::string& text, ZqlOptions opts = {},
                std::map<std::string, Visualization> inputs = {}) {
    ZqlExecutor exec(&db_, "sales", std::move(opts));
    for (auto& [name, viz] : inputs) exec.SetUserInput(name, std::move(viz));
    auto result = exec.ExecuteText(text);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).value() : ZqlResult{};
  }

  ScanDatabase db_;
};

// A `.range` inside a quoted literal is data, not a reference: the query
// plans, EXPLAIN consumes no variable, and it runs exactly like any other
// unmatched literal. Unquoted references still resolve.
TEST_F(ZqlExecutorTest, RangeInsideQuotedLiteralIsNotAReference) {
  const std::vector<ConstraintRange> refs =
      ConstraintRanges("product IN (v2.range) AND location='zz.range'");
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].var, "v2");
  EXPECT_EQ(refs[0].begin, 12u);
  EXPECT_EQ(refs[0].end, 20u);

  const std::string quoted =
      "*f1 | 'year' | 'sales' | v1 <- 'product'.* | location='zz.range' | |";
  ZV_ASSERT_OK_AND_ASSIGN(ZqlQuery q, ParseQuery(quoted));
  ZV_ASSERT_OK(BuildPhysicalPlan(q, ZqlOptions{}).status());
  ZV_ASSERT_OK_AND_ASSIGN(QueryPlan plan, ExplainQuery(q));
  ASSERT_EQ(plan.rows.size(), 1u);
  EXPECT_TRUE(plan.rows[0].consumes_vars.empty());
  const ZqlResult got = Run(quoted);
  const ZqlResult plain = Run(
      "*f1 | 'year' | 'sales' | v1 <- 'product'.* | location='zz' | |");
  ASSERT_EQ(got.outputs.size(), 1u);
  ASSERT_EQ(plain.outputs.size(), 1u);
  ASSERT_EQ(got.outputs[0].visuals.size(), plain.outputs[0].visuals.size());
  for (size_t i = 0; i < got.outputs[0].visuals.size(); ++i) {
    EXPECT_EQ(got.outputs[0].visuals[i].xs, plain.outputs[0].visuals[i].xs);
    EXPECT_EQ(got.outputs[0].visuals[i].series,
              plain.outputs[0].visuals[i].series);
  }
}

// Table 2.1: one line, a collection of visualizations.
TEST_F(ZqlExecutorTest, CollectionPerProduct) {
  ZqlResult r = Run(
      "*f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | "
      "bar.(y=agg('sum')) |");
  ASSERT_EQ(r.outputs.size(), 1u);
  const auto& visuals = r.outputs[0].visuals;
  ASSERT_EQ(visuals.size(), 3u);  // chair, desk, stapler
  // chair/US: 10, 20, 30 over 2014..2016.
  EXPECT_EQ(visuals[0].slices[0].value, Value::Str("chair"));
  ASSERT_EQ(visuals[0].xs.size(), 3u);
  EXPECT_EQ(visuals[0].xs[0], Value::Int(2014));
  EXPECT_EQ(visuals[0].ys(), (std::vector<double>{10, 20, 30}));
  // desk/US: 50, 40, 30.
  EXPECT_EQ(visuals[1].ys(), (std::vector<double>{50, 40, 30}));
  // stapler/US: 11, 21, 32.
  EXPECT_EQ(visuals[2].ys(), (std::vector<double>{11, 21, 32}));
}

TEST_F(ZqlExecutorTest, FixedSliceLiteral) {
  ZqlResult r = Run("*f1 | 'year' | 'sales' | 'product'.'desk' | | |");
  ASSERT_EQ(r.outputs[0].visuals.size(), 1u);
  // desk over both locations: 2014: 50+10, 2015: 40+25, 2016: 30+40.
  EXPECT_EQ(r.outputs[0].visuals[0].ys(), (std::vector<double>{60, 65, 70}));
}

TEST_F(ZqlExecutorTest, NoSliceAtAll) {
  ZqlResult r = Run("*f1 | 'year' | 'sales' | | | |");
  ASSERT_EQ(r.outputs[0].visuals.size(), 1u);
  EXPECT_EQ(r.outputs[0].visuals[0].ys(),
            (std::vector<double>{111, 126, 142}));
}

// Table 3.1: a set-valued Y axis.
TEST_F(ZqlExecutorTest, YAxisSet) {
  ZqlResult r = Run(
      "*f1 | 'year' | y1 <- {'profit', 'sales'} | 'product'.'stapler' | | |");
  ASSERT_EQ(r.outputs[0].visuals.size(), 2u);
  EXPECT_EQ(r.outputs[0].visuals[0].y_attr, "profit");
  EXPECT_EQ(r.outputs[0].visuals[0].ys(), (std::vector<double>{5, 7, 9}));
  EXPECT_EQ(r.outputs[0].visuals[1].y_attr, "sales");
  EXPECT_EQ(r.outputs[0].visuals[1].ys(), (std::vector<double>{11, 21, 32}));
}

// Table 3.2: composed y axis = one visualization, two series.
TEST_F(ZqlExecutorTest, ComposedYAxis) {
  ZqlResult r =
      Run("*f1 | 'year' | 'profit' + 'sales' | 'product'.'chair' | "
          "location='US' | |");
  ASSERT_EQ(r.outputs[0].visuals.size(), 1u);
  const Visualization& v = r.outputs[0].visuals[0];
  ASSERT_EQ(v.series.size(), 2u);
  EXPECT_EQ(v.series[0].ys, (std::vector<double>{5, 6, 7}));
  EXPECT_EQ(v.series[1].ys, (std::vector<double>{10, 20, 30}));
}

// Table 2.2-style: similarity search against a user-drawn line.
TEST_F(ZqlExecutorTest, SimilarityToUserInput) {
  Visualization drawn;
  drawn.x_attr = "year";
  drawn.y_attr = "sales";
  drawn.xs = {Value::Int(2014), Value::Int(2015), Value::Int(2016)};
  drawn.series = {{"sales", {1, 2, 3}}};  // rising trend

  ZqlResult r = Run(
      "-f1 | | | | | |\n"
      "f2 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | | v2 <- "
      "argmin_v1[k=1] D(f1, f2)\n"
      "*f3 | 'year' | 'sales' | v2 | location='US' | |",
      {}, {{"f1", drawn}});
  ASSERT_EQ(r.outputs.size(), 1u);
  ASSERT_EQ(r.outputs[0].visuals.size(), 1u);
  // chair/US rises 10→30 exactly like the drawn 1→3 after normalization.
  EXPECT_EQ(r.outputs[0].visuals[0].slices[0].value, Value::Str("chair"));
}

// Table 2.3 / 5.1: positive trend in US, negative in UK.
TEST_F(ZqlExecutorTest, TrendFilterAcrossLocations) {
  ZqlResult r = Run(
      "f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | | v2 <- "
      "argany_v1[t > 0] T(f1)\n"
      "f2 | 'year' | 'sales' | v1 | location='UK' | | v3 <- argany_v1[t < 0] "
      "T(f2)\n"
      "*f3 | 'year' | 'profit' | v4 <- (v2.range & v3.range) | | |");
  ASSERT_EQ(r.outputs.size(), 1u);
  // US positive: chair, stapler. UK negative: chair (stapler has no UK
  // rows; desk rises in UK). Intersection: chair.
  ASSERT_EQ(r.outputs[0].visuals.size(), 1u);
  EXPECT_EQ(r.outputs[0].visuals[0].slices[0].value, Value::Str("chair"));
  // chair profit across locations: 2014: 5+3, 2015: 6+2, 2016: 7+1.
  EXPECT_EQ(r.outputs[0].visuals[0].ys(), (std::vector<double>{8, 8, 8}));
}

// Table 3.13-style: top-k most similar to a reference, excluding it.
TEST_F(ZqlExecutorTest, TopKSimilarToReference) {
  ZqlResult r = Run(
      "f1 | 'year' | 'sales' | 'product'.'stapler' | | |\n"
      "f2 | 'year' | 'sales' | v1 <- 'product'.(* - 'stapler') | | | v2 <- "
      "argmin_v1[k=2] D(f1, f2)\n"
      "*f3 | 'year' | 'sales' | v2 | | |");
  ASSERT_EQ(r.outputs[0].visuals.size(), 2u);
  // stapler rises; chair total = 40/40/40 flat; desk total = 60/65/70
  // rising. Most similar first: desk.
  EXPECT_EQ(r.outputs[0].visuals[0].slices[0].value, Value::Str("desk"));
  EXPECT_EQ(r.outputs[0].visuals[1].slices[0].value, Value::Str("chair"));
}

// Table 3.15: reordering with .order.
TEST_F(ZqlExecutorTest, OrderDerivation) {
  ZqlResult r = Run(
      "f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | | u1 <- "
      "argmin_v1[k=inf] T(f1)\n"
      "*f2=f1.order | | | u1 -> | | |");
  ASSERT_EQ(r.outputs[0].visuals.size(), 3u);
  // Increasing overall trend: desk falls (-), chair rises, stapler rises
  // slightly steeper after normalization.
  EXPECT_EQ(r.outputs[0].visuals[0].slices[0].value, Value::Str("desk"));
}

// Multiple Z columns (Table 3.8).
TEST_F(ZqlExecutorTest, TwoZColumns) {
  ZqlResult r = Run(
      "name | x | y | z | z2 | viz\n"
      "*f1 | 'year' | 'sales' | v1 <- 'product'.{'chair','desk'} | v2 <- "
      "'location'.{US, UK} | bar.(y=agg('sum'))");
  ASSERT_EQ(r.outputs[0].visuals.size(), 4u);
  const Visualization& chair_uk = r.outputs[0].visuals[1];
  EXPECT_EQ(chair_uk.slices[0].value, Value::Str("chair"));
  EXPECT_EQ(chair_uk.slices[1].value, Value::Str("UK"));
  EXPECT_EQ(chair_uk.ys(), (std::vector<double>{30, 20, 10}));
}

// Derived components: concatenation and derived bindings (Table 3.16 core).
TEST_F(ZqlExecutorTest, DerivedPlusAndBindings) {
  ZqlResult r = Run(
      "f1 | 'year' | 'sales' | v1 <- 'product'.(* - 'stapler') | | |\n"
      "f2 | 'year' | 'sales' | 'product'.'stapler' | | |\n"
      "f3=f1+f2 | | y1 <- _ | v2 <- 'product'._ | | |\n"
      "f4 | 'year' | 'profit' | v2 | | | v3 <- argmax_v2[k=2] D(f3, f4)\n"
      "*f5 | 'year' | 'sales' | v3 | | |");
  ASSERT_EQ(r.outputs.size(), 1u);
  EXPECT_EQ(r.outputs[0].visuals.size(), 2u);
}

// Name-derivation operators.
TEST_F(ZqlExecutorTest, MinusIntersectIndexSliceRange) {
  ZqlResult r = Run(
      "f1 | 'year' | 'sales' | v1 <- 'product'.* | | |\n"
      "f2 | 'year' | 'sales' | 'product'.'desk' | | |\n"
      "*f3=f1-f2 | | | | |\n"
      "*f4=f1^f2 | | | | |\n"
      "*f5=f1[2:3] | | | | |\n"
      "*f6=f1.range | | | | |");
  EXPECT_EQ(r.Find("f3")->visuals.size(), 2u);  // chair, stapler
  EXPECT_EQ(r.Find("f4")->visuals.size(), 1u);  // desk
  EXPECT_EQ(r.Find("f5")->visuals.size(), 2u);  // desk, stapler
  EXPECT_EQ(r.Find("f6")->visuals.size(), 3u);  // already distinct
  EXPECT_EQ(r.Find("f4")->visuals[0].slices[0].value, Value::Str("desk"));
}

// Constraints with a variable range (Table 3.18).
TEST_F(ZqlExecutorTest, RangeInConstraints) {
  ZqlResult r = Run(
      "f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | | v2 <- "
      "argmax_v1[k=2] T(f1)\n"
      "*f2 | 'year' | 'profit' | | product IN (v2.range) | |");
  ASSERT_EQ(r.outputs[0].visuals.size(), 1u);
  // US trends: chair +, stapler +, desk -. Top-2: stapler & chair.
  // Combined profit (all locations) for those two:
  // 2014: 5+3+5=13, 2015: 6+2+7=15, 2016: 7+1+9=17.
  EXPECT_EQ(r.outputs[0].visuals[0].ys(), (std::vector<double>{13, 15, 17}));
}

// Representative process R(k, v, f).
TEST_F(ZqlExecutorTest, RepresentativeProcess) {
  ZqlResult r = Run(
      "f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | | v2 <- "
      "R(2, v1, f1)\n"
      "*f2 | 'year' | 'sales' | v2 | location='US' | |");
  EXPECT_EQ(r.outputs[0].visuals.size(), 2u);
}

// Outlier pattern with nested iteration (Table 3.20 shape).
TEST_F(ZqlExecutorTest, NestedReducerProcess) {
  ZqlResult r = Run(
      "f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | | v2 <- "
      "R(2, v1, f1)\n"
      "f2 | 'year' | 'sales' | v2 | location='US' | |\n"
      "f3 | 'year' | 'sales' | v1 | location='US' | | v3 <- argmax_v1[k=1] "
      "min_v2 D(f3, f2)\n"
      "*f4 | 'year' | 'sales' | v3 | location='US' | |");
  EXPECT_EQ(r.outputs[0].visuals.size(), 1u);
}

// Viz variable sets produce one visualization per spec.
TEST_F(ZqlExecutorTest, VizSet) {
  ZqlResult r = Run(
      "*f1 | 'year' | 'sales' | 'product'.'chair' | | t1 <- {bar, "
      "line}.(y=agg('sum')) |");
  ASSERT_EQ(r.outputs[0].visuals.size(), 2u);
  EXPECT_EQ(r.outputs[0].visuals[0].spec.chart, ChartType::kBar);
  EXPECT_EQ(r.outputs[0].visuals[1].spec.chart, ChartType::kLine);
}

// Attribute iteration in Z (Table 3.6 shape).
TEST_F(ZqlExecutorTest, AttributeIterationInZ) {
  ZqlResult r = Run(
      "*f1 | 'year' | 'sales' | z1.v1 <- {'product', 'location'}.* | | |");
  // 3 products + 2 locations = 5 slices.
  EXPECT_EQ(r.outputs[0].visuals.size(), 5u);
}

// Multiple processes in one cell (Table 3.21).
TEST_F(ZqlExecutorTest, MultipleProcessesPerRow) {
  Visualization drawn;
  drawn.x_attr = "year";
  drawn.y_attr = "sales";
  drawn.xs = {Value::Int(2014), Value::Int(2015), Value::Int(2016)};
  drawn.series = {{"sales", {1, 2, 3}}};
  ZqlResult r = Run(
      "-f1 | | | | | |\n"
      "f2 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | | (v2 <- "
      "argmin_v1[k=1] D(f1, f2)), (v3 <- argmax_v1[k=1] D(f1, f2))\n"
      "*f3 | 'year' | 'sales' | v2 | location='US' | |\n"
      "*f4 | 'year' | 'sales' | v3 | location='US' | |",
      {}, {{"f1", drawn}});
  EXPECT_EQ(r.Find("f3")->visuals[0].slices[0].value, Value::Str("chair"));
  EXPECT_EQ(r.Find("f4")->visuals[0].slices[0].value, Value::Str("desk"));
}

// All four optimization levels must return identical results.
TEST_F(ZqlExecutorTest, OptimizationLevelsAgree) {
  const char* text =
      "f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | | v2 <- "
      "argany_v1[t > 0] T(f1)\n"
      "f2 | 'year' | 'sales' | v1 | location='UK' | | v3 <- argany_v1[t < 0] "
      "T(f2)\n"
      "*f3 | 'year' | 'profit' | v4 <- (v2.range & v3.range) | | |";
  std::vector<ZqlResult> results;
  for (OptLevel level : {OptLevel::kNoOpt, OptLevel::kIntraLine,
                         OptLevel::kIntraTask, OptLevel::kInterTask}) {
    ZqlOptions opts;
    opts.optimization = level;
    results.push_back(Run(text, opts));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].outputs.size(), results[0].outputs.size());
    const auto& a = results[0].outputs[0].visuals;
    const auto& b = results[i].outputs[0].visuals;
    ASSERT_EQ(a.size(), b.size()) << OptLevelToString(OptLevel(i));
    for (size_t v = 0; v < a.size(); ++v) {
      EXPECT_TRUE(a[v].SameSourceAs(b[v]));
      EXPECT_EQ(a[v].xs, b[v].xs);
      EXPECT_EQ(a[v].series, b[v].series);
    }
  }
  // Query counts shrink monotonically with optimization level.
  EXPECT_GT(results[0].stats.sql_queries, results[1].stats.sql_queries);
  EXPECT_GE(results[1].stats.sql_requests, results[3].stats.sql_requests);
}

// Named value sets (Table 5.1's P).
TEST_F(ZqlExecutorTest, NamedValueSet) {
  ZqlOptions opts;
  opts.named_sets.value_sets["P"] = {
      "product", {Value::Str("chair"), Value::Str("desk")}};
  ZqlResult r = Run("*f1 | 'year' | 'sales' | v1 <- P | location='US' | |",
                    opts);
  EXPECT_EQ(r.outputs[0].visuals.size(), 2u);
}

// Named attribute sets (Table 3.24's M).
TEST_F(ZqlExecutorTest, NamedAttrSet) {
  ZqlOptions opts;
  opts.named_sets.attr_sets["M"] = {"sales", "profit"};
  ZqlResult r = Run(
      "*f1 | 'year' | y1 <- M | 'product'.'chair' | location='US' | |", opts);
  ASSERT_EQ(r.outputs[0].visuals.size(), 2u);
}

// User-defined process functions.
TEST_F(ZqlExecutorTest, UserDefinedFunction) {
  ZqlOptions opts;
  opts.user_functions["PeakYear"] =
      [](const std::vector<const Visualization*>& args) {
        const auto& ys = args[0]->ys();
        size_t best = 0;
        for (size_t i = 1; i < ys.size(); ++i) {
          if (ys[i] > ys[best]) best = i;
        }
        return static_cast<double>(best);
      };
  ZqlResult r = Run(
      "f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | | v2 <- "
      "argmax_v1[k=1] PeakYear(f1)\n"
      "*f2 | 'year' | 'sales' | v2 | location='US' | |",
      opts);
  // chair and stapler peak at index 2; argmax keeps the first (chair).
  EXPECT_EQ(r.outputs[0].visuals[0].slices[0].value, Value::Str("chair"));
}

// Error paths.
TEST_F(ZqlExecutorTest, UnknownVariableFails) {
  ZqlExecutor exec(&db_, "sales");
  auto r = exec.ExecuteText("*f1 | 'year' | 'sales' | vX | |");
  EXPECT_FALSE(r.ok());
}

TEST_F(ZqlExecutorTest, MissingUserInputFails) {
  ZqlExecutor exec(&db_, "sales");
  auto r = exec.ExecuteText(
      "-f1 | | | | |\n*f2 | 'year' | 'sales' | | | | v <- argmin_v[k=1] "
      "D(f1, f2)");
  EXPECT_FALSE(r.ok());
}

TEST_F(ZqlExecutorTest, DuplicateComponentFails) {
  ZqlExecutor exec(&db_, "sales");
  auto r = exec.ExecuteText(
      "*f1 | 'year' | 'sales' | | |\n*f1 | 'year' | 'profit' | | |");
  EXPECT_FALSE(r.ok());
}

TEST_F(ZqlExecutorTest, UnknownTableFails) {
  ZqlExecutor exec(&db_, "nope");
  EXPECT_FALSE(exec.ExecuteText("*f1 | 'year' | 'sales' | | |").ok());
}

// Roaring backend produces identical ZQL results.
TEST(ZqlExecutorBackendTest, RoaringMatchesScan) {
  auto table = testing::MakeTinySales();
  ScanDatabase scan;
  RoaringDatabase roaring;
  ZV_ASSERT_OK(scan.RegisterTable(table));
  ZV_ASSERT_OK(roaring.RegisterTable(table));
  const char* text =
      "f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | | v2 <- "
      "argmax_v1[k=2] T(f1)\n"
      "*f2 | 'year' | 'profit' | v2 | location='US' | |";
  ZqlExecutor se(&scan, "sales"), re(&roaring, "sales");
  ZV_ASSERT_OK_AND_ASSIGN(ZqlResult a, se.ExecuteText(text));
  ZV_ASSERT_OK_AND_ASSIGN(ZqlResult b, re.ExecuteText(text));
  ASSERT_EQ(a.outputs[0].visuals.size(), b.outputs[0].visuals.size());
  for (size_t i = 0; i < a.outputs[0].visuals.size(); ++i) {
    EXPECT_EQ(a.outputs[0].visuals[i].series, b.outputs[0].visuals[i].series);
  }
}

// Z values that print alike stay apart. A categorical column holding
// Int(1) and Str("1") (reachable through TableBuilder; the CSV loader
// types both as Int) fetches one visualization per value, and each gets
// only its own value's rows: members bind the IN list's equality, under
// which a number never equals a string, not the values' text.
TEST(ZqlExecutorBackendTest, ZValuesThatPrintAlikeStayApart) {
  Schema schema({{"year", ColumnType::kCategorical},
                 {"tier", ColumnType::kCategorical},
                 {"sales", ColumnType::kDouble}});
  TableBuilder b("sales", schema);
  const Value tiers[] = {Value::Int(1), Value::Str("1")};
  for (size_t t = 0; t < 2; ++t) {
    for (int y = 0; y < 3; ++y) {
      ZV_ASSERT_OK(b.AddRow({Value::Int(2014 + y), tiers[t],
                             Value::Double(10.0 * static_cast<double>(t) + y)}));
    }
  }
  auto table = b.Finish();
  ScanDatabase scan;
  RoaringDatabase roaring;
  ZV_ASSERT_OK(scan.RegisterTable(table));
  ZV_ASSERT_OK(roaring.RegisterTable(table));
  for (Database* db : {static_cast<Database*>(&scan),
                       static_cast<Database*>(&roaring)}) {
    SCOPED_TRACE(db->name());
    ZqlExecutor exec(db, "sales");
    ZV_ASSERT_OK_AND_ASSIGN(
        ZqlResult r,
        exec.ExecuteText("*f1 | 'year' | 'sales' | v1 <- 'tier'.* | | "
                         "bar.(y=agg('sum')) |"));
    ASSERT_EQ(r.outputs.size(), 1u);
    ASSERT_EQ(r.outputs[0].visuals.size(), 2u);
    for (size_t t = 0; t < 2; ++t) {
      const Visualization& v = r.outputs[0].visuals[t];
      ASSERT_EQ(v.slices.size(), 1u);
      EXPECT_EQ(v.slices[0].value.type(), tiers[t].type());
      EXPECT_EQ(v.xs, (std::vector<Value>{Value::Int(2014), Value::Int(2015),
                                          Value::Int(2016)}));
      const double base = 10.0 * static_cast<double>(t);
      EXPECT_EQ(v.ys(), (std::vector<double>{base, base + 1, base + 2}));
    }
  }
}

// --- fetched components against an independent reference -----------------

/// 40,000 rows, so the fold runs over two blocks: categorical year,
/// product, location and tier (tier holds Int(1) and Str("1"), which print
/// alike, and Double(2.5)), and fractional measures.
std::shared_ptr<Table> MakeFetchTable() {
  Schema schema({{"year", ColumnType::kCategorical},
                 {"product", ColumnType::kCategorical},
                 {"location", ColumnType::kCategorical},
                 {"tier", ColumnType::kCategorical},
                 {"sales", ColumnType::kDouble},
                 {"profit", ColumnType::kDouble}});
  TableBuilder b("sales", schema);
  const Value tiers[] = {Value::Int(1), Value::Str("1"), Value::Double(2.5)};
  const char* const locations[] = {"US", "UK", "FR"};
  uint64_t state = 12345;
  const auto next = [&state](uint64_t mod) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % mod;
  };
  for (int i = 0; i < 40000; ++i) {
    EXPECT_TRUE(
        b.AddRow({Value::Int(2010 + static_cast<int64_t>(next(6))),
                  Value::Str("p" + std::to_string(next(12))),
                  Value::Str(locations[next(3)]), tiers[next(3)],
                  Value::Double(static_cast<double>(next(100000)) / 7.0),
                  Value::Double(static_cast<double>(next(100000)) / 13.0 -
                                3000)})
            .ok());
  }
  return b.Finish();
}

double FinalizeReference(sql::AggFunc f, const testing::RefAgg& a) {
  switch (f) {
    case sql::AggFunc::kSum: return a.sum;
    case sql::AggFunc::kAvg: return a.sum / static_cast<double>(a.count);
    case sql::AggFunc::kCount: return static_cast<double>(a.count);
    case sql::AggFunc::kMin: return a.min;
    case sql::AggFunc::kMax: return a.max;
    case sql::AggFunc::kNone: break;
  }
  ADD_FAILURE() << "no aggregate";
  return 0;
}

/// Each of `visuals` rebuilt from the reference selection and fold alone:
/// the rows its slices select (ReferenceRows, Value ==), grouped by its x
/// attributes (ReferenceAggregate, keyed by Values, so values that print
/// alike stay apart), X in Value::Compare order — a composite X as its
/// parts' labels joined with '|' — and each series its spec's aggregate of
/// its y attribute. Every statement over MakeFetchTable folds narrow (its
/// group space is under a block's rows / 4), so which Z attributes a
/// statement groups by never changes the association.
std::vector<Visualization> RebuildFromReference(
    const Table& t, const std::vector<Visualization>& visuals) {
  std::vector<Visualization> out;
  for (const Visualization& v : visuals) {
    sql::SelectStatement stmt;
    std::vector<std::string> group_by = Split(v.x_attr, '*');
    const size_t num_x = group_by.size();
    std::vector<std::unique_ptr<sql::Expr>> conj;
    for (const Slice& s : v.slices) {
      conj.push_back(
          sql::Expr::Compare(s.attribute, sql::CompareOp::kEq, s.value));
      group_by.push_back(s.attribute);
    }
    if (!conj.empty()) stmt.where = sql::Expr::And(std::move(conj));
    std::vector<std::string> ys;
    for (const Series& s : v.series) ys.push_back(s.name);
    Visualization expected = v;
    expected.xs.clear();
    for (Series& s : expected.series) s.ys.clear();
    for (const auto& [key, aggs] :
         testing::ReferenceAggregate(t, group_by, ys,
                                     testing::ReferenceRows(t, stmt))) {
      std::string label = key[0].ToString();
      for (size_t i = 1; i < num_x; ++i) label += "|" + key[i].ToString();
      expected.xs.push_back(num_x == 1 ? key[0] : Value::Str(label));
      for (size_t si = 0; si < ys.size(); ++si) {
        expected.series[si].ys.push_back(
            FinalizeReference(v.spec.y_agg, aggs[si]));
      }
    }
    out.push_back(std::move(expected));
  }
  return out;
}

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Every fetched component equals its reference rebuild — X by type and
// text, Y bit for bit — at every opt level, on both backends, at
// ZV_THREADS 1 and 4. The reference shares no fold or routing code with
// the engine, unlike the identity suites, whose two sides both run
// FinishChunkScan and RouteFetch.
TEST(FetchReferenceTest, ComponentsMatchReferenceFold) {
  auto table = MakeFetchTable();
  ScanDatabase scan;
  RoaringDatabase roaring;
  ZV_ASSERT_OK(scan.RegisterTable(table));
  ZV_ASSERT_OK(roaring.RegisterTable(table));
  const char* const queries[] = {
      // one varying Z attribute
      "*f1 | 'year' | 'sales' | v1 <- 'product'.* | | bar.(y=agg('sum')) |",
      // two varying Z attributes
      "name | x | y | z | z2 | viz\n"
      "*f1 | 'year' | 'profit' | v1 <- 'product'.* | v2 <- 'location'.* | "
      "bar.(y=agg('avg'))",
      // a composite X
      "*f1 | 'year'*'location' | 'sales' | v1 <- 'product'.* | | "
      "bar.(y=agg('count')) |",
      // a Y set over a Z whose values print alike
      "*f1 | 'year' | y1 <- {'sales', 'profit'} | v1 <- 'tier'.* | | "
      "bar.(y=agg('min')) |",
      // a composite Y; a Z literal absent from the dictionary
      "*f1 | 'location' | 'sales'+'profit' | "
      "v1 <- 'product'.{'p1', 'nosuch', 'p7'} | | bar.(y=agg('max')) |",
  };
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    std::vector<Visualization> expected;
    for (Database* db : {static_cast<Database*>(&scan),
                         static_cast<Database*>(&roaring)}) {
      for (OptLevel level : {OptLevel::kNoOpt, OptLevel::kIntraLine,
                             OptLevel::kIntraTask, OptLevel::kInterTask}) {
        for (size_t threads : {1, 4}) {
          SCOPED_TRACE(db->name() + " " + OptLevelToString(level) +
                       " threads=" + std::to_string(threads));
          SetParallelThreads(threads);
          ZqlOptions opts;
          opts.optimization = level;
          ZqlExecutor exec(db, "sales", opts);
          ZV_ASSERT_OK_AND_ASSIGN(ZqlResult r, exec.ExecuteText(text));
          ASSERT_EQ(r.outputs.size(), 1u);
          const std::vector<Visualization>& got = r.outputs[0].visuals;
          if (expected.empty()) expected = RebuildFromReference(*table, got);
          ASSERT_EQ(got.size(), expected.size());
          for (size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE(expected[i].Label());
            EXPECT_TRUE(got[i].SameSourceAs(expected[i]));
            ASSERT_EQ(got[i].xs.size(), expected[i].xs.size());
            for (size_t k = 0; k < got[i].xs.size(); ++k) {
              EXPECT_EQ(got[i].xs[k].type(), expected[i].xs[k].type());
              EXPECT_EQ(got[i].xs[k].ToString(), expected[i].xs[k].ToString());
            }
            ASSERT_EQ(got[i].series.size(), expected[i].series.size());
            for (size_t si = 0; si < got[i].series.size(); ++si) {
              const auto& g = got[i].series[si].ys;
              const auto& e = expected[i].series[si].ys;
              ASSERT_EQ(g.size(), e.size());
              for (size_t k = 0; k < g.size(); ++k) {
                EXPECT_EQ(Bits(g[k]), Bits(e[k])) << "point " << k;
              }
            }
          }
        }
      }
    }
    // The absent literal's visualization is present and empty.
    if (std::string(text).find("nosuch") != std::string::npos) {
      ASSERT_EQ(expected.size(), 3u);
      EXPECT_TRUE(expected[1].xs.empty());
      EXPECT_FALSE(expected[0].xs.empty());
    }
  }
  SetParallelThreads(0);
}

}  // namespace
}  // namespace zv::zql
