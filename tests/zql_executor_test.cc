#include <gtest/gtest.h>

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

}  // namespace
}  // namespace zv::zql
