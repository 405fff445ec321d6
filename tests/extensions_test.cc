/// \file extensions_test.cc
/// \brief Tests for the §10.1 future-work features implemented beyond the
/// paper's prototype: interpolated alignment for missing points and native
/// run-container intersection.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "roaring/container.h"
#include "engine/scan_db.h"
#include "tasks/distance.h"
#include "tasks/primitives.h"
#include "viz/binning.h"
#include "zql/executor.h"
#include "tests/test_util.h"

namespace zv {
namespace {

Visualization SeriesAt(std::vector<int64_t> xs, std::vector<double> ys) {
  Visualization v;
  v.x_attr = "t";
  v.y_attr = "y";
  for (int64_t x : xs) v.xs.push_back(Value::Int(x));
  v.series = {{"y", std::move(ys)}};
  return v;
}

// --- interpolated alignment ---------------------------------------------------

TEST(InterpolationTest, FillsInteriorGapsLinearly) {
  // a covers 0..4; b misses x=1,2,3.
  Visualization a = SeriesAt({0, 1, 2, 3, 4}, {0, 1, 2, 3, 4});
  Visualization b = SeriesAt({0, 4}, {0, 4});
  auto m = AlignToMatrixInterpolated({&a, &b});
  EXPECT_EQ(m[0], (std::vector<double>{0, 1, 2, 3, 4}));
  // Linear fill: 0 -> 4 over 4 steps.
  EXPECT_EQ(m[1], (std::vector<double>{0, 1, 2, 3, 4}));
}

TEST(InterpolationTest, EdgeGapsExtendNearestValue) {
  Visualization a = SeriesAt({0, 1, 2, 3}, {9, 9, 9, 9});
  Visualization b = SeriesAt({1, 2}, {5, 7});
  auto m = AlignToMatrixInterpolated({&a, &b});
  EXPECT_EQ(m[1], (std::vector<double>{5, 5, 7, 7}));
}

TEST(InterpolationTest, ZeroFillVsInterpolationDistance) {
  // Same underlying line; b sampled sparsely. Zero-fill sees spurious
  // drops; interpolation recovers the line (the §10.1 motivation).
  Visualization a = SeriesAt({0, 1, 2, 3, 4, 5}, {0, 2, 4, 6, 8, 10});
  Visualization b = SeriesAt({0, 5}, {0, 10});
  const double zero_fill =
      Distance(a, b, DistanceMetric::kEuclidean, Normalization::kNone,
               Alignment::kZeroFill);
  const double interpolated =
      Distance(a, b, DistanceMetric::kEuclidean, Normalization::kNone,
               Alignment::kInterpolate);
  EXPECT_GT(zero_fill, 1.0);
  EXPECT_NEAR(interpolated, 0.0, 1e-9);
}

TEST(InterpolationTest, TaskLibraryThreadsAlignment) {
  TaskOptions opts;
  opts.alignment = Alignment::kInterpolate;
  opts.normalization = Normalization::kNone;
  TaskLibrary lib = TaskLibrary::Default(opts);
  Visualization a = SeriesAt({0, 1, 2, 3, 4, 5}, {0, 2, 4, 6, 8, 10});
  Visualization b = SeriesAt({0, 5}, {0, 10});
  EXPECT_NEAR(lib.distance(a, b), 0.0, 1e-9);
}

TEST(InterpolationTest, EmptySeriesStaysZero) {
  Visualization a = SeriesAt({0, 1}, {1, 2});
  Visualization b;  // no data at all
  b.x_attr = "t";
  b.y_attr = "y";
  b.series = {{"y", {}}};
  auto m = AlignToMatrixInterpolated({&a, &b});
  EXPECT_EQ(m[1], (std::vector<double>{0, 0}));
}

// --- native run-container intersection ------------------------------------------

namespace rr = zv::roaring;

TEST(RunContainerAndTest, RunRunOverlap) {
  rr::Container a = rr::Container::MakeRuns({{0, 99}, {1000, 499}});
  rr::Container b = rr::Container::MakeRuns({{50, 99}, {1200, 99}});
  rr::Container c = rr::Container::And(a, b);
  // Overlaps: [50,99] (50 values) and [1200,1299] (100 values).
  EXPECT_EQ(c.Cardinality(), 150u);
  EXPECT_TRUE(c.Contains(50));
  EXPECT_TRUE(c.Contains(99));
  EXPECT_FALSE(c.Contains(100));
  EXPECT_TRUE(c.Contains(1299));
  EXPECT_FALSE(c.Contains(1300));
}

TEST(RunContainerAndTest, RunRunDisjoint) {
  rr::Container a = rr::Container::MakeRuns({{0, 9}});
  rr::Container b = rr::Container::MakeRuns({{100, 9}});
  EXPECT_EQ(rr::Container::And(a, b).Cardinality(), 0u);
}

TEST(RunContainerAndTest, RunBitmapMasksCorrectly) {
  std::vector<uint64_t> words(rr::kBitmapWords, 0);
  for (uint32_t v = 0; v < 65536; v += 3) words[v >> 6] |= 1ULL << (v & 63);
  rr::Container bitmap = rr::Container::MakeBitmap(std::move(words));
  rr::Container runs = rr::Container::MakeRuns({{300, 299}});  // 300..599
  rr::Container c = rr::Container::And(runs, bitmap);
  // Multiples of 3 in [300, 599]: 300, 303, ..., 597 -> 100 values.
  EXPECT_EQ(c.Cardinality(), 100u);
  EXPECT_TRUE(c.Contains(300));
  EXPECT_TRUE(c.Contains(597));
  EXPECT_FALSE(c.Contains(299));
  EXPECT_FALSE(c.Contains(600));
}

TEST(RunContainerAndTest, RunArrayMembership) {
  rr::Container runs = rr::Container::MakeRuns({{10, 10}});  // 10..20
  rr::Container arr = rr::Container::MakeArray({5, 10, 15, 20, 25});
  rr::Container c = rr::Container::And(runs, arr);
  EXPECT_EQ(c.Cardinality(), 3u);
  EXPECT_TRUE(c.Contains(10));
  EXPECT_TRUE(c.Contains(15));
  EXPECT_TRUE(c.Contains(20));
}

TEST(RunContainerAndTest, MatchesReferenceAcrossRepresentations) {
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    // Build two random unions of ranges.
    auto make = [&rng](uint64_t) {
      rr::Container c;
      uint32_t at = rng.Uniform(500);
      for (int r = 0; r < 20; ++r) {
        const uint32_t len = 1 + rng.Uniform(400);
        for (uint32_t v = at; v <= at + len && v < 65536; ++v) {
          c.Add(static_cast<uint16_t>(v));
        }
        at += len + 1 + rng.Uniform(800);
        if (at >= 65000) break;
      }
      return c;
    };
    rr::Container a = make(1), b = make(2);
    const rr::Container reference = rr::Container::And(a, b);
    rr::Container ra = a, rb = b;
    ra.RunOptimize();
    rb.RunOptimize();
    EXPECT_TRUE(rr::Container::And(ra, rb).SameSetAs(reference));
    EXPECT_TRUE(rr::Container::And(ra, b).SameSetAs(reference));
    EXPECT_TRUE(rr::Container::And(a, rb).SameSetAs(reference));
  }
}

}  // namespace
}  // namespace zv

namespace zv {
namespace {

TEST(BoxPlotTest, FiveNumberSummary) {
  Visualization raw;
  raw.x_attr = "g";
  raw.y_attr = "y";
  raw.spec.chart = ChartType::kBox;
  // Group "a": 1..5; group "b": 10, 10, 10.
  for (double y : {1., 2., 3., 4., 5.}) {
    raw.xs.push_back(Value::Str("a"));
    raw.series.empty() ? raw.series.push_back({"y", {}}) : void();
    raw.series[0].ys.push_back(y);
  }
  for (int i = 0; i < 3; ++i) {
    raw.xs.push_back(Value::Str("b"));
    raw.series[0].ys.push_back(10);
  }
  const Visualization box = BoxPlotSummarize(raw);
  ASSERT_EQ(box.xs.size(), 2u);
  ASSERT_EQ(box.series.size(), 5u);
  // Group a: q1=2, median=3, q3=4, whiskers at 1 and 5 (inside 1.5 IQR).
  EXPECT_DOUBLE_EQ(box.series[1].ys[0], 2);
  EXPECT_DOUBLE_EQ(box.series[2].ys[0], 3);
  EXPECT_DOUBLE_EQ(box.series[3].ys[0], 4);
  EXPECT_DOUBLE_EQ(box.series[0].ys[0], 1);
  EXPECT_DOUBLE_EQ(box.series[4].ys[0], 5);
  // Group b: degenerate, everything 10.
  for (const auto& s : box.series) EXPECT_DOUBLE_EQ(s.ys[1], 10);
}

TEST(BoxPlotTest, WhiskersExcludeOutliers) {
  Visualization raw;
  raw.x_attr = "g";
  raw.y_attr = "y";
  raw.spec.chart = ChartType::kBox;
  raw.series.push_back({"y", {}});
  for (double y : {1., 2., 3., 4., 5., 100.}) {  // 100 is far outside
    raw.xs.push_back(Value::Str("a"));
    raw.series[0].ys.push_back(y);
  }
  const Visualization box = BoxPlotSummarize(raw);
  // Upper whisker clamps to the largest in-fence point, not 100.
  EXPECT_LT(box.series[4].ys[0], 100);
}

TEST(BoxPlotTest, EndToEndThroughZql) {
  auto table = testing::MakeTinySales();
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(table));
  zql::ZqlExecutor exec(&db, "sales");
  ZV_ASSERT_OK_AND_ASSIGN(
      zql::ZqlResult r,
      exec.ExecuteText(
          "*f1 | 'product' | 'sales' | | | box |"));
  ASSERT_EQ(r.outputs[0].visuals.size(), 1u);
  const Visualization& v = r.outputs[0].visuals[0];
  ASSERT_EQ(v.series.size(), 5u);
  EXPECT_EQ(v.xs.size(), 3u);  // chair, desk, stapler
  // Median chair sales across 6 rows (10,20,30,30,20,10) = 20.
  EXPECT_DOUBLE_EQ(v.series[2].ys[0], 20);
}

}  // namespace
}  // namespace zv
