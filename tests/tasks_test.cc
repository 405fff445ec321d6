#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tasks/distance.h"
#include "tasks/kmeans.h"
#include "tasks/primitives.h"
#include "tasks/recommender.h"
#include "tests/test_util.h"

namespace zv {
namespace {

Visualization Series(std::vector<double> ys) {
  Visualization v;
  v.x_attr = "t";
  v.y_attr = "y";
  for (size_t i = 0; i < ys.size(); ++i) {
    v.xs.push_back(Value::Int(static_cast<int64_t>(i)));
  }
  v.series = {{"y", std::move(ys)}};
  return v;
}

// --- distances ---------------------------------------------------------------

TEST(DistanceTest, EuclideanIdentityAndSymmetry) {
  Visualization a = Series({1, 2, 3}), b = Series({3, 2, 1});
  EXPECT_DOUBLE_EQ(Distance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(Distance(a, b), Distance(b, a));
  EXPECT_GT(Distance(a, b), 0.0);
}

TEST(DistanceTest, ScaleInvarianceUnderZScore) {
  // 10x-scaled versions of the same shape are identical after z-score.
  Visualization a = Series({1, 2, 3}), b = Series({10, 20, 30});
  EXPECT_NEAR(Distance(a, b), 0.0, 1e-9);
}

TEST(DistanceTest, NoNormalizationSeesScale) {
  Visualization a = Series({1, 2, 3}), b = Series({10, 20, 30});
  EXPECT_GT(Distance(a, b, DistanceMetric::kEuclidean, Normalization::kNone),
            1.0);
}

TEST(DistanceTest, DtwHandlesShift) {
  // DTW aligns a shifted peak more cheaply than pointwise L2.
  Visualization a = Series({0, 0, 5, 0, 0, 0});
  Visualization b = Series({0, 0, 0, 5, 0, 0});
  const double dtw = Distance(a, b, DistanceMetric::kDtw, Normalization::kNone);
  const double l2 =
      Distance(a, b, DistanceMetric::kEuclidean, Normalization::kNone);
  EXPECT_LT(dtw, l2);
}

TEST(DistanceTest, KlAndEmdZeroForIdentical) {
  Visualization a = Series({1, 4, 2, 8});
  EXPECT_NEAR(Distance(a, a, DistanceMetric::kKlDivergence), 0.0, 1e-9);
  EXPECT_NEAR(Distance(a, a, DistanceMetric::kEmd), 0.0, 1e-9);
}

TEST(DistanceTest, EmdSeesMassDisplacement) {
  Visualization a = Series({1, 0, 0, 0});
  Visualization b = Series({0, 0, 0, 1});
  Visualization c = Series({0, 1, 0, 0});
  EXPECT_GT(Distance(a, b, DistanceMetric::kEmd, Normalization::kNone),
            Distance(a, c, DistanceMetric::kEmd, Normalization::kNone));
}

TEST(DistanceTest, MisalignedXDomainsUseUnion) {
  Visualization a = Series({1, 2});
  Visualization b = Series({1, 2});
  b.xs = {Value::Int(1), Value::Int(2)};  // shifted by one
  EXPECT_GT(Distance(a, b, DistanceMetric::kEuclidean, Normalization::kNone),
            0.0);
}

TEST(DistanceTest, MetricNameRoundTrip) {
  for (DistanceMetric m :
       {DistanceMetric::kEuclidean, DistanceMetric::kDtw,
        DistanceMetric::kKlDivergence, DistanceMetric::kEmd}) {
    ZV_ASSERT_OK_AND_ASSIGN(DistanceMetric back,
                            DistanceMetricFromString(DistanceMetricToString(m)));
    EXPECT_EQ(back, m);
  }
  EXPECT_FALSE(DistanceMetricFromString("cosine").ok());
}

TEST(NormalizeTest, ZScoreMoments) {
  std::vector<double> ys = {1, 2, 3, 4, 5};
  NormalizeSeries(&ys, Normalization::kZScore);
  double sum = 0;
  for (double y : ys) sum += y;
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(NormalizeTest, MinMaxRange) {
  std::vector<double> ys = {5, 10, 7};
  NormalizeSeries(&ys, Normalization::kMinMax);
  EXPECT_DOUBLE_EQ(ys[0], 0.0);
  EXPECT_DOUBLE_EQ(ys[1], 1.0);
}

TEST(NormalizeTest, ConstantSeriesSafe) {
  std::vector<double> ys = {4, 4, 4};
  NormalizeSeries(&ys, Normalization::kZScore);
  for (double y : ys) EXPECT_TRUE(std::isfinite(y));
}

// --- trend ------------------------------------------------------------------------

TEST(TrendTest, SignMatchesDirection) {
  EXPECT_GT(Trend(Series({1, 2, 3, 4})), 0);
  EXPECT_LT(Trend(Series({4, 3, 2, 1})), 0);
  EXPECT_NEAR(Trend(Series({2, 2, 2, 2})), 0, 1e-9);
}

TEST(TrendTest, ScaleInvariant) {
  EXPECT_NEAR(Trend(Series({1, 2, 3})), Trend(Series({100, 200, 300})), 1e-9);
}

// --- kmeans ------------------------------------------------------------------------

TEST(KMeansTest, SeparatesObviousClusters) {
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 10; ++i) pts.push_back({0.0 + i * 0.01, 0.0});
  for (int i = 0; i < 10; ++i) pts.push_back({10.0 + i * 0.01, 10.0});
  KMeansResult km = KMeans(pts, 2, 1);
  EXPECT_EQ(km.centroids.size(), 2u);
  // All points in the same half share an assignment.
  for (int i = 1; i < 10; ++i) EXPECT_EQ(km.assignment[i], km.assignment[0]);
  for (int i = 11; i < 20; ++i) {
    EXPECT_EQ(km.assignment[i], km.assignment[10]);
  }
  EXPECT_NE(km.assignment[0], km.assignment[10]);
  // Medoids come from their own clusters.
  EXPECT_LT(km.medoids[static_cast<size_t>(km.assignment[0])], 10u);
}

TEST(KMeansTest, DeterministicForSeed) {
  std::vector<std::vector<double>> pts;
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    pts.push_back({rng.UniformDouble(), rng.UniformDouble()});
  }
  KMeansResult a = KMeans(pts, 5, 7), b = KMeans(pts, 5, 7);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.medoids, b.medoids);
}

TEST(KMeansTest, KClampedToN) {
  std::vector<std::vector<double>> pts = {{0}, {1}};
  KMeansResult km = KMeans(pts, 10, 3);
  EXPECT_EQ(km.centroids.size(), 2u);
}

TEST(KMeansTest, EmptyInput) {
  KMeansResult km = KMeans({}, 3);
  EXPECT_TRUE(km.centroids.empty());
}

// --- representatives ------------------------------------------------------------------

TEST(RepresentativesTest, PicksOnePerCluster) {
  std::vector<Visualization> set;
  for (int i = 0; i < 8; ++i) set.push_back(Series({1, 2, 3, 4}));     // rising
  for (int i = 0; i < 8; ++i) set.push_back(Series({4, 3, 2, 1}));     // falling
  std::vector<const Visualization*> ptrs;
  for (const auto& v : set) ptrs.push_back(&v);
  auto reps = Representatives(ptrs, 2);
  ASSERT_EQ(reps.size(), 2u);
  const bool one_each = (reps[0] < 8) != (reps[1] < 8);
  EXPECT_TRUE(one_each);
}

// --- mechanisms -------------------------------------------------------------------------

TEST(MechanismTest, ArgMinSortsAscending) {
  MechanismFilter f;
  auto idx = ApplyMechanism(Mechanism::kArgMin, {3, 1, 2}, f);
  EXPECT_EQ(idx, (std::vector<size_t>{1, 2, 0}));
}

TEST(MechanismTest, ArgMaxTopK) {
  MechanismFilter f;
  f.k = 2;
  auto idx = ApplyMechanism(Mechanism::kArgMax, {3, 1, 2, 5}, f);
  EXPECT_EQ(idx, (std::vector<size_t>{3, 0}));
}

TEST(MechanismTest, ThresholdAbove) {
  MechanismFilter f;
  f.t_above = 0.0;
  auto idx = ApplyMechanism(Mechanism::kArgAny, {-1, 2, 0, 3}, f);
  EXPECT_EQ(idx, (std::vector<size_t>{3, 1}));
}

TEST(MechanismTest, ThresholdBelow) {
  MechanismFilter f;
  f.t_below = 0.0;
  auto idx = ApplyMechanism(Mechanism::kArgMin, {-1, 2, -3, 1}, f);
  EXPECT_EQ(idx, (std::vector<size_t>{2, 0}));
}

TEST(MechanismTest, ArgAnyKeepsInputOrder) {
  MechanismFilter f;
  f.k = 3;
  auto idx = ApplyMechanism(Mechanism::kArgAny, {5, 4, 3, 2}, f);
  EXPECT_EQ(idx, (std::vector<size_t>{0, 1, 2}));
}

TEST(MechanismTest, StableTies) {
  MechanismFilter f;
  auto idx = ApplyMechanism(Mechanism::kArgMin, {1, 1, 1}, f);
  EXPECT_EQ(idx, (std::vector<size_t>{0, 1, 2}));
}

// --- recommender -------------------------------------------------------------------------

TEST(RecommenderTest, DiverseAndOrderedBySize) {
  std::vector<Visualization> set;
  for (int i = 0; i < 12; ++i) set.push_back(Series({1, 2, 3}));
  for (int i = 0; i < 4; ++i) set.push_back(Series({3, 2, 1}));
  std::vector<const Visualization*> ptrs;
  for (const auto& v : set) ptrs.push_back(&v);
  RecommenderOptions opts;
  opts.k = 2;
  auto recs = RecommendDiverse(ptrs, opts);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_GE(recs[0].cluster_size, recs[1].cluster_size);
  EXPECT_EQ(recs[0].cluster_size, 12u);
}

TEST(RecommenderTest, EmptyCandidates) {
  EXPECT_TRUE(RecommendDiverse({}).empty());
}

}  // namespace
}  // namespace zv
