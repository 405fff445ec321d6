#include <gtest/gtest.h>

#include "tasks/simd.h"
#include "tests/test_util.h"
#include "zql/explain.h"
#include "zql/parser.h"

namespace zv::zql {
namespace {

// The Figure 5.1 query (Table 5.1): f1 and f2 are independent of each
// other's tasks and fetch in wave 0; f3 needs v2/v3 (task outputs) and
// lands in wave 1.
TEST(ExplainTest, Figure51Wavefront) {
  ZV_ASSERT_OK_AND_ASSIGN(
      ZqlQuery q,
      ParseQuery(
          "f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | | v2 "
          "<- argany_v1[t > 0] T(f1)\n"
          "f2 | 'year' | 'sales' | v1 | location='UK' | | v3 <- "
          "argany_v1[t < 0] T(f2)\n"
          "*f3 | 'year' | 'profit' | v4 <- (v2.range | v3.range) | | |"));
  ZV_ASSERT_OK_AND_ASSIGN(QueryPlan plan, ExplainQuery(q));
  ASSERT_EQ(plan.rows.size(), 3u);
  EXPECT_EQ(plan.rows[0].wave, 0);
  EXPECT_EQ(plan.rows[1].wave, 0);  // f2 independent of t1
  EXPECT_EQ(plan.rows[2].wave, 1);  // f3 waits on v2 and v3
  EXPECT_EQ(plan.num_waves, 2);
  EXPECT_TRUE(plan.rows[0].has_task);
  EXPECT_EQ(plan.rows[0].task_outputs, std::vector<std::string>{"v2"});
  const std::string rendered = plan.ToString();
  EXPECT_NE(rendered.find("f3"), std::string::npos);
  EXPECT_NE(rendered.find("wave 1"), std::string::npos);
}

TEST(ExplainTest, ChainedTasksSerialize) {
  ZV_ASSERT_OK_AND_ASSIGN(
      ZqlQuery q,
      ParseQuery(
          "f1 | 'year' | 'sales' | v1 <- 'product'.* | | | v2 <- "
          "argmax_v1[k=3] T(f1)\n"
          "f2 | 'year' | 'profit' | v2 | | | v3 <- argmax_v2[k=1] T(f2)\n"
          "*f3 | 'year' | 'sales' | v3 | | |"));
  ZV_ASSERT_OK_AND_ASSIGN(QueryPlan plan, ExplainQuery(q));
  EXPECT_EQ(plan.rows[0].wave, 0);
  EXPECT_EQ(plan.rows[1].wave, 1);
  EXPECT_EQ(plan.rows[2].wave, 2);
  EXPECT_EQ(plan.num_waves, 3);
}

TEST(ExplainTest, DerivedRowsTrackComponentDeps) {
  ZV_ASSERT_OK_AND_ASSIGN(
      ZqlQuery q,
      ParseQuery("f1 | 'year' | 'sales' | v1 <- 'product'.* | | |\n"
                 "f2 | 'year' | 'profit' | v1 | | |\n"
                 "*f3=f1+f2 | | | | |"));
  ZV_ASSERT_OK_AND_ASSIGN(QueryPlan plan, ExplainQuery(q));
  EXPECT_TRUE(plan.rows[2].derived);
  EXPECT_EQ(plan.rows[2].consumes_components,
            (std::vector<std::string>{"f1", "f2"}));
  // All fetchable/derivable in one wave: f1, f2 fetch; f3 derives after.
  EXPECT_EQ(plan.rows[2].wave, 0);
}

TEST(ExplainTest, UndefinedVariableIsCircular) {
  ZV_ASSERT_OK_AND_ASSIGN(
      ZqlQuery q, ParseQuery("*f1 | 'year' | 'sales' | vX | | |"));
  EXPECT_FALSE(ExplainQuery(q).ok());
}

// Task scoring annotations: a bare argmin[k=n] D(f, g) is reported as
// ScoringContext-batched and top-k pruned; trend scans and user functions
// are labelled with their own paths.
TEST(ExplainTest, AnnotatesTaskScoringPaths) {
  ZV_ASSERT_OK_AND_ASSIGN(
      ZqlQuery q,
      ParseQuery(
          "f1 | 'year' | 'sales' | v1 <- 'product'.* | | |\n"
          "f2 | 'year' | 'sales' | 'product'.'chair' | | | v2 <- "
          "argmin_v1[k=2] D(f1, f2)\n"
          "f4 | 'year' | 'profit' | v1 | | | v3 <- argany_v1[t > 0] T(f4)\n"
          "*f3 | 'year' | 'profit' | v2 | | |"));
  ZV_ASSERT_OK_AND_ASSIGN(QueryPlan plan, ExplainQuery(q));
  ASSERT_EQ(plan.rows[1].task_scoring.size(), 1u);
  EXPECT_EQ(plan.rows[1].task_scoring[0],
            "D: ScoringContext batch scan, top-k pruned k=2, kernel=" +
                std::string(simd::LevelName(simd::ActiveLevel())));
  ASSERT_EQ(plan.rows[2].task_scoring.size(), 1u);
  EXPECT_EQ(plan.rows[2].task_scoring[0], "T: parallel trend scan");
  const std::string rendered = plan.ToString();
  EXPECT_NE(rendered.find("top-k pruned k=2"), std::string::npos);
}

TEST(ExplainTest, UserFunctionsAnnotatedSerial) {
  ZV_ASSERT_OK_AND_ASSIGN(
      ZqlQuery q,
      ParseQuery("*f1 | 'year' | 'sales' | v1 <- 'product'.* | | | v2 <- "
                 "argmax_v1[k=1] MyScore(f1)"));
  ZV_ASSERT_OK_AND_ASSIGN(QueryPlan plan, ExplainQuery(q));
  ASSERT_EQ(plan.rows[0].task_scoring.size(), 1u);
  EXPECT_EQ(plan.rows[0].task_scoring[0],
            "user fn: serial per-pair scoring");
}

TEST(ExplainTest, IndependentRowsShareWave) {
  ZV_ASSERT_OK_AND_ASSIGN(
      ZqlQuery q,
      ParseQuery("*f1 | 'year' | 'sales' | | | |\n"
                 "*f2 | 'year' | 'profit' | | | |\n"
                 "*f3 | 'month' | 'sales' | | | |"));
  ZV_ASSERT_OK_AND_ASSIGN(QueryPlan plan, ExplainQuery(q));
  EXPECT_EQ(plan.num_waves, 1);
}

}  // namespace
}  // namespace zv::zql
