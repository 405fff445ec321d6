/// \file plan_test.cc
/// \brief Physical-plan layer tests: golden EXPLAIN operator trees, stage
/// structure, wavefront equivalence with the dependency analyzer, and
/// plan-build failure on unresolvable dependencies.

#include <gtest/gtest.h>

#include <set>

#include "tasks/simd.h"
#include "tests/test_util.h"
#include "zql/explain.h"
#include "zql/parser.h"
#include "zql/plan.h"

namespace zv::zql {
namespace {

/// The ScoreOp note names the dispatched distance-kernel tier, which
/// depends on the machine (and ZV_SIMD) — golden trees splice in whatever
/// this process resolved so they hold on any hardware.
std::string KernelNote() {
  return std::string(", kernel=") + simd::LevelName(simd::ActiveLevel());
}

// Table 5.2: most-different sales-over-location between 2010 and 2015.
const char* const kTable5_2 =
    "f1 | 'country' | 'sales' | v1 <- P | year=2010 | bar.(y=agg('sum')) |\n"
    "f2 | 'country' | 'sales' | v1 | year=2015 | bar.(y=agg('sum')) | v2 "
    "<- argmax_v1[k=10] D(f1, f2)\n"
    "*f3 | 'country' | 'profit' | v2 | year=2010 | bar.(y=agg('sum')) |\n"
    "*f4 | 'country' | 'profit' | v2 | year=2015 | bar.(y=agg('sum')) |";

TEST(PlanTest, GoldenInterTaskOperatorTree) {
  ZV_ASSERT_OK_AND_ASSIGN(ZqlQuery q, ParseQuery(kTable5_2));
  ZqlOptions opts;  // Inter-Task, pipelined — the defaults
  ZV_ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, BuildPhysicalPlan(q, opts));
  EXPECT_EQ(plan.Render(q),
            "physical plan: opt=Inter-Task, pipelined (fetch/score overlap), "
            "2 stages\n"
            "stage 0:\n"
            "  FetchOp        f1  [batched scan]\n"
            "  FetchOp        f2  [batched scan]\n"
            "  MaterializeOp  f1\n"
            "  MaterializeOp  f2\n"
            "  ScoreOp        f2: v2 <- argmax_v1[k=10] D(f1, f2)  "
            "[D: ScoringContext batch scan" + KernelNote() + "]\n"
            "  ReduceOp       f2 -> {v2}\n"
            "stage 1:\n"
            "  FetchOp        *f3  [batched scan]\n"
            "  FetchOp        *f4  [batched scan]\n"
            "  MaterializeOp  *f3\n"
            "  MaterializeOp  *f4\n"
            "OutputOp       *f3, *f4\n");
}

TEST(PlanTest, GoldenUserInputAndDerivedTree) {
  ZV_ASSERT_OK_AND_ASSIGN(
      ZqlQuery q,
      ParseQuery("-q | | | | | |\n"
                 "f1 | 'year' | 'sales' | v1 <- 'product'.* | | | o1 <- "
                 "argmin_v1[k=2] D(f1, q)\n"
                 "*f2=f1.order | 'year' | 'sales' | o1 -> | | |"));
  ZqlOptions opts;
  opts.pipelined_execution = false;  // header reflects the schedule
  ZV_ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, BuildPhysicalPlan(q, opts));
  EXPECT_EQ(plan.Render(q),
            "physical plan: opt=Inter-Task, staged, 1 stage\n"
            "stage 0:\n"
            "  FetchOp        f1  [batched scan]\n"
            "  MaterializeOp  -q  [user input]\n"
            "  MaterializeOp  f1\n"
            "  ScoreOp        f1: o1 <- argmin_v1[k=2] D(f1, q)  "
            "[D: ScoringContext batch scan, top-k pruned k=2" + KernelNote() +
            "]\n"
            "  ReduceOp       f1 -> {o1}\n"
            "  MaterializeOp  *f2=f1.order  [derived]\n"
            "OutputOp       *f2\n");
}

/// The sequential levels break batches differently: NoOpt flushes (and
/// scans per visualization) after every row, so each row is its own stage.
TEST(PlanTest, NoOptOneStagePerRow) {
  ZV_ASSERT_OK_AND_ASSIGN(ZqlQuery q, ParseQuery(kTable5_2));
  ZqlOptions opts;
  opts.optimization = OptLevel::kNoOpt;
  ZV_ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, BuildPhysicalPlan(q, opts));
  EXPECT_EQ(plan.num_stages, 4);
  const std::string rendered = plan.Render(q);
  EXPECT_NE(rendered.find("[one scan per viz]"), std::string::npos);
  EXPECT_NE(rendered.find("stage 3:"), std::string::npos);
}

/// Intra-Task batches the fetches of consecutive task-less rows with the
/// next task row into one stage: f3 and f4 (task-less tail) share a stage.
TEST(PlanTest, IntraTaskBatchesTaskLessRuns) {
  ZV_ASSERT_OK_AND_ASSIGN(ZqlQuery q, ParseQuery(kTable5_2));
  ZqlOptions opts;
  opts.optimization = OptLevel::kIntraTask;
  ZV_ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, BuildPhysicalPlan(q, opts));
  EXPECT_EQ(plan.num_stages, 2);
}

/// The plan's wavefront must agree with the pure dependency analyzer
/// (zql/explain.h) — they implement the same Figure-5.1 schedule.
TEST(PlanTest, WavesMatchExplainAnalysis) {
  ZV_ASSERT_OK_AND_ASSIGN(
      ZqlQuery q,
      ParseQuery(
          "f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | | v2 "
          "<- argany_v1[t > 0] T(f1)\n"
          "f2 | 'year' | 'sales' | v1 | location='UK' | | v3 <- "
          "argany_v1[t < 0] T(f2)\n"
          "*f3 | 'year' | 'profit' | v4 <- (v2.range | v3.range) | | |"));
  ZqlOptions opts;
  ZV_ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, BuildPhysicalPlan(q, opts));
  ZV_ASSERT_OK_AND_ASSIGN(QueryPlan analyzed, ExplainQuery(q));
  ASSERT_EQ(plan.wave_of_row.size(), analyzed.rows.size());
  for (size_t i = 0; i < analyzed.rows.size(); ++i) {
    EXPECT_EQ(plan.wave_of_row[i], analyzed.rows[i].wave) << "row " << i;
  }
}

/// Step-structure invariants the scheduler relies on: every fetch row's
/// MaterializeOp comes after its FetchOp, ScoreOp/ReduceOp pairs are
/// adjacent, and the plan ends with OutputOp.
TEST(PlanTest, StepStructureInvariants) {
  ZV_ASSERT_OK_AND_ASSIGN(ZqlQuery q, ParseQuery(kTable5_2));
  for (OptLevel level : {OptLevel::kNoOpt, OptLevel::kIntraLine,
                         OptLevel::kIntraTask, OptLevel::kInterTask}) {
    ZqlOptions opts;
    opts.optimization = level;
    ZV_ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, BuildPhysicalPlan(q, opts));
    ASSERT_FALSE(plan.steps.empty());
    EXPECT_EQ(plan.steps.back().kind, PlanStep::Kind::kOutput);
    std::set<int> fetched, materialized;
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      const PlanStep& step = plan.steps[i];
      switch (step.kind) {
        case PlanStep::Kind::kFetch:
          EXPECT_FALSE(materialized.count(step.row));
          fetched.insert(step.row);
          break;
        case PlanStep::Kind::kMaterialize:
          materialized.insert(step.row);
          break;
        case PlanStep::Kind::kScore:
          // The row must be materialized, and the matching ReduceOp must
          // immediately follow (ScoreResult hand-off is single-slot).
          EXPECT_TRUE(materialized.count(step.row));
          ASSERT_LT(i + 1, plan.steps.size());
          EXPECT_EQ(plan.steps[i + 1].kind, PlanStep::Kind::kReduce);
          EXPECT_EQ(plan.steps[i + 1].row, step.row);
          EXPECT_EQ(plan.steps[i + 1].decl, step.decl);
          break;
        default:
          break;
      }
    }
    // Every row is materialized exactly once; every fetch row was planned.
    EXPECT_EQ(materialized.size(), q.rows.size());
    EXPECT_EQ(fetched.size(), q.rows.size());  // no local rows in 5.2
  }
}

TEST(PlanTest, UnresolvableDependenciesFailAtBuild) {
  ZV_ASSERT_OK_AND_ASSIGN(
      ZqlQuery q,
      ParseQuery("*f1 | 'year' | 'sales' | v9 | | |"));  // v9 never declared
  ZqlOptions opts;
  const auto plan = BuildPhysicalPlan(q, opts);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().ToString().find("unresolvable"), std::string::npos);
}

}  // namespace
}  // namespace zv::zql
