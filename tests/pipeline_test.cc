/// \file pipeline_test.cc
/// \brief The plan-execution contract: results are byte-identical to
/// testing::ReferenceDatabase run serially for every optimization level,
/// every ZV_THREADS setting and one chunk or many, on both backends,
/// across fetch-only, task, reducer, representative, derived, and
/// user-input queries; a cancel landing mid-flush resolves promptly;
/// per-stage timings are populated and disjoint. Runs under the tsan ctest
/// label too (tools/run_tsan.sh): the chunk passes and the scoring pool
/// race-check together.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/parallel.h"
#include "engine/roaring_db.h"
#include "engine/scan_db.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "zql/executor.h"

namespace zv::zql {
namespace {

class ScopedThreads {
 public:
  explicit ScopedThreads(size_t n) { SetParallelThreads(n); }
  ~ScopedThreads() { SetParallelThreads(0); }
};

bool SameVisualization(const Visualization& a, const Visualization& b) {
  return a.x_attr == b.x_attr && a.y_attr == b.y_attr &&
         a.slices == b.slices && a.constraints == b.constraints &&
         a.spec == b.spec && a.xs == b.xs && a.series == b.series;
}

/// Byte-level result equality: output names, order, visualization
/// identities, and every fetched double (exact comparison, no tolerance).
::testing::AssertionResult SameResult(const ZqlResult& a, const ZqlResult& b) {
  if (a.outputs.size() != b.outputs.size()) {
    return ::testing::AssertionFailure()
           << "output count " << a.outputs.size() << " vs "
           << b.outputs.size();
  }
  for (size_t o = 0; o < a.outputs.size(); ++o) {
    if (a.outputs[o].name != b.outputs[o].name) {
      return ::testing::AssertionFailure()
             << "output " << o << " name " << a.outputs[o].name << " vs "
             << b.outputs[o].name;
    }
    if (a.outputs[o].visuals.size() != b.outputs[o].visuals.size()) {
      return ::testing::AssertionFailure()
             << "output " << a.outputs[o].name << " size "
             << a.outputs[o].visuals.size() << " vs "
             << b.outputs[o].visuals.size();
    }
    for (size_t v = 0; v < a.outputs[o].visuals.size(); ++v) {
      if (!SameVisualization(a.outputs[o].visuals[v],
                             b.outputs[o].visuals[v])) {
        return ::testing::AssertionFailure()
               << "output " << a.outputs[o].name << " visual " << v << ": "
               << a.outputs[o].visuals[v].DebugString() << " vs "
               << b.outputs[o].visuals[v].DebugString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

Visualization MakeSketch() {
  Visualization v;
  v.x_attr = "year";
  v.y_attr = "sales";
  Series s;
  s.name = "sales";
  for (int i = 0; i < 10; ++i) {
    v.xs.push_back(Value::Int(2010 + i));
    s.ys.push_back(5.0 * i);  // steeply rising sketch
  }
  v.series.push_back(std::move(s));
  return v;
}

/// The query mix: plain fetches, a D task over a named set, a reducer, a
/// representative clustering, a user-input sketch, and derived rows — one
/// of each execution shape the operators support.
struct Case {
  const char* name;
  const char* zql;
  bool needs_sketch = false;
};

const Case kCases[] = {
    {"table_5_1",
     "f1 | 'year' | 'sales' | v1 <- P | location='US' | "
     "bar.(y=agg('sum')) | v2 <- argany_v1[t > 0] T(f1)\n"
     "f2 | 'year' | 'sales' | v1 | location='UK' | bar.(y=agg('sum')) | v3 "
     "<- argany_v1[t < 0] T(f2)\n"
     "*f3 | 'year' | 'profit' | v4 <- (v2.range | v3.range) | | "
     "bar.(y=agg('sum')) |"},
    {"table_5_2",
     "f1 | 'country' | 'sales' | v1 <- P | year=2010 | bar.(y=agg('sum')) "
     "|\n"
     "f2 | 'country' | 'sales' | v1 | year=2015 | bar.(y=agg('sum')) | v2 "
     "<- argmax_v1[k=4] D(f1, f2)\n"
     "*f3 | 'country' | 'profit' | v2 | year=2010 | bar.(y=agg('sum')) |\n"
     "*f4 | 'country' | 'profit' | v2 | year=2015 | bar.(y=agg('sum')) |"},
    {"reducer_and_representative",
     "f1 | 'year' | 'sales' | v1 <- P | location='US' | | v2 <- R(2, v1, "
     "f1)\n"
     "f2 | 'year' | 'sales' | v2 | location='US' | |\n"
     "f3 | 'year' | 'sales' | v1 | location='US' | | v3 <- argmax_v1[k=2] "
     "min_v2 D(f3, f2)\n"
     "*f4 | 'year' | 'sales' | v3 | location='US' | |"},
    {"sketch_and_derived",
     "-q | | | | | |\n"
     "f1 | 'year' | 'sales' | v1 <- P | location='US' | | o1 <- "
     "argmin_v1[k=3] D(f1, q)\n"
     "f2 | 'year' | 'sales' | o1 | location='US' | |\n"
     "*f3=f2.range | 'year' | 'sales' | | | |",
     /*needs_sketch=*/true},
};

NamedSets MakeP() {
  NamedSets sets;
  std::vector<Value> products;
  for (int i = 0; i < 8; ++i) {
    products.push_back(Value::Str("product" + std::to_string(i)));
  }
  sets.value_sets["P"] = {"product", products};
  return sets;
}

std::shared_ptr<Table> SharedSales() {
  static std::shared_ptr<Table> table = [] {
    SalesDataOptions opts;
    opts.num_rows = 6000;
    opts.num_products = 12;
    return MakeSalesTable(opts);
  }();
  return table;
}

Result<ZqlResult> RunCase(Database* db, const Case& c, OptLevel level) {
  ZqlOptions opts;
  opts.optimization = level;
  opts.named_sets = MakeP();
  ZqlExecutor exec(db, "sales", opts);
  if (c.needs_sketch) exec.SetUserInput("q", MakeSketch());
  return exec.ExecuteText(c.zql);
}

/// The oracle matrix: ReferenceDatabase run at ZV_THREADS=1 is the
/// reference; ZV_THREADS in {1, 4}, over one chunk and over 512-row
/// chunks (a pass that fans out), must reproduce it byte for byte — same
/// visuals, same SQL counts — at every optimization level.
TEST(PipelineTest, MatchesReferenceAtEveryLevel) {
  testing::ReferenceDatabase reference;
  ZV_ASSERT_OK(reference.RegisterTable(SharedSales()));
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(SharedSales()));
  for (const Case& c : kCases) {
    for (OptLevel level : {OptLevel::kNoOpt, OptLevel::kIntraTask,
                           OptLevel::kInterTask}) {
      ZqlResult baseline;
      {
        ScopedThreads threads(1);
        ZV_ASSERT_OK_AND_ASSIGN(baseline, RunCase(&reference, c, level));
      }
      // 0 = the default chunk size, which the 6000-row table fits inside;
      // 512-row chunks make 12.
      for (size_t chunk_rows : {size_t{0}, size_t{512}}) {
        ZV_ASSERT_OK(db.RebuildChunkMap("sales", chunk_rows));
        for (size_t nthreads : {size_t{1}, size_t{4}}) {
          ScopedThreads threads(nthreads);
          ZV_ASSERT_OK_AND_ASSIGN(ZqlResult got, RunCase(&db, c, level));
          EXPECT_TRUE(SameResult(baseline, got))
              << c.name << " opt=" << OptLevelToString(level)
              << " threads=" << nthreads << " chunk_rows=" << chunk_rows;
          EXPECT_EQ(baseline.stats.sql_queries, got.stats.sql_queries)
              << c.name;
          EXPECT_EQ(baseline.stats.sql_requests, got.stats.sql_requests)
              << c.name;
        }
      }
    }
  }
}

/// Both backends run the same chunk pass and FinishChunkScan per statement:
/// Roaring reproduces the reference at ZV_THREADS 1 and 4.
TEST(PipelineTest, RoaringBackendMatchesReference) {
  testing::ReferenceDatabase reference;
  ZV_ASSERT_OK(reference.RegisterTable(SharedSales()));
  RoaringDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(SharedSales()));
  const Case& c = kCases[1];  // table_5_2
  ZqlResult baseline;
  {
    ScopedThreads threads(1);
    ZV_ASSERT_OK_AND_ASSIGN(baseline,
                            RunCase(&reference, c, OptLevel::kInterTask));
  }
  for (size_t nthreads : {size_t{1}, size_t{4}}) {
    ScopedThreads threads(nthreads);
    ZV_ASSERT_OK_AND_ASSIGN(ZqlResult got,
                            RunCase(&db, c, OptLevel::kInterTask));
    EXPECT_TRUE(SameResult(baseline, got)) << "threads=" << nthreads;
  }
}

/// Per-stage timings: fetch_ms (backend scans) and score_ms (combination
/// scoring) are populated, nested inside their umbrella timings, and —
/// both being intervals on the calling thread — disjoint, so together
/// they fit inside total_ms. The round-trip latency keeps fetch_ms far
/// from negligible.
TEST(PipelineTest, PerStageTimingsPopulated) {
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(SharedSales()));
  db.set_request_latency_micros(2000);  // 2 ms per round trip
  for (size_t nthreads : {size_t{1}, size_t{4}}) {
    ScopedThreads threads(nthreads);
    ZV_ASSERT_OK_AND_ASSIGN(ZqlResult r,
                            RunCase(&db, kCases[1], OptLevel::kInterTask));
    EXPECT_GT(r.stats.fetch_ms, 2.0) << "threads=" << nthreads;
    EXPECT_GT(r.stats.score_ms, 0.0) << "threads=" << nthreads;
    EXPECT_LE(r.stats.fetch_ms, r.stats.exec_ms) << "threads=" << nthreads;
    EXPECT_LE(r.stats.score_ms, r.stats.compute_ms) << "threads=" << nthreads;
    EXPECT_LE(r.stats.fetch_ms + r.stats.score_ms, r.stats.total_ms)
        << "threads=" << nthreads;
  }
}

/// Cancellation mid-flush: a NoOpt flush makes one round trip per
/// visualization on the calling thread, and each trip's SelectRows polls
/// the token (as do the chunk pass's waits), so a cancel during a long
/// multi-request flush resolves promptly with kCancelled — never a
/// partial OK result.
TEST(PipelineTest, CancelMidFlushReturnsPromptly) {
  SalesDataOptions data_opts;
  data_opts.num_rows = 20000;
  data_opts.num_products = 30;
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(MakeSalesTable(data_opts)));
  db.set_request_latency_micros(20000);  // 20 ms per round trip

  ZqlOptions opts;
  opts.optimization = OptLevel::kNoOpt;  // one request per visualization
  ZqlExecutor exec(&db, "sales", opts);
  // 30 product scans at >= 20 ms each: ~600+ ms if left alone.
  const char* query = "*f1 | 'year' | 'sales' | v1 <- 'product'.* | | |";

  CancelToken token;
  Status status = Status::OK();
  const auto t0 = std::chrono::steady_clock::now();
  std::thread runner([&] {
    CancelScope scope(token);
    Result<ZqlResult> r = exec.ExecuteText(query);
    status = r.ok() ? Status::OK() : r.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  token.Cancel();
  runner.join();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  EXPECT_LT(elapsed_ms, 400.0) << "cancellation latency far too high";
}

}  // namespace
}  // namespace zv::zql
