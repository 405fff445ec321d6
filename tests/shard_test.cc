/// \file shard_test.cc
/// \brief The chunk-parallel contract: every flush selects its rows through
/// a chunk pass — a direct executor through its backend's own queue — and
/// the result is byte-identical to testing::ReferenceDatabase (a naive
/// row loop, ZV_THREADS=1, the table as one chunk) across chunk sizes
/// (including table < 1 chunk, chunk = 1 row, a chunk boundary on the
/// last row, and an empty table), both backends, and ZV_THREADS in
/// {1, 4, 8} — the pass runs on the common pool, so that is
/// also its width, including more pool threads than chunks — with the
/// same sql_queries/sql_requests deltas. Plus:
/// cancellation mid-pass resolves promptly, a scanner's per-chunk
/// selection matches a plain whole-table predicate loop row for row,
/// direct and served queries report their chunk and job time, EXPLAIN
/// renders the fan-out, and a ReplaceDataset swap rebuilds the chunk
/// catalog. Runs under the tsan/asan ctest gates (tools/run_tsan.sh,
/// tools/run_asan.sh): the pass's leader and the pool's workers
/// race-check together.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/parallel.h"
#include "engine/chunk_map.h"
#include "common/metrics.h"
#include "engine/roaring_db.h"
#include "engine/scan_db.h"
#include "engine/shared_scan.h"
#include "server/query_service.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "zql/executor.h"
#include "zql/parser.h"
#include "zql/plan.h"

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

::testing::AssertionResult SameResult(const ZqlResult& a, const ZqlResult& b) {
  if (a.outputs.size() != b.outputs.size()) {
    return ::testing::AssertionFailure() << "output count mismatch";
  }
  for (size_t o = 0; o < a.outputs.size(); ++o) {
    if (a.outputs[o].name != b.outputs[o].name ||
        a.outputs[o].visuals.size() != b.outputs[o].visuals.size()) {
      return ::testing::AssertionFailure()
             << "output " << o << " shape mismatch";
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

/// Query shapes covering the fetch paths a chunk pass touches: a
/// predicate fetch over a named set, a task pipeline with reuse, and a
/// no-WHERE full-table aggregation (the all-rows loop on the Roaring
/// backend).
const char* const kSetQuery =
    "f1 | 'year' | 'sales' | v1 <- P | location='US' | bar.(y=agg('sum')) "
    "| v2 <- argany_v1[t > 0] T(f1)\n"
    "f2 | 'year' | 'sales' | v1 | location='UK' | bar.(y=agg('sum')) | v3 "
    "<- argany_v1[t < 0] T(f2)\n"
    "*f3 | 'year' | 'profit' | v4 <- (v2.range | v3.range) | | "
    "bar.(y=agg('sum')) |";
const char* const kNoWhereQuery =
    "*f1 | 'year' | 'sales' | v1 <- 'location'.* | | bar.(y=agg('sum')) |";

NamedSets MakeP(size_t n) {
  NamedSets sets;
  std::vector<Value> products;
  for (size_t i = 0; i < n; ++i) {
    products.push_back(Value::Str("product" + std::to_string(i)));
  }
  sets.value_sets["P"] = {"product", products};
  return sets;
}

std::shared_ptr<Table> MediumSales() {
  static std::shared_ptr<Table> table = [] {
    SalesDataOptions opts;
    opts.num_rows = 3000;
    opts.num_products = 10;
    return MakeSalesTable(opts);
  }();
  return table;
}

/// Runs `zql` through a direct executor, which selects rows through the
/// backend's own queue: a chunk pass ZV_THREADS wide on the common pool.
Result<ZqlResult> RunZql(Database* db, const char* zql) {
  ZqlOptions opts;
  opts.named_sets = MakeP(8);
  ZqlExecutor exec(db, "sales", opts);
  return exec.ExecuteText(zql);
}

/// The reference: ReferenceDatabase over `table`, serial.
ZqlResult Reference(const std::shared_ptr<Table>& table, const char* zql) {
  ScopedThreads threads(1);
  testing::ReferenceDatabase db;
  EXPECT_TRUE(db.RegisterTable(table).ok());
  Result<ZqlResult> r = RunZql(&db, zql);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << zql;
  return r.ok() ? std::move(r).value() : ZqlResult{};
}

template <typename DbType>
void RunIdentityMatrix() {
  DbType db;
  ZV_ASSERT_OK(db.RegisterTable(MediumSales()));
  for (const char* zql : {kSetQuery, kNoWhereQuery}) {
    const ZqlResult baseline = Reference(MediumSales(), zql);
    // Chunk sizes: 1 row per chunk (maximal fan-out), a mid split, an
    // exact divisor of the 3000-row table (1500: the last chunk boundary
    // lands exactly on the last row — no ragged tail chunk), and the
    // default 2^18 rows — which the table fits inside, so the pass is a
    // single chunk. Thread counts include 8, which exceeds the chunk count
    // at chunk_rows=1500 (2 chunks): surplus pool threads must idle
    // without disturbing the bytes.
    for (size_t chunk_rows :
         {size_t{1}, size_t{256}, size_t{1500}, size_t{0}}) {
      ZV_ASSERT_OK(db.RebuildChunkMap("sales", chunk_rows));
      for (size_t nthreads : {size_t{1}, size_t{4}, size_t{8}}) {
        ScopedThreads threads(nthreads);
        ZV_ASSERT_OK_AND_ASSIGN(ZqlResult got, RunZql(&db, zql));
        EXPECT_TRUE(SameResult(baseline, got))
            << db.name() << " chunk_rows=" << chunk_rows
            << " threads=" << nthreads;
        EXPECT_EQ(baseline.stats.sql_queries, got.stats.sql_queries);
        EXPECT_EQ(baseline.stats.sql_requests, got.stats.sql_requests);
        EXPECT_GT(got.stats.chunks_scanned, 0u);
      }
    }
    ZV_ASSERT_OK(db.RebuildChunkMap("sales", 0));
  }
}

TEST(ShardTest, ScanBackendByteIdentityMatrix) {
  RunIdentityMatrix<ScanDatabase>();
}

TEST(ShardTest, RoaringBackendByteIdentityMatrix) {
  RunIdentityMatrix<RoaringDatabase>();
}

/// A direct query reports its passes like a served one: chunks_scanned
/// accounts every chunk of every fetched statement, shard_ms the passes'
/// job time, and batched_scans every statement.
TEST(ShardTest, ChunkStatsPopulated) {
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(MediumSales()));
  ZV_ASSERT_OK(db.RebuildChunkMap("sales", 500));  // 6 chunks
  ScopedThreads threads(1);
  ZV_ASSERT_OK_AND_ASSIGN(ZqlResult passed, RunZql(&db, kSetQuery));
  EXPECT_EQ(passed.stats.chunks_scanned, 6 * passed.stats.sql_queries);
  EXPECT_EQ(passed.stats.batched_scans, passed.stats.sql_queries);
  EXPECT_GT(passed.stats.shard_ms, 0.0);
}

/// A served query over several chunks reports the pass's chunk job time
/// in shard_ms and records it into zv_shard_scan_ms.
TEST(ShardTest, ServedQueryReportsShardMs) {
  MetricsRegistry registry;
  server::ServiceOptions sopts;
  sopts.metrics = &registry;
  sopts.result_cache = false;
  server::QueryService service(sopts);
  auto db = std::make_shared<ScanDatabase>();
  ZV_ASSERT_OK(db->RegisterTable(MediumSales()));
  ZV_ASSERT_OK(db->RebuildChunkMap("sales", 1000));  // 3 chunks
  ZV_ASSERT_OK(service.RegisterDataset(MediumSales(), db));
  ZV_ASSERT_OK_AND_ASSIGN(server::SessionId sid, service.CreateSession());
  ZV_ASSERT_OK_AND_ASSIGN(server::QueryHandle handle,
                          service.Submit(sid, "sales", kNoWhereQuery));
  ZV_ASSERT_OK(handle.Wait());
  const ZqlStats stats = handle.stats();
  EXPECT_EQ(stats.chunks_scanned, 3 * stats.sql_queries);
  EXPECT_GT(stats.shard_ms, 0.0);
  const Histogram::Snapshot hist =
      registry.GetHistogram("zv_shard_scan_ms")->snapshot();
  EXPECT_EQ(hist.count, 1u);
  EXPECT_GT(hist.sum_ms, 0.0);
}

/// Chunk-boundary edge geometry. An exact divisor leaves no ragged tail:
/// the last chunk's end is exactly the row count, and the ranges tile
/// [0, num_rows) without overlap. A non-divisor leaves one short tail
/// chunk, never an extra empty one.
TEST(ShardTest, ChunkBoundaryExactlyOnLastRow) {
  const ChunkMap exact = ChunkMap::Build(3000, 1500);
  ASSERT_EQ(exact.num_chunks(), 2u);
  EXPECT_EQ(exact.chunk_range(0), (std::pair<uint32_t, uint32_t>{0, 1500}));
  EXPECT_EQ(exact.chunk_range(1),
            (std::pair<uint32_t, uint32_t>{1500, 3000}));
  const ChunkMap ragged = ChunkMap::Build(3000, 1700);
  ASSERT_EQ(ragged.num_chunks(), 2u);
  EXPECT_EQ(ragged.chunk_range(1).second, 3000u);
  // Tiling invariant across both shapes: contiguous, complete, in order.
  for (const ChunkMap& map : {exact, ragged}) {
    uint32_t next = 0;
    for (size_t c = 0; c < map.num_chunks(); ++c) {
      const auto [begin, end] = map.chunk_range(c);
      EXPECT_EQ(begin, next);
      EXPECT_LT(begin, end);
      next = end;
    }
    EXPECT_EQ(next, 3000u);
  }
}

/// More pool threads than chunks: a 2-chunk pass at ZV_THREADS=8 lists a
/// 2-job ParallelFor, so the surplus pool threads find nothing to claim
/// and go back to waiting; results and the chunks_scanned accounting
/// match the exactly-subscribed run.
TEST(ShardTest, MorePoolThreadsThanChunks) {
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(MediumSales()));
  ZV_ASSERT_OK(db.RebuildChunkMap("sales", 1500));  // exactly 2 chunks
  const ZqlResult baseline = Reference(MediumSales(), kSetQuery);
  ZqlResult matched;
  ZqlResult surplus;
  {
    ScopedThreads threads(2);
    ZV_ASSERT_OK_AND_ASSIGN(matched, RunZql(&db, kSetQuery));
  }
  {
    ScopedThreads threads(8);
    ZV_ASSERT_OK_AND_ASSIGN(surplus, RunZql(&db, kSetQuery));
  }
  EXPECT_TRUE(SameResult(baseline, matched));
  EXPECT_TRUE(SameResult(baseline, surplus));
  EXPECT_EQ(surplus.stats.chunks_scanned, matched.stats.chunks_scanned);
}

/// An empty table has zero chunks: SelectRows answers every statement with
/// an empty list and runs no pass, and the outputs (empty series) match
/// the reference's.
TEST(ShardTest, EmptyTableSelectsNothingWithoutAPass) {
  Schema schema({{"year", ColumnType::kCategorical},
                 {"product", ColumnType::kCategorical},
                 {"location", ColumnType::kCategorical},
                 {"sales", ColumnType::kDouble},
                 {"profit", ColumnType::kDouble}});
  auto make_empty = [&] {
    TableBuilder b("sales", schema);
    return b.Finish();
  };
  // A fixed visualization (value iteration over an empty table would be
  // an empty Z set, rejected upstream of fetch).
  const char* fixed = "*f1 | 'year' | 'sales' | | | bar.(y=agg('sum')) |";
  const ZqlResult baseline = Reference(make_empty(), fixed);
  ScanDatabase scan_db;
  RoaringDatabase roaring_db;
  ZV_ASSERT_OK(scan_db.RegisterTable(make_empty()));
  ZV_ASSERT_OK(roaring_db.RegisterTable(make_empty()));
  for (Database* db : {static_cast<Database*>(&scan_db),
                       static_cast<Database*>(&roaring_db)}) {
    ZV_ASSERT_OK_AND_ASSIGN(ChunkMap map, db->GetChunkMap("sales"));
    EXPECT_EQ(map.num_chunks(), 0u);
    ZV_ASSERT_OK_AND_ASSIGN(ZqlResult got, RunZql(db, fixed));
    EXPECT_TRUE(SameResult(baseline, got)) << db->name();
    EXPECT_EQ(got.stats.chunks_scanned, 0u);
    EXPECT_EQ(db->scan_queue()->passes(), 0u);
  }
}

/// The chunk-scan primitives themselves: PrepareMultiChunkScan + per-chunk
/// ScanRange + positional concat select exactly the rows a plain
/// whole-table predicate loop selects, on both backends, for predicate
/// and no-WHERE statements — including a residual (measure) conjunct on
/// the Roaring backend, which splits bitmap + residual — and the finished
/// result equals the reference execution's bytes.
TEST(ShardTest, MultiScannerMatchesReferenceSelection) {
  auto table = MediumSales();
  ScanDatabase scan_db;
  RoaringDatabase roaring_db;
  testing::ReferenceDatabase reference;
  ZV_ASSERT_OK(scan_db.RegisterTable(table));
  ZV_ASSERT_OK(roaring_db.RegisterTable(table));
  ZV_ASSERT_OK(reference.RegisterTable(table));
  const char* const sqls[] = {
      "SELECT year, SUM(sales) FROM sales GROUP BY year",
      "SELECT year, SUM(sales) FROM sales WHERE location = 'US' GROUP BY "
      "year",
      "SELECT year, SUM(profit) FROM sales WHERE location = 'US' AND sales "
      "> 100 GROUP BY year",
      "SELECT year, SUM(profit) FROM sales WHERE sales > 100 GROUP BY year",
  };
  for (Database* db : {static_cast<Database*>(&scan_db),
                       static_cast<Database*>(&roaring_db)}) {
    for (const char* text : sqls) {
      ZV_ASSERT_OK_AND_ASSIGN(sql::SelectStatement stmt,
                              sql::ParseSelect(text));
      ZV_ASSERT_OK_AND_ASSIGN(std::unique_ptr<MultiChunkScanner> scanner,
                              db->PrepareMultiChunkScan({&stmt}));
      ASSERT_EQ(scanner->num_statements(), 1u);
      const ChunkMap map = ChunkMap::Build(table->num_rows(), 170);
      std::vector<std::vector<uint32_t>> outs(1);
      for (size_t c = 0; c < map.num_chunks(); ++c) {
        const auto [begin, end] = map.chunk_range(c);
        ZV_ASSERT_OK(scanner->ScanRange(begin, end, &outs));
      }
      EXPECT_EQ(outs[0], testing::ReferenceRows(*table, stmt))
          << db->name() << ": " << text;
      // And the finished result must equal the reference execution's.
      ZV_ASSERT_OK_AND_ASSIGN(ResultSet finished,
                              db->FinishChunkScan(stmt, {outs[0]}));
      ZV_ASSERT_OK_AND_ASSIGN(ResultSet serial, reference.Execute(stmt));
      EXPECT_EQ(finished.columns, serial.columns) << db->name() << ": "
                                                  << text;
      EXPECT_EQ(finished.rows, serial.rows) << db->name() << ": " << text;
    }
  }
  // An unknown WHERE column fails alike on every backend, the reference's
  // included.
  for (Database* db : {static_cast<Database*>(&scan_db),
                       static_cast<Database*>(&roaring_db),
                       static_cast<Database*>(&reference)}) {
    Result<ResultSet> bad =
        db->ExecuteSql("SELECT year FROM sales WHERE bogus = 1");
    EXPECT_EQ(bad.status().ToString(),
              "NotFound: unknown column 'bogus' in predicate")
        << db->name();
  }
}

/// Cancellation mid-pass: a wide fan-out (20000 rows in 64-row chunks,
/// ~313 chunk jobs per statement) behind 20 ms round trips resolves
/// promptly with kCancelled — never a partial OK result.
TEST(ShardTest, CancelMidChunkPassReturnsPromptly) {
  SalesDataOptions data_opts;
  data_opts.num_rows = 20000;
  data_opts.num_products = 30;
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(MakeSalesTable(data_opts)));
  ZV_ASSERT_OK(db.RebuildChunkMap("sales", 64));
  db.set_request_latency_micros(20000);  // 20 ms per round trip

  ScopedThreads threads(4);
  ZqlOptions opts;
  opts.optimization = OptLevel::kNoOpt;  // one request per visualization
  ZqlExecutor exec(&db, "sales", opts);
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

/// EXPLAIN's FetchOp fan-out annotation: `chunks=K` whenever the caller
/// supplies a chunk count, whatever queue the options name — every fetch
/// takes a chunk pass, so no route marker is rendered.
TEST(ShardTest, ExplainRendersFanOut) {
  ZV_ASSERT_OK_AND_ASSIGN(ZqlQuery q, ParseQuery(kNoWhereQuery));
  ZqlOptions opts;
  ZV_ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, BuildPhysicalPlan(q, opts));
  EXPECT_NE(plan.Render(q, 38).find("[batched scan, chunks=38]"),
            std::string::npos);
  EXPECT_NE(plan.Render(q, 1).find("[batched scan, chunks=1]"),
            std::string::npos);
  EXPECT_NE(plan.Render(q).find("[batched scan]"), std::string::npos);
  EXPECT_EQ(plan.Render(q).find("chunks="), std::string::npos);
  EXPECT_EQ(plan.Render(q, 38).find("shards="), std::string::npos);
  EXPECT_EQ(plan.Render(q, 38).find("shared-scan"), std::string::npos);
  BatchScanQueue queue;
  opts.batch_scans = &queue;
  ZV_ASSERT_OK_AND_ASSIGN(PhysicalPlan served, BuildPhysicalPlan(q, opts));
  EXPECT_EQ(served.Render(q, 38), plan.Render(q, 38));
}

/// ReplaceDataset swaps table and backend atomically; the fresh backend's
/// RegisterTable rebuilds the chunk catalog, so post-swap served queries
/// partition the *new* row space and reproduce the reference.
TEST(ShardTest, ReplaceDatasetRebuildsChunkMap) {
  server::ServiceOptions service_opts;
  service_opts.result_cache = false;
  server::QueryService service(service_opts);

  SalesDataOptions small;
  small.num_rows = 1000;
  small.num_products = 10;
  ZV_ASSERT_OK(service.RegisterDataset(MakeSalesTable(small)));
  ZV_ASSERT_OK_AND_ASSIGN(std::shared_ptr<Database> db0,
                          service.DatasetDatabase("sales"));
  ZV_ASSERT_OK(db0->RebuildChunkMap("sales", 100));
  ZV_ASSERT_OK_AND_ASSIGN(ChunkMap before, db0->GetChunkMap("sales"));
  EXPECT_EQ(before.num_chunks(), 10u);

  SalesDataOptions bigger = small;
  bigger.num_rows = 2500;
  const std::shared_ptr<Table> bigger_table = MakeSalesTable(bigger);
  ZV_ASSERT_OK(service.ReplaceDataset(bigger_table));
  ZV_ASSERT_OK_AND_ASSIGN(std::shared_ptr<Database> db1,
                          service.DatasetDatabase("sales"));
  EXPECT_NE(db0.get(), db1.get());
  ZV_ASSERT_OK_AND_ASSIGN(ChunkMap after, db1->GetChunkMap("sales"));
  EXPECT_EQ(after.num_rows(), 2500u);

  // A served query against the swapped dataset fans out over its chunks
  // and matches the reference.
  ZV_ASSERT_OK(db1->RebuildChunkMap("sales", 250));
  const ZqlResult baseline = Reference(bigger_table, kNoWhereQuery);
  ZV_ASSERT_OK_AND_ASSIGN(server::SessionId sid, service.CreateSession());
  ZV_ASSERT_OK_AND_ASSIGN(server::QueryHandle handle,
                          service.Submit(sid, "sales", kNoWhereQuery));
  ZV_ASSERT_OK(handle.Wait());
  ASSERT_NE(handle.result(), nullptr);
  EXPECT_TRUE(SameResult(baseline, *handle.result()));
  EXPECT_EQ(handle.stats().chunks_scanned, 10 * handle.stats().sql_queries);
}

}  // namespace
}  // namespace zv::zql
