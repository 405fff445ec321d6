/// \file batch_test.cc
/// \brief The batched-execution contract (docs/architecture.md "Batched
/// execution"): results served through the shared-scan queue are
/// byte-identical to testing::ReferenceDatabase (a naive row loop, staged,
/// ZV_THREADS=1, the table as one chunk) across {one chunk, small chunks}
/// × {1, 4} sessions × ZV_THREADS {1, 4} × {staged, pipelined} × both
/// backends, and so are concurrent direct callers sharing one backend's
/// own queue. Plus: the multi-statement scanners and the queue select, per
/// statement, exactly what a plain whole-table predicate loop selects, a
/// cancelled member leaves its pass siblings unaffected, a ReplaceDataset
/// epoch bump mid-window isolates pre- and post-bump queries on their own
/// snapshots, the batching window is bounded, binning pushdown reproduces
/// the client-side binner bit for bit on integer data, and a randomized
/// multi-session soak (ZV_SOAK_ITERS; the `stress` ctest configuration
/// runs it long) hammers submit/cancel/replace concurrently. Runs under
/// the tsan/asan ctest gates (tools/run_tsan.sh, tools/run_asan.sh): pass
/// leaders, the common pool that runs their chunk jobs, and the service
/// workers race-check together.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/parallel.h"
#include "engine/chunk_map.h"
#include "engine/roaring_db.h"
#include "engine/scan_db.h"
#include "engine/shared_scan.h"
#include "server/query_service.h"
#include "sql/parser.h"
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

/// A statement's selected rows as one list: its chunk parts, in order.
std::vector<uint32_t> Concat(
    const std::vector<std::vector<uint32_t>>& parts) {
  std::vector<uint32_t> rows;
  for (const auto& part : parts) {
    rows.insert(rows.end(), part.begin(), part.end());
  }
  return rows;
}

/// Distinct query shapes whose row selections can share a pass: different
/// predicates (union-able conjuncts), a no-WHERE full scan (the Roaring
/// bitmap fast path), a scored pipeline, and a binned numeric x axis.
const char* const kQueries[] = {
    "*f1 | 'year' | 'sales' | v1 <- 'product'.* | | bar.(y=agg('sum')) |",
    "*f1 | 'year' | 'profit' | v1 <- 'product'.* | location='US' | "
    "bar.(y=agg('sum')) |",
    "*f1 | 'year' | 'sales' | 'location'.'UK' | | line.(y=agg('avg')) |",
    "f1 | 'year' | 'sales' | v1 <- 'location'.* | sales > 100 | "
    "bar.(y=agg('sum')) | v2 <- argmax_v1[k=1] T(f1)\n"
    "*f2 | 'year' | 'profit' | v2 | | bar.(y=agg('sum')) |",
    "*f1 | 'sales' | 'profit' | v1 <- 'location'.* | | "
    "bar.(x=bin(50), y=agg('sum')) |",
};
constexpr size_t kNumQueries = sizeof(kQueries) / sizeof(kQueries[0]);

std::shared_ptr<Table> MediumSales() {
  static std::shared_ptr<Table> table = [] {
    SalesDataOptions opts;
    opts.num_rows = 3000;
    opts.num_products = 10;
    return MakeSalesTable(opts);
  }();
  return table;
}

/// The reference: ReferenceDatabase over `table`, staged, serial.
ZqlResult Oracle(const std::shared_ptr<Table>& table, const char* zql) {
  ScopedThreads threads(1);
  testing::ReferenceDatabase db;
  EXPECT_TRUE(db.RegisterTable(table).ok());
  ZqlOptions opts;
  opts.pipelined_execution = false;
  ZqlExecutor exec(&db, "sales", opts);
  Result<ZqlResult> r = exec.ExecuteText(zql);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << zql;
  return r.ok() ? std::move(r).value() : ZqlResult{};
}

template <typename DbType>
void RunBatchIdentityMatrix() {
  auto table = MediumSales();
  std::vector<ZqlResult> oracle;
  for (const char* zql : kQueries) oracle.push_back(Oracle(table, zql));
  // 0 = the default chunk size, which the 3000-row table fits inside.
  for (size_t chunk_rows : {size_t{0}, size_t{256}}) {
    for (size_t sessions : {size_t{1}, size_t{4}}) {
      for (size_t nthreads : {size_t{1}, size_t{4}}) {
        for (bool pipelined : {false, true}) {
          ScopedThreads threads(nthreads);
          server::ServiceOptions sopts;
          sopts.result_cache = false;  // every submit must really execute
          sopts.max_inflight = 4;
          sopts.zql.pipelined_execution = pipelined;
          server::QueryService service(sopts);
          auto db = std::make_shared<DbType>();
          ZV_ASSERT_OK(db->RegisterTable(table));
          ZV_ASSERT_OK(db->RebuildChunkMap("sales", chunk_rows));
          ZV_ASSERT_OK(service.RegisterDataset(table, db));
          std::vector<server::SessionId> sids;
          for (size_t s = 0; s < sessions; ++s) {
            ZV_ASSERT_OK_AND_ASSIGN(server::SessionId sid,
                                    service.CreateSession());
            sids.push_back(sid);
          }
          std::vector<server::QueryHandle> handles;
          for (size_t i = 0; i < kNumQueries; ++i) {
            ZV_ASSERT_OK_AND_ASSIGN(
                server::QueryHandle h,
                service.Submit(sids[i % sids.size()], "sales", kQueries[i]));
            handles.push_back(h);
          }
          uint64_t batched_total = 0;
          for (size_t i = 0; i < handles.size(); ++i) {
            ZV_ASSERT_OK(handles[i].Wait());
            auto res = handles[i].result();
            ASSERT_NE(res, nullptr);
            EXPECT_TRUE(SameResult(oracle[i], *res))
                << "query " << i << " chunk_rows=" << chunk_rows
                << " sessions=" << sessions << " threads=" << nthreads
                << " pipelined=" << pipelined;
            batched_total += handles[i].stats().batched_scans;
          }
          EXPECT_GT(batched_total, 0u);
          EXPECT_GT(service.stats().batch_passes, 0u);
        }
      }
    }
  }
}

TEST(BatchTest, ScanBackendByteIdentityMatrix) {
  RunBatchIdentityMatrix<ScanDatabase>();
}

TEST(BatchTest, RoaringBackendByteIdentityMatrix) {
  RunBatchIdentityMatrix<RoaringDatabase>();
}

/// The multi-statement scanner primitives: PrepareMultiChunkScan +
/// per-chunk ScanRange selects, per statement, exactly the rows a plain
/// whole-table predicate loop selects — on both backends (the base engine
/// fuses into one row loop; Roaring keeps per-statement bitmap loops).
TEST(BatchTest, MultiScannerMatchesSoloSelection) {
  auto table = MediumSales();
  ScanDatabase scan_db;
  RoaringDatabase roaring_db;
  ZV_ASSERT_OK(scan_db.RegisterTable(table));
  ZV_ASSERT_OK(roaring_db.RegisterTable(table));
  const char* const sqls[] = {
      "SELECT year, SUM(sales) FROM sales GROUP BY year",
      "SELECT year, SUM(profit) FROM sales WHERE location = 'US' GROUP BY "
      "year",
      "SELECT year, SUM(profit) FROM sales WHERE location = 'UK' AND sales "
      "> 100 GROUP BY year",
  };
  std::vector<sql::SelectStatement> stmts;
  for (const char* text : sqls) {
    ZV_ASSERT_OK_AND_ASSIGN(sql::SelectStatement stmt, sql::ParseSelect(text));
    stmts.push_back(std::move(stmt));
  }
  std::vector<const sql::SelectStatement*> ptrs;
  for (const auto& s : stmts) ptrs.push_back(&s);
  for (Database* db : {static_cast<Database*>(&scan_db),
                       static_cast<Database*>(&roaring_db)}) {
    ZV_ASSERT_OK_AND_ASSIGN(std::unique_ptr<MultiChunkScanner> multi,
                            db->PrepareMultiChunkScan(ptrs));
    ASSERT_EQ(multi->num_statements(), stmts.size());
    const ChunkMap map = ChunkMap::Build(table->num_rows(), 170);
    std::vector<std::vector<uint32_t>> outs(stmts.size());
    for (size_t c = 0; c < map.num_chunks(); ++c) {
      const auto [begin, end] = map.chunk_range(c);
      ZV_ASSERT_OK(multi->ScanRange(begin, end, &outs));
    }
    for (size_t i = 0; i < stmts.size(); ++i) {
      EXPECT_EQ(outs[i], testing::ReferenceRows(*table, stmts[i]))
          << db->name() << ": " << sqls[i];
    }
  }
}

/// The queue itself: one SelectRows call returns per-statement row lists
/// identical to the reference selection; an empty table short-circuits
/// without a pass.
TEST(BatchTest, QueueSelectionMatchesSoloScan) {
  auto table = MediumSales();
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(table));
  ZV_ASSERT_OK(db.RebuildChunkMap("sales", 256));
  ZV_ASSERT_OK_AND_ASSIGN(sql::SelectStatement a,
                          sql::ParseSelect("SELECT year, SUM(sales) FROM "
                                           "sales WHERE location = 'US' "
                                           "GROUP BY year"));
  ZV_ASSERT_OK_AND_ASSIGN(
      sql::SelectStatement b,
      sql::ParseSelect("SELECT year, SUM(profit) FROM sales GROUP BY year"));
  BatchScanQueue queue;
  BatchScanQueue::Selection sel = queue.SelectRows(&db, "sales", {&a, &b});
  ZV_ASSERT_OK(sel.status);
  ASSERT_EQ(sel.rows.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const sql::SelectStatement& stmt = i == 0 ? a : b;
    EXPECT_EQ(Concat(sel.rows[i]), testing::ReferenceRows(*table, stmt));
  }
  EXPECT_GT(sel.chunks_scanned, 0u);
  EXPECT_EQ(queue.passes(), 1u);

  Schema schema({{"year", ColumnType::kCategorical},
                 {"sales", ColumnType::kDouble}});
  TableBuilder empty_builder("sales", schema);
  ScanDatabase empty_db;
  ZV_ASSERT_OK(empty_db.RegisterTable(empty_builder.Finish()));
  ZV_ASSERT_OK_AND_ASSIGN(
      sql::SelectStatement c,
      sql::ParseSelect("SELECT year FROM sales"));
  BatchScanQueue::Selection empty = queue.SelectRows(&empty_db, "sales", {&c});
  ZV_ASSERT_OK(empty.status);
  ASSERT_EQ(empty.rows.size(), 1u);
  EXPECT_TRUE(empty.rows[0].empty());
  EXPECT_EQ(queue.passes(), 1u);  // no pass for an empty table
}

/// Group commit with a positive window: concurrent callers land in one
/// shared pass, and each still gets exactly its own selection back.
TEST(BatchTest, ConcurrentCallersShareOnePass) {
  auto table = MediumSales();
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(table));
  ZV_ASSERT_OK(db.RebuildChunkMap("sales", 256));
  const char* const sqls[] = {
      "SELECT year FROM sales WHERE location = 'US'",
      "SELECT year FROM sales WHERE location = 'UK'",
      "SELECT year FROM sales WHERE sales > 100",
  };
  BatchScanOptions bopts;
  bopts.window_ms = 100;  // hold the pass open for all three arrivals
  BatchScanQueue queue(bopts);
  std::vector<sql::SelectStatement> stmts;
  for (const char* text : sqls) {
    ZV_ASSERT_OK_AND_ASSIGN(sql::SelectStatement stmt, sql::ParseSelect(text));
    stmts.push_back(std::move(stmt));
  }
  std::vector<BatchScanQueue::Selection> sels(stmts.size());
  std::vector<std::thread> callers;
  for (size_t i = 0; i < stmts.size(); ++i) {
    callers.emplace_back([&, i] {
      sels[i] = queue.SelectRows(&db, "sales", {&stmts[i]});
    });
  }
  for (auto& t : callers) t.join();
  for (size_t i = 0; i < stmts.size(); ++i) {
    ZV_ASSERT_OK(sels[i].status);
    EXPECT_TRUE(sels[i].shared) << "caller " << i;
    EXPECT_EQ(Concat(sels[i].rows[0]),
              testing::ReferenceRows(*table, stmts[i]))
        << "caller " << i;
  }
  EXPECT_EQ(queue.passes(), 1u);
  EXPECT_EQ(queue.shared_passes(), 1u);
  EXPECT_EQ(queue.statements_served(), 3u);
}

/// Concurrent direct callers of one Database — ExecuteSql and direct
/// executors, none given a queue — share the backend's own queue: every
/// result equals the reference's, and at least one pass carries more than
/// one caller's statements. Both backends, ZV_THREADS 1 and 4.
template <typename DbType>
void RunConcurrentDirectCallers() {
  auto table = MediumSales();
  const char* const sqls[] = {
      "SELECT year, SUM(sales) FROM sales WHERE location = 'US' GROUP BY "
      "year",
      "SELECT product, COUNT(*) FROM sales WHERE sales > 100 GROUP BY "
      "product",
      "SELECT year, MAX(profit) FROM sales GROUP BY year",
  };
  constexpr size_t kNumSqls = sizeof(sqls) / sizeof(sqls[0]);
  std::vector<ResultSet> expected_sql;
  std::vector<ZqlResult> expected_zql;
  {
    ScopedThreads threads(1);
    testing::ReferenceDatabase reference;
    ZV_ASSERT_OK(reference.RegisterTable(table));
    for (const char* text : sqls) {
      ZV_ASSERT_OK_AND_ASSIGN(ResultSet rs, reference.ExecuteSql(text));
      expected_sql.push_back(std::move(rs));
    }
  }
  for (const char* zql : kQueries) expected_zql.push_back(Oracle(table, zql));

  constexpr size_t kCallers = 8;
  for (size_t nthreads : {size_t{1}, size_t{4}}) {
    ScopedThreads threads(nthreads);
    DbType db;
    ZV_ASSERT_OK(db.RegisterTable(table));
    ZV_ASSERT_OK(db.RebuildChunkMap("sales", 256));
    // Rounds until some pass was shared (almost always the first): callers
    // that arrive while a pass runs pile up and form the next one.
    for (int round = 0; round < 20 && db.scan_queue()->shared_passes() == 0;
         ++round) {
      std::atomic<size_t> ready{0};
      std::vector<std::thread> callers;
      for (size_t t = 0; t < kCallers; ++t) {
        callers.emplace_back([&, t] {
          ++ready;
          while (ready.load() < kCallers) std::this_thread::yield();
          for (size_t i = 0; i < 3; ++i) {
            const size_t pick = t + i;
            if (t % 2 == 0) {
              Result<ResultSet> rs = db.ExecuteSql(sqls[pick % kNumSqls]);
              ASSERT_TRUE(rs.ok()) << rs.status().ToString();
              EXPECT_EQ(rs->columns, expected_sql[pick % kNumSqls].columns);
              EXPECT_EQ(rs->rows, expected_sql[pick % kNumSqls].rows)
                  << db.name() << " sql " << pick % kNumSqls;
            } else {
              ZqlExecutor exec(&db, "sales");
              Result<ZqlResult> r =
                  exec.ExecuteText(kQueries[pick % kNumQueries]);
              ASSERT_TRUE(r.ok()) << r.status().ToString();
              EXPECT_TRUE(SameResult(expected_zql[pick % kNumQueries], *r))
                  << db.name() << " query " << pick % kNumQueries;
            }
          }
        });
      }
      for (auto& c : callers) c.join();
    }
    EXPECT_GE(db.scan_queue()->shared_passes(), 1u)
        << db.name() << " threads=" << nthreads;
  }
}

TEST(BatchTest, ConcurrentDirectCallersShareTheBackendQueue) {
  RunConcurrentDirectCallers<ScanDatabase>();
  RunConcurrentDirectCallers<RoaringDatabase>();
}

/// The batching window resolves to a bounded, finite hold: non-finite
/// values mean no window, and anything above kMaxBatchWindowMs is capped,
/// whether it comes from the options or from ZV_BATCH_WINDOW_MS.
TEST(BatchTest, WindowIsBounded) {
  const auto window = [](double ms) {
    BatchScanOptions opts;
    opts.window_ms = ms;
    return BatchScanQueue(opts).window_ms();
  };
  EXPECT_EQ(window(100), 100.0);
  EXPECT_EQ(window(0), 0.0);
  EXPECT_EQ(window(1e300), kMaxBatchWindowMs);
  EXPECT_EQ(window(std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_EQ(window(std::numeric_limits<double>::quiet_NaN()), 0.0);
  for (const char* env : {"inf", "nan", "1e300", "-5", "2"}) {
    setenv("ZV_BATCH_WINDOW_MS", env, 1);
    const double got = window(-1);
    EXPECT_TRUE(got >= 0 && got <= kMaxBatchWindowMs) << env << ": " << got;
  }
  setenv("ZV_BATCH_WINDOW_MS", "1e300", 1);
  EXPECT_EQ(window(-1), kMaxBatchWindowMs);
  setenv("ZV_BATCH_WINDOW_MS", "2", 1);
  EXPECT_EQ(window(-1), 2.0);
  unsetenv("ZV_BATCH_WINDOW_MS");
  EXPECT_EQ(window(-1), 0.0);
}

/// Mid-batch cancellation, queue level: a member cancelled while its pass
/// is held open abandons with kCancelled, and the sibling completes alone
/// with its exact reference selection — whether the cancelled caller
/// arrived first (it leads, holding the window, and must hand leadership
/// to the sibling) or second (a follower).
TEST(BatchTest, CancelledMemberLeavesSiblingUnaffected) {
  auto table = MediumSales();
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(table));
  ZV_ASSERT_OK(db.RebuildChunkMap("sales", 256));
  ZV_ASSERT_OK_AND_ASSIGN(
      sql::SelectStatement doomed,
      sql::ParseSelect("SELECT year FROM sales WHERE location = 'US'"));
  ZV_ASSERT_OK_AND_ASSIGN(
      sql::SelectStatement survivor,
      sql::ParseSelect("SELECT year FROM sales WHERE location = 'UK'"));
  for (bool doomed_leads : {true, false}) {
    SCOPED_TRACE(doomed_leads ? "cancelled leader" : "cancelled follower");
    BatchScanOptions bopts;
    bopts.window_ms = 2000;  // long window: the cancel always lands inside it
    BatchScanQueue queue(bopts);
    CancelToken token;
    BatchScanQueue::Selection cancelled_sel;
    BatchScanQueue::Selection survivor_sel;
    const auto run_doomed = [&] {
      CancelScope scope(token);
      cancelled_sel = queue.SelectRows(&db, "sales", {&doomed});
    };
    const auto run_survivor = [&] {
      survivor_sel = queue.SelectRows(&db, "sales", {&survivor});
    };
    // The first arrival finds no pass running and leads; the second
    // follows.
    std::thread first([&] { doomed_leads ? run_doomed() : run_survivor(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::thread second([&] { doomed_leads ? run_survivor() : run_doomed(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.Cancel();
    first.join();
    second.join();
    EXPECT_EQ(cancelled_sel.status.code(), StatusCode::kCancelled)
        << cancelled_sel.status.ToString();
    ZV_ASSERT_OK(survivor_sel.status);
    EXPECT_EQ(Concat(survivor_sel.rows[0]),
              testing::ReferenceRows(*table, survivor));
    EXPECT_FALSE(survivor_sel.shared);
    EXPECT_EQ(queue.passes(), 1u);
    EXPECT_EQ(queue.statements_served(), 1u);
  }
}

/// A backend whose chunk scans each take `chunk_ms`, so a pass stays in
/// flight long enough to cancel its leader mid-pass. Scanners never fuse.
class SlowScanDatabase : public ScanDatabase {
 public:
  explicit SlowScanDatabase(int chunk_ms) : chunk_ms_(chunk_ms) {}

  Result<std::unique_ptr<MultiChunkScanner>> PrepareMultiChunkScan(
      const std::vector<const sql::SelectStatement*>& stmts) override {
    ZV_ASSIGN_OR_RETURN(std::unique_ptr<MultiChunkScanner> base,
                        ScanDatabase::PrepareMultiChunkScan(stmts));
    return std::unique_ptr<MultiChunkScanner>(
        new SlowScanner(std::move(base), chunk_ms_));
  }

 private:
  class SlowScanner : public MultiChunkScanner {
   public:
    SlowScanner(std::unique_ptr<MultiChunkScanner> base, int ms)
        : base_(std::move(base)), ms_(ms) {}
    size_t num_statements() const override {
      return base_->num_statements();
    }
    Status ScanRange(uint32_t begin, uint32_t end,
                     std::vector<std::vector<uint32_t>>* outs) const override {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
      return base_->ScanRange(begin, end, outs);
    }
    bool Absorb(std::unique_ptr<MultiChunkScanner>&) override {
      return false;
    }

   private:
    std::unique_ptr<MultiChunkScanner> base_;
    int ms_;
  };

  int chunk_ms_;
};

/// A leader cancelled mid-pass: the pass is never cancelled, so the leader
/// returns kCancelled only once its pass has ended, and a caller that
/// arrived during the pass is served exactly by the next one.
TEST(BatchTest, LeaderCancelledMidPassReturnsWhenThePassEnds) {
  auto table = MediumSales();
  SlowScanDatabase db(/*chunk_ms=*/10);
  ZV_ASSERT_OK(db.RegisterTable(table));
  ZV_ASSERT_OK(db.RebuildChunkMap("sales", 256));  // 12 chunks
  ZV_ASSERT_OK_AND_ASSIGN(
      sql::SelectStatement leader_stmt,
      sql::ParseSelect("SELECT year FROM sales WHERE location = 'US'"));
  ZV_ASSERT_OK_AND_ASSIGN(
      sql::SelectStatement follower_stmt,
      sql::ParseSelect("SELECT year FROM sales WHERE location = 'UK'"));
  SetParallelThreads(1);  // the leader scans all 12 chunks itself: ~120 ms
  BatchScanQueue queue;
  CancelToken token;
  BatchScanQueue::Selection leader_sel;
  BatchScanQueue::Selection follower_sel;
  uint64_t passes_at_leader_return = 0;
  std::thread leader([&] {
    CancelScope scope(token);
    leader_sel = queue.SelectRows(&db, "sales", {&leader_stmt});
    passes_at_leader_return = queue.passes();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread follower([&] {
    follower_sel = queue.SelectRows(&db, "sales", {&follower_stmt});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  token.Cancel();
  leader.join();
  follower.join();
  SetParallelThreads(0);
  EXPECT_EQ(leader_sel.status.code(), StatusCode::kCancelled)
      << leader_sel.status.ToString();
  EXPECT_EQ(passes_at_leader_return, 1u);
  ZV_ASSERT_OK(follower_sel.status);
  EXPECT_EQ(Concat(follower_sel.rows[0]),
            testing::ReferenceRows(*table, follower_stmt));
  EXPECT_FALSE(follower_sel.shared);
  EXPECT_EQ(queue.passes(), 2u);
}

/// Service level: cancelling one query mid-batch never disturbs a
/// sibling session's query — the sibling's bytes still match the oracle.
TEST(BatchTest, ServiceCancelMidBatchSiblingsUnaffected) {
  auto table = MediumSales();
  auto db = std::make_shared<ScanDatabase>();
  ZV_ASSERT_OK(db->RegisterTable(table));
  ZV_ASSERT_OK(db->RebuildChunkMap("sales", 256));
  const ZqlResult oracle = Oracle(table, kQueries[0]);
  server::ServiceOptions sopts;
  sopts.result_cache = false;
  sopts.batch_window_ms = 100;
  sopts.max_inflight = 4;
  server::QueryService service(sopts);
  ZV_ASSERT_OK(service.RegisterDataset(table, db));
  ZV_ASSERT_OK_AND_ASSIGN(server::SessionId s1, service.CreateSession());
  ZV_ASSERT_OK_AND_ASSIGN(server::SessionId s2, service.CreateSession());
  ZV_ASSERT_OK_AND_ASSIGN(server::QueryHandle doomed,
                          service.Submit(s1, "sales", kQueries[1]));
  ZV_ASSERT_OK_AND_ASSIGN(server::QueryHandle survivor,
                          service.Submit(s2, "sales", kQueries[0]));
  doomed.Cancel();
  const Status doomed_status = doomed.Wait();
  // The cancel races query completion: kCancelled normally, OK if the
  // query beat it to the finish line. Either way the sibling is whole.
  EXPECT_TRUE(doomed_status.ok() ||
              doomed_status.code() == StatusCode::kCancelled)
      << doomed_status.ToString();
  ZV_ASSERT_OK(survivor.Wait());
  auto res = survivor.result();
  ASSERT_NE(res, nullptr);
  EXPECT_TRUE(SameResult(oracle, *res));
}

/// ReplaceDataset mid-window: the pre-bump query finishes on the snapshot
/// it holds, the post-bump query sees the new data, and the two never
/// share a pass (a fresh backend is a fresh group key).
TEST(BatchTest, EpochBumpMidWindowIsolatesSnapshots) {
  SalesDataOptions old_opts;
  old_opts.num_rows = 2000;
  old_opts.num_products = 8;
  auto old_table = MakeSalesTable(old_opts);
  SalesDataOptions new_opts = old_opts;
  new_opts.num_rows = 2600;
  new_opts.seed = 23;
  auto new_table = MakeSalesTable(new_opts);

  const ZqlResult oracle_old = Oracle(old_table, kQueries[0]);
  const ZqlResult oracle_new = Oracle(new_table, kQueries[0]);

  server::ServiceOptions sopts;
  sopts.result_cache = false;
  sopts.batch_window_ms = 100;
  sopts.max_inflight = 4;
  server::QueryService service(sopts);
  ZV_ASSERT_OK(service.RegisterDataset(old_table));
  ZV_ASSERT_OK_AND_ASSIGN(server::SessionId s1, service.CreateSession());
  ZV_ASSERT_OK_AND_ASSIGN(server::SessionId s2, service.CreateSession());

  ZV_ASSERT_OK_AND_ASSIGN(server::QueryHandle pre,
                          service.Submit(s1, "sales", kQueries[0]));
  ZV_ASSERT_OK(service.ReplaceDataset(new_table));
  ZV_ASSERT_OK_AND_ASSIGN(server::QueryHandle post,
                          service.Submit(s2, "sales", kQueries[0]));

  ZV_ASSERT_OK(pre.Wait());
  ZV_ASSERT_OK(post.Wait());
  auto pre_res = pre.result();
  auto post_res = post.result();
  ASSERT_NE(pre_res, nullptr);
  ASSERT_NE(post_res, nullptr);
  EXPECT_TRUE(SameResult(oracle_old, *pre_res)) << "pre-bump snapshot lost";
  EXPECT_TRUE(SameResult(oracle_new, *post_res)) << "post-bump data missed";
  // Different backends never group: every pass carried one query's work.
  EXPECT_EQ(service.stats().batch_passes_shared, 0u);
}

/// Binning pushdown vs the client-side binner, bit for bit. Integer data:
/// every y is an exactly-representable double, so sums are exact in any
/// association order and the on/off comparison is byte-tight (on float
/// data the two paths may differ in final ulps — that is why the identity
/// matrix above holds the knob constant instead).
TEST(BatchTest, BinningPushdownMatchesClientBinner) {
  Schema schema({{"xval", ColumnType::kInt},
                 {"yval", ColumnType::kInt},
                 {"grp", ColumnType::kCategorical}});
  TableBuilder b("sales", schema);
  std::mt19937 rng(99);
  const char* const groups[] = {"a", "b", "c"};
  for (int i = 0; i < 700; ++i) {
    ZV_ASSERT_OK(b.AddRow({Value::Int(static_cast<int64_t>(rng() % 200)),
                           Value::Int(static_cast<int64_t>(rng() % 100) - 50),
                           Value::Str(groups[rng() % 3])}));
  }
  auto table = b.Finish();
  const char* const binned_queries[] = {
      "*f1 | 'xval' | 'yval' | v1 <- 'grp'.* | | bar.(x=bin(20)) |",
      "*f1 | 'xval' | 'yval' | v1 <- 'grp'.* | | "
      "bar.(x=bin(20), y=agg('sum')) |",
      "*f1 | 'xval' | 'yval' | 'grp'.'a' | | bar.(x=bin(30), y=agg('avg')) |",
      "*f1 | 'xval' | 'yval' | 'grp'.'b' | | "
      "bar.(x=bin(15), y=agg('count')) |",
      "*f1 | 'xval' | 'yval' | v1 <- 'grp'.* | yval > 0 | "
      "bar.(x=bin(25), y=agg('min')) |",
      "*f1 | 'xval' | 'yval' | v1 <- 'grp'.* | | "
      "bar.(x=bin(40), y=agg('max')) |",
  };
  for (auto* make_db : {+[]() -> std::unique_ptr<Database> {
                          return std::make_unique<ScanDatabase>();
                        },
                        +[]() -> std::unique_ptr<Database> {
                          return std::make_unique<RoaringDatabase>();
                        }}) {
    auto db = make_db();
    ZV_ASSERT_OK(db->RegisterTable(table));
    for (const char* zql : binned_queries) {
      std::vector<std::string> pushed_sql;
      ZqlOptions on;
      on.binning_pushdown = true;
      on.sql_trace = &pushed_sql;
      ZqlOptions off;
      off.binning_pushdown = false;
      ZqlExecutor exec_on(db.get(), "sales", on);
      ZqlExecutor exec_off(db.get(), "sales", off);
      ZV_ASSERT_OK_AND_ASSIGN(ZqlResult pushed, exec_on.ExecuteText(zql));
      ZV_ASSERT_OK_AND_ASSIGN(ZqlResult client, exec_off.ExecuteText(zql));
      EXPECT_TRUE(SameResult(client, pushed)) << db->name() << ": " << zql;
      bool saw_bin = false;
      for (const std::string& sql : pushed_sql) {
        saw_bin |= sql.find("BIN(xval") != std::string::npos;
      }
      EXPECT_TRUE(saw_bin) << "pushdown did not engage: " << zql;
    }
  }
}

/// Box charts and categorical x axes must keep the client-side transform
/// (the five-number summary needs raw points; category labels cannot bin).
TEST(BatchTest, BinningPushdownSkipsIneligibleShapes) {
  auto table = testing::MakeTinySales();
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(table));
  const char* const raw_queries[] = {
      // Categorical x: 'year' is a dictionary column in the tiny table.
      "*f1 | 'year' | 'sales' | 'location'.'US' | | bar.(x=bin(2)) |",
      // Box chart over a numeric x.
      "*f1 | 'sales' | 'profit' | 'location'.'US' | | box.(x=bin(10)) |",
  };
  for (const char* zql : raw_queries) {
    std::vector<std::string> trace;
    ZqlOptions opts;
    opts.sql_trace = &trace;
    ZqlExecutor exec(&db, "sales", opts);
    ZV_ASSERT_OK_AND_ASSIGN(ZqlResult on, exec.ExecuteText(zql));
    for (const std::string& sql : trace) {
      EXPECT_EQ(sql.find("BIN("), std::string::npos) << zql << ": " << sql;
    }
    ZqlOptions off_opts;
    off_opts.binning_pushdown = false;
    ZqlExecutor exec_off(&db, "sales", off_opts);
    ZV_ASSERT_OK_AND_ASSIGN(ZqlResult off, exec_off.ExecuteText(zql));
    EXPECT_TRUE(SameResult(off, on)) << zql;
  }
}

/// Randomized multi-session soak: concurrent submits, random cancels, and
/// dataset swaps against precomputed per-snapshot oracles. Iteration count
/// scales with ZV_SOAK_ITERS (default 2 for plain ctest; the `stress`
/// configuration and the sanitizer scripts run it much longer).
TEST(BatchTest, RandomizedMultiSessionSoak) {
  const char* iters_env = std::getenv("ZV_SOAK_ITERS");
  const int iters = iters_env != nullptr ? std::atoi(iters_env) : 2;
  SalesDataOptions a_opts;
  a_opts.num_rows = 1500;
  a_opts.num_products = 8;
  auto table_a = MakeSalesTable(a_opts);
  SalesDataOptions b_opts = a_opts;
  b_opts.num_rows = 2100;
  b_opts.seed = 31;
  auto table_b = MakeSalesTable(b_opts);

  // Oracle per (snapshot, query).
  std::vector<std::vector<ZqlResult>> oracle(2);
  for (size_t v = 0; v < 2; ++v) {
    for (const char* zql : kQueries) {
      oracle[v].push_back(Oracle(v == 0 ? table_a : table_b, zql));
    }
  }

  std::mt19937 rng(20160901);
  for (int iter = 0; iter < iters; ++iter) {
    server::ServiceOptions sopts;
    sopts.result_cache = false;
    sopts.batch_window_ms = static_cast<double>(rng() % 3);  // 0..2 ms
    sopts.max_inflight = 4;
    server::QueryService service(sopts);
    ZV_ASSERT_OK(service.RegisterDataset(table_a));
    std::vector<server::SessionId> sids;
    for (int s = 0; s < 4; ++s) {
      ZV_ASSERT_OK_AND_ASSIGN(server::SessionId sid, service.CreateSession());
      sids.push_back(sid);
    }
    struct Pending {
      server::QueryHandle handle;
      size_t query;
      size_t version;
      bool cancelled;
    };
    std::vector<Pending> pending;
    size_t version = 0;
    const int submits = 16;
    for (int i = 0; i < submits; ++i) {
      if (rng() % 8 == 0) {  // occasional epoch bump mid-stream
        version ^= 1;
        ZV_ASSERT_OK(
            service.ReplaceDataset(version == 0 ? table_a : table_b));
      }
      const size_t q = rng() % kNumQueries;
      ZV_ASSERT_OK_AND_ASSIGN(
          server::QueryHandle h,
          service.Submit(sids[rng() % sids.size()], "sales", kQueries[q]));
      const bool cancel = rng() % 4 == 0;
      if (cancel) h.Cancel();
      pending.push_back({h, q, version, cancel});
    }
    for (Pending& p : pending) {
      const Status status = p.handle.Wait();
      if (p.cancelled) {
        EXPECT_TRUE(status.ok() || status.code() == StatusCode::kCancelled)
            << status.ToString();
        if (!status.ok()) continue;
      } else {
        ZV_ASSERT_OK(status);
      }
      auto res = p.handle.result();
      ASSERT_NE(res, nullptr);
      EXPECT_TRUE(SameResult(oracle[p.version][p.query], *res))
          << "iter " << iter << " query " << p.query << " version "
          << p.version;
    }
  }
}

}  // namespace
}  // namespace zv::zql
