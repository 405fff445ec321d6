/// \file parallel_test.cc
/// \brief The parallel scoring subsystem: ParallelFor edge cases and error
/// propagation, thread-count-invariant ZQL results, partitioned-scan
/// aggregation merges, both aggregation layouts against an independent
/// reference, and ScoringContext's exactness contract against the legacy
/// pairwise Distance().

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "engine/roaring_db.h"
#include "engine/scan_db.h"
#include "engine/select_runner.h"
#include "sql/parser.h"
#include "tasks/distance.h"
#include "tasks/series_cache.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "zql/executor.h"

namespace zv {
namespace {

/// Restores the default thread resolution when a test exits.
class ThreadGuard {
 public:
  ~ThreadGuard() {
    SetParallelThreads(0);
    unsetenv("ZV_THREADS");
  }
};

// --- ParallelFor ------------------------------------------------------------

TEST(ParallelForTest, FillsEverySlotOnce) {
  ThreadGuard guard;
  SetParallelThreads(8);
  constexpr size_t kN = 1000;
  std::vector<int> hits(kN, 0);
  ParallelFor(kN, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelForTest, ZeroIterationsIsANoop) {
  ThreadGuard guard;
  SetParallelThreads(8);
  bool called = false;
  ParallelFor(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
  ZV_ASSERT_OK(ParallelForStatus(0, [&](size_t) {
    called = true;
    return Status::OK();
  }));
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, FewerItemsThanWorkers) {
  ThreadGuard guard;
  SetParallelThreads(16);
  std::vector<int> hits(3, 0);
  ParallelFor(3, [&](size_t i) { ++hits[i]; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelForTest, SingleThreadBypassesPool) {
  ThreadGuard guard;
  SetParallelThreads(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> same_thread{true};
  ParallelFor(64, [&](size_t) {
    if (std::this_thread::get_id() != caller) same_thread = false;
  });
  EXPECT_TRUE(same_thread.load());
}

TEST(ParallelForTest, EnvVariableControlsWorkerCount) {
  ThreadGuard guard;
  setenv("ZV_THREADS", "5", 1);
  EXPECT_EQ(ParallelWorkerCount(), 5u);
  setenv("ZV_THREADS", "1", 1);
  EXPECT_EQ(ParallelWorkerCount(), 1u);
  // The override wins over the environment.
  SetParallelThreads(3);
  EXPECT_EQ(ParallelWorkerCount(), 3u);
}

/// Huge requests are capped where the count resolves, so no ParallelFor can
/// grow the pool past kMaxParallelThreads OS threads (checked through the
/// resolver only: nothing here starts a thread).
TEST(ParallelForTest, WorkerCountIsCapped) {
  ThreadGuard guard;
  setenv("ZV_THREADS", "100000", 1);
  EXPECT_EQ(ParallelWorkerCount(), kMaxParallelThreads);
  setenv("ZV_THREADS", "99999999999999999999999", 1);
  EXPECT_EQ(ParallelWorkerCount(), kMaxParallelThreads);
  setenv("ZV_THREADS", "256", 1);
  EXPECT_EQ(ParallelWorkerCount(), 256u);
  SetParallelThreads(100000);
  EXPECT_EQ(ParallelWorkerCount(), kMaxParallelThreads);
  SetParallelThreads(8);
  EXPECT_EQ(ParallelWorkerCount(), 8u);
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ThreadGuard guard;
  SetParallelThreads(8);
  EXPECT_THROW(ParallelFor(256,
                           [&](size_t i) {
                             if (i == 100) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ParallelForStatusTest, ReportsTheLowestIndexError) {
  ThreadGuard guard;
  SetParallelThreads(8);
  // Errors at several indices: the serial loop would surface index 17
  // first, and so must the parallel run, at any thread count.
  const Status s = ParallelForStatus(512, [&](size_t i) {
    if (i == 17 || i == 200 || i == 400) {
      return Status::Internal("error at " + std::to_string(i));
    }
    return Status::OK();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "error at 17");
}

TEST(ParallelForStatusTest, AllOkRunsEveryIndex) {
  ThreadGuard guard;
  SetParallelThreads(4);
  std::vector<int> hits(300, 0);
  ZV_ASSERT_OK(ParallelForStatus(300, [&](size_t i) {
    ++hits[i];
    return Status::OK();
  }));
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 300);
}

// --- Concurrent callers ----------------------------------------------------

/// Deterministic per-index work (a few multiply rounds, so chunks take long
/// enough to overlap across threads); a serial loop over it is the oracle.
uint64_t Mix(size_t caller, size_t i) {
  uint64_t h = caller * 0x9E3779B97F4A7C15ull + i;
  for (int k = 0; k < 16; ++k) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
  }
  return h;
}

/// The job a caller lists at size n: fn(i) counts its runs in hits[i] and
/// writes out[i]; every 97th index also makes a nested call (inline on a
/// pool worker, a second listed job on the calling thread). Returns true
/// when every index ran exactly once and out equals a serial run.
bool RunMatchesSerial(size_t caller, size_t n, bool status_variant) {
  std::vector<std::atomic<int>> hits(n);
  std::vector<uint64_t> out(n, 0);
  const auto body = [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    uint64_t nested = 0;
    if (i % 97 == 0) {
      std::vector<uint64_t> inner(5, 0);
      ParallelFor(inner.size(),
                  [&](size_t k) { inner[k] = Mix(caller, i + k); });
      for (uint64_t v : inner) nested += v;
    }
    out[i] = Mix(caller, i) + nested;
  };
  if (status_variant) {
    const Status s = ParallelForStatus(n, [&](size_t i) {
      body(i);
      return Status::OK();
    });
    if (!s.ok()) return false;
  } else {
    ParallelFor(n, body);
  }
  for (size_t i = 0; i < n; ++i) {
    uint64_t nested = 0;
    if (i % 97 == 0) {
      for (size_t k = 0; k < 5; ++k) nested += Mix(caller, i + k);
    }
    if (hits[i].load() != 1 || out[i] != Mix(caller, i) + nested) return false;
  }
  return true;
}

/// Errors seeded at first, first + stride, ... (none when first >= n), from
/// both variants — a Status from ParallelForStatus, an exception from
/// ParallelFor. Returns true when the lowest seeded index wins, as in a
/// serial loop, every index below it ran exactly once, and none ran twice.
bool LowestErrorWins(size_t n, size_t first, size_t stride,
                     bool status_variant) {
  std::vector<std::atomic<int>> hits(n);
  const auto fails = [&](size_t i) {
    return i >= first && (i - first) % stride == 0;
  };
  std::string got;
  if (status_variant) {
    const Status s = ParallelForStatus(n, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      return fails(i) ? Status::Internal(std::to_string(i)) : Status::OK();
    });
    if (!s.ok()) got = s.message();
  } else {
    try {
      ParallelFor(n, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        if (fails(i)) throw std::runtime_error(std::to_string(i));
      });
    } catch (const std::runtime_error& e) {
      got = e.what();
    }
  }
  const std::string want = first < n ? std::to_string(first) : "";
  if (got != want) return false;
  for (size_t i = 0; i < n; ++i) {
    const int h = hits[i].load();
    if (h > 1 || (i < first && h != 1)) return false;
  }
  return true;
}

/// Eight threads call into the pool at once, so several jobs are listed
/// together and helpers serve them oldest first while each caller drains
/// its own. Each caller loops over both variants at sizes {0, 1, 2, 7, 64,
/// 1000, 50000}, with nested calls inside jobs and seeded error indices;
/// one caller also cancels its own job midway. Every index must run
/// exactly once (at most once when cancelled), outputs must equal a serial
/// run, and the lowest error index must win.
TEST(ParallelForTest, ConcurrentCallersMatchSerial) {
  ThreadGuard guard;
  SetParallelThreads(4);
  constexpr size_t kCallers = 8;
  constexpr size_t kRounds = 3;
  const size_t kSizes[] = {0, 1, 2, 7, 64, 1000, 50000};
  std::atomic<int> mismatches{0};
  std::atomic<int> cancel_failures{0};
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t n : kSizes) {
          const size_t first = (c * 131 + round * 17 + n / 3) % (n + 1);
          for (bool status_variant : {false, true}) {
            if (!RunMatchesSerial(c, n, status_variant) ||
                !LowestErrorWins(n, first, 3 + c, status_variant)) {
              mismatches.fetch_add(1);
            }
          }
        }
        if (c != kCallers - 1) continue;
        // The cancelled caller: its token fires from inside its own job's
        // first index, and every other index waits for it, so no thread
        // claims a second chunk before it fires. The Status variant reports
        // kCancelled, both skip the chunks claimed after it, and no index
        // runs twice.
        for (bool status_variant : {false, true}) {
          constexpr size_t kN = 50000;
          CancelToken token;
          CancelScope scope(token);
          std::vector<std::atomic<int>> hits(kN);
          const auto body = [&](size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
            if (i == 0) token.Cancel();
            while (!token.cancelled()) std::this_thread::yield();
          };
          bool ok = true;
          if (status_variant) {
            const Status s = ParallelForStatus(kN, [&](size_t i) {
              body(i);
              return Status::OK();
            });
            ok = s.code() == StatusCode::kCancelled;
          } else {
            ParallelFor(kN, body);
            ok = CancellationRequested();
          }
          size_t ran = 0;
          for (size_t i = 0; i < kN; ++i) {
            if (hits[i].load() > 1) ok = false;
            ran += hits[i].load();
          }
          if (!ok || ran == kN) cancel_failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cancel_failures.load(), 0);
}

// --- ScoringContext exactness ----------------------------------------------

Visualization MakeViz(std::vector<int64_t> xs, std::vector<double> ys) {
  Visualization v;
  v.x_attr = "t";
  v.y_attr = "y";
  for (int64_t x : xs) v.xs.push_back(Value::Int(x));
  v.series = {{"y", std::move(ys)}};
  return v;
}

TEST(ScoringContextTest, MatchesPairwiseDistanceOnSharedDomain) {
  // All candidates cover the same x values -> fast path.
  std::vector<Visualization> vs = {
      MakeViz({1, 2, 3, 4}, {1, 2, 3, 4}),
      MakeViz({1, 2, 3, 4}, {4, 3, 2, 1}),
      MakeViz({1, 2, 3, 4}, {0, 5, 0, 5}),
  };
  std::vector<const Visualization*> set;
  for (const auto& v : vs) set.push_back(&v);
  for (DistanceMetric metric :
       {DistanceMetric::kEuclidean, DistanceMetric::kDtw,
        DistanceMetric::kKlDivergence, DistanceMetric::kEmd}) {
    for (Normalization norm : {Normalization::kNone, Normalization::kZScore,
                               Normalization::kMinMax}) {
      ScoringContext ctx(set, norm, Alignment::kZeroFill);
      for (size_t i = 0; i < set.size(); ++i) {
        EXPECT_TRUE(ctx.full(i));
        for (size_t j = 0; j < set.size(); ++j) {
          EXPECT_DOUBLE_EQ(
              ctx.PairDistance(i, j, metric),
              Distance(*set[i], *set[j], metric, norm, Alignment::kZeroFill));
        }
      }
    }
  }
}

TEST(ScoringContextTest, MatchesPairwiseDistanceOnDisjointDomains) {
  // Mismatched x sets -> the pairwise union differs per pair, so the
  // context must fall back to the exact pairwise restriction.
  std::vector<Visualization> vs = {
      MakeViz({1, 2, 3}, {1, 2, 3}),
      MakeViz({2, 3, 4, 5}, {5, 1, 4, 2}),
      MakeViz({10, 11}, {7, 8}),
      MakeViz({1, 5, 11}, {3, 1, 2}),
  };
  std::vector<const Visualization*> set;
  for (const auto& v : vs) set.push_back(&v);
  for (DistanceMetric metric :
       {DistanceMetric::kEuclidean, DistanceMetric::kDtw,
        DistanceMetric::kKlDivergence, DistanceMetric::kEmd}) {
    for (Alignment align : {Alignment::kZeroFill, Alignment::kInterpolate}) {
      ScoringContext ctx(set, Normalization::kZScore, align);
      for (size_t i = 0; i < set.size(); ++i) {
        for (size_t j = 0; j < set.size(); ++j) {
          EXPECT_DOUBLE_EQ(
              ctx.PairDistance(i, j, metric),
              Distance(*set[i], *set[j], metric, Normalization::kZScore,
                       align))
              << "metric=" << DistanceMetricToString(metric) << " i=" << i
              << " j=" << j;
        }
      }
    }
  }
}

TEST(ScoringContextTest, MatchesPairwiseDistanceWithMultipleSeries) {
  Visualization two_series = MakeViz({1, 2, 3}, {1, 2, 3});
  two_series.series.push_back({"z", {9, 8, 7}});
  std::vector<Visualization> vs = {
      std::move(two_series),
      MakeViz({1, 2, 3}, {2, 2, 2}),
      MakeViz({2, 3, 4}, {1, 0, 1}),
  };
  std::vector<const Visualization*> set;
  for (const auto& v : vs) set.push_back(&v);
  ScoringContext ctx(set, Normalization::kZScore, Alignment::kZeroFill);
  for (size_t i = 0; i < set.size(); ++i) {
    for (size_t j = 0; j < set.size(); ++j) {
      EXPECT_DOUBLE_EQ(ctx.PairDistance(i, j, DistanceMetric::kEuclidean),
                       Distance(*set[i], *set[j], DistanceMetric::kEuclidean,
                                Normalization::kZScore, Alignment::kZeroFill))
          << "i=" << i << " j=" << j;
    }
  }
}

// --- thread-count-invariant ZQL results -------------------------------------

/// Structural equality of executor outputs, down to every double.
void ExpectSameResults(const zql::ZqlResult& a, const zql::ZqlResult& b) {
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (size_t o = 0; o < a.outputs.size(); ++o) {
    SCOPED_TRACE("output " + a.outputs[o].name);
    EXPECT_EQ(a.outputs[o].name, b.outputs[o].name);
    ASSERT_EQ(a.outputs[o].visuals.size(), b.outputs[o].visuals.size());
    for (size_t v = 0; v < a.outputs[o].visuals.size(); ++v) {
      const Visualization& va = a.outputs[o].visuals[v];
      const Visualization& vb = b.outputs[o].visuals[v];
      EXPECT_EQ(va.Label(), vb.Label());
      EXPECT_EQ(va.xs, vb.xs);
      ASSERT_EQ(va.series.size(), vb.series.size());
      for (size_t s = 0; s < va.series.size(); ++s) {
        EXPECT_EQ(va.series[s].ys, vb.series[s].ys);  // exact doubles
      }
    }
  }
}

class ParallelZqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ZV_ASSERT_OK(db_.RegisterTable(testing::MakeTinySales()));
  }

  zql::ZqlResult Run(const std::string& text) {
    zql::ZqlExecutor exec(&db_, "sales");
    auto result = exec.ExecuteText(text);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).value() : zql::ZqlResult{};
  }

  ScanDatabase db_;
};

TEST_F(ParallelZqlTest, ScoringIsThreadCountInvariant) {
  ThreadGuard guard;
  // Distance scoring over every product x location pair, then a trend
  // filter — exercises the ScoringContext fast path and the parallel
  // RunProcess loop.
  const std::string query =
      "f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | "
      "bar.(y=agg('sum')) |\n"
      "f2 | 'year' | 'sales' | v1 | location='UK' | bar.(y=agg('sum')) | "
      "v2 <- argmax_v1[k=2] D(f1, f2)\n"
      "*f3 | 'year' | 'profit' | v2 | | bar.(y=agg('sum')) |";
  SetParallelThreads(1);
  const zql::ZqlResult serial = Run(query);
  SetParallelThreads(8);
  const zql::ZqlResult parallel = Run(query);
  ExpectSameResults(serial, parallel);

  // Same invariance through the environment variable path.
  setenv("ZV_THREADS", "8", 1);
  SetParallelThreads(0);
  const zql::ZqlResult via_env = Run(query);
  ExpectSameResults(serial, via_env);
}

TEST_F(ParallelZqlTest, TrendScoringIsThreadCountInvariant) {
  ThreadGuard guard;
  const std::string query =
      "f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | "
      "bar.(y=agg('sum')) | v2 <- argany_v1[t > 0] T(f1)\n"
      "*f2 | 'year' | 'profit' | v2 | | bar.(y=agg('sum')) |";
  SetParallelThreads(1);
  const zql::ZqlResult serial = Run(query);
  SetParallelThreads(8);
  const zql::ZqlResult parallel = Run(query);
  ExpectSameResults(serial, parallel);
}

TEST_F(ParallelZqlTest, ProcessErrorsAreStillReported) {
  ThreadGuard guard;
  // D(f1, f2) where f2 iterates a variable the process never binds — the
  // error fires *inside* the scoring loop and must surface identically at
  // any thread count.
  const std::string query =
      "f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | "
      "bar.(y=agg('sum')) |\n"
      "f2 | 'year' | 'sales' | v3 <- 'location'.* | | bar.(y=agg('sum')) | "
      "v2 <- argmax_v1[k=1] D(f1, f2)\n"
      "*f3 | 'year' | 'profit' | v2 | | bar.(y=agg('sum')) |";
  SetParallelThreads(1);
  zql::ZqlExecutor serial_exec(&db_, "sales");
  auto serial = serial_exec.ExecuteText(query);
  ASSERT_FALSE(serial.ok());
  SetParallelThreads(8);
  zql::ZqlExecutor parallel_exec(&db_, "sales");
  auto parallel = parallel_exec.ExecuteText(query);
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(serial.status().message(), parallel.status().message());
}

// --- partitioned scan ------------------------------------------------------

void ExpectSameResultSet(const ResultSet& a, const ResultSet& b) {
  EXPECT_EQ(a.columns, b.columns);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i], b.rows[i]) << "row " << i;
  }
}

TEST(ParallelScanTest, ShardedAggregationMatchesSerial) {
  ThreadGuard guard;
  SalesDataOptions opts;
  // Above the blocked-scan threshold: the scan runs as per-block runners
  // merged in block order. The block structure depends only on the table
  // size, so every thread count — including 1 — produces identical bytes.
  opts.num_rows = 50000;
  opts.num_products = 20;
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(MakeSalesTable(opts)));

  const std::vector<std::string> queries = {
      // dense group-by over two categorical columns
      "SELECT product, year, SUM(sales), COUNT(*), MIN(profit), MAX(profit) "
      "FROM sales GROUP BY product, year ORDER BY product, year",
      // filtered aggregate
      "SELECT year, AVG(sales) FROM sales WHERE location = 'US' "
      "GROUP BY year ORDER BY year",
      // global aggregate, no group-by
      "SELECT SUM(profit), COUNT(*) FROM sales",
      // plain projection with a predicate
      "SELECT year, product, sales FROM sales WHERE sales > 900 "
      "ORDER BY year",
  };
  for (const std::string& q : queries) {
    SCOPED_TRACE(q);
    SetParallelThreads(1);
    auto serial = db.ExecuteSql(q);
    ZV_ASSERT_OK(serial.status());
    SetParallelThreads(8);
    auto parallel = db.ExecuteSql(q);
    ZV_ASSERT_OK(parallel.status());
    ExpectSameResultSet(*serial, *parallel);
  }
}

// --- aggregation layouts: associations pinned by an independent reference ---

using testing::RefAgg;
using testing::RefGroups;
using testing::ReferenceAggregate;

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// One output column after the group keys: `agg` over the reference's
/// input column `input` (COUNT(*) reads any input's count).
struct RefOut {
  sql::AggFunc agg;
  size_t input;
};

/// Expects `rs` — `num_keys` group-key columns, then one column per `outs`
/// entry — to hold exactly `ref`'s groups, every aggregate equal bit for
/// bit.
void ExpectMatchesReference(const ResultSet& rs, size_t num_keys,
                            const RefGroups& ref,
                            const std::vector<RefOut>& outs) {
  ASSERT_EQ(rs.num_rows(), ref.size());
  std::set<std::vector<Value>> seen;
  for (const auto& row : rs.rows) {
    const std::vector<Value> key(row.begin(), row.begin() + num_keys);
    ASSERT_TRUE(seen.insert(key).second);
    const auto it = ref.find(key);
    ASSERT_NE(it, ref.end());
    for (size_t o = 0; o < outs.size(); ++o) {
      const RefAgg& a = it->second[outs[o].input];
      const Value& got = row[num_keys + o];
      switch (outs[o].agg) {
        case sql::AggFunc::kSum:
          EXPECT_EQ(Bits(got.AsDouble()), Bits(a.sum)) << o;
          break;
        case sql::AggFunc::kAvg:
          EXPECT_EQ(Bits(got.AsDouble()),
                    Bits(a.sum / static_cast<double>(a.count)))
              << o;
          break;
        case sql::AggFunc::kCount:
          EXPECT_EQ(got.AsInt(), a.count) << o;
          break;
        case sql::AggFunc::kMin:
          EXPECT_EQ(Bits(got.AsDouble()), Bits(a.min)) << o;
          break;
        case sql::AggFunc::kMax:
          EXPECT_EQ(Bits(got.AsDouble()), Bits(a.max)) << o;
          break;
        case sql::AggFunc::kNone:
          FAIL() << "no aggregate for output " << o;
      }
    }
  }
}

/// `rows` cut into uneven ascending parts, with empty ones at both ends,
/// as a many-chunk pass hands a statement's rows over: most blocks then
/// straddle a part boundary.
std::vector<std::vector<uint32_t>> UnevenParts(
    const std::vector<uint32_t>& rows) {
  std::vector<std::vector<uint32_t>> parts(1);
  for (size_t at = 0, len = 1; at < rows.size(); len = len * 3 + 7) {
    const size_t end = std::min(rows.size(), at + len);
    parts.emplace_back(rows.begin() + at, rows.begin() + end);
    at = end;
  }
  parts.emplace_back();
  return parts;
}

/// Runs `sql` on every database through every entry point — ExecuteSql,
/// and FinishChunkScan over `rows`, the rows its WHERE selects, handed
/// over whole and in UnevenParts — at ZV_THREADS 1 and 8, passing every
/// result to `expect`.
void ForEveryPath(const std::vector<Database*>& dbs, const std::string& sql,
                  const std::vector<uint32_t>& rows,
                  const std::function<void(const ResultSet&)>& expect) {
  SCOPED_TRACE(sql);
  ZV_ASSERT_OK_AND_ASSIGN(sql::SelectStatement stmt, sql::ParseSelect(sql));
  const std::vector<std::vector<uint32_t>> whole = {rows};
  const std::vector<std::vector<uint32_t>> uneven = UnevenParts(rows);
  for (size_t threads : {1, 8}) {
    SetParallelThreads(threads);
    for (Database* db : dbs) {
      SCOPED_TRACE(db->name() + " threads=" + std::to_string(threads));
      ZV_ASSERT_OK_AND_ASSIGN(ResultSet executed, db->ExecuteSql(sql));
      expect(executed);
      for (const auto* parts : {&whole, &uneven}) {
        SCOPED_TRACE("FinishChunkScan over " + std::to_string(parts->size()) +
                     " parts");
        ZV_ASSERT_OK_AND_ASSIGN(ColumnarResult finished,
                                db->FinishChunkScan(stmt, *parts));
        expect(ToResultSet(finished));
      }
    }
  }
}

/// ForEveryPath, expecting every result to match `ref`.
void ExpectEveryPathMatches(const std::vector<Database*>& dbs,
                            const std::string& sql,
                            const std::vector<uint32_t>& rows,
                            size_t num_keys, const RefGroups& ref,
                            const std::vector<RefOut>& outs) {
  ForEveryPath(dbs, sql, rows, [&](const ResultSet& rs) {
    ExpectMatchesReference(rs, num_keys, ref, outs);
  });
}

/// SUM(sales), AVG(profit), COUNT(*), MIN(revenue), MAX(weight) over the
/// inputs {sales, profit, revenue, weight}.
const std::vector<std::string> kSalesInputs = {"sales", "profit", "revenue",
                                               "weight"};
const std::vector<RefOut> kSalesOuts = {{sql::AggFunc::kSum, 0},
                                        {sql::AggFunc::kAvg, 1},
                                        {sql::AggFunc::kCount, 0},
                                        {sql::AggFunc::kMin, 2},
                                        {sql::AggFunc::kMax, 3}};
const char kSalesAggs[] =
    "SUM(sales), AVG(profit), COUNT(*), MIN(revenue), MAX(weight)";

TEST(AggregationLayoutTest, WideFoldsInRowOrderNarrowPerBlock) {
  ThreadGuard guard;
  SalesDataOptions opts;
  opts.num_rows = 200000;  // 12 blocks of ~16.7K rows
  opts.num_products = 2000;
  auto table = MakeSalesTable(opts);
  ScanDatabase scan;
  RoaringDatabase roaring;
  ZV_ASSERT_OK(scan.RegisterTable(table));
  ZV_ASSERT_OK(roaring.RegisterTable(table));
  ASSERT_EQ(table->DictSize(static_cast<size_t>(
                table->schema().Find("product"))), 2000u);
  ASSERT_EQ(table->DictSize(static_cast<size_t>(
                table->schema().Find("category"))), 8u);
  ASSERT_EQ(table->DictSize(static_cast<size_t>(
                table->schema().Find("year"))), 10u);

  // The selection both entry points aggregate: weight > 20 AND country <>
  // 'UK' (on Roaring, a complement bitmap plus a residual predicate).
  const int weight = table->schema().Find("weight");
  const int country = table->schema().Find("country");
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < table->num_rows(); ++r) {
    if (table->NumericAt(r, static_cast<size_t>(weight)) > 20 &&
        table->ValueAt(r, static_cast<size_t>(country)) != Value::Str("UK")) {
      rows.push_back(r);
    }
  }
  const std::string where = " FROM sales WHERE weight > 20 AND country <> 'UK'";
  for (const std::vector<std::string>& group_by :
       std::vector<std::vector<std::string>>{
           // 2000 x 10 = 20K groups (20K * 4 >= 16.7K): row order.
           {"product", "year"},
           // 2000 x 10 x 12 = 240K groups (> 2^15): row order.
           {"product", "year", "month"},
           // 8 x 10 = 80 groups: per block, partials in block order.
           {"category", "year"}}) {
    std::string keys;
    for (const std::string& g : group_by) {
      keys += (keys.empty() ? "" : ", ") + g;
    }
    ExpectEveryPathMatches(
        {&scan, &roaring},
        "SELECT " + keys + ", " + kSalesAggs + where + " GROUP BY " + keys,
        rows, group_by.size(),
        ReferenceAggregate(*table, group_by, kSalesInputs, rows), kSalesOuts);
  }
}

TEST(AggregationLayoutTest, LayoutBoundaryIsGroupsTimesFourAtBlockRows) {
  ThreadGuard guard;
  // 176,000 rows make 10 blocks of 17,600 rows. 440 products x 10 years =
  // 4,400 groups sit exactly on the boundary (4,400 * 4 = 17,600) and fold
  // in row order; 439 products (4,390 groups) fold per block.
  for (size_t products : {440, 439}) {
    SCOPED_TRACE("products=" + std::to_string(products));
    SalesDataOptions opts;
    opts.num_rows = 176000;
    opts.num_products = products;
    auto table = MakeSalesTable(opts);
    ASSERT_EQ(table->DictSize(static_cast<size_t>(
                  table->schema().Find("product"))), products);
    ASSERT_EQ(table->DictSize(static_cast<size_t>(
                  table->schema().Find("year"))), 10u);
    ScanDatabase scan;
    RoaringDatabase roaring;
    ZV_ASSERT_OK(scan.RegisterTable(table));
    ZV_ASSERT_OK(roaring.RegisterTable(table));
    std::vector<uint32_t> rows(table->num_rows());
    std::iota(rows.begin(), rows.end(), 0u);
    ExpectEveryPathMatches(
        {&scan, &roaring},
        std::string("SELECT product, year, ") + kSalesAggs +
            " FROM sales GROUP BY product, year",
        rows, 2,
        ReferenceAggregate(*table, {"product", "year"}, kSalesInputs, rows),
        kSalesOuts);
  }
}

/// 50,000 rows (3 blocks of 16,666) over categorical keys a (16 values),
/// b (25) and c (12). `d` holds NaN, -0.0 and 0.0 among non-negative
/// decimals, so most groups' MIN(d) is a zero whose sign is the first one
/// its association meets; `i` is an int column, `k` a numeric categorical
/// (read through Table::NumericAt), and `r` the row id.
std::shared_ptr<Table> MakeEveryInputKindTable() {
  TableBuilder b("t", Schema({{"a", ColumnType::kCategorical},
                              {"b", ColumnType::kCategorical},
                              {"c", ColumnType::kCategorical},
                              {"d", ColumnType::kDouble},
                              {"i", ColumnType::kInt},
                              {"k", ColumnType::kCategorical},
                              {"r", ColumnType::kInt}}));
  Rng rng(19);
  for (uint32_t r = 0; r < 50000; ++r) {
    double d = 0.1 * static_cast<double>(rng.UniformInt(1, 1000));
    const uint64_t pick = rng.Uniform(40);
    if (pick == 0) d = std::numeric_limits<double>::quiet_NaN();
    if (pick >= 1 && pick <= 4) d = -0.0;
    if (pick >= 5 && pick <= 8) d = 0.0;
    EXPECT_TRUE(b.AddRow(
        {Value::Str("a" + std::to_string(rng.Uniform(16))),
         Value::Int(rng.UniformInt(0, 24)),
         Value::Str("c" + std::to_string(rng.Uniform(12))), Value::Double(d),
         Value::Int(rng.UniformInt(-50, 50)),
         Value::Double(0.1 * static_cast<double>(rng.UniformInt(1, 30))),
         Value::Int(r)}).ok());
  }
  auto table = b.Finish();
  EXPECT_EQ(table->DictSize(0), 16u);
  EXPECT_EQ(table->DictSize(1), 25u);
  EXPECT_EQ(table->DictSize(2), 12u);
  return table;
}

/// The rows of `table` whose `col` satisfies `keep`.
std::vector<uint32_t> RowsWhere(const Table& table, const char* col,
                                const std::function<bool(int64_t)>& keep) {
  const size_t c = static_cast<size_t>(table.schema().Find(col));
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < table.num_rows(); ++r) {
    if (keep(table.IntAt(r, c))) rows.push_back(r);
  }
  return rows;
}

TEST(AggregationLayoutTest, WideFoldReadsEveryInputKind) {
  ThreadGuard guard;
  // 16 x 25 x 12 = 4,800 groups (4,800 * 4 >= 16,666) take the wide
  // layout.
  auto table = MakeEveryInputKindTable();
  ScanDatabase scan;
  RoaringDatabase roaring;
  ZV_ASSERT_OK(scan.RegisterTable(table));
  ZV_ASSERT_OK(roaring.RegisterTable(table));

  std::vector<uint32_t> all(table->num_rows());
  std::iota(all.begin(), all.end(), 0u);
  const std::vector<uint32_t> filtered =
      RowsWhere(*table, "i", [](int64_t i) { return i > -20; });
  using sql::AggFunc;
  const std::vector<std::string> inputs = {"d", "i", "k"};
  // `d` aggregated five times, COUNT(*), and every input kind.
  ExpectEveryPathMatches(
      {&scan, &roaring},
      "SELECT a, b, c, SUM(d), MIN(d), MAX(d), AVG(d), COUNT(d), COUNT(*), "
      "SUM(i), MAX(i), AVG(k), MIN(k) FROM t GROUP BY a, b, c",
      all, 3, ReferenceAggregate(*table, {"a", "b", "c"}, inputs, all),
      {{AggFunc::kSum, 0}, {AggFunc::kMin, 0}, {AggFunc::kMax, 0},
       {AggFunc::kAvg, 0}, {AggFunc::kCount, 0}, {AggFunc::kCount, 0},
       {AggFunc::kSum, 1}, {AggFunc::kMax, 1}, {AggFunc::kAvg, 2},
       {AggFunc::kMin, 2}});
  // Another key order (another mixed radix) under a filter.
  ExpectEveryPathMatches(
      {&scan, &roaring},
      "SELECT c, a, b, SUM(k), MAX(d), AVG(i) FROM t WHERE i > -20 "
      "GROUP BY c, a, b",
      filtered, 3,
      ReferenceAggregate(*table, {"c", "a", "b"}, inputs, filtered),
      {{AggFunc::kSum, 2}, {AggFunc::kMax, 0}, {AggFunc::kAvg, 1}});
  // A GROUP BY with no aggregate: only the groups seen.
  ExpectEveryPathMatches(
      {&scan, &roaring}, "SELECT a, b, c FROM t WHERE i > -20 GROUP BY a, b, c",
      filtered, 3, ReferenceAggregate(*table, {"a", "b", "c"}, {}, filtered),
      {});
}

TEST(AggregationLayoutTest, NarrowFoldReadsEveryInputKind) {
  ThreadGuard guard;
  // 16 x 12 = 192 groups (192 * 4 < 16,666) fold per block, and the
  // block partials add up in block order.
  auto table = MakeEveryInputKindTable();
  ScanDatabase scan;
  RoaringDatabase roaring;
  ZV_ASSERT_OK(scan.RegisterTable(table));
  ZV_ASSERT_OK(roaring.RegisterTable(table));

  std::vector<uint32_t> all(table->num_rows());
  std::iota(all.begin(), all.end(), 0u);
  const std::vector<uint32_t> filtered =
      RowsWhere(*table, "i", [](int64_t i) { return i > -20; });
  using sql::AggFunc;
  const std::vector<std::string> inputs = {"d", "i", "k"};
  const std::vector<RefOut> every_kind = {
      {AggFunc::kSum, 0}, {AggFunc::kMin, 0}, {AggFunc::kMax, 0},
      {AggFunc::kAvg, 0}, {AggFunc::kCount, 0}, {AggFunc::kCount, 0},
      {AggFunc::kSum, 1}, {AggFunc::kMax, 1}, {AggFunc::kAvg, 2},
      {AggFunc::kMin, 2}};
  const std::string every_kind_sql =
      "SUM(d), MIN(d), MAX(d), AVG(d), COUNT(d), COUNT(*), SUM(i), MAX(i), "
      "AVG(k), MIN(k) FROM t";
  ExpectEveryPathMatches(
      {&scan, &roaring}, "SELECT a, c, " + every_kind_sql + " GROUP BY a, c",
      all, 2, ReferenceAggregate(*table, {"a", "c"}, inputs, all),
      every_kind);
  // Another key order under a filter.
  ExpectEveryPathMatches(
      {&scan, &roaring},
      "SELECT c, a, SUM(k), MAX(d), AVG(i), MIN(i) FROM t WHERE i > -20 "
      "GROUP BY c, a",
      filtered, 2, ReferenceAggregate(*table, {"c", "a"}, inputs, filtered),
      {{AggFunc::kSum, 2}, {AggFunc::kMax, 0}, {AggFunc::kAvg, 1},
       {AggFunc::kMin, 1}});
  // A GROUP BY with no aggregate: only the groups seen.
  ExpectEveryPathMatches(
      {&scan, &roaring}, "SELECT a, c FROM t WHERE i > -20 GROUP BY a, c",
      filtered, 2, ReferenceAggregate(*table, {"a", "c"}, {}, filtered), {});
  // A selection that leaves the middle block empty and cuts the others.
  const std::vector<uint32_t> gapped = RowsWhere(
      *table, "r", [](int64_t r) { return r < 10000 || r >= 40000; });
  ExpectEveryPathMatches(
      {&scan, &roaring},
      "SELECT a, c, " + every_kind_sql +
          " WHERE r < 10000 OR r >= 40000 GROUP BY a, c",
      gapped, 2, ReferenceAggregate(*table, {"a", "c"}, inputs, gapped),
      every_kind);
  // Global aggregates, with block 0 empty: one group.
  const std::vector<uint32_t> late =
      RowsWhere(*table, "r", [](int64_t r) { return r >= 20000; });
  ExpectEveryPathMatches({&scan, &roaring},
                         "SELECT " + every_kind_sql + " WHERE r >= 20000",
                         late, 0, ReferenceAggregate(*table, {}, inputs, late),
                         every_kind);
  // Over an empty selection, one row of empty aggregates.
  ForEveryPath({&scan, &roaring}, "SELECT " + every_kind_sql + " WHERE r < 0",
               {}, [](const ResultSet& rs) {
                 ASSERT_EQ(rs.num_rows(), 1u);
                 EXPECT_EQ(rs.rows[0],
                           (std::vector<Value>{
                               Value::Double(0), Value::Double(0),
                               Value::Double(0), Value::Double(0),
                               Value::Int(0), Value::Int(0), Value::Double(0),
                               Value::Double(0), Value::Double(0),
                               Value::Double(0)}));
               });
}

TEST(AggregationLayoutTest, WideFoldPollsCancellation) {
  SalesDataOptions opts;
  opts.num_rows = 70000;  // 4 blocks of 17,500 rows
  opts.num_products = 2000;
  auto table = MakeSalesTable(opts);
  std::vector<uint32_t> rows(table->num_rows());
  std::iota(rows.begin(), rows.end(), 0u);
  CancelToken token;
  token.Cancel();
  CancelScope scope(token);
  // 2000 x 10 = 20K groups fold wide; 10 years fold per block.
  for (const auto& [sql, wide] :
       std::vector<std::pair<std::string, bool>>{
           {"SELECT product, year, SUM(sales) FROM sales "
            "GROUP BY product, year",
            true},
           {"SELECT year, SUM(sales) FROM sales GROUP BY year", false}}) {
    SCOPED_TRACE(sql);
    ZV_ASSERT_OK_AND_ASSIGN(sql::SelectStatement stmt, sql::ParseSelect(sql));
    ZV_ASSERT_OK_AND_ASSIGN(SelectRunner runner,
                            SelectRunner::Plan(*table, stmt));
    ASSERT_TRUE(runner.DenseAggregation());
    ASSERT_EQ(runner.WideLayout(), wide);
    EXPECT_EQ(runner.ConsumeBlock(rows.data(), rows.size()).code(),
              StatusCode::kCancelled);
  }
}

TEST(ParallelScanTest, TinyTableMatchesSerial) {
  ThreadGuard guard;
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(testing::MakeTinySales()));
  const std::string q =
      "SELECT product, SUM(sales) FROM sales GROUP BY product ORDER BY "
      "product";
  SetParallelThreads(1);
  auto serial = db.ExecuteSql(q);
  ZV_ASSERT_OK(serial.status());
  SetParallelThreads(8);
  auto parallel = db.ExecuteSql(q);
  ZV_ASSERT_OK(parallel.status());
  ExpectSameResultSet(*serial, *parallel);
}

}  // namespace
}  // namespace zv
