/// \file parallel_test.cc
/// \brief The parallel scoring subsystem: ParallelFor edge cases and error
/// propagation, thread-count-invariant ZQL results, partitioned-scan
/// aggregation merges, wide aggregation against a block-order reference,
/// and ScoringContext's exactness contract against the legacy pairwise
/// Distance().

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "engine/roaring_db.h"
#include "engine/scan_db.h"
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

// --- wide aggregation: association pinned by an independent reference -------

/// Per-group aggregate state of the reference below.
struct RefAgg {
  double sum = 0;
  int64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

/// The association the engine promises, written without any SelectRunner
/// code: the table splits into min(32, max(1, rows / 16384)) equal blocks,
/// each group's rows fold per block in row order, and the block partials
/// add up in block order. Dense group spaces above 2^15 fold serially.
/// Keys are the group columns' rendered values; one RefAgg per input
/// column, in `inputs` order.
std::map<std::vector<std::string>, std::vector<RefAgg>> ReferenceAggregate(
    const Table& t, const std::vector<std::string>& group_by,
    const std::vector<std::string>& inputs,
    const std::vector<uint32_t>& rows) {
  std::vector<size_t> gcols, icols;
  uint64_t groups = 1;
  for (const std::string& g : group_by) {
    gcols.push_back(static_cast<size_t>(t.schema().Find(g)));
    groups *= t.DictSize(gcols.back());
  }
  for (const std::string& in : inputs) {
    icols.push_back(static_cast<size_t>(t.schema().Find(in)));
  }
  const size_t n = t.num_rows();
  const size_t blocks =
      groups > (1u << 15)
          ? 1
          : std::min<size_t>(32, std::max<size_t>(1, n / 16384));
  std::map<std::vector<std::string>, std::vector<RefAgg>> total;
  size_t next = 0;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t end = n * (b + 1) / blocks;
    std::map<std::vector<std::string>, std::vector<RefAgg>> partial;
    for (; next < rows.size() && rows[next] < end; ++next) {
      std::vector<std::string> key;
      for (size_t c : gcols) key.push_back(t.ValueAt(rows[next], c).ToString());
      auto& aggs = partial[key];
      aggs.resize(icols.size());
      for (size_t i = 0; i < icols.size(); ++i) {
        const double v = t.NumericAt(rows[next], icols[i]);
        aggs[i].sum += v;
        ++aggs[i].count;
        if (v < aggs[i].min) aggs[i].min = v;
        if (v > aggs[i].max) aggs[i].max = v;
      }
    }
    for (const auto& [key, aggs] : partial) {
      auto& into = total[key];
      into.resize(icols.size());
      for (size_t i = 0; i < icols.size(); ++i) {
        into[i].sum += aggs[i].sum;
        into[i].count += aggs[i].count;
        if (aggs[i].min < into[i].min) into[i].min = aggs[i].min;
        if (aggs[i].max > into[i].max) into[i].max = aggs[i].max;
      }
    }
  }
  return total;
}

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

TEST(WideAggregationTest, MatchesBlockOrderReferenceBitForBit) {
  ThreadGuard guard;
  SalesDataOptions opts;
  opts.num_rows = 200000;  // 12 blocks of ~16.7K rows
  opts.num_products = 2000;
  auto table = MakeSalesTable(opts);
  ScanDatabase scan;
  RoaringDatabase roaring;
  ZV_ASSERT_OK(scan.RegisterTable(table));
  ZV_ASSERT_OK(roaring.RegisterTable(table));

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
  const std::string where = " WHERE weight > 20 AND country <> 'UK'";
  const std::vector<std::string> inputs = {"sales", "profit", "revenue",
                                           "weight"};

  struct Case {
    std::vector<std::string> group_by;
    std::string sql;
  };
  const std::vector<Case> cases = {
      // 2000 x 10 = 20K groups: key-partitioned, per-block association.
      {{"product", "year"},
       "SELECT product, year, SUM(sales), AVG(profit), COUNT(*), "
       "MIN(revenue), MAX(weight) FROM sales" +
           where + " GROUP BY product, year"},
      // 2000 x 10 x 12 = 240K groups (> 2^15): serial association.
      {{"product", "year", "month"},
       "SELECT product, year, month, SUM(sales), AVG(profit), COUNT(*), "
       "MIN(revenue), MAX(weight) FROM sales" +
           where + " GROUP BY product, year, month"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    const auto ref = ReferenceAggregate(*table, c.group_by, inputs, rows);
    ZV_ASSERT_OK_AND_ASSIGN(sql::SelectStatement stmt, sql::ParseSelect(c.sql));
    for (size_t threads : {1, 8}) {
      SetParallelThreads(threads);
      for (Database* db : std::vector<Database*>{&scan, &roaring}) {
        for (bool chunked : {false, true}) {
          SCOPED_TRACE(db->name() + " threads=" + std::to_string(threads) +
                       (chunked ? " FinishChunkScan" : " ExecuteSql"));
          ZV_ASSERT_OK_AND_ASSIGN(ResultSet rs,
                                  chunked ? db->FinishChunkScan(stmt, rows)
                                          : db->ExecuteSql(c.sql));
          ASSERT_EQ(rs.num_rows(), ref.size());
          const size_t k = c.group_by.size();
          for (const auto& row : rs.rows) {
            std::vector<std::string> key;
            for (size_t i = 0; i < k; ++i) key.push_back(row[i].ToString());
            const auto it = ref.find(key);
            ASSERT_NE(it, ref.end());
            const std::vector<RefAgg>& a = it->second;
            EXPECT_EQ(Bits(row[k].AsDouble()), Bits(a[0].sum));
            EXPECT_EQ(Bits(row[k + 1].AsDouble()),
                      Bits(a[1].sum / static_cast<double>(a[1].count)));
            EXPECT_EQ(row[k + 2].AsInt(), a[0].count);
            EXPECT_EQ(Bits(row[k + 3].AsDouble()), Bits(a[2].min));
            EXPECT_EQ(Bits(row[k + 4].AsDouble()), Bits(a[3].max));
          }
        }
      }
    }
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
