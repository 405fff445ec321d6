/// \file bench_fig7_1.cc
/// \brief Figure 7.1: effect of the Chapter-5 query optimizations on the
/// Table 5.1 (top) and Table 5.2 (bottom) ZQL queries over the synthetic
/// sales dataset — plus the scoring hot path that Figure 7 grows with the
/// candidate count: legacy per-pair D(f,g) vs the cached ScoringContext,
/// serially and at ZV_THREADS=4.
///
/// Paper setup: 10M-row synthetic dataset, PostgreSQL backend, 20 products
/// in the user-specified set P. Reported: total runtime and the number of
/// SQL requests per optimization level (NoOpT / Intra-Line / [Intra-Task] /
/// Inter-Task). Paper shape: Intra-Line gives the dominant speedup (it
/// collapses the 20 per-product queries of each row into one); Intra-Task
/// applies only to Table 5.2 (5.1 has no adjacent task-less rows); Inter-
/// Task shaves requests further.
///
/// This reproduction defaults to 2M rows (ZV_BENCH_SCALE=5 for paper
/// scale). A small per-request latency (2 ms) models the client/server
/// round trip of the paper's deployment; the query-count reduction itself
/// is hardware-independent.
///
/// Set ZV_BENCH_JSON=<file> to also emit machine-readable records (see
/// tools/run_bench.sh, which assembles BENCH_fig7.json).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "engine/scan_db.h"
#include "tasks/distance.h"
#include "tasks/series_cache.h"
#include "tasks/topk.h"
#include "workload/datasets.h"
#include "zql/executor.h"

namespace {

using zv::bench::JsonRecorder;
using zv::bench::PrintHeader;
using zv::bench::PrintSubHeader;
using zv::zql::OptLevel;

constexpr uint64_t kRequestLatencyMicros = 2000;

// Table 5.1: positive sales trend in the US, negative in the UK -> profit.
const char* const kTable5_1 =
    "f1 | 'year' | 'sales' | v1 <- P | location='US' | "
    "bar.(y=agg('sum')) | v2 <- argany_v1[t > 0] T(f1)\n"
    "f2 | 'year' | 'sales' | v1 | location='UK' | bar.(y=agg('sum')) | v3 "
    "<- argany_v1[t < 0] T(f2)\n"
    "*f3 | 'year' | 'profit' | v4 <- (v2.range | v3.range) | | "
    "bar.(y=agg('sum')) |";

// Table 5.2: most-different sales-over-location between 2010 and 2015.
const char* const kTable5_2 =
    "f1 | 'country' | 'sales' | v1 <- P | year=2010 | bar.(y=agg('sum')) "
    "|\n"
    "f2 | 'country' | 'sales' | v1 | year=2015 | bar.(y=agg('sum')) | v2 "
    "<- argmax_v1[k=10] D(f1, f2)\n"
    "*f3 | 'country' | 'profit' | v2 | year=2010 | bar.(y=agg('sum')) |\n"
    "*f4 | 'country' | 'profit' | v2 | year=2015 | bar.(y=agg('sum')) |";

void RunQueryAtAllLevels(zv::Database* db, const std::string& name,
                         const std::string& json_case,
                         const std::string& query,
                         const zv::zql::NamedSets& sets,
                         const std::vector<OptLevel>& levels,
                         JsonRecorder* recorder) {
  PrintSubHeader(name);
  std::printf("%-11s %10s %12s %13s %12s\n", "opt", "time(ms)", "SQL queries",
              "SQL requests", "output viz");
  for (OptLevel level : levels) {
    zv::zql::ZqlOptions opts;
    opts.optimization = level;
    opts.named_sets = sets;
    zv::zql::ZqlExecutor exec(db, "sales", opts);
    zv::bench::WallTimer timer;
    auto result = exec.ExecuteText(query);
    const double ms = timer.ElapsedMs();
    if (!result.ok()) {
      std::printf("%-11s FAILED: %s\n", zv::zql::OptLevelToString(level),
                  result.status().ToString().c_str());
      continue;
    }
    size_t outputs = 0;
    for (const auto& o : result->outputs) outputs += o.visuals.size();
    std::printf("%-11s %10.1f %12llu %13llu %12zu\n",
                zv::zql::OptLevelToString(level), ms,
                static_cast<unsigned long long>(result->stats.sql_queries),
                static_cast<unsigned long long>(result->stats.sql_requests),
                outputs);
    recorder->Record(json_case + "/" + zv::zql::OptLevelToString(level), ms,
                     {{"threads", std::to_string(zv::ParallelWorkerCount())},
                      {"kind", "zql_opt_levels"}});
  }
}

/// Synthetic candidate set for the scoring sweep: n series over a shared
/// 0..points-1 x domain with distinct planted shapes.
std::vector<zv::Visualization> MakeCandidates(size_t n, size_t points) {
  std::vector<zv::Visualization> out;
  out.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    zv::Visualization v;
    v.x_attr = "t";
    v.y_attr = "y";
    zv::Series s;
    s.name = "y";
    for (size_t i = 0; i < points; ++i) {
      v.xs.push_back(zv::Value::Int(static_cast<int64_t>(i)));
      const double phase = static_cast<double>(c) * 0.37;
      const double trend = (static_cast<double>(c % 17) - 8.0) *
                           static_cast<double>(i) / 40.0;
      s.ys.push_back(trend +
                     5.0 * std::sin(static_cast<double>(i) * 0.21 + phase));
    }
    v.series.push_back(std::move(s));
    out.push_back(std::move(v));
  }
  return out;
}

/// The Figure-7 hot loop in isolation: score a query visualization against
/// every candidate, (a) with the legacy per-pair Distance() that re-aligns
/// and re-normalizes both series on each call, (b) through a ScoringContext
/// (each series aligned + normalized once), (c) the same context scored
/// under ParallelFor at ZV_THREADS=4. The checksum proves all three compute
/// the same scores.
void ScoringHotPath(JsonRecorder* recorder, zv::DistanceMetric metric,
                    const char* metric_name) {
  const size_t n = zv::bench::ScaledRows(600);
  const size_t points = 80;
  const int rounds = metric == zv::DistanceMetric::kDtw ? 1 : 20;
  const std::vector<zv::Visualization> candidates = MakeCandidates(n, points);
  std::vector<const zv::Visualization*> set;
  set.reserve(n);
  for (const auto& v : candidates) set.push_back(&v);
  const zv::Visualization& query = candidates[0];

  std::vector<double> legacy_scores(n, 0.0), cached_scores(n, 0.0),
      parallel_scores(n, 0.0);

  zv::SetParallelThreads(1);
  zv::bench::WallTimer legacy_timer;
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < n; ++i) {
      legacy_scores[i] = zv::Distance(query, candidates[i], metric,
                                      zv::Normalization::kZScore,
                                      zv::Alignment::kZeroFill);
    }
  }
  const double legacy_ms = legacy_timer.ElapsedMs();

  zv::bench::WallTimer cached_timer;  // includes context construction
  const zv::ScoringContext ctx(set, zv::Normalization::kZScore,
                               zv::Alignment::kZeroFill);
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < n; ++i) {
      cached_scores[i] = ctx.PairDistance(0, i, metric);
    }
  }
  const double cached_ms = cached_timer.ElapsedMs();

  zv::SetParallelThreads(4);
  zv::bench::WallTimer parallel_timer;
  const zv::ScoringContext pctx(set, zv::Normalization::kZScore,
                                zv::Alignment::kZeroFill);
  for (int r = 0; r < rounds; ++r) {
    zv::ParallelFor(n, [&](size_t i) {
      parallel_scores[i] = pctx.PairDistance(0, i, metric);
    });
  }
  const double parallel_ms = parallel_timer.ElapsedMs();
  zv::SetParallelThreads(0);

  bool identical = true;
  for (size_t i = 0; i < n; ++i) {
    identical &= legacy_scores[i] == cached_scores[i] &&
                 cached_scores[i] == parallel_scores[i];
  }

  std::printf(
      "%-10s %4zu cand x %3d rounds: legacy %8.1f ms | cached(T1) %8.1f ms "
      "(%.2fx) | cached(T4) %8.1f ms (%.2fx) | identical: %s\n",
      metric_name, n, rounds, legacy_ms, cached_ms, legacy_ms / cached_ms,
      parallel_ms, legacy_ms / parallel_ms, identical ? "yes" : "NO");
  const std::string prefix = std::string("scoring_") + metric_name;
  recorder->Record(prefix + "/legacy_t1", legacy_ms,
                   {{"threads", "1"}, {"kind", "scoring"}});
  recorder->Record(prefix + "/cached_t1", cached_ms,
                   {{"threads", "1"}, {"kind", "scoring"}});
  recorder->Record(prefix + "/cached_t4", parallel_ms,
                   {{"threads", "4"}, {"kind", "scoring"}});
}

/// Top-k pruned scoring vs the full scan on the same fig7 candidate
/// workload: select the k visualizations nearest to the query. full =
/// every exact ScoringContext distance + bounded-heap select; pruned =
/// the SharedTopK bound feeding the early-termination kernels
/// (PairDistanceBounded), serially and under ParallelFor at ZV_THREADS=4.
/// The selected indices are asserted identical across all three — returns
/// false (failing the harness) on any mismatch, so BENCH_fig7.json can
/// never record speedups for a scan that stopped computing the right
/// answer.
bool TopKScoring(JsonRecorder* recorder, zv::DistanceMetric metric,
                 const char* metric_name) {
  const size_t n = zv::bench::ScaledRows(600);
  const size_t points = 160;
  const int rounds = metric == zv::DistanceMetric::kDtw ? 1 : 20;
  const std::vector<zv::Visualization> candidates = MakeCandidates(n, points);
  std::vector<const zv::Visualization*> set;
  set.reserve(n);
  for (const auto& v : candidates) set.push_back(&v);
  const zv::ScoringContext ctx(set, zv::Normalization::kZScore,
                               zv::Alignment::kZeroFill);

  bool all_identical = true;
  for (const size_t k : {size_t{1}, size_t{5}, size_t{20}}) {
    zv::SetParallelThreads(1);
    std::vector<size_t> full_sel, pruned_sel, parallel_sel;

    zv::bench::WallTimer full_timer;
    for (int r = 0; r < rounds; ++r) {
      std::vector<double> scores(n);
      for (size_t i = 0; i < n; ++i) {
        scores[i] = ctx.PairDistance(0, i, metric);
      }
      full_sel = zv::TopKIndices(scores, k, zv::TopKOrder::kAscending);
    }
    const double full_ms = full_timer.ElapsedMs();

    zv::bench::WallTimer pruned_timer;
    for (int r = 0; r < rounds; ++r) {
      zv::SharedTopK topk(k, zv::TopKOrder::kAscending);
      for (size_t i = 0; i < n; ++i) {
        const double d = ctx.PairDistanceBounded(0, i, metric, topk.bound());
        if (!std::isinf(d)) topk.Offer(d, i);
      }
      pruned_sel = topk.SortedIndices();
    }
    const double pruned_ms = pruned_timer.ElapsedMs();

    zv::SetParallelThreads(4);
    zv::bench::WallTimer parallel_timer;
    for (int r = 0; r < rounds; ++r) {
      zv::SharedTopK topk(k, zv::TopKOrder::kAscending);
      zv::ParallelFor(n, [&](size_t i) {
        const double d = ctx.PairDistanceBounded(0, i, metric, topk.bound());
        if (!std::isinf(d)) topk.Offer(d, i);
      });
      parallel_sel = topk.SortedIndices();
    }
    const double parallel_ms = parallel_timer.ElapsedMs();
    zv::SetParallelThreads(0);

    const bool identical = full_sel == pruned_sel && full_sel == parallel_sel;
    all_identical &= identical;
    std::printf(
        "%-10s k=%-3zu %4zu cand x %3d rounds: full %8.1f ms | pruned(T1) "
        "%8.1f ms (%.2fx) | pruned(T4) %8.1f ms (%.2fx) | identical: %s\n",
        metric_name, k, n, rounds, full_ms, pruned_ms, full_ms / pruned_ms,
        parallel_ms, full_ms / parallel_ms, identical ? "yes" : "NO");
    const std::string prefix =
        std::string("topk_") + metric_name + "/k" + std::to_string(k);
    recorder->Record(prefix + "/full_t1", full_ms,
                     {{"threads", "1"}, {"kind", "topk"}});
    recorder->Record(prefix + "/pruned_t1", pruned_ms,
                     {{"threads", "1"}, {"kind", "topk"}});
    recorder->Record(prefix + "/pruned_t4", parallel_ms,
                     {{"threads", "4"}, {"kind", "topk"}});
  }
  return all_identical;
}

/// The shard section models the deployment the ChunkMap fan-out is built
/// for: each chunk is a partition of a *remote* store (the paper's
/// PostgreSQL serves scans server-side), so scanning a row range costs a
/// service wait proportional to the rows it covers plus the local row-id
/// extraction. The override wraps every scanner the backend prepares: at
/// ZV_THREADS=1 a pass waits chunk by chunk on one thread, while wider
/// settings overlap its chunks' waits across the common pool's threads
/// — the only scan speedup any machine sees once the store is remote
/// (multi-core machines additionally overlap the extraction CPU).
class PartitionedScanDatabase : public zv::ScanDatabase {
 public:
  explicit PartitionedScanDatabase(uint64_t service_ns_per_row)
      : service_ns_per_row_(service_ns_per_row) {}
  std::string name() const override { return "scan-partitioned"; }

  zv::Result<std::unique_ptr<zv::MultiChunkScanner>> PrepareMultiChunkScan(
      const std::vector<const zv::sql::SelectStatement*>& stmts) override {
    auto base = zv::ScanDatabase::PrepareMultiChunkScan(stmts);
    if (!base.ok()) return base;
    return {std::make_unique<PartitionScanner>(std::move(base).value(),
                                               service_ns_per_row_)};
  }

 private:
  class PartitionScanner : public zv::MultiChunkScanner {
   public:
    PartitionScanner(std::unique_ptr<zv::MultiChunkScanner> base, uint64_t ns)
        : base_(std::move(base)), service_ns_per_row_(ns) {}
    size_t num_statements() const override {
      return base_->num_statements();
    }
    zv::Status ScanRange(
        uint32_t begin, uint32_t end,
        std::vector<std::vector<uint32_t>>* outs) const override {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(service_ns_per_row_ * (end - begin)));
      return base_->ScanRange(begin, end, outs);
    }
    /// One statement per pass here; never fuses.
    bool Absorb(std::unique_ptr<zv::MultiChunkScanner>&) override {
      return false;
    }

   private:
    std::unique_ptr<zv::MultiChunkScanner> base_;
    uint64_t service_ns_per_row_;
  };

  uint64_t service_ns_per_row_;
};

/// Chunk-pass scaling: one selective statement over a 10M-row table
/// (paper scale), swept over chunk size x pool threads (the pass runs on
/// the common pool). Every run is compared byte-for-byte against the pass
/// at ZV_THREADS=1 and the default chunk size; a divergence fails the
/// harness (returns false) so BENCH_fig7.json can never record a speedup
/// for a scan that changed the answer. Records keep their
/// `shard/c<chunk_rows>_s<threads>` names.
bool ShardScaling(JsonRecorder* recorder) {
  PrintSubHeader("chunk pass scaling (remote partitions, 10M rows)");
  constexpr uint64_t kServiceNsPerRow = 100;  // ~10M rows/s remote scan rate
  zv::SalesDataOptions data_opts;
  data_opts.num_rows = zv::bench::ScaledRows(10000000);
  data_opts.num_products = 100;
  zv::bench::WallTimer gen_timer;
  auto sales = zv::MakeSalesTable(data_opts);
  PartitionedScanDatabase db(kServiceNsPerRow);
  if (auto s = db.RegisterTable(sales); !s.ok()) {
    std::printf("register failed: %s\n", s.ToString().c_str());
    return false;
  }
  std::printf("dataset: %zu rows generated in %.0f ms; partition service "
              "rate %.0f ns/row\n",
              sales->num_rows(), gen_timer.ElapsedMs(),
              static_cast<double>(kServiceNsPerRow));

  const char* const query =
      "*f1 | 'year' | 'sales' | | location='US' | bar.(y=agg('sum')) |";
  auto run = [&](size_t threads) -> zv::Result<zv::zql::ZqlResult> {
    zv::SetParallelThreads(threads);
    zv::zql::ZqlExecutor exec(&db, "sales", {});
    return exec.ExecuteText(query);
  };

  auto oracle = run(1);
  if (!oracle.ok()) {
    std::printf("FAILED: %s\n", oracle.status().ToString().c_str());
    return false;
  }
  const double base_ms = oracle->stats.total_ms;
  std::printf("reference (default chunks, 1 thread): %.1f ms\n", base_ms);
  auto identical = [&](const zv::zql::ZqlResult& got) {
    const auto& a = oracle->outputs;
    const auto& b = got.outputs;
    if (a.size() != b.size()) return false;
    for (size_t o = 0; o < a.size(); ++o) {
      if (a[o].visuals.size() != b[o].visuals.size()) return false;
      for (size_t i = 0; i < a[o].visuals.size(); ++i) {
        if (!(a[o].visuals[i].xs == b[o].visuals[i].xs) ||
            !(a[o].visuals[i].series == b[o].visuals[i].series)) {
          return false;
        }
      }
    }
    return true;
  };

  std::printf("%-12s %8s %8s %10s %10s %10s\n", "chunk_rows", "chunks",
              "threads", "total(ms)", "speedup", "identical");
  bool all_identical = true;
  for (const size_t chunk_rows :
       {size_t{65536}, size_t{262144}, size_t{1048576}}) {
    if (auto s = db.RebuildChunkMap("sales", chunk_rows); !s.ok()) {
      std::printf("rebuild failed: %s\n", s.ToString().c_str());
      return false;
    }
    const size_t chunks =
        (sales->num_rows() + chunk_rows - 1) / chunk_rows;
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      auto result = run(threads);
      if (!result.ok()) {
        std::printf("FAILED: %s\n", result.status().ToString().c_str());
        return false;
      }
      const double ms = result->stats.total_ms;
      const bool same = identical(result.value());
      all_identical &= same;
      std::printf("%-12zu %8zu %8zu %10.1f %9.2fx %10s\n", chunk_rows,
                  chunks, threads, ms, base_ms / ms, same ? "yes" : "NO");
      recorder->Record(
          zv::StrFormat("shard/c%zu_s%zu", chunk_rows, threads), ms,
          {{"threads", std::to_string(threads)},
           {"kind", "shard"},
           {"chunk_rows", std::to_string(chunk_rows)},
           {"chunks", std::to_string(chunks)},
           {"speedup_vs_reference", zv::StrFormat("%.2f", base_ms / ms)}});
    }
  }
  zv::SetParallelThreads(0);
  std::printf("outputs identical across all thread/chunk settings: %s\n",
              all_identical ? "yes" : "NO");
  return all_identical;
}

/// End-to-end Table 5.2 run (Inter-Task batching) at ZV_THREADS=1 vs 4:
/// the scoring loop, the k-means paths, and the partitioned table scan all
/// ride the same pool.
void EndToEndThreads(zv::Database* db, const zv::zql::NamedSets& sets,
                     JsonRecorder* recorder) {
  PrintSubHeader("end-to-end Table 5.2 (Inter-Task) vs ZV_THREADS");
  std::printf("%-10s %10s %14s %12s\n", "threads", "total(ms)", "compute(ms)",
              "exec(ms)");
  for (size_t threads : {size_t{1}, size_t{4}}) {
    zv::SetParallelThreads(threads);
    zv::zql::ZqlOptions opts;
    opts.optimization = OptLevel::kInterTask;
    opts.named_sets = sets;
    zv::zql::ZqlExecutor exec(db, "sales", opts);
    auto result = exec.ExecuteText(kTable5_2);
    if (!result.ok()) {
      std::printf("ZV_THREADS=%zu FAILED: %s\n", threads,
                  result.status().ToString().c_str());
      continue;
    }
    std::printf("%-10zu %10.1f %14.1f %12.1f\n", threads,
                result->stats.total_ms, result->stats.compute_ms,
                result->stats.exec_ms);
    recorder->Record("zql_e2e_t" + std::to_string(threads),
                     result->stats.total_ms,
                     {{"threads", std::to_string(threads)},
                      {"kind", "zql_end_to_end"},
                      {"compute_ms", std::to_string(result->stats.compute_ms)},
                      {"exec_ms", std::to_string(result->stats.exec_ms)}});
  }
  zv::SetParallelThreads(0);
}

}  // namespace

int main() {
  JsonRecorder recorder("fig7_1");
  PrintHeader("Figure 7.1: query optimization levels (synthetic sales)");

  // The scoring and top-k sections run first, on a fresh heap: after the
  // Table 5.1/5.2 queries they would time whatever heap those leave.
  PrintSubHeader("ZQL scoring hot path: legacy pairwise vs ScoringContext");
  std::printf("(cached = series aligned + normalized once; T4 = ZV_THREADS=4 "
              "ParallelFor)\n");
  ScoringHotPath(&recorder, zv::DistanceMetric::kEuclidean, "euclidean");
  ScoringHotPath(&recorder, zv::DistanceMetric::kDtw, "dtw");

  PrintSubHeader("top-k pruned scoring vs full scan (argmin k nearest)");
  std::printf("(pruned = early-termination kernels against the shared "
              "k-th-best bound)\n");
  bool topk_ok = TopKScoring(&recorder, zv::DistanceMetric::kEuclidean,
                             "euclidean");
  topk_ok &= TopKScoring(&recorder, zv::DistanceMetric::kDtw, "dtw");

  zv::SalesDataOptions data_opts;
  data_opts.num_rows = zv::bench::ScaledRows(2000000);
  data_opts.num_products = 100;
  std::printf("dataset: %zu rows, %zu products; request latency %.1f ms "
              "(simulated round trip)\n",
              data_opts.num_rows, data_opts.num_products,
              kRequestLatencyMicros / 1000.0);

  zv::bench::WallTimer gen_timer;
  auto sales = zv::MakeSalesTable(data_opts);
  zv::ScanDatabase db;  // PostgreSQL stand-in, as in the paper's Fig 7.1
  if (auto s = db.RegisterTable(sales); !s.ok()) {
    std::fprintf(stderr, "register failed: %s\n", s.ToString().c_str());
    return 1;
  }
  db.set_request_latency_micros(kRequestLatencyMicros);
  std::printf("generated + registered in %.0f ms\n", gen_timer.ElapsedMs());

  // P: the user-specified set of 20 products (paper: |P| = 20).
  zv::zql::NamedSets sets;
  std::vector<zv::Value> products;
  for (int i = 0; i < 20; ++i) {
    products.push_back(zv::Value::Str("product" + std::to_string(i)));
  }
  sets.value_sets["P"] = {"product", products};

  // Table 5.1 has no adjacent task-less rows, so Intra-Task is omitted,
  // exactly as in the paper's top plot.
  RunQueryAtAllLevels(&db, "Table 5.1 (Fig 7.1 top)", "table_5_1", kTable5_1,
                      sets,
                      {OptLevel::kNoOpt, OptLevel::kIntraLine,
                       OptLevel::kInterTask},
                      &recorder);
  RunQueryAtAllLevels(&db, "Table 5.2 (Fig 7.1 bottom)", "table_5_2",
                      kTable5_2, sets,
                      {OptLevel::kNoOpt, OptLevel::kIntraLine,
                       OptLevel::kIntraTask, OptLevel::kInterTask},
                      &recorder);

  EndToEndThreads(&db, sets, &recorder);
  const bool shard_ok = ShardScaling(&recorder);
  if (!topk_ok) {
    std::fprintf(stderr,
                 "FATAL: pruned top-k selection diverged from the full "
                 "scan\n");
    return 1;
  }
  if (!shard_ok) {
    std::fprintf(stderr,
                 "FATAL: chunk pass diverged from its one-thread reference\n");
    return 1;
  }
  return 0;
}
