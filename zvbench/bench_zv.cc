/// \file bench_zv.cc
/// \brief The repository benchmark: closed-loop analyst gestures against
/// the program's public entry points (QueryService::Submit, the JSON wire
/// codec with api::ExecuteRequest, TableFromCsvFile, RegisterDataset and
/// ReplaceDataset), with every output checked against a reference
/// execution (oracle.h).
///
///   bench_zv --workload explore|many_groups|scan_burst|epoch_churn
///            [--seed N] [--seconds S] [--trace 0|1] [--scratch DIR]
///
/// Prints one `workload metric value unit` line per metric, then, as the
/// last line, one JSON object {correct, attempted, failed, metrics}. With
/// --trace 0 the metrics are the end-to-end ones; with --trace 1 every
/// other episode is traced and the metrics are the per-layer means
/// (attribution.h). Exits 1 when any output is wrong or empty, any
/// operation fails, or a span breaks the attribution contract.
///
/// Every workload runs the shipped defaults: no ZV_* variable is read or
/// set, and the service is built with default options.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/protocol.h"
#include "api/service.h"
#include "attribution.h"
#include "common/json.h"
#include "common/trace.h"
#include "oracle.h"
#include "queries.h"
#include "server/query_service.h"
#include "stats.h"
#include "storage/csv_loader.h"
#include "workload/datasets.h"
#include "zql/canonical.h"
#include "zql/parser.h"
#include "zql/plan.h"

namespace {

using Clock = std::chrono::steady_clock;
using zvbench::ClientSeed;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Mix { kExplore, kManyGroups, kScanBurst };

/// One workload's data, load shape and set-up. Sizes keep each run's
/// set-up, measurement and output check within about half a minute on a
/// 4-core machine.
struct Shape {
  const char* name;
  size_t rows;
  size_t products;
  size_t clients;  ///< closed-loop client threads, one session each
  Mix mix;
  bool wire;   ///< gestures travel through the JSON codec
  bool csv;    ///< set-up ingests a CSV the benchmark wrote (untimed)
  bool churn;  ///< a writer swaps the dataset between two tables
  int setup_reps;
};

constexpr Shape kShapes[] = {
    {"explore", 250000, 50, 4, Mix::kExplore, true, true, false, 3},
    {"many_groups", 1000000, 2000, 1, Mix::kManyGroups, false, false, false, 5},
    {"scan_burst", 2000000, 50, 4, Mix::kScanBurst, false, false, false, 5},
    {"epoch_churn", 500000, 50, 3, Mix::kExplore, false, false, true, 5},
};

constexpr double kWriteIntervalMs = 250;
constexpr double kWarmupShare = 0.05;
constexpr size_t kOracleThreads = 4;
const char* const kDataset = "sales";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

std::unique_ptr<zvbench::QuerySource> MakeSource(const Shape& shape,
                                                 uint64_t seed,
                                                 size_t client) {
  switch (shape.mix) {
    case Mix::kExplore:
      return std::make_unique<zvbench::ExploreEpisodes>(
          seed, client, shape.products, shape.churn ? 2 : 6);
    case Mix::kManyGroups:
      return std::make_unique<zvbench::ManyGroupsQueries>(seed, client,
                                                          shape.products);
    case Mix::kScanBurst:
      return std::make_unique<zvbench::ScanBurstQueries>(
          seed, client, shape.clients, shape.products);
  }
  return nullptr;
}

std::shared_ptr<zv::Table> MakeTable(const Shape& shape, uint64_t seed) {
  zv::SalesDataOptions opts;
  opts.num_rows = shape.rows;
  opts.num_products = shape.products;
  opts.seed = seed;
  return zv::MakeSalesTable(opts);
}

bool WriteCsv(const zv::Table& table, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const zv::Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    std::fprintf(f, "%s%s", c ? "," : "", schema.column(c).name.c_str());
  }
  std::fputc('\n', f);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (c) std::fputc(',', f);
      std::fputs(table.ValueAt(r, c).ToString().c_str(), f);
    }
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

/// What one client thread observed.
struct ClientLog {
  size_t attempted = 0;
  size_t failed = 0;
  size_t measured = 0;  ///< operations started inside the measured window
  double last_done_ms = 0;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<zvbench::Check> checks;
  std::map<std::string, zv::zql::ZqlQuery> queries;  ///< by canonical text
  zvbench::LayerAttribution layers;
  double parse_ms = 0, canonical_ms = 0, plan_ms = 0;
  std::string first_error;

  void Fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
};

/// A gesture prepared outside the timed region.
struct Prepared {
  std::string text;
  zv::zql::ZqlQuery ast;
  std::string canonical;
  std::string request;         ///< wire form, untraced
  std::string request_traced;  ///< wire form with "trace": true
};

struct Bench {
  const Shape* shape = nullptr;
  Args args;
  zv::server::QueryService* service = nullptr;
  Clock::time_point t0;
  double warm_ms = 0;
  double end_ms = 0;
};

uint64_t Epoch(const zv::server::QueryService& service) {
  zv::Result<uint64_t> epoch = service.DatasetEpoch(kDataset);
  return epoch.ok() ? *epoch : 1;
}

uint32_t TableMask(uint64_t epoch_before, uint64_t epoch_after) {
  // Epoch 1 is table A, and the writer alternates B, A, B, ... after it.
  if (epoch_before != epoch_after) return 3;
  return 1u << ((epoch_before - 1) % 2);
}

/// Books one finished operation: its latency if measured, its output check,
/// and, when traced, its span attribution and the zql re-invocations.
void Record(const Bench& b, const Prepared& p, bool traced, bool measured,
            zvbench::TracedOp op, zvbench::Check check, bool empty,
            ClientLog* log) {
  if (empty) {
    log->Fail("empty output for query:\n" + p.text);
    return;
  }
  log->checks.push_back(std::move(check));
  if (!measured) return;
  log->last_done_ms = MsSince(b.t0);
  (traced ? log->traced_ms : log->untraced_ms).push_back(op.latency_ms);
  if (!traced) return;
  std::string error;
  if (!log->layers.Add(op, &error)) {
    log->Fail("span contract: " + error);
    return;
  }
  auto t = Clock::now();
  zv::Result<zv::zql::ZqlQuery> reparsed = zv::zql::ParseQuery(p.text);
  log->parse_ms += MsSince(t);
  t = Clock::now();
  const std::string canonical = zv::zql::CanonicalText(p.ast);
  log->canonical_ms += MsSince(t);
  t = Clock::now();
  zv::Result<zv::zql::PhysicalPlan> plan =
      zv::zql::BuildPhysicalPlan(p.ast, b.service->zql_options());
  log->plan_ms += MsSince(t);
  if (!reparsed.ok() || !plan.ok() || canonical != p.canonical) {
    log->Fail("zql re-invocation disagrees for query:\n" + p.text);
  }
}

void WireOp(const Bench& b, zv::server::SessionId session, const Prepared& p,
            bool traced, bool measured, ClientLog* log) {
  const auto t_start = Clock::now();
  zv::Result<zv::Json> parsed =
      zv::Json::Parse(traced ? p.request_traced : p.request);
  zv::Result<zv::api::QueryRequest> request =
      parsed.ok() ? zv::api::DecodeRequest(*parsed)
                  : zv::Result<zv::api::QueryRequest>(parsed.status());
  const auto t_decoded = Clock::now();
  if (!request.ok()) {
    log->Fail("decode: " + request.status().ToString());
    return;
  }
  zv::api::QueryResponse response =
      zv::api::ExecuteRequest(*b.service, session, *request);
  const auto t_executed = Clock::now();
  zv::Json encoded = zv::api::EncodeResponse(response);
  const std::string wire = encoded.Dump();
  const auto t_done = Clock::now();

  if (!response.ok() || wire.empty()) {
    log->Fail("request failed: " + response.error.message);
    return;
  }
  zvbench::TracedOp op;
  op.latency_ms = MsBetween(t_start, t_done);
  op.decode_ms = MsBetween(t_start, t_decoded);
  op.call_ms = MsBetween(t_decoded, t_executed);
  op.encode_ms = MsBetween(t_executed, t_done);
  op.executed = response.stats.cache_hits == 0;
  op.stats = response.stats;
  if (traced) op.trace = std::move(response.trace);
  zvbench::Check check{p.canonical, /*wire=*/true, 1,
                       zvbench::DigestWireOutputs(encoded)};
  Record(b, p, traced, measured, std::move(op), std::move(check),
         zvbench::HasEmptyOutput(response), log);
}

void TypedOp(const Bench& b, zv::server::SessionId session, const Prepared& p,
             bool traced, bool measured, ClientLog* log) {
  const uint64_t epoch_before = Epoch(*b.service);
  const auto t_start = Clock::now();
  zv::Result<zv::server::QueryHandle> handle =
      b.service->Submit(session, kDataset, p.ast, {}, traced);
  const zv::Status status = handle.ok() ? handle->Wait() : handle.status();
  const auto t_done = Clock::now();
  const uint64_t epoch_after = Epoch(*b.service);
  if (!status.ok()) {
    log->Fail("query failed: " + status.ToString());
    return;
  }
  std::shared_ptr<const zv::zql::ZqlResult> result = handle->result();
  zvbench::TracedOp op;
  op.latency_ms = MsBetween(t_start, t_done);
  op.call_ms = op.latency_ms;
  op.stats = handle->stats();
  op.executed = op.stats.cache_hits == 0;
  if (traced) {
    if (std::shared_ptr<const zv::Trace> trace = handle->trace()) {
      op.trace = zv::EncodeTraceSpan(trace->root());
    }
  }
  zvbench::Check check{p.canonical, /*wire=*/false,
                       TableMask(epoch_before, epoch_after),
                       zvbench::DigestResult(*result)};
  Record(b, p, traced, measured, std::move(op), std::move(check),
         zvbench::HasEmptyOutput(*result), log);
}

bool Prepare(const std::string& text, Prepared* p) {
  zv::Result<zv::zql::ZqlQuery> ast = zv::zql::ParseQuery(text);
  if (!ast.ok()) return false;
  p->text = text;
  p->ast = std::move(ast).value();
  p->canonical = zv::zql::CanonicalText(p->ast);
  p->request = zv::api::EncodeRequest(
                   zvbench::WireRequest(kDataset, p->ast, false))
                   .Dump();
  p->request_traced = zv::api::EncodeRequest(
                          zvbench::WireRequest(kDataset, p->ast, true))
                          .Dump();
  return true;
}

/// One closed-loop client: issue a gesture, wait for it, issue the next,
/// until the measured window ends. Operations that start during warm-up
/// are checked but not timed.
void ClientMain(const Bench& b, size_t client, ClientLog* log) {
  zv::Result<zv::server::SessionId> session = b.service->CreateSession();
  if (!session.ok()) {
    log->Fail("session: " + session.status().ToString());
    return;
  }
  std::unique_ptr<zvbench::QuerySource> source =
      MakeSource(*b.shape, b.args.seed, client);
  size_t episode_index = 0;
  while (MsSince(b.t0) < b.end_ms) {
    const std::vector<std::string> episode = source->NextEpisode();
    const bool traced = b.args.trace && episode_index++ % 2 == 0;
    std::map<std::string, Prepared> prepared;
    for (const std::string& text : episode) {
      auto it = prepared.find(text);
      if (it == prepared.end()) {
        Prepared p;
        if (!Prepare(text, &p)) {
          ++log->attempted;
          log->Fail("benchmark query does not parse:\n" + text);
          continue;
        }
        log->queries.try_emplace(p.canonical, p.ast);
        it = prepared.emplace(text, std::move(p)).first;
      }
      const double start = MsSince(b.t0);
      if (start >= b.end_ms) break;
      const bool measured = start >= b.warm_ms;
      ++log->attempted;
      if (measured) ++log->measured;
      (b.shape->wire ? WireOp : TypedOp)(b, *session, it->second, traced,
                                        measured, log);
    }
  }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void PrintLine(const std::string& workload, const Metric& m) {
  std::printf("%s %s %.6g %s%s%s\n", workload.c_str(), m.name.c_str(),
              m.value, m.unit.c_str(), m.note.empty() ? "" : "  ",
              m.note.c_str());
}

Metric PercentileMetric(const char* name, const std::vector<double>& sorted,
                        double q) {
  const zvbench::OrderStat s = zvbench::Percentile(sorted, q);
  return {name, s.value, "ms",
          zv::StrFormat("(n=%zu, beyond=%zu)", s.n, s.beyond)};
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_zv --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--scratch DIR]\n");
    return 2;
  }
  const Shape* shape = nullptr;
  for (const Shape& s : kShapes) {
    if (args.workload == s.name) shape = &s;
  }
  if (shape == nullptr) {
    std::fprintf(stderr, "bench_zv: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string wl = shape->name;

  // --- Inputs (untimed) -----------------------------------------------------
  std::vector<std::shared_ptr<zv::Table>> tables = {
      MakeTable(*shape, ClientSeed(args.seed, 100))};
  if (shape->churn) {
    tables.push_back(MakeTable(*shape, ClientSeed(args.seed, 101)));
  }
  std::string csv_path;
  if (shape->csv) {
    csv_path = args.scratch + "/zvbench-" + wl + "-" +
               std::to_string(getpid()) + ".csv";
    if (!WriteCsv(*tables[0], csv_path)) {
      std::fprintf(stderr, "bench_zv: cannot write %s\n", csv_path.c_str());
      return 2;
    }
  }

  // --- Set-up: ingest to queryable, several times; keep the last ------------
  std::vector<double> setup_ms, csv_ms, register_ms;
  std::unique_ptr<zv::server::QueryService> service;
  for (int rep = 0; rep < shape->setup_reps; ++rep) {
    service.reset();
    service = std::make_unique<zv::server::QueryService>();
    double load = 0;
    if (shape->csv) {
      tables[0].reset();  // the program's own ingest replaces it
      const auto t = Clock::now();
      zv::Result<std::shared_ptr<zv::Table>> loaded =
          zv::TableFromCsvFile(kDataset, csv_path);
      load = MsSince(t);
      if (!loaded.ok()) {
        std::fprintf(stderr, "bench_zv: csv load: %s\n",
                     loaded.status().ToString().c_str());
        return 2;
      }
      tables[0] = *loaded;
      csv_ms.push_back(load);
    }
    const auto t = Clock::now();
    const zv::Status registered = service->RegisterDataset(tables[0]);
    const double reg = MsSince(t);
    if (!registered.ok()) {
      std::fprintf(stderr, "bench_zv: register: %s\n",
                   registered.ToString().c_str());
      return 2;
    }
    register_ms.push_back(reg);
    setup_ms.push_back(load + reg);
  }
  if (!csv_path.empty()) std::remove(csv_path.c_str());

  // --- Measured phase -------------------------------------------------------
  Bench b;
  b.shape = shape;
  b.args = args;
  b.service = service.get();
  b.warm_ms = kWarmupShare * args.seconds * 1e3;
  b.end_ms = b.warm_ms + args.seconds * 1e3;
  b.t0 = Clock::now();

  std::vector<ClientLog> logs(shape->clients);
  std::vector<double> write_ms;
  ClientLog writer_log;
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop = false;
  std::thread writer;
  if (shape->churn) {
    writer = std::thread([&] {
      size_t next = 1;
      auto tick = b.t0;
      std::unique_lock<std::mutex> lock(stop_mu);
      for (;;) {
        tick += std::chrono::microseconds(
            static_cast<int64_t>(kWriteIntervalMs * 1e3));
        if (stop_cv.wait_until(lock, tick, [&] { return stop; })) break;
        lock.unlock();
        const double start = MsSince(b.t0);
        const auto t = Clock::now();
        const zv::Status s = service->ReplaceDataset(tables[next]);
        const double ms = MsSince(t);
        lock.lock();
        ++writer_log.attempted;
        if (!s.ok()) writer_log.Fail("replace: " + s.ToString());
        if (start >= b.warm_ms) write_ms.push_back(ms);
        next ^= 1;
      }
    });
  }
  std::vector<std::thread> clients;
  for (size_t c = 0; c < shape->clients; ++c) {
    clients.emplace_back(ClientMain, std::cref(b), c, &logs[c]);
  }
  std::this_thread::sleep_until(
      b.t0 + std::chrono::microseconds(static_cast<int64_t>(b.warm_ms * 1e3)));
  const zv::server::ServiceStats stats_before = service->stats();
  const double cpu_before = zvbench::ProcessCpuMs();
  for (std::thread& t : clients) t.join();
  const double cpu_after = zvbench::ProcessCpuMs();
  const zv::server::ServiceStats stats_after = service->stats();
  {
    std::lock_guard<std::mutex> lock(stop_mu);
    stop = true;
  }
  stop_cv.notify_all();
  if (writer.joinable()) writer.join();

  // --- Merge and check outputs ----------------------------------------------
  ClientLog all = std::move(writer_log);
  std::vector<zvbench::Check> checks;
  for (ClientLog& log : logs) {
    all.attempted += log.attempted;
    all.failed += log.failed;
    all.measured += log.measured;
    all.last_done_ms = std::max(all.last_done_ms, log.last_done_ms);
    all.untraced_ms.insert(all.untraced_ms.end(), log.untraced_ms.begin(),
                           log.untraced_ms.end());
    all.traced_ms.insert(all.traced_ms.end(), log.traced_ms.begin(),
                         log.traced_ms.end());
    checks.insert(checks.end(), log.checks.begin(), log.checks.end());
    all.queries.merge(log.queries);
    all.layers.Merge(log.layers);
    all.parse_ms += log.parse_ms;
    all.canonical_ms += log.canonical_ms;
    all.plan_ms += log.plan_ms;
    if (all.first_error.empty()) all.first_error = log.first_error;
  }
  service.reset();

  std::string oracle_error;
  const auto t_oracle = Clock::now();
  const size_t mismatches = zvbench::Oracle(tables).Verify(
      checks, all.queries, kOracleThreads, &oracle_error);
  std::fprintf(stderr, "bench_zv: checked %zu outputs in %.1f s\n",
               checks.size(), MsSince(t_oracle) / 1e3);
  all.failed += mismatches;
  if (all.first_error.empty() && mismatches > 0) {
    all.first_error = "oracle: " + oracle_error;
  }

  // --- Metrics --------------------------------------------------------------
  std::vector<double> latencies = all.untraced_ms;
  std::sort(latencies.begin(), latencies.end());
  const double window_ms = std::max(1e-3, all.last_done_ms - b.warm_ms);
  const double measured =
      static_cast<double>(std::max<size_t>(1, all.measured));
  const double error_rate =
      static_cast<double>(all.failed) /
      static_cast<double>(std::max<size_t>(1, all.attempted));
  std::sort(write_ms.begin(), write_ms.end());

  std::vector<Metric> end_to_end = {
      {"setup_s", zvbench::Median(setup_ms) / 1e3, "s",
       zv::StrFormat("(median of %zu)", setup_ms.size())},
      {"qps", static_cast<double>(all.measured) / (window_ms / 1e3), "1/s",
       zv::StrFormat("(%zu ops)", all.measured)},
      PercentileMetric("p50_ms", latencies, 0.50),
      PercentileMetric("p90_ms", latencies, 0.90),
      {"cpu_ms_per_op", (cpu_after - cpu_before) / measured, "ms", ""},
      {"peak_rss_mb", zvbench::PeakRssMb(), "MB", ""},
  };
  // Printed but not gated: p99 has fewer than ten samples beyond it on the
  // slower workloads, and error_rate must stay 0 (a failure already fails
  // the run).
  std::vector<Metric> extra = {PercentileMetric("p99_ms", latencies, 0.99),
                               {"error_rate", error_rate, "fraction", ""}};
  if (shape->churn) {
    extra.push_back(PercentileMetric("write_p50_ms", write_ms, 0.50));
  }

  std::vector<Metric> per_layer;
  bool sums_ok = true;
  if (args.trace) {
    std::map<std::string, double> m = all.layers.Means();
    const double n = static_cast<double>(std::max<size_t>(1, all.layers.ops()));
    const double hits = static_cast<double>(stats_after.cache_hits -
                                            stats_before.cache_hits);
    const double probes =
        hits + static_cast<double>(stats_after.cache_misses -
                                   stats_before.cache_misses);
    const double passes = static_cast<double>(stats_after.batch_passes -
                                              stats_before.batch_passes);
    m["server.cache_hit_ratio"] = probes > 0 ? hits / probes : 0;
    m["server.contexts_reused_per_op"] =
        static_cast<double>(stats_after.contexts_reused -
                            stats_before.contexts_reused) /
        measured;
    m["engine.statements_per_pass"] =
        passes > 0 ? static_cast<double>(stats_after.batch_statements -
                                         stats_before.batch_statements) /
                         passes
                   : 0;
    m["server.register_ms"] = zvbench::Mean(register_ms);
    m["server.replace_ms"] = zvbench::Mean(write_ms);
    m["storage.csv_load_ms"] = zvbench::Mean(csv_ms);
    m["zql.parse_ms"] = all.parse_ms / n;
    m["zql.canonical_ms"] = all.canonical_ms / n;
    m["zql.plan_ms"] = all.plan_ms / n;
    std::vector<double> traced = all.traced_ms;
    std::sort(traced.begin(), traced.end());
    const double untraced_p50 = zvbench::Percentile(latencies, 0.5).value;
    m["trace_overhead"] =
        untraced_p50 > 0 ? zvbench::Percentile(traced, 0.5).value / untraced_p50
                         : 0;
    double layered = m["unattributed_ms"];
    for (const std::string& layer : zvbench::BlockingLayers()) {
      layered += m[layer];
    }
    const double mean = m["traced_mean_ms"];
    sums_ok = std::abs(layered - mean) <= 0.01 * mean;
    for (const auto& [name, value] : m) {
      const bool is_ms =
          name.size() > 3 && name.substr(name.size() - 3) == "_ms";
      const bool is_ratio = name.find("ratio") != std::string::npos ||
                            name == "trace_overhead";
      per_layer.push_back(
          {name, value, is_ms ? "ms" : is_ratio ? "ratio" : "count", ""});
    }
  }

  // --- Output ---------------------------------------------------------------
  for (const Metric& m : end_to_end) PrintLine(wl, m);
  for (const Metric& m : extra) PrintLine(wl, m);
  for (const Metric& m : per_layer) PrintLine(wl, m);
  if (args.trace) {
    std::printf("%s traced_ops %zu count\n", wl.c_str(), all.layers.ops());
    if (!sums_ok) {
      std::fprintf(stderr, "bench_zv: blocking layers do not sum to the "
                           "mean traced latency\n");
    }
  }
  if (!all.first_error.empty()) {
    std::fprintf(stderr, "bench_zv: %zu of %zu operations failed; first: %s\n",
                 all.failed, all.attempted, all.first_error.c_str());
  }

  const bool correct = all.failed == 0 && sums_ok && all.attempted > 0;
  zv::Json metrics = zv::Json::MakeObject();
  for (const Metric& m : args.trace ? per_layer : end_to_end) {
    zv::Json one = zv::Json::MakeObject();
    one.Set("value", zv::Json::Double(m.value));
    one.Set("unit", zv::Json::Str(m.unit));
    metrics.Set(m.name, std::move(one));
  }
  zv::Json out = zv::Json::MakeObject();
  out.Set("correct", zv::Json::Bool(correct));
  out.Set("attempted", zv::Json::Int(static_cast<int64_t>(all.attempted)));
  out.Set("failed", zv::Json::Int(static_cast<int64_t>(all.failed)));
  out.Set("metrics", std::move(metrics));
  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
