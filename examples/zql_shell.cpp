/// \file zql_shell.cpp
/// \brief Interactive ZQL shell, now driving the serving layer — the
/// terminal stand-in for the zenvisage front end (§6.1) talking to a
/// QueryService instead of an embedded executor.
///
///   $ ./zql_shell [sales|census|airline|housing]
///
/// Enter a ZQL query (multiple lines); finish with a blank line to submit
/// it through the current session and wait. Lines starting with ':' are
/// commands:
///   :tables               list columns of the active dataset
///   :sql SELECT ...       run raw SQL against the backend
///   :opt LEVEL            set optimization (noopt|intraline|intratask|intertask)
///   :explain              explain the buffered query (then keep the buffer)
///   :session              show the current session
///   :session new          open (and switch to) a fresh session
///   :session end          end the current session and open a fresh one
///   :async                submit the buffered query without waiting
///   :wait N | :cancel N   wait on / cancel async query #N
///   :stats                service counters (cache hit rate, sessions, …)
///   :trace                toggle per-query tracing; traced queries print
///                         their span tree (where each millisecond went)
///   :trace show           re-print the last traced query's span tree
///   :trace chrome FILE    write the last trace as Chrome trace_event JSON
///                         (load in chrome://tracing for a flame view)
///   :metrics              metrics registry snapshot: latency histograms
///                         (p50/p90/p99/p999), counters, gauges
///   :slow                 the slow-query log (queries over ZV_SLOW_QUERY_MS)
///   :reload               regenerate the dataset — bumps its epoch, so
///                         every cached result for it is invalidated
///   :json                 enter wire mode: each subsequent line is one
///                         JSON QueryRequest (docs/api_reference.md), each
///                         reply one JSON QueryResponse — the same protocol
///                         a browser front end speaks. ":text" leaves.
///   :quit
///
/// Repeat a query to watch the serving layer work: the second run reports
/// "result cache HIT" and returns in microseconds; :reload and re-run to
/// watch epoch invalidation force a recompute. Wire mode drives the whole
/// typed path over stdin/stdout:
///
///   zql> :json
///   json> {"dataset":"sales","zql":"*f1 | 'year' | 'sales' | | | |","page":{"limit":1},"include_vega":true}
///   {"v":1,"outputs":[...],"stats":{...},"fingerprint":"..."}

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "api/service.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "server/query_service.h"
#include "viz/vega_emitter.h"
#include "workload/datasets.h"
#include "zql/explain.h"
#include "zql/parser.h"
#include "zql/plan.h"

namespace {

std::shared_ptr<zv::Table> LoadDataset(const std::string& name) {
  if (name == "census") {
    zv::CensusDataOptions opts;
    opts.num_rows = 50000;
    return zv::MakeCensusTable(opts);
  }
  if (name == "airline") {
    zv::AirlineDataOptions opts;
    opts.num_rows = 100000;
    return zv::MakeAirlineTable(opts);
  }
  if (name == "housing") {
    zv::HousingDataOptions opts;
    opts.num_rows = 60000;
    return zv::MakeHousingTable(opts);
  }
  zv::SalesDataOptions opts;
  opts.num_rows = 100000;
  opts.num_products = 20;
  return zv::MakeSalesTable(opts);
}

/// Canonical ZQL text on one line (slow-query log entries are multi-row).
std::string OneLine(std::string s) {
  for (char& c : s) {
    if (c == '\n') c = ' ';
  }
  return zv::Trim(s);
}

void PrintResult(const zv::zql::ZqlResult& result) {
  for (const auto& output : result.outputs) {
    std::printf("=== %s: %zu visualizations ===\n", output.name.c_str(),
                output.visuals.size());
    size_t shown = 0;
    for (const auto& viz : output.visuals) {
      if (++shown > 5) {
        std::printf("  ... and %zu more\n", output.visuals.size() - 5);
        break;
      }
      std::printf("%s\n", zv::ToAsciiChart(viz).c_str());
    }
  }
  const zv::zql::ZqlStats& st = result.stats;
  std::printf("(%llu SQL queries, %llu requests, exec %.1f ms, task "
              "processor %.1f ms, %llu contexts reused)\n",
              static_cast<unsigned long long>(st.sql_queries),
              static_cast<unsigned long long>(st.sql_requests), st.exec_ms,
              st.compute_ms,
              static_cast<unsigned long long>(st.contexts_reused));
}

/// Waits on one query handle and prints its outcome, including the serving
/// layer's cache verdict and end-to-end latency. A traced query also
/// prints its span tree and parks the trace in `last_trace` for
/// ":trace show" / ":trace chrome FILE".
void WaitAndPrint(zv::server::QueryHandle& handle,
                  std::shared_ptr<const zv::Trace>* last_trace) {
  const zv::Status status = handle.Wait();
  if (std::shared_ptr<const zv::Trace> trace = handle.trace()) {
    *last_trace = trace;
  }
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    return;
  }
  const zv::zql::ZqlStats stats = handle.stats();
  if (stats.cache_hits > 0) {
    std::printf("[result cache HIT — %.3f ms]\n", stats.total_ms);
  } else {
    std::printf("[result cache MISS — computed in %.1f ms]\n",
                stats.total_ms);
  }
  PrintResult(*handle.result());
  if (std::shared_ptr<const zv::Trace> trace = handle.trace()) {
    std::printf("%s", zv::RenderTraceTree(trace->root()).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dataset = argc > 1 ? argv[1] : "sales";
  auto table = LoadDataset(dataset);
  const std::string table_name = table->name();

  zv::server::ServiceOptions service_opts;
  zv::server::QueryService service(service_opts);
  if (auto s = service.RegisterDataset(table); !s.ok()) {
    std::fprintf(stderr, "register failed: %s\n", s.ToString().c_str());
    return 1;
  }
  zv::server::SessionId session = std::move(service.CreateSession()).value();

  std::printf("zenvisage ZQL service shell — dataset '%s' (%zu rows), "
              "session %llu.\n",
              table_name.c_str(), table->num_rows(),
              static_cast<unsigned long long>(session));
  std::printf("Serving: %zu workers, %zu queue slots, %.0f MB cache. "
              "Repeat a query to hit the cache; :reload to invalidate.\n",
              service.max_inflight(), service.max_queue(),
              static_cast<double>(service.cache_bytes()) / (1 << 20));
  std::printf("Enter ZQL rows (Name | X | Y | Z | Constraints | Viz | "
              "Process), blank line to run, :quit to exit.\n\n");

  std::optional<zv::zql::OptLevel> opt_override;
  std::string buffer;
  std::string line;
  std::vector<zv::server::QueryHandle> async_handles;
  bool wire_mode = false;
  bool trace_on = false;
  std::shared_ptr<const zv::Trace> last_trace;

  auto submit_buffered = [&](bool async) {
    auto submitted =
        service.Submit(session, table_name, buffer, opt_override, trace_on);
    buffer.clear();
    if (!submitted.ok()) {
      std::printf("submit error: %s\n", submitted.status().ToString().c_str());
      return;
    }
    if (async) {
      async_handles.push_back(std::move(submitted).value());
      std::printf("async query #%zu submitted (\":wait %zu\" / \":cancel "
                  "%zu\")\n",
                  async_handles.size() - 1, async_handles.size() - 1,
                  async_handles.size() - 1);
      return;
    }
    zv::server::QueryHandle handle = std::move(submitted).value();
    WaitAndPrint(handle, &last_trace);
  };

  while (true) {
    std::printf(wire_mode ? "json> " : (buffer.empty() ? "zql> " : "...> "));
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    const std::string trimmed = zv::Trim(line);
    if (trimmed == ":quit" || trimmed == ":q") break;
    if (wire_mode) {
      if (trimmed == ":text") {
        wire_mode = false;
        std::printf("back to interactive mode\n");
        continue;
      }
      if (trimmed.empty()) continue;
      // One JSON QueryRequest per line; one JSON QueryResponse per line.
      std::printf("%s\n",
                  zv::api::HandleWireRequest(service, session, trimmed)
                      .c_str());
      continue;
    }
    if (trimmed == ":json") {
      wire_mode = true;
      std::printf(
          "wire mode (protocol v%d): one JSON request per line, e.g.\n"
          "  {\"dataset\":\"%s\",\"zql\":\"*f1 | 'year' | 'sales' | | | "
          "|\",\"page\":{\"limit\":1}}\n"
          "\":text\" returns to the interactive shell.\n",
          zv::api::kProtocolVersion, table_name.c_str());
      continue;
    }
    if (trimmed == ":tables") {
      for (const auto& col : table->schema().columns()) {
        std::printf("  %-20s %s\n", col.name.c_str(),
                    zv::ColumnTypeToString(col.type));
      }
      continue;
    }
    if (zv::StartsWith(trimmed, ":opt")) {
      const std::string level = zv::ToLower(zv::Trim(trimmed.substr(4)));
      if (level == "noopt") opt_override = zv::zql::OptLevel::kNoOpt;
      else if (level == "intraline")
        opt_override = zv::zql::OptLevel::kIntraLine;
      else if (level == "intratask")
        opt_override = zv::zql::OptLevel::kIntraTask;
      else opt_override = zv::zql::OptLevel::kInterTask;
      std::printf("optimization: %s\n",
                  zv::zql::OptLevelToString(*opt_override));
      continue;
    }
    if (zv::StartsWith(trimmed, ":sql")) {
      auto db = service.DatasetDatabase(table_name);
      if (!db.ok()) {
        std::printf("error: %s\n", db.status().ToString().c_str());
        continue;
      }
      auto rs = (*db)->ExecuteSql(trimmed.substr(4));
      if (!rs.ok()) std::printf("error: %s\n", rs.status().ToString().c_str());
      else std::printf("%s\n", rs->ToString().c_str());
      continue;
    }
    if (trimmed == ":explain") {
      if (buffer.empty()) {
        std::printf("nothing buffered — enter a query first\n");
        continue;
      }
      auto parsed = zv::zql::ParseQuery(buffer);
      if (!parsed.ok()) {
        std::printf("parse error: %s\n", parsed.status().ToString().c_str());
        continue;
      }
      auto plan = zv::zql::ExplainQuery(parsed.value());
      if (!plan.ok()) {
        std::printf("error: %s\n", plan.status().ToString().c_str());
        continue;
      }
      std::printf("%s", plan->ToString().c_str());
      // The physical plan the scheduler will actually run: the operator
      // tree under the effective optimization level, stage by stage.
      zv::zql::ZqlOptions plan_opts = service.zql_options();
      if (opt_override.has_value()) plan_opts.optimization = *opt_override;
      auto physical = zv::zql::BuildPhysicalPlan(parsed.value(), plan_opts);
      if (!physical.ok()) {
        std::printf("plan error: %s\n",
                    physical.status().ToString().c_str());
        continue;
      }
      // Chunk count makes the FetchOp fan-out annotation concrete
      // (chunks=K) — same data the wire EXPLAIN supplies.
      size_t table_chunks = 0;
      if (auto db = service.DatasetDatabase(dataset); db.ok()) {
        if (auto map = (*db)->GetChunkMap(dataset); map.ok()) {
          table_chunks = map->num_chunks();
        }
      }
      std::printf("%s", physical->Render(parsed.value(), table_chunks).c_str());
      continue;  // buffer intentionally kept: tweak and run
    }
    if (trimmed == ":session") {
      std::printf("session %llu (%zu active on the service)\n",
                  static_cast<unsigned long long>(session),
                  service.ActiveSessions());
      continue;
    }
    if (trimmed == ":session new" || trimmed == ":session end") {
      if (trimmed == ":session end") {
        if (auto s = service.EndSession(session); !s.ok()) {
          std::printf("error: %s\n", s.ToString().c_str());
        }
      }
      session = std::move(service.CreateSession()).value();
      std::printf("now in session %llu\n",
                  static_cast<unsigned long long>(session));
      continue;
    }
    if (trimmed == ":async") {
      if (buffer.empty()) {
        std::printf("nothing buffered — enter a query first\n");
      } else {
        submit_buffered(/*async=*/true);
      }
      continue;
    }
    if (zv::StartsWith(trimmed, ":wait") || zv::StartsWith(trimmed, ":cancel")) {
      const bool is_cancel = zv::StartsWith(trimmed, ":cancel");
      const std::string arg = zv::Trim(trimmed.substr(is_cancel ? 7 : 5));
      char* end = nullptr;
      const long long parsed =
          arg.empty() ? -1 : std::strtoll(arg.c_str(), &end, 10);
      // Reject trailing garbage ("1x", "one") — atoll-style truncation
      // would silently act on query #0.
      if (arg.empty() || end == nullptr || *end != '\0' || parsed < 0 ||
          static_cast<size_t>(parsed) >= async_handles.size() ||
          !async_handles[static_cast<size_t>(parsed)].valid()) {
        std::printf("no such async query (0..%zu)\n",
                    async_handles.empty() ? 0 : async_handles.size() - 1);
        continue;
      }
      const size_t idx = static_cast<size_t>(parsed);
      if (is_cancel) {
        async_handles[idx].Cancel();
        std::printf("cancel requested; status: %s\n",
                    async_handles[idx].Wait().ToString().c_str());
      } else {
        WaitAndPrint(async_handles[idx], &last_trace);
      }
      continue;
    }
    if (zv::StartsWith(trimmed, ":trace")) {
      const std::string arg = zv::Trim(trimmed.substr(6));
      if (arg.empty()) {
        trace_on = !trace_on;
        std::printf("tracing %s — %s\n", trace_on ? "ON" : "OFF",
                    trace_on ? "queries now return a span tree"
                             : "queries run untraced");
      } else if (arg == "show") {
        if (last_trace == nullptr) {
          std::printf("no trace yet — run a query with tracing on\n");
        } else {
          std::printf("%s", zv::RenderTraceTree(last_trace->root()).c_str());
        }
      } else if (zv::StartsWith(arg, "chrome")) {
        const std::string path = zv::Trim(arg.substr(6));
        if (last_trace == nullptr) {
          std::printf("no trace yet — run a query with tracing on\n");
        } else if (path.empty()) {
          std::printf("usage: :trace chrome FILE\n");
        } else if (std::FILE* f = std::fopen(path.c_str(), "w")) {
          const std::string chrome = zv::ToChromeTrace(last_trace->root());
          std::fwrite(chrome.data(), 1, chrome.size(), f);
          std::fclose(f);
          std::printf("wrote %s — open chrome://tracing and load it\n",
                      path.c_str());
        } else {
          std::printf("cannot open %s for writing\n", path.c_str());
        }
      } else {
        std::printf("usage: :trace | :trace show | :trace chrome FILE\n");
      }
      continue;
    }
    if (trimmed == ":metrics") {
      std::printf("%s", service.metrics()->Snapshot().ToText().c_str());
      continue;
    }
    if (trimmed == ":slow") {
      const auto slow = service.SlowQueries();
      if (slow.empty()) {
        std::printf("no slow queries (threshold: %.0f ms; ZV_SLOW_QUERY_MS)\n",
                    service.slow_query_ms());
        continue;
      }
      std::printf("last %zu queries over %.0f ms (most recent first):\n",
                  slow.size(), service.slow_query_ms());
      for (const auto& q : slow) {
        std::printf("  %8.1f ms  %-10s %s  fetch %.1f ms, score %.1f ms%s\n",
                    q.total_ms, q.dataset.c_str(),
                    q.status.ok() ? "ok" : q.status.ToString().c_str(),
                    q.stats.fetch_ms, q.stats.score_ms,
                    q.trace != nullptr ? "  [traced]" : "");
        std::printf("      %s\n", OneLine(q.zql).c_str());
      }
      continue;
    }
    if (trimmed == ":stats") {
      const zv::server::ServiceStats st = service.stats();
      const uint64_t probes = st.cache_hits + st.cache_misses;
      std::printf(
          "queries: %llu submitted, %llu completed, %llu failed, %llu "
          "cancelled, %llu rejected\n",
          static_cast<unsigned long long>(st.submitted),
          static_cast<unsigned long long>(st.completed),
          static_cast<unsigned long long>(st.failed),
          static_cast<unsigned long long>(st.cancelled),
          static_cast<unsigned long long>(st.rejected));
      std::printf(
          "result cache: %llu/%llu hits (%.0f%%), %zu entries, %.1f KB; "
          "contexts reused within queries: %llu\n",
          static_cast<unsigned long long>(st.cache_hits),
          static_cast<unsigned long long>(probes),
          probes > 0 ? 100.0 * static_cast<double>(st.cache_hits) /
                           static_cast<double>(probes)
                     : 0.0,
          st.result_cache_entries,
          static_cast<double>(st.result_cache_bytes) / 1024.0,
          static_cast<unsigned long long>(st.contexts_reused));
      std::printf("sessions: %zu active; %zu in flight, %zu queued\n",
                  st.sessions, st.in_flight, st.queued);
      continue;
    }
    if (trimmed == ":reload") {
      auto fresh = LoadDataset(dataset);
      if (auto s = service.ReplaceDataset(fresh); !s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
        continue;
      }
      table = std::move(fresh);
      std::printf("dataset '%s' reloaded — epoch is now %llu, cached "
                  "results invalidated\n",
                  table_name.c_str(),
                  static_cast<unsigned long long>(
                      std::move(service.DatasetEpoch(table_name)).value()));
      continue;
    }
    if (!trimmed.empty()) {
      buffer += line;
      buffer += '\n';
      continue;
    }
    if (buffer.empty()) continue;
    submit_buffered(/*async=*/false);
  }
  std::printf("\nbye.\n");
  return 0;
}
