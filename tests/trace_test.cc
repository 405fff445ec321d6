/// \file trace_test.cc
/// \brief The tracing contract: a traced query's operator spans match its
/// physical plan step for step; results are byte-identical with tracing on
/// vs off, and to testing::ReferenceDatabase, across the full schedule
/// matrix (staged/pipelined x {one chunk, small chunks} x both backends);
/// every flush opens a SharedScanPass span; the serving layer's span tree
/// carries queue_wait / cache_lookup / execute in the right shape
/// (including the cache-hit fast path); the slow-query ring caps at
/// kSlowRingCapacity most-recent-first; the wire `metrics` request kind
/// and trace response payloads round-trip; and the Chrome trace_event
/// export parses. Runs
/// under the tsan/asan ctest gates (tools/run_tsan.sh, tools/run_asan.sh):
/// spans are opened concurrently from the coordinator, the pipelined fetch
/// thread, and the serving workers, so the trace mutex race-checks with
/// real traffic.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/protocol.h"
#include "api/service.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/trace.h"
#include "engine/roaring_db.h"
#include "engine/scan_db.h"
#include "server/query_service.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "zql/executor.h"
#include "zql/parser.h"
#include "zql/plan.h"

namespace zv {
namespace {

using server::QueryHandle;
using server::QueryService;
using server::ServiceOptions;
using server::SessionId;

/// Canonical byte rendering of a result (identities + exact double bits),
/// so "byte-identical with tracing on" means what it says.
std::string Canon(const zql::ZqlResult& r) {
  std::string out;
  auto hex = [&](double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    out += StrFormat("%016llx,", static_cast<unsigned long long>(bits));
  };
  for (const auto& o : r.outputs) {
    out += o.name;
    out += '[';
    for (const auto& v : o.visuals) {
      out += v.Label();
      out += '(';
      for (const auto& x : v.xs) {
        out += x.ToString();
        out += ',';
      }
      for (const auto& s : v.series) {
        out += s.name;
        out += ':';
        for (double y : s.ys) hex(y);
      }
      out += ')';
    }
    out += ']';
  }
  return out;
}

/// The query shapes the matrix runs: a multi-row task pipeline and a
/// no-WHERE full-table aggregation (the bitmap fast path on Roaring).
const char* const kPipelineQuery =
    "f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | "
    "bar.(y=agg('sum')) | v2 <- argany_v1[t > 0] T(f1)\n"
    "*f2 | 'year' | 'profit' | v3 <- v2.range | | bar.(y=agg('sum')) |";
const char* const kNoWhereQuery =
    "*f1 | 'year' | 'sales' | v1 <- 'location'.* | | bar.(y=agg('sum')) |";

std::shared_ptr<Table> MediumSales() {
  static std::shared_ptr<Table> table = [] {
    SalesDataOptions opts;
    opts.num_rows = 3000;
    opts.num_products = 10;
    return MakeSalesTable(opts);
  }();
  return table;
}

Result<zql::ZqlResult> RunZql(Database* db, const char* zql, bool pipelined,
                              Trace* trace) {
  zql::ZqlOptions opts;
  opts.pipelined_execution = pipelined;
  opts.trace = trace;
  zql::ZqlExecutor exec(db, "sales", opts);
  return exec.ExecuteText(zql);
}

/// Counts spans named `name` anywhere in the (sub)tree.
size_t CountSpans(const TraceSpan& span, const std::string& name) {
  size_t n = span.name == name ? 1 : 0;
  for (const auto& child : span.children) n += CountSpans(*child, name);
  return n;
}

const char* StepSpanName(zql::PlanStep::Kind kind) {
  switch (kind) {
    case zql::PlanStep::Kind::kFetch: return "FetchOp";
    case zql::PlanStep::Kind::kFlush: return "Flush";
    case zql::PlanStep::Kind::kMaterialize: return "MaterializeOp";
    case zql::PlanStep::Kind::kScore: return "ScoreOp";
    case zql::PlanStep::Kind::kReduce: return "ReduceOp";
    case zql::PlanStep::Kind::kOutput: return "OutputOp";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Executor-level span tree
// ---------------------------------------------------------------------------

/// Staged execution: the "execute" span's children are exactly the plan's
/// steps, in order (a Flush step that had nothing buffered opens no span,
/// so Flush entries are allowed to be absent).
TEST(TraceGolden, StagedOperatorSpansMatchPlan) {
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(zv::testing::MakeTinySales()));
  for (const char* zql : {kPipelineQuery, kNoWhereQuery}) {
    Trace trace;
    ZV_ASSERT_OK_AND_ASSIGN(
        zql::ZqlResult result,
        RunZql(&db, zql, /*pipelined=*/false, &trace));
    (void)result;

    const TraceSpan* exec = trace.root()->FindChild("execute");
    ASSERT_NE(exec, nullptr) << zql;
    EXPECT_GT(exec->duration_ms, 0.0);

    ZV_ASSERT_OK_AND_ASSIGN(zql::ZqlQuery query, zql::ParseQuery(zql));
    zql::ZqlOptions plan_opts;
    plan_opts.pipelined_execution = false;
    ZV_ASSERT_OK_AND_ASSIGN(zql::PhysicalPlan plan,
                            zql::BuildPhysicalPlan(query, plan_opts));

    // Greedy in-order match: every non-Flush step must produce a span in
    // plan order; Flush spans are optional per step but never reordered.
    size_t child = 0;
    for (const zql::PlanStep& step : plan.steps) {
      const char* expect = StepSpanName(step.kind);
      if (step.kind == zql::PlanStep::Kind::kFlush) {
        if (child < exec->children.size() &&
            exec->children[child]->name == expect) {
          ++child;
        }
        continue;
      }
      ASSERT_LT(child, exec->children.size())
          << zql << ": plan has more steps than spans";
      EXPECT_EQ(exec->children[child]->name, expect)
          << zql << " child " << child;
      ++child;
    }
    EXPECT_EQ(child, exec->children.size())
        << zql << ": trace has spans the plan does not";
  }
}

/// Pipelined execution traces its batch scans on the fetch thread
/// ("FetchBatch", track 1); the coordinator's operator spans still appear
/// in plan order around them.
TEST(TraceGolden, PipelinedFetchBatchOnTrack1) {
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(zv::testing::MakeTinySales()));
  Trace trace;
  ZV_ASSERT_OK_AND_ASSIGN(
      zql::ZqlResult result,
      RunZql(&db, kPipelineQuery, /*pipelined=*/true, &trace));
  (void)result;

  const TraceSpan* exec = trace.root()->FindChild("execute");
  ASSERT_NE(exec, nullptr);
  size_t fetch_batches = 0;
  std::vector<std::string> coordinator;
  for (const auto& child : exec->children) {
    if (child->name == "FetchBatch") {
      EXPECT_EQ(child->track, 1);
      ++fetch_batches;
    } else {
      EXPECT_EQ(child->track, 0) << child->name;
      coordinator.push_back(child->name);
    }
  }
  EXPECT_GE(fetch_batches, 1u);
  // The coordinator walked FetchOp ... OutputOp; the final span closes
  // the plan.
  ASSERT_FALSE(coordinator.empty());
  EXPECT_EQ(coordinator.front(), "FetchOp");
  EXPECT_EQ(coordinator.back(), "OutputOp");
}

/// Every flush — here a direct one, through the backend's own queue —
/// opens one SharedScanPass under its Flush span, annotated with the
/// chunk fan-out (chunks × statements) and the pass's wall time.
TEST(TraceGolden, FlushOpensSharedScanPass) {
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(MediumSales()));
  ZV_ASSERT_OK(db.RebuildChunkMap("sales", 800));  // 3000 rows -> 4 chunks
  Trace trace;
  ZV_ASSERT_OK_AND_ASSIGN(
      zql::ZqlResult result,
      RunZql(&db, kNoWhereQuery, /*pipelined=*/false, &trace));
  EXPECT_EQ(CountSpans(*trace.root(), "SharedScanPass"), 1u);
  const TraceSpan* exec = trace.root()->FindChild("execute");
  ASSERT_NE(exec, nullptr);
  const TraceSpan* flush = exec->FindChild("Flush");
  ASSERT_NE(flush, nullptr);
  const TraceSpan* pass = flush->FindChild("SharedScanPass");
  ASSERT_NE(pass, nullptr);
  bool saw_chunks = false, saw_pass_ms = false;
  for (const auto& [key, value] : pass->attrs) {
    if (key == "chunks") {
      saw_chunks = true;
      EXPECT_EQ(std::get<int64_t>(value),
                static_cast<int64_t>(result.stats.chunks_scanned));
    }
    if (key == "pass_ms") saw_pass_ms = true;
  }
  EXPECT_TRUE(saw_chunks);
  EXPECT_TRUE(saw_pass_ms);
  EXPECT_EQ(result.stats.chunks_scanned, 4 * result.stats.sql_queries);
}

// ---------------------------------------------------------------------------
// Byte-identity: tracing is a pure observer
// ---------------------------------------------------------------------------

template <typename DbType>
void RunTraceIdentityMatrix() {
  zv::testing::ReferenceDatabase reference;
  ZV_ASSERT_OK(reference.RegisterTable(MediumSales()));
  DbType db;
  ZV_ASSERT_OK(db.RegisterTable(MediumSales()));
  for (const char* zql : {kPipelineQuery, kNoWhereQuery}) {
    SetParallelThreads(1);
    Result<zql::ZqlResult> baseline =
        RunZql(&reference, zql, /*pipelined=*/false, nullptr);
    SetParallelThreads(0);
    ZV_ASSERT_OK(baseline.status());
    const std::string expect = Canon(*baseline);
    // 0 = the default chunk size (one chunk); 800-row chunks make 4.
    for (size_t chunk_rows : {size_t{0}, size_t{800}}) {
      ZV_ASSERT_OK(db.RebuildChunkMap("sales", chunk_rows));
      for (bool pipelined : {false, true}) {
        for (bool traced : {false, true}) {
          Trace trace;
          ZV_ASSERT_OK_AND_ASSIGN(
              zql::ZqlResult got,
              RunZql(&db, zql, pipelined, traced ? &trace : nullptr));
          EXPECT_EQ(Canon(got), expect)
              << db.name() << " pipelined=" << pipelined
              << " chunk_rows=" << chunk_rows << " traced=" << traced;
        }
      }
    }
  }
}

TEST(TraceIdentity, ScanBackend) { RunTraceIdentityMatrix<ScanDatabase>(); }
TEST(TraceIdentity, RoaringBackend) {
  RunTraceIdentityMatrix<RoaringDatabase>();
}

// ---------------------------------------------------------------------------
// Service-level trace shape
// ---------------------------------------------------------------------------

TEST(ServiceTrace, SpanShapeAndAttrs) {
  MetricsRegistry registry;
  ServiceOptions opts;
  opts.metrics = &registry;
  opts.trace_all = 0;
  QueryService service(opts);
  ZV_ASSERT_OK(service.RegisterDataset(zv::testing::MakeTinySales()));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());

  ZV_ASSERT_OK_AND_ASSIGN(
      QueryHandle handle,
      service.Submit(session, "sales", kNoWhereQuery, {}, /*trace=*/true));
  ZV_ASSERT_OK(handle.Wait());

  std::shared_ptr<const Trace> trace = handle.trace();
  ASSERT_NE(trace, nullptr);
  const TraceSpan& root = trace->root();
  EXPECT_EQ(root.name, "query");
  EXPECT_GT(root.duration_ms, 0.0);

  bool saw_dataset = false, saw_fingerprint = false;
  for (const auto& [key, value] : root.attrs) {
    if (key == "dataset") {
      saw_dataset = true;
      EXPECT_EQ(std::get<std::string>(value), "sales");
    }
    if (key == "fingerprint") {
      saw_fingerprint = true;
      EXPECT_EQ(std::get<std::string>(value), handle.fingerprint());
    }
  }
  EXPECT_TRUE(saw_dataset);
  EXPECT_TRUE(saw_fingerprint);

  // The admission wait is recorded from the submission instant (epoch).
  const TraceSpan* wait = root.FindChild("queue_wait");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->start_ms, 0.0);

  EXPECT_GE(CountSpans(root, "cache_lookup"), 1u);
  const TraceSpan* exec = root.FindChild("execute");
  ASSERT_NE(exec, nullptr);
  EXPECT_NE(exec->FindChild("OutputOp"), nullptr);
  // The service routes row selection through the shared-scan queue.
  EXPECT_GE(CountSpans(root, "SharedScanPass"), 1u);
}

TEST(ServiceTrace, CacheHitFastPathTrace) {
  MetricsRegistry registry;
  ServiceOptions opts;
  opts.metrics = &registry;
  QueryService service(opts);
  ZV_ASSERT_OK(service.RegisterDataset(zv::testing::MakeTinySales()));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());

  ZV_ASSERT_OK_AND_ASSIGN(
      QueryHandle first,
      service.Submit(session, "sales", kNoWhereQuery, {}, /*trace=*/true));
  ZV_ASSERT_OK(first.Wait());
  ZV_ASSERT_OK_AND_ASSIGN(
      QueryHandle second,
      service.Submit(session, "sales", kNoWhereQuery, {}, /*trace=*/true));
  ZV_ASSERT_OK(second.Wait());
  EXPECT_EQ(second.stats().cache_hits, 1u);

  std::shared_ptr<const Trace> trace = second.trace();
  ASSERT_NE(trace, nullptr);
  const TraceSpan* lookup = trace->root().FindChild("cache_lookup");
  ASSERT_NE(lookup, nullptr);
  bool hit = false;
  for (const auto& [key, value] : lookup->attrs) {
    if (key == "hit") hit = std::get<bool>(value);
  }
  EXPECT_TRUE(hit);
  // A cache hit never executes.
  EXPECT_EQ(trace->root().FindChild("execute"), nullptr);
}

TEST(ServiceTrace, UntracedUnlessAskedOrTraceAll) {
  MetricsRegistry registry;
  ServiceOptions opts;
  opts.metrics = &registry;
  opts.trace_all = 0;
  {
    QueryService service(opts);
    ZV_ASSERT_OK(service.RegisterDataset(zv::testing::MakeTinySales()));
    ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());
    ZV_ASSERT_OK_AND_ASSIGN(QueryHandle handle,
                            service.Submit(session, "sales", kNoWhereQuery));
    ZV_ASSERT_OK(handle.Wait());
    EXPECT_EQ(handle.trace(), nullptr);
  }
  opts.trace_all = 1;
  {
    QueryService service(opts);
    ZV_ASSERT_OK(service.RegisterDataset(zv::testing::MakeTinySales()));
    ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());
    ZV_ASSERT_OK_AND_ASSIGN(QueryHandle handle,
                            service.Submit(session, "sales", kNoWhereQuery));
    ZV_ASSERT_OK(handle.Wait());
    EXPECT_NE(handle.trace(), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Slow-query ring + service metrics
// ---------------------------------------------------------------------------

TEST(ServiceObservability, SlowRingCapsMostRecentFirst) {
  MetricsRegistry registry;
  ServiceOptions opts;
  opts.metrics = &registry;
  opts.slow_query_ms = 0.0;  // everything is "slow"
  QueryService service(opts);
  ZV_ASSERT_OK(service.RegisterDataset(zv::testing::MakeTinySales()));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());

  const size_t total = QueryService::kSlowRingCapacity + 8;
  std::string last_fingerprint;
  for (size_t i = 0; i < total; ++i) {
    // Distinct queries (the x attribute varies), so none are cache hits.
    const std::string zql =
        i % 2 == 0
            ? StrFormat("*f1 | 'year' | 'sales' | v1 <- 'location'.* | "
                        "product='product%zu' | bar.(y=agg('sum')) |",
                        i % 10)
            : StrFormat("*f1 | 'product' | 'profit' | v1 <- 'location'.* | "
                        "year=%zu | bar.(y=agg('sum')) |",
                        2000 + i);
    ZV_ASSERT_OK_AND_ASSIGN(QueryHandle handle,
                            service.Submit(session, "sales", zql));
    ZV_ASSERT_OK(handle.Wait());
    last_fingerprint = handle.fingerprint();
  }

  EXPECT_EQ(service.stats().slow_queries, total);
  std::vector<QueryService::SlowQuery> slow = service.SlowQueries();
  ASSERT_EQ(slow.size(), QueryService::kSlowRingCapacity);
  EXPECT_EQ(slow.front().fingerprint, last_fingerprint);
  for (const auto& entry : slow) {
    EXPECT_EQ(entry.dataset, "sales");
    EXPECT_TRUE(entry.status.ok());
  }
}

TEST(ServiceObservability, RegistryRecordsCountersAndLatency) {
  MetricsRegistry registry;
  ServiceOptions opts;
  opts.metrics = &registry;
  QueryService service(opts);
  ZV_ASSERT_OK(service.RegisterDataset(zv::testing::MakeTinySales()));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());

  for (int i = 0; i < 3; ++i) {
    ZV_ASSERT_OK_AND_ASSIGN(QueryHandle handle,
                            service.Submit(session, "sales", kNoWhereQuery));
    ZV_ASSERT_OK(handle.Wait());
  }

  EXPECT_EQ(registry.GetCounter("zv_queries_submitted")->value(), 3u);
  EXPECT_EQ(registry.GetCounter("zv_queries_completed")->value(), 3u);
  EXPECT_EQ(registry.GetCounter("zv_result_cache_hits")->value(), 2u);
  EXPECT_EQ(registry.GetCounter("zv_result_cache_misses")->value(), 1u);
  EXPECT_EQ(registry.GetHistogram("zv_query_latency_ms")->snapshot().count,
            3u);
  // The cold query executed, so the stage histograms saw it.
  EXPECT_GE(registry.GetHistogram("zv_fetch_stage_ms")->snapshot().count, 1u);
  EXPECT_GE(registry.GetHistogram("zv_score_stage_ms")->snapshot().count, 1u);
}

// ---------------------------------------------------------------------------
// Wire payloads
// ---------------------------------------------------------------------------

TEST(Wire, TracedResponseCarriesSpanTreeAndRoundTrips) {
  MetricsRegistry registry;
  ServiceOptions opts;
  opts.metrics = &registry;
  QueryService service(opts);
  ZV_ASSERT_OK(service.RegisterDataset(zv::testing::MakeTinySales()));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());

  ZV_ASSERT_OK_AND_ASSIGN(api::QueryRequest request,
                          api::QueryRequest::FromText("sales", kNoWhereQuery));
  request.trace = true;
  // Request codec stability with the trace flag set.
  const Json encoded_req = api::EncodeRequest(request);
  ZV_ASSERT_OK_AND_ASSIGN(api::QueryRequest decoded_req,
                          api::DecodeRequest(encoded_req));
  EXPECT_TRUE(decoded_req.trace);
  EXPECT_EQ(api::EncodeRequest(decoded_req).Dump(), encoded_req.Dump());

  api::QueryResponse response = api::ExecuteRequest(service, session, request);
  ASSERT_TRUE(response.ok()) << response.error.message;
  ASSERT_FALSE(response.trace.is_null());
  const Json* name = response.trace.Find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->as_string(), "query");

  // Response codec stability with a trace payload attached.
  const Json encoded = api::EncodeResponse(response);
  ZV_ASSERT_OK_AND_ASSIGN(api::QueryResponse decoded,
                          api::DecodeResponse(encoded));
  EXPECT_EQ(api::EncodeResponse(decoded).Dump(), encoded.Dump());
  EXPECT_FALSE(decoded.trace.is_null());
}

TEST(Wire, MetricsRequestKindSnapshotsRegistry) {
  MetricsRegistry registry;
  ServiceOptions opts;
  opts.metrics = &registry;
  opts.slow_query_ms = 0.0;
  QueryService service(opts);
  ZV_ASSERT_OK(service.RegisterDataset(zv::testing::MakeTinySales()));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());
  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle handle,
                          service.Submit(session, "sales", kNoWhereQuery));
  ZV_ASSERT_OK(handle.Wait());

  // Process-scoped: no dataset, no query.
  api::QueryRequest request;
  request.metrics = true;
  const Json encoded_req = api::EncodeRequest(request);
  ZV_ASSERT_OK_AND_ASSIGN(api::QueryRequest decoded_req,
                          api::DecodeRequest(encoded_req));
  EXPECT_TRUE(decoded_req.metrics);
  EXPECT_EQ(api::EncodeRequest(decoded_req).Dump(), encoded_req.Dump());

  api::QueryResponse response = api::ExecuteRequest(service, session, request);
  ASSERT_TRUE(response.ok()) << response.error.message;
  ASSERT_FALSE(response.metrics.is_null());
  ASSERT_NE(response.metrics.Find("counters"), nullptr);
  ASSERT_NE(response.metrics.Find("histograms"), nullptr);
  const Json* slow = response.metrics.Find("slow_queries");
  ASSERT_NE(slow, nullptr);
  ASSERT_TRUE(slow->is_array());
  EXPECT_GE(slow->size(), 1u);

  const Json* counters = response.metrics.Find("counters");
  const Json* submitted = counters->Find("zv_queries_submitted");
  ASSERT_NE(submitted, nullptr);
  EXPECT_EQ(submitted->as_int(), 1);

  // An unknown session is still rejected, matching execution semantics.
  api::QueryResponse bad =
      api::ExecuteRequest(service, SessionId{424242}, request);
  EXPECT_FALSE(bad.ok());
}

// ---------------------------------------------------------------------------
// Chrome export
// ---------------------------------------------------------------------------

TEST(ChromeExport, ParsesWithCompleteEvents) {
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(zv::testing::MakeTinySales()));
  Trace trace;
  ZV_ASSERT_OK_AND_ASSIGN(
      zql::ZqlResult result,
      RunZql(&db, kPipelineQuery, /*pipelined=*/false, &trace));
  (void)result;

  const std::string chrome = ToChromeTrace(*trace.root());
  ZV_ASSERT_OK_AND_ASSIGN(Json parsed, Json::Parse(chrome));
  const Json* events = parsed.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GE(events->size(), 2u);  // root + at least the execute span
  for (const Json& event : events->array()) {
    const Json* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->as_string(), "X");
    EXPECT_NE(event.Find("name"), nullptr);
    EXPECT_NE(event.Find("ts"), nullptr);
    EXPECT_NE(event.Find("dur"), nullptr);
    EXPECT_NE(event.Find("tid"), nullptr);
  }
}

}  // namespace
}  // namespace zv
