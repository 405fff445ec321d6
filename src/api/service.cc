#include "api/service.h"

#include "common/metrics.h"
#include "common/trace.h"
#include "zql/plan.h"

namespace zv::api {

namespace {

/// Metrics request kind: snapshot the service's registry and slow-query
/// log without admitting or executing anything. The session is still
/// validated (and touched), matching EXPLAIN's lifecycle semantics.
QueryResponse MetricsRequest(server::QueryService& service,
                             server::SessionId session,
                             const QueryRequest& request, int version) {
  QueryResponse response;
  response.version = version;
  response.client_tag = request.client_tag;
  if (Status touched = service.TouchSession(session); !touched.ok()) {
    response.error = ErrorFromStatus(touched);
    return response;
  }
  Json payload = service.metrics()->Snapshot().ToJson();
  Json slow = Json::MakeArray();
  for (const auto& q : service.SlowQueries()) {
    Json one = Json::MakeObject();
    one.Set("dataset", Json::Str(q.dataset));
    one.Set("zql", Json::Str(q.zql));
    one.Set("fingerprint", Json::Str(q.fingerprint));
    one.Set("status", Json::Str(WireErrorName(q.status.code())));
    one.Set("total_ms", Json::Double(q.total_ms));
    one.Set("fetch_ms", Json::Double(q.stats.fetch_ms));
    one.Set("score_ms", Json::Double(q.stats.score_ms));
    slow.Append(std::move(one));
  }
  payload.Set("slow_queries", std::move(slow));
  response.metrics = std::move(payload);
  return response;
}

/// EXPLAIN path: render the physical plan the query would execute under —
/// the service's base options with the request's optimization override —
/// without admitting or executing anything (plan building is pure). The
/// session and dataset are still validated (and the session touched), so
/// EXPLAIN traffic observes the same lifecycle semantics as execution.
QueryResponse ExplainRequest(server::QueryService& service,
                             server::SessionId session,
                             const QueryRequest& request, int version) {
  QueryResponse response;
  response.version = version;
  response.client_tag = request.client_tag;
  if (Status touched = service.TouchSession(session); !touched.ok()) {
    response.error = ErrorFromStatus(touched);
    return response;
  }
  if (Result<uint64_t> dataset = service.DatasetEpoch(request.dataset);
      !dataset.ok()) {
    response.error = ErrorFromStatus(dataset.status());
    return response;
  }
  zql::ZqlOptions options = service.zql_options();
  if (request.optimization.has_value()) {
    options.optimization = *request.optimization;
  }
  Result<zql::PhysicalPlan> plan =
      zql::BuildPhysicalPlan(request.query, options);
  if (!plan.ok()) {
    response.error = ErrorFromStatus(plan.status());
    return response;
  }
  // Unlike plan building, the FetchOp fan-out annotation is data-dependent
  // (chunks = the dataset's ChunkMap size) — the serving layer is the one
  // EXPLAIN caller with a backend to ask.
  size_t table_chunks = 0;
  if (Result<std::shared_ptr<Database>> db =
          service.DatasetDatabase(request.dataset);
      db.ok()) {
    if (Result<ChunkMap> map = (*db)->GetChunkMap(request.dataset); map.ok()) {
      table_chunks = map->num_chunks();
    }
  }
  response.plan = plan->Render(request.query, table_chunks);
  return response;
}

}  // namespace

QueryResponse ExecuteRequest(server::QueryService& service,
                             server::SessionId session,
                             const QueryRequest& request) {
  Result<int> version = NegotiateVersion(request.version);
  if (!version.ok()) {
    return BuildErrorResponse(version.status(), request);
  }
  if (request.metrics) {
    return MetricsRequest(service, session, request, *version);
  }
  if (request.explain) {
    return ExplainRequest(service, session, request, *version);
  }
  Result<server::QueryHandle> submitted = service.Submit(
      session, request.dataset, request.query, request.optimization,
      request.trace);
  if (!submitted.ok()) {
    QueryResponse response = BuildErrorResponse(submitted.status(), request);
    response.version = *version;
    return response;
  }
  server::QueryHandle handle = std::move(submitted).value();
  const Status status = handle.Wait();
  if (!status.ok()) {
    QueryResponse response = BuildErrorResponse(status, request);
    response.version = *version;
    response.fingerprint = handle.fingerprint();
    // A failed traced query still carries its spans up to the failure
    // point — exactly what a latency investigation wants.
    if (std::shared_ptr<const Trace> trace = handle.trace()) {
      response.trace = EncodeTraceSpan(trace->root());
    }
    return response;
  }
  QueryResponse response =
      BuildResponse(*handle.result(), request, handle.fingerprint());
  response.version = *version;
  // The serving layer's verdict (hit/miss, lookup latency) supersedes the
  // executing run's embedded stats.
  response.stats = handle.stats();
  if (std::shared_ptr<const Trace> trace = handle.trace()) {
    response.trace = EncodeTraceSpan(trace->root());
  }
  return response;
}

std::string HandleWireRequest(server::QueryService& service,
                              server::SessionId session,
                              const std::string& request_json, int indent) {
  Result<Json> parsed = Json::Parse(request_json);
  if (!parsed.ok()) {
    return EncodeResponse(BuildErrorResponse(parsed.status(), QueryRequest{}))
        .Dump(indent);
  }
  zql::ParseDiagnostic diag;
  Result<QueryRequest> request = DecodeRequest(*parsed, &diag);
  if (!request.ok()) {
    return EncodeResponse(
               BuildErrorResponse(request.status(), QueryRequest{}, &diag))
        .Dump(indent);
  }
  return EncodeResponse(ExecuteRequest(service, session, *request))
      .Dump(indent);
}

}  // namespace zv::api
