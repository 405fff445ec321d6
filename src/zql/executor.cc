#include "zql/executor.h"

#include <chrono>

#include "common/cancel.h"
#include "common/clock.h"
#include "tasks/simd.h"
#include "zql/operators.h"
#include "zql/parser.h"
#include "zql/plan.h"
#include "zql/scheduler.h"

namespace zv::zql {

const char* OptLevelToString(OptLevel level) {
  switch (level) {
    case OptLevel::kNoOpt:
      return "NoOpt";
    case OptLevel::kIntraLine:
      return "Intra-Line";
    case OptLevel::kIntraTask:
      return "Intra-Task";
    case OptLevel::kInterTask:
      return "Inter-Task";
  }
  return "?";
}

// ===========================================================================
// Public API
// ===========================================================================
//
// Execution = lower the query into a physical plan (zql/plan.h), then walk
// it with the scheduler (zql/scheduler.h) over the operator layer
// (zql/operators.h), step by step on the calling thread.

ZqlExecutor::ZqlExecutor(Database* db, std::string table, ZqlOptions options)
    : db_(db), table_name_(std::move(table)), options_(std::move(options)) {}

void ZqlExecutor::SetUserInput(const std::string& name, Visualization viz) {
  user_inputs_[name] = std::move(viz);
}

Result<ZqlResult> ZqlExecutor::Execute(const ZqlQuery& query) {
  const auto t0 = SteadyNow();
  const uint64_t q0 = db_->queries_executed();
  const uint64_t r0 = db_->requests_made();
  const uint64_t c0 = db_->container_conversions();

  exec::ExecState state;
  ZV_RETURN_NOT_OK(state.Init(db_, table_name_, options_, user_inputs_));
  // The "execute" span covers plan building through the last routed fetch;
  // operator spans nest under it. Ends on every exit path (RAII), so a
  // failed query still carries the spans up to its failure point.
  TraceScope exec_scope(options_.trace, options_.trace_parent, "execute");
  state.trace = options_.trace;
  state.trace_span = exec_scope.span();
  ZV_ASSIGN_OR_RETURN(PhysicalPlan plan, BuildPhysicalPlan(query, options_));
  exec_scope.SetStr("optimization", OptLevelToString(plan.optimization));
  exec_scope.SetInt("stages", plan.num_stages);
  ZV_RETURN_NOT_OK(exec::RunPlan(plan, query, &state));

  // A cancelled token must never yield an OK result: void ParallelFor
  // consumers (k-means in R tasks, outlier scans) stop early when
  // cancelled and would otherwise hand back partially-scored data.
  ZV_RETURN_NOT_OK(CheckCancelled());

  ZqlResult result;
  for (const auto& row : query.rows) {
    if (!row.name.output) continue;
    auto it = state.comps.find(row.name.name);
    if (it == state.comps.end() || !it->second->ready) {
      return Status::Internal("output component never materialized: " +
                              row.name.name);
    }
    result.outputs.push_back({row.name.name, it->second->visuals});
  }
  result.stats = state.stats;
  result.stats.sql_queries = db_->queries_executed() - q0;
  result.stats.sql_requests = db_->requests_made() - r0;
  result.stats.container_conversions = db_->container_conversions() - c0;
  result.stats.simd_width = simd::ActiveWidth();
  result.stats.total_ms = MsSince(t0);
  return result;
}

Result<ZqlResult> ZqlExecutor::ExecuteText(const std::string& text) {
  ZV_ASSIGN_OR_RETURN(ZqlQuery query, ParseQuery(text));
  return Execute(query);
}

}  // namespace zv::zql
