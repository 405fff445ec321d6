#include "zql/scheduler.h"

#include <utility>

#include "common/cancel.h"
#include "common/clock.h"
#include "engine/shared_scan.h"

namespace zv::zql::exec {

namespace {

/// Tags an operator span with its plan coordinates, mirroring what the
/// EXPLAIN rendering shows for the same step — so a traced query's
/// operator spans line up with its plan (tests/trace_test.cc matches them
/// step for step).
void AnnotateStep(TraceScope& scope, const PlanStep& step,
                  const ZqlQuery& query) {
  if (scope.span() == nullptr) return;
  scope.SetInt("stage", step.stage);
  if (step.row >= 0) {
    scope.SetInt("row", step.row);
    scope.SetStr("name", query.rows[static_cast<size_t>(step.row)].name.name);
  }
  if (step.decl >= 0) scope.SetInt("decl", step.decl);
}

/// Executes and routes one flush's statements, one round trip
/// (AccountRequest plus one SelectRows call) at a time. Stops at the first
/// failing statement: later statements are never scanned.
Status Flush(std::vector<PendingFetch> pending, BatchScanQueue* queue,
             ExecState* st) {
  if (st->opts->sql_trace != nullptr) {
    for (const PendingFetch& pf : pending) {
      st->opts->sql_trace->push_back(pf.stmt.ToSql());
    }
  }
  const bool batched = st->opts->optimization != OptLevel::kNoOpt;
  TraceScope flush_span(st->trace, st->trace_span, "Flush");
  flush_span.SetInt("statements", static_cast<int64_t>(pending.size()));
  flush_span.SetBool("batched", batched);
  ZqlStats& stats = st->stats;
  const auto t0 = SteadyNow();
  Status status = Status::OK();
  // One round trip is one SelectRows call: the whole batch, or — NoOpt, a
  // naive compiler's one query per visualization — one statement.
  const size_t per_trip = batched ? pending.size() : 1;
  for (size_t first = 0; first < pending.size() && status.ok();
       first += per_trip) {
    std::vector<const sql::SelectStatement*> trip;
    for (size_t i = first; i < first + per_trip; ++i) {
      trip.push_back(&pending[i].stmt);
    }
    const auto ts = SteadyNow();
    st->db->AccountRequest(trip.size());
    BatchScanQueue::Selection sel;
    {
      // The group-commit span covers the whole SelectRows stay — window
      // hold, queueing, and the covering pass — while pass_ms is the
      // pass's own wall time; the difference is time spent waiting to be
      // grouped.
      TraceScope pass_span(st->trace, flush_span.span(), "SharedScanPass");
      sel = queue->SelectRows(st->db, st->table_name, trip);
      pass_span.SetInt("statements", static_cast<int64_t>(trip.size()));
      pass_span.SetBool("shared", sel.shared);
      pass_span.SetInt("chunks", static_cast<int64_t>(sel.chunks_scanned));
      pass_span.SetDouble("pass_ms", sel.scan_ms);
    }
    stats.fetch_ms += MsSince(ts);
    stats.chunks_scanned += sel.chunks_scanned;
    stats.shard_ms += sel.job_ms;
    stats.batched_scans += trip.size();
    if (sel.shared) stats.scans_shared += trip.size();
    status = sel.status;
    for (size_t i = 0; i < trip.size() && status.ok(); ++i) {
      // The pass selected the rows, the table-size-pure blocked runner
      // aggregates them — so the bytes can not depend on who shared the
      // pass or how many chunks it fanned over. Each statement's lists
      // are released as soon as they are aggregated.
      const auto tf = SteadyNow();
      Result<ResultSet> rs = st->db->FinishChunkScan(*trip[i], sel.rows[i]);
      sel.rows[i].clear();
      stats.fetch_ms += MsSince(tf);
      status = rs.ok() ? RouteFetch(pending[first + i], rs.value(), st)
                       : rs.status();
    }
  }
  stats.exec_ms += MsSince(t0);
  return status;
}

}  // namespace

Status RunPlan(const PhysicalPlan& plan, const ZqlQuery& query,
               ExecState* st) {
  BatchScanQueue* const queue = st->opts->batch_scans != nullptr
                                    ? st->opts->batch_scans
                                    : st->db->scan_queue();
  // Planned statements not yet flushed (the current batch).
  std::vector<PendingFetch> buffer;
  ScoreResult pending_score;
  for (const PlanStep& step : plan.steps) {
    ZV_RETURN_NOT_OK(CheckCancelled());
    switch (step.kind) {
      case PlanStep::Kind::kFetch: {
        const ZqlRow& row = query.rows[static_cast<size_t>(step.row)];
        TraceScope span(st->trace, st->trace_span, "FetchOp");
        AnnotateStep(span, step, query);
        ZV_RETURN_NOT_OK(PlanRowFetches(row, st, &buffer));
        break;
      }
      case PlanStep::Kind::kFlush:
        if (!buffer.empty()) {
          ZV_RETURN_NOT_OK(Flush(std::exchange(buffer, {}), queue, st));
        }
        break;
      case PlanStep::Kind::kMaterialize: {
        // A fetched row's flush already routed it; a user-input or derived
        // row is assembled here from components that are final.
        const ZqlRow& row = query.rows[static_cast<size_t>(step.row)];
        TraceScope span(st->trace, st->trace_span, "MaterializeOp");
        AnnotateStep(span, step, query);
        if (IsLocalRow(row)) ZV_RETURN_NOT_OK(MaterializeLocal(row, st));
        MarkReady(row, st);
        break;
      }
      case PlanStep::Kind::kScore: {
        const ZqlRow& row = query.rows[static_cast<size_t>(step.row)];
        const ProcessDecl& decl =
            row.processes[static_cast<size_t>(step.decl)];
        TraceScope span(st->trace, st->trace_span, "ScoreOp");
        AnnotateStep(span, step, query);
        const auto t0 = SteadyNow();
        pending_score = ScoreResult();
        const Status scored = ScoreProcess(decl, st, &pending_score);
        st->stats.compute_ms += MsSince(t0);
        span.SetInt("scores",
                    static_cast<int64_t>(pending_score.scores.size()));
        ZV_RETURN_NOT_OK(scored);
        break;
      }
      case PlanStep::Kind::kReduce: {
        const ZqlRow& row = query.rows[static_cast<size_t>(step.row)];
        const ProcessDecl& decl =
            row.processes[static_cast<size_t>(step.decl)];
        TraceScope span(st->trace, st->trace_span, "ReduceOp");
        AnnotateStep(span, step, query);
        const auto t0 = SteadyNow();
        const Status reduced =
            ReduceProcess(decl, std::move(pending_score), st);
        st->stats.compute_ms += MsSince(t0);
        ZV_RETURN_NOT_OK(reduced);
        break;
      }
      case PlanStep::Kind::kOutput: {
        TraceScope span(st->trace, st->trace_span, "OutputOp");
        AnnotateStep(span, step, query);
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace zv::zql::exec
