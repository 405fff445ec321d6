#include "zql/scheduler.h"

#include <utility>

#include "common/cancel.h"
#include "common/clock.h"
#include "engine/shared_scan.h"

namespace zv::zql::exec {

namespace {

constexpr size_t kDrainAll = static_cast<size_t>(-1);

/// Capacity of the pipelined fetch->materialize hand-off queue: how many
/// scanned ResultSets the fetch thread may run ahead of the coordinator
/// before it blocks (the memory bound per in-flight query).
constexpr size_t kPipelineDepth = 4;

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

}  // namespace

PipelineScheduler::PipelineScheduler(const PhysicalPlan& plan,
                                     const ZqlQuery& query, ExecState* st)
    : plan_(plan), query_(query), st_(st) {
  cancel_flag_ = CurrentCancelFlag();
  queue_ = st->opts->batch_scans != nullptr ? st->opts->batch_scans
                                            : st->db->scan_queue();
}

PipelineScheduler::~PipelineScheduler() {
  abandon_.store(true, std::memory_order_relaxed);
  if (fetch_thread_.joinable()) {
    jobs_->Close();
    // Every dispatched statement yields exactly one FetchItem (a result,
    // an error, or a placeholder), so popping once per unrouted fetch is
    // guaranteed to terminate and unblocks a worker stuck on the bounded
    // results queue.
    while (!in_flight_.empty()) {
      FetchItem item;
      if (!results_->Pop(&item)) break;
      in_flight_.pop_front();
    }
    fetch_thread_.join();
  }
}

Status PipelineScheduler::Run() {
  ScoreResult pending_score;
  for (const PlanStep& step : plan_.steps) {
    ZV_RETURN_NOT_OK(CheckCancelled());
    switch (step.kind) {
      case PlanStep::Kind::kFetch: {
        const ZqlRow& row = query_.rows[static_cast<size_t>(step.row)];
        TraceScope span(st_->trace, st_->trace_span, "FetchOp");
        AnnotateStep(span, step, query_);
        ZV_RETURN_NOT_OK(PlanRowFetches(
            row, static_cast<size_t>(step.row), st_, &buffer_));
        break;
      }
      case PlanStep::Kind::kFlush:
        ZV_RETURN_NOT_OK(StepFlush());
        break;
      case PlanStep::Kind::kMaterialize: {
        const ZqlRow& row = query_.rows[static_cast<size_t>(step.row)];
        TraceScope span(st_->trace, st_->trace_span, "MaterializeOp");
        AnnotateStep(span, step, query_);
        ZV_RETURN_NOT_OK(
            StepMaterialize(row, static_cast<size_t>(step.row)));
        break;
      }
      case PlanStep::Kind::kScore: {
        const ZqlRow& row = query_.rows[static_cast<size_t>(step.row)];
        const ProcessDecl& decl =
            row.processes[static_cast<size_t>(step.decl)];
        TraceScope span(st_->trace, st_->trace_span, "ScoreOp");
        AnnotateStep(span, step, query_);
        const auto t0 = SteadyNow();
        pending_score = ScoreResult();
        const Status scored = ScoreProcess(decl, st_, &pending_score);
        st_->stats.compute_ms += MsSince(t0);
        span.SetInt("scores",
                    static_cast<int64_t>(pending_score.scores.size()));
        ZV_RETURN_NOT_OK(scored);
        break;
      }
      case PlanStep::Kind::kReduce: {
        const ZqlRow& row = query_.rows[static_cast<size_t>(step.row)];
        const ProcessDecl& decl =
            row.processes[static_cast<size_t>(step.decl)];
        TraceScope span(st_->trace, st_->trace_span, "ReduceOp");
        AnnotateStep(span, step, query_);
        const auto t0 = SteadyNow();
        const Status reduced =
            ReduceProcess(decl, std::move(pending_score), st_);
        st_->stats.compute_ms += MsSince(t0);
        ZV_RETURN_NOT_OK(reduced);
        break;
      }
      case PlanStep::Kind::kOutput: {
        TraceScope span(st_->trace, st_->trace_span, "OutputOp");
        AnnotateStep(span, step, query_);
        ZV_RETURN_NOT_OK(DrainUpTo(kDrainAll));
        break;
      }
    }
  }
  return Status::OK();
}

Status PipelineScheduler::StepFlush() {
  if (buffer_.empty()) return Status::OK();
  ZV_RETURN_NOT_OK(CheckCancelled());
  if (st_->opts->sql_trace != nullptr) {
    for (const PendingFetch& pf : buffer_) {
      st_->opts->sql_trace->push_back(pf.stmt.ToSql());
    }
  }
  const bool batched = st_->opts->optimization != OptLevel::kNoOpt;
  std::vector<sql::SelectStatement> stmts;
  stmts.reserve(buffer_.size());
  for (const PendingFetch& pf : buffer_) stmts.push_back(pf.stmt);

  if (plan_.pipelined) {
    // Hand the batch to the fetch thread and keep walking the plan — the
    // results come back through the bounded queue at drain points. The
    // scan itself is traced on the fetch thread ("FetchBatch", track 1).
    StartWorker();
    for (PendingFetch& pf : buffer_) in_flight_.push_back(std::move(pf));
    buffer_.clear();
    jobs_->Push({std::move(stmts), batched});
    return Status::OK();
  }

  // Staged: execute and route the whole batch before anything downstream
  // runs — the serial oracle the pipelined schedule is checked against.
  TraceScope flush_span(st_->trace, st_->trace_span, "Flush");
  flush_span.SetInt("statements", static_cast<int64_t>(stmts.size()));
  flush_span.SetBool("batched", batched);
  const auto t0 = SteadyNow();
  std::vector<PendingFetch> pending = std::move(buffer_);
  buffer_.clear();
  Status first_error = Status::OK();
  ScanTally tally;
  RunBatch(
      stmts, batched,
      [&](size_t i, Result<ResultSet> rs) {
        if (!rs.ok()) {
          first_error = rs.status();
          return false;
        }
        first_error = RouteFetch(pending[i], rs.value(), st_);
        return first_error.ok();
      },
      &tally, flush_span.span(), /*track=*/0);
  AddTally(tally);
  st_->stats.exec_ms += MsSince(t0);
  return first_error;
}

Status PipelineScheduler::StepMaterialize(const ZqlRow& row, size_t row_tag) {
  if (IsLocalRow(row)) {
    // User-input and derived components read other components' final
    // visuals, so everything dispatched must be routed first.
    ZV_RETURN_NOT_OK(DrainUpTo(kDrainAll));
    ZV_RETURN_NOT_OK(MaterializeLocal(row, st_));
  } else {
    // Route this row's (and earlier rows') fetches; scans of later rows
    // keep running on the fetch thread underneath the scoring that
    // follows this step.
    ZV_RETURN_NOT_OK(DrainUpTo(row_tag));
  }
  MarkReady(row, st_);
  return Status::OK();
}

Status PipelineScheduler::DrainUpTo(size_t limit_tag) {
  while (!in_flight_.empty() && in_flight_.front().row_tag <= limit_tag) {
    FetchItem item;
    if (!results_->Pop(&item)) {
      return Status::Internal("fetch pipeline closed with fetches in flight");
    }
    PendingFetch pf = std::move(in_flight_.front());
    in_flight_.pop_front();
    AddTally(item.tally);
    if (!item.result.ok()) return item.result.status();
    const auto t0 = SteadyNow();
    const Status routed = RouteFetch(pf, item.result.value(), st_);
    st_->stats.exec_ms += item.tally.scan_ms + MsSince(t0);
    ZV_RETURN_NOT_OK(routed);
  }
  return Status::OK();
}

void PipelineScheduler::StartWorker() {
  if (fetch_thread_.joinable()) return;
  // Jobs can never pile up past the flush count; the results bound is the
  // actual pipeline depth (how far the fetch thread may run ahead).
  jobs_ = std::make_unique<BoundedQueue<FetchJob>>(plan_.steps.size() + 1);
  results_ = std::make_unique<BoundedQueue<FetchItem>>(kPipelineDepth);
  fetch_thread_ = std::thread([this] { FetchWorkerMain(); });
}

void PipelineScheduler::FetchWorkerMain() {
  // Mirror the coordinator's cancellation context so backend scans poll
  // the same token (SelectRows and the scanners check it).
  CancelScope scope(cancel_flag_);
  FetchJob job;
  while (jobs_->Pop(&job)) {
    size_t produced = 0;
    if (!abandon_.load(std::memory_order_relaxed)) {
      // One span per dispatched batch, on the fetch thread's timeline lane
      // — the pipelined counterpart of the staged "Flush" span.
      TraceScope batch_span(st_->trace, st_->trace_span, "FetchBatch",
                            /*track=*/1);
      batch_span.SetInt("statements", static_cast<int64_t>(job.stmts.size()));
      batch_span.SetBool("batched", job.batched);
      ScanTally tally;
      RunBatch(
          job.stmts, job.batched,
          [&](size_t, Result<ResultSet> rs) {
            const bool ok = rs.ok();
            FetchItem item;
            item.result = std::move(rs);
            // Hand over what accrued since the previous statement; the
            // batch keeps adding into the reset tally.
            item.tally = std::exchange(tally, ScanTally{});
            results_->Push(std::move(item));
            ++produced;
            // Stop at the first failed statement (matching the staged
            // schedule, which never scans past an error) and on
            // cancellation/teardown; skipped statements get placeholders.
            return ok && !abandon_.load(std::memory_order_relaxed) &&
                   !CancellationRequested();
          },
          &tally, batch_span.span(), /*track=*/1);
    }
    // Exactly one item per statement, always: statements skipped by an
    // early stop yield placeholders so the coordinator's accounting (one
    // pop per dispatched fetch) never blocks.
    for (size_t i = produced; i < job.stmts.size(); ++i) {
      FetchItem item;
      item.result = Status(StatusCode::kCancelled, "query cancelled");
      results_->Push(std::move(item));
    }
  }
}

void PipelineScheduler::RunBatch(
    const std::vector<sql::SelectStatement>& stmts, bool batched,
    const std::function<bool(size_t, Result<ResultSet>)>& sink,
    ScanTally* tally, TraceSpan* span_parent, int track) {
  // One round trip is one SelectRows call: the whole batch, or — NoOpt, a
  // naive compiler's one query per visualization — one statement.
  const size_t per_trip = batched ? stmts.size() : 1;
  for (size_t first = 0; first < stmts.size(); first += per_trip) {
    std::vector<const sql::SelectStatement*> trip;
    for (size_t i = first; i < first + per_trip; ++i) {
      trip.push_back(&stmts[i]);
    }
    const auto t0 = SteadyNow();
    st_->db->AccountRequest(trip.size());
    BatchScanQueue::Selection sel;
    {
      // The group-commit span covers the whole SelectRows stay — window
      // hold, queueing, and the covering pass — while pass_ms is the
      // pass's own wall time; the difference is time spent waiting to be
      // grouped.
      TraceScope pass_span(st_->trace, span_parent, "SharedScanPass", track);
      sel = queue_->SelectRows(st_->db, st_->table_name, trip);
      pass_span.SetInt("statements", static_cast<int64_t>(trip.size()));
      pass_span.SetBool("shared", sel.shared);
      pass_span.SetInt("chunks", static_cast<int64_t>(sel.chunks_scanned));
      pass_span.SetDouble("pass_ms", sel.scan_ms);
    }
    tally->scan_ms += MsSince(t0);
    tally->chunks_scanned += sel.chunks_scanned;
    tally->shard_ms += sel.job_ms;
    tally->batched_scans += trip.size();
    if (sel.shared) tally->scans_shared += trip.size();
    for (size_t i = 0; i < trip.size(); ++i) {
      Result<ResultSet> rs = sel.status;
      if (sel.status.ok()) {
        // The pass selected the rows, the table-size-pure blocked runner
        // aggregates them — so the bytes can not depend on who shared the
        // pass or how many chunks it fanned over. Each statement's lists
        // are released as soon as they are aggregated.
        const auto tf = SteadyNow();
        rs = st_->db->FinishChunkScan(*trip[i], sel.rows[i]);
        sel.rows[i].clear();
        tally->scan_ms += MsSince(tf);
      }
      // A stopped sink ends the batch: later statements are never scanned.
      if (!sink(first + i, std::move(rs))) return;
    }
  }
}

void PipelineScheduler::AddTally(const ScanTally& tally) {
  st_->stats.fetch_ms += tally.scan_ms;
  st_->stats.chunks_scanned += tally.chunks_scanned;
  st_->stats.shard_ms += tally.shard_ms;
  st_->stats.batched_scans += tally.batched_scans;
  st_->stats.scans_shared += tally.scans_shared;
}

}  // namespace zv::zql::exec
