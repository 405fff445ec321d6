/// \file scheduler.h
/// \brief Executes a physical plan (zql/plan.h) over the operator layer
/// (zql/operators.h) in one of two schedules:
///
///  - *staged* (the oracle): every flush runs to completion — all buffered
///    statements execute and route — before any downstream operator runs.
///    This is exactly the pre-plan executor's behavior.
///  - *pipelined*: a flush hands its statement batch to a dedicated fetch
///    thread, which runs the batch's round trips and pushes each ResultSet
///    through a bounded hand-off queue. The coordinator keeps walking the
///    plan; a MaterializeOp drains (routes) only the fetches tagged at or
///    before its own row, so scoring of an already-materialized row
///    overlaps the backend scan of later rows.
///
/// Under either schedule a flush selects its rows through chunk passes of
/// a BatchScanQueue (engine/shared_scan.h; docs/architecture.md "Batched
/// execution") — ZqlOptions::batch_scans, else the backend's own — one
/// SelectRows call per round trip, possibly alongside other queries'
/// statements, and each statement finishes through the shared blocked
/// aggregation (FinishChunkScan) — so what a pass happens to share, and
/// how many chunks it fans over, never shows up in the bytes.
///
/// Determinism contract: everything except the backend scan — routing,
/// derivations, scoring, reduction, variable binding — runs on the
/// coordinating thread in plan order under both schedules, and a scan's
/// ResultSet does not depend on when it executes (the query holds one
/// table snapshot). Results are therefore byte-identical across schedules
/// and across ZV_THREADS (tests/pipeline_test.cc) and across chunk sizes
/// (tests/shard_test.cc). Errors surface as the first failing statement in
/// dispatch order — and within a chunk pass, as the lowest failing chunk
/// index, mirroring a serial scan's row order; cancellation is polled at
/// every step, per scanned statement on the fetch thread, while waiting on
/// a pass, and per scored combination.
///
/// Threads: the only thread a query creates is the pipelined fetch thread.
/// Chunk passes run on the common/parallel pool: the BatchScanQueue owns
/// no thread — whichever waiting caller leads a pass (a coordinator or a
/// fetch thread) runs its chunk jobs there.

#ifndef ZV_ZQL_SCHEDULER_H_
#define ZV_ZQL_SCHEDULER_H_

#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/status.h"
#include "zql/operators.h"
#include "zql/plan.h"

namespace zv::zql::exec {

class PipelineScheduler {
 public:
  /// `plan`, `query`, and `st` must outlive the scheduler. The scheduler
  /// captures the calling thread's cancellation token (common/cancel.h)
  /// and mirrors it onto the fetch thread.
  PipelineScheduler(const PhysicalPlan& plan, const ZqlQuery& query,
                    ExecState* st);
  ~PipelineScheduler();

  PipelineScheduler(const PipelineScheduler&) = delete;
  PipelineScheduler& operator=(const PipelineScheduler&) = delete;

  /// Walks the plan's steps to completion (or first error). After an OK
  /// return every fetch is routed and every component is final.
  Status Run();

 private:
  /// Scan accounting accumulated by RunBatch and folded into ZqlStats as
  /// results are routed: fetch_ms, chunks_scanned, shard_ms, batched_scans
  /// and scans_shared.
  struct ScanTally {
    double scan_ms = 0;
    uint64_t chunks_scanned = 0;
    double shard_ms = 0;
    uint64_t batched_scans = 0;
    uint64_t scans_shared = 0;
  };
  /// One scanned statement coming back from the fetch thread. Exactly one
  /// item is produced per dispatched statement, always — on cancellation
  /// the remaining statements of a batch yield kCancelled placeholders —
  /// so the coordinator can account for every dispatch.
  struct FetchItem {
    Result<ResultSet> result = Status::Internal("unset");
    /// Accounting accrued since the previous item of the batch.
    ScanTally tally;
  };
  /// One flush's statement batch, handed to the fetch thread.
  struct FetchJob {
    std::vector<sql::SelectStatement> stmts;
    bool batched = true;  ///< one request for the batch vs one per statement
  };

  Status StepFlush();
  Status StepMaterialize(const ZqlRow& row, size_t row_tag);

  /// Routes completed fetches in dispatch order until none remain whose
  /// row_tag is <= `limit_tag` (SIZE_MAX = drain everything outstanding).
  Status DrainUpTo(size_t limit_tag);

  /// Executes one flush's statement batch and feeds results to `sink` in
  /// statement order: `batched` = one round trip (AccountRequest plus one
  /// SelectRows call) for the whole batch, otherwise one per statement.
  /// A sink returning false stops the batch. Adds its accounting into
  /// `tally`. Runs on the coordinator (staged) or the fetch thread
  /// (pipelined) — never both. `span_parent`/`track` locate the passes'
  /// trace spans in the query's span tree; null parent with tracing off
  /// records nothing.
  void RunBatch(const std::vector<sql::SelectStatement>& stmts, bool batched,
                const std::function<bool(size_t, Result<ResultSet>)>& sink,
                ScanTally* tally, TraceSpan* span_parent, int track);
  /// Folds one routed batch's accounting into the query's stats.
  void AddTally(const ScanTally& tally);

  void FetchWorkerMain();
  void StartWorker();

  const PhysicalPlan& plan_;
  const ZqlQuery& query_;
  ExecState* st_;

  /// Planned statements not yet dispatched (current batch).
  std::vector<PendingFetch> buffer_;
  /// Dispatched statements not yet routed, in dispatch order (FIFO).
  std::deque<PendingFetch> in_flight_;

  // Pipelined-mode machinery. Queues are sized so the fetch thread can run
  // only kPipelineDepth (scheduler.cc) results ahead of the coordinator
  // (back-pressure).
  std::unique_ptr<BoundedQueue<FetchJob>> jobs_;
  std::unique_ptr<BoundedQueue<FetchItem>> results_;
  std::thread fetch_thread_;
  /// The coordinator's cancel flag, mirrored onto the fetch thread.
  const std::atomic<bool>* cancel_flag_ = nullptr;
  /// Tells the fetch thread to stop scanning (teardown after an error).
  std::atomic<bool> abandon_{false};

  /// ZqlOptions::batch_scans, else the backend's own queue.
  BatchScanQueue* queue_ = nullptr;
};

}  // namespace zv::zql::exec

#endif  // ZV_ZQL_SCHEDULER_H_
