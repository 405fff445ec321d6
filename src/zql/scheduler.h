/// \file scheduler.h
/// \brief Executes a physical plan (zql/plan.h) over the operator layer
/// (zql/operators.h) on the calling thread, one step at a time in plan
/// order. A flush selects, finishes and routes every buffered statement
/// before the next step runs, so every downstream operator sees its
/// inputs final.
///
/// A flush selects its rows through chunk passes of a BatchScanQueue
/// (engine/shared_scan.h; docs/architecture.md "Batched execution") —
/// ZqlOptions::batch_scans, else the backend's own — one SelectRows call
/// per round trip, possibly alongside other queries' statements, and each
/// statement finishes through the shared blocked aggregation
/// (FinishChunkScan) — so what a pass happens to share, and how many
/// chunks it fans over, never shows up in the bytes.
///
/// Determinism contract: routing, derivations, scoring, reduction and
/// variable binding run in plan order, and a scan's result (the
/// column-major ColumnarResult FinishChunkScan returns) does not depend on
/// when it executes (the query holds one table snapshot).
/// Results are therefore byte-identical across ZV_THREADS
/// (tests/pipeline_test.cc) and across chunk sizes (tests/shard_test.cc).
/// Errors surface as the first failing statement in dispatch order — and
/// within a chunk pass, as the lowest failing chunk index, mirroring a
/// serial scan's row order; cancellation is polled at every step, while
/// waiting on a pass, and per scored combination.
///
/// Threads: a query starts none. Chunk passes run on the common/parallel
/// pool: the BatchScanQueue owns no thread — whichever waiting caller
/// leads a pass runs its chunk jobs there.

#ifndef ZV_ZQL_SCHEDULER_H_
#define ZV_ZQL_SCHEDULER_H_

#include "common/status.h"
#include "zql/operators.h"
#include "zql/plan.h"

namespace zv::zql::exec {

/// Walks `plan`'s steps to completion (or first error) on the calling
/// thread. After an OK return every fetch is routed and every component
/// is final. `plan` must have been built from `query`.
Status RunPlan(const PhysicalPlan& plan, const ZqlQuery& query,
               ExecState* st);

}  // namespace zv::zql::exec

#endif  // ZV_ZQL_SCHEDULER_H_
