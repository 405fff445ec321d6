/// \file parallel.h
/// \brief A lazily-initialized fixed thread pool with a chunked,
/// deterministic ParallelFor — the substrate of every parallel hot path
/// (ZQL scoring, k-means assignment, partitioned table scans).
///
/// Determinism contract: ParallelFor(n, fn) invokes fn(i) exactly once for
/// every i in [0, n). Callers write results into preallocated slot i, so the
/// output never depends on the worker count or on how chunks interleave.
/// Only the *wall-clock* changes with ZV_THREADS; results are byte-identical.
///
/// Worker count resolution, per call (cheap, so tests can flip it at will):
///  1. SetParallelThreads(n) override, when > 0;
///  2. the ZV_THREADS environment variable, when set and > 0;
///  3. std::thread::hardware_concurrency();
/// capped at kMaxParallelThreads, since the pool keeps one OS thread per
/// admitted worker. An effective count of 1 bypasses the pool entirely —
/// fn runs inline on the calling thread with zero synchronization, so
/// ZV_THREADS=1 is the exact serial baseline. Calls issued *from* a pool
/// worker also run inline (no nested fan-out, no deadlock).
///
/// Concurrent calls: each call lists its job, admitting up to count - 1
/// pool workers beside its caller. Jobs are served oldest first — an idle
/// worker joins the oldest listed job that still has unclaimed chunks and
/// a free helper slot — and the caller always drains its own job, so a
/// call completes even when every worker is busy elsewhere. The shared
/// chunk passes (engine/shared_scan.h), scans, folds and scoring all run
/// on this one pool.
///
/// Cancellation (see cancel.h): when the calling thread has a CancelToken
/// installed (CancelScope), both variants observe it — the flag is mirrored
/// onto every worker for the job's duration (so fn's own CheckCancelled()
/// polls see it) and checked at chunk boundaries. A cancelled
/// ParallelForStatus returns kCancelled (unless a real error at a lower
/// index was already captured); a cancelled ParallelFor stops claiming
/// chunks and returns early — the only case where fn may not run for every
/// i — so cancellable void callers must re-check the token afterwards.

#ifndef ZV_COMMON_PARALLEL_H_
#define ZV_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

#include "common/status.h"

namespace zv {

/// The largest effective worker count, whatever is asked for.
constexpr size_t kMaxParallelThreads = 256;

/// Forces the effective worker count for subsequent ParallelFor calls
/// (0 = revert to ZV_THREADS / hardware_concurrency resolution).
void SetParallelThreads(size_t n);

/// The worker count the next ParallelFor call would use (always >= 1).
size_t ParallelWorkerCount();

/// Runs fn(i) for every i in [0, n), distributing contiguous chunks over
/// the pool. Exceptions thrown by fn are captured and the one from the
/// lowest index is rethrown on the calling thread after all workers drain.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

/// Status-returning variant: runs fn(i) for every i in [0, n) and returns
/// the error with the *lowest index* (deterministic first-error semantics,
/// matching what a serial loop would report). Once any error is observed,
/// remaining chunks are skipped — scores already written stay written, but
/// the caller must treat them as invalid.
Status ParallelForStatus(size_t n, const std::function<Status(size_t)>& fn);

}  // namespace zv

#endif  // ZV_COMMON_PARALLEL_H_
