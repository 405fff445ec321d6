/// \file shared_scan.h
/// \brief Cross-query shared scan batching: the BatchScanQueue coalesces
/// the row-selection passes of concurrently executing queries over the
/// same backend and table into one chunk-parallel scan pass.
///
/// zenvisage's interactive workload is many sessions hammering one dataset
/// with overlapping queries; at production concurrency the redundant full
/// scans — not the scoring — dominate (Fig. 7 at scale). The queue turns N
/// concurrent selections into ~1 pass: callers enqueue their prepared
/// MultiChunkScanners, a *leader* — one of the waiting callers — cuts a
/// pass from everything waiting for the same (backend, table) group, fuses
/// the scanners that can share a batch walk (the base scanner evaluates
/// every predicate per batch of rows; Roaring keeps its bitmap probes),
/// runs the pass's (unit, chunk) jobs on the common/parallel pool, and
/// demultiplexes per-statement row-id lists back to each caller. The queue
/// owns no thread.
///
/// Batching model: *group commit by leader election*. At most one pass is
/// in flight per queue; when none is, a waiting caller becomes the leader
/// and cuts the next pass from the group of the oldest pending request —
/// which need not contain its own. With the default window of 0 a lone
/// query is never delayed — its pass is cut immediately — but any queries
/// that arrive while a pass is executing pile up and form the next pass
/// together, which under concurrency is exactly where the sharing comes
/// from. A positive ZV_BATCH_WINDOW_MS additionally holds the pass open
/// until that long after the oldest pending arrival, trading first-query
/// latency for wider sharing (useful when queries trickle in over a slow
/// client).
///
/// Determinism contract: selection stays in the scan (each statement's
/// rows are exactly what it selects alone, as parts in chunk order)
/// and aggregation stays with the caller (FinishChunkScan's blocked
/// runner, a pure function of table size) — so results are byte-identical
/// to a naive whole-table selection at any ZV_THREADS, window, chunk size,
/// or co-tenancy (tests/batch_test.cc locks the matrix against the tests'
/// ReferenceDatabase).
///
/// Cancellation: no pass is ever cancelled. A follower whose token fires
/// while waiting abandons its request within 2 ms and returns kCancelled;
/// a leader cancelled while holding the window abandons likewise and
/// hands leadership to the next waiter; a leader cancelled mid-pass
/// returns kCancelled once that pass ends. Every sibling completes
/// unaffected — requests are self-contained (scanners pin their table
/// snapshot), so delivery into an abandoned request is harmless. An
/// epoch bump (QueryService::ReplaceDataset) swaps in a fresh Database,
/// i.e. a fresh group key: in-flight queries finish against the snapshot
/// they hold, new queries form new groups, and the two never share a pass.
///
/// Thread-safety: all public methods are thread-safe. The queue must
/// outlive every thread that may be blocked in SelectRows.

#ifndef ZV_ENGINE_SHARED_SCAN_H_
#define ZV_ENGINE_SHARED_SCAN_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "engine/chunk_map.h"
#include "engine/database.h"

namespace zv {

/// The longest batching window a queue holds; larger requests are capped.
constexpr double kMaxBatchWindowMs = 1000;

struct BatchScanOptions {
  /// Batching window in milliseconds (see file comment). Negative resolves
  /// the ZV_BATCH_WINDOW_MS environment variable, default 0 (group
  /// commit: coalesce only work already waiting, never delay a lone
  /// query). Non-finite values mean 0; the window is capped at
  /// kMaxBatchWindowMs.
  double window_ms = -1;
  /// Where the queue records its latency histograms — zv_batch_hold_ms
  /// (request arrival → pass cut: the group-commit hold) and
  /// zv_batch_pass_ms (pass wall time). Null = MetricsRegistry::Global().
  MetricsRegistry* metrics = nullptr;
};

/// \brief The shared-scan queue. One instance serves every session of a
/// QueryService (executors reach it through ZqlOptions::batch_scans); every
/// Database owns another, with window 0, for its direct callers
/// (Database::scan_queue).
class BatchScanQueue {
 public:
  explicit BatchScanQueue(BatchScanOptions options = {});

  BatchScanQueue(const BatchScanQueue&) = delete;
  BatchScanQueue& operator=(const BatchScanQueue&) = delete;

  /// What one SelectRows call got back from its pass.
  struct Selection {
    Status status = Status::OK();
    /// Per statement: the surviving rows as one ascending part per chunk,
    /// in chunk order — concatenated, exactly what the statement selects
    /// alone. Empty on error.
    std::vector<std::vector<std::vector<uint32_t>>> rows;
    /// Chunk sub-scans attributable to this call (chunks × statements).
    uint64_t chunks_scanned = 0;
    /// Wall time of the covering pass (shared by every member).
    double scan_ms = 0;
    /// Summed time of the covering pass's chunk jobs across every scanning
    /// thread (shared by every member, like scan_ms); job_ms / scan_ms
    /// approximates the fan-out the pass achieved.
    double job_ms = 0;
    /// True when the pass also carried statements from other SelectRows
    /// calls — the redundant scans actually eliminated.
    bool shared = false;
  };

  /// Runs the statements' row selection through a shared pass. Prepares
  /// the scanners on the calling thread (so `db` only needs to be alive
  /// here, not for the pass), enqueues, and blocks until the covering pass
  /// completes — leading passes itself whenever none is running — or
  /// until the calling thread's cancellation token fires, in which case
  /// the request is abandoned (status kCancelled; see the file comment)
  /// and its pass, if any, completes without it.
  /// Statements must all target `table`. An empty table (0 chunks)
  /// returns empty row lists without a pass.
  Selection SelectRows(Database* db, const std::string& table,
                       const std::vector<const sql::SelectStatement*>& stmts);

  /// --- Monitoring ------------------------------------------------------
  uint64_t passes() const { return passes_.load(std::memory_order_relaxed); }
  uint64_t shared_passes() const {
    return shared_passes_.load(std::memory_order_relaxed);
  }
  uint64_t statements_served() const {
    return statements_.load(std::memory_order_relaxed);
  }
  double window_ms() const { return window_ms_; }

 private:
  struct Request;

  /// Leads one pass (`lock` held on entry and exit, released while the
  /// pass runs): holds the window, cuts the oldest pending request's group,
  /// runs it, and marks its members done. Returns early, leadership handed
  /// on, when the leader is cancelled while holding the window.
  void LeadPass(std::unique_lock<std::mutex>& lock);
  /// Executes one pass over `members` (no queue lock held). Fills each
  /// member's results; the leader marks them done under the lock.
  void ExecutePass(const std::vector<std::shared_ptr<Request>>& members);

  double window_ms_ = 0;

  std::mutex mu_;
  /// Wakes waiting callers when a pass ends or a leader steps down.
  std::condition_variable done_cv_;
  std::deque<std::shared_ptr<Request>> pending_;
  bool pass_running_ = false;  ///< a leader holds the window or runs a pass

  std::atomic<uint64_t> passes_{0};
  std::atomic<uint64_t> shared_passes_{0};
  std::atomic<uint64_t> statements_{0};

  /// Resolved once at construction (see BatchScanOptions::metrics).
  Histogram* hold_hist_ = nullptr;
  Histogram* pass_hist_ = nullptr;
};

}  // namespace zv

#endif  // ZV_ENGINE_SHARED_SCAN_H_
