/// \file query_service.h
/// \brief The interactive serving layer: one QueryService owns named
/// datasets and serves ZQL requests from many concurrent sessions.
///
/// The engine underneath (PR 1 parallel scoring, PR 2 top-k pruning) makes
/// one query fast; this layer makes the *system* responsive under the
/// paper's actual workload — a front end firing a query per user gesture,
/// re-issuing near-identical queries dozens of times per minute:
///
///  - SessionManager (session.h): per-session sketch state and TTL
///    eviction, with a per-session FIFO guarantee (a session's queries
///    execute in submission order; different sessions run concurrently).
///  - ResultCache (result_cache.h): sharded LRU over finished results,
///    keyed by canonicalized query fingerprint + dataset epoch. Any table
///    mutation bumps the epoch, so a stale entry can never be served.
///    It is the only cross-query cache: a ScoringContext lives for one
///    query (zql/operators.cc PrepareScoring dedupes it within the query).
///  - Async execution: Submit() returns a QueryHandle immediately; the
///    query runs on one of max_inflight service workers (each of which
///    still fans its scoring loops over the ZV_THREADS pool). Cancel()
///    flips a cooperative CancelToken observed at ParallelFor chunk
///    boundaries and per scored combination; a cancelled query returns
///    kCancelled and leaves the service healthy.
///  - Admission control: at most max_inflight queries execute and at most
///    max_queue wait; past that Submit() returns kUnavailable immediately
///    instead of queueing unboundedly (fail fast beats convoying an
///    interactive UI).
///  - Shared scans (engine/shared_scan.h): concurrent queries over the
///    same dataset snapshot coalesce their row-selection passes into one
///    chunk-parallel scan (docs/architecture.md "Batched execution"),
///    byte-identically to per-query scans.
///
/// Knobs (constructor options override; 0 / unset falls back to env):
///   ZV_CACHE_MB          result-cache budget, MB (default 48; 0 disables
///                        the cache; saturates instead of wrapping)
///   ZV_MAX_INFLIGHT      concurrent executing queries (default 4; capped
///                        at kMaxInflight)
///   ZV_MAX_QUEUE         waiting queries before kUnavailable (default 32)
///   ZV_BATCH_WINDOW_MS   shared-scan group-commit window (default 0:
///                        coalesce only work already waiting)
///   ZV_TRACE             1 = trace every query (default 0: only queries
///                        that ask, via Submit's trace flag / wire field)
///   ZV_SLOW_QUERY_MS     slow-query log threshold, ms (default 100;
///                        negative disables the log)
///
/// Observability (docs/architecture.md "Observability"): every query can
/// carry a TraceSpan tree (common/trace.h) through the scheduler and scan
/// layers, the service records latency histograms and counters into a
/// MetricsRegistry (common/metrics.h), and queries slower than
/// ZV_SLOW_QUERY_MS land in a bounded slow-query ring (SlowQueries()).
/// All of it is pure observation: results are byte-identical with tracing
/// on or off, and no trace or metric state enters QueryFingerprint or any
/// cache.

#ifndef ZV_SERVER_QUERY_SERVICE_H_
#define ZV_SERVER_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "engine/database.h"
#include "engine/shared_scan.h"
#include "server/result_cache.h"
#include "server/session.h"
#include "zql/executor.h"

namespace zv::server {

/// The most queries a service executes at once; larger max_inflight
/// requests (option or ZV_MAX_INFLIGHT) are capped.
constexpr size_t kMaxInflight = 64;

struct ServiceOptions {
  /// Base executor configuration (task library, optimization level, named
  /// sets, …) applied to every query. sql_trace is ignored (executors run
  /// concurrently; a shared trace pointer would race).
  zql::ZqlOptions zql;
  /// 0 = resolve from ZV_MAX_INFLIGHT (default 4). Either way capped at
  /// kMaxInflight: each slot is a worker thread started at construction.
  size_t max_inflight = 0;
  /// 0 = resolve from ZV_MAX_QUEUE (default 32).
  size_t max_queue = 0;
  /// ResultCache budget in MB; SIZE_MAX = resolve from ZV_CACHE_MB
  /// (default 48). 0 disables the cache; a budget past SIZE_MAX bytes
  /// saturates.
  size_t cache_mb = static_cast<size_t>(-1);
  /// Serve repeat queries from the ResultCache (tests disable this to
  /// force re-execution while keeping the budget).
  bool result_cache = true;
  /// Shared-scan group-commit window, ms; negative = resolve from
  /// ZV_BATCH_WINDOW_MS (default 0 — never delay a lone query).
  double batch_window_ms = -1;
  /// Idle sessions expire after this long; <= 0 never expires.
  int64_t session_ttl_ms = 10 * 60 * 1000;
  /// Time source for TTLs (tests inject ManualClock); null = system.
  Clock* clock = nullptr;
  /// Trace every query, not just those whose Submit asks; negative =
  /// resolve from ZV_TRACE (default off).
  int trace_all = -1;
  /// Queries slower than this (submit → resolve, ms) enter the slow-query
  /// ring; NaN = resolve from ZV_SLOW_QUERY_MS (default 100). Negative
  /// disables the log.
  double slow_query_ms = std::numeric_limits<double>::quiet_NaN();
  /// Where the service records its histograms and counters; null =
  /// MetricsRegistry::Global(). Tests and benches inject a private
  /// registry so concurrent services never bleed into each other.
  MetricsRegistry* metrics = nullptr;
};

/// Monitoring snapshot (see QueryService::stats()).
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;   ///< finished OK (including cache hits)
  uint64_t failed = 0;      ///< finished with a non-cancel error
  uint64_t cancelled = 0;   ///< cancelled before or during execution
  uint64_t rejected = 0;    ///< refused by admission control
  uint64_t cache_hits = 0;  ///< ResultCache
  uint64_t cache_misses = 0;
  uint64_t contexts_reused = 0;  ///< within-query ScoringContext reuse
  uint64_t batch_passes = 0;         ///< shared-scan passes executed
  uint64_t batch_passes_shared = 0;  ///< …that carried >1 query's work
  uint64_t batch_statements = 0;     ///< statements served by those passes
  uint64_t slow_queries = 0;  ///< queries that crossed ZV_SLOW_QUERY_MS
  size_t sessions = 0;
  size_t in_flight = 0;
  size_t queued = 0;
  size_t result_cache_bytes = 0;
  size_t result_cache_entries = 0;
};

struct QueryTask;  // internal; defined in query_service.cc

/// \brief Future-like handle to one submitted query. Copyable; all copies
/// observe the same execution. Outliving the service is safe: the service
/// resolves every outstanding handle (kCancelled) before it destructs.
class QueryHandle {
 public:
  QueryHandle() = default;

  bool valid() const { return task_ != nullptr; }

  /// Requests cooperative cancellation: a queued query resolves
  /// kCancelled immediately; an executing one stops at its next
  /// cancellation point (chunk boundary / scored combination / row
  /// boundary). Idempotent; never blocks on the query.
  void Cancel();

  /// Blocks until the query resolves; returns its final status.
  Status Wait();

  bool done() const;

  /// The finished result (null until done, and on error). Shared with the
  /// ResultCache: treat as immutable.
  std::shared_ptr<const zql::ZqlResult> result() const;

  /// Per-call stats: on a cache hit, cache_hits = 1 and total_ms is the
  /// lookup time; on a miss, the executing run's stats with
  /// cache_misses = 1.
  zql::ZqlStats stats() const;

  /// The ResultCache key this query was filed under (hash of the canonical
  /// AST serialization + dataset epoch + backend + opt level + session
  /// sketches). Stable across handle copies; empty for a handle that was
  /// resolved before fingerprinting (e.g. a parse error).
  std::string fingerprint() const;

  /// The query's span tree: null until the query resolves (the tree is
  /// still being written) and for untraced queries. Immutable once
  /// returned; shared with the service's slow-query ring.
  std::shared_ptr<const Trace> trace() const;

 private:
  friend class QueryService;
  explicit QueryHandle(std::shared_ptr<QueryTask> task)
      : task_(std::move(task)) {}

  std::shared_ptr<QueryTask> task_;
};

/// \brief The serving facade. Thread-safe; create one per process (or per
/// tenant) and share it across sessions.
class QueryService {
 public:
  explicit QueryService(ServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// --- Datasets ---------------------------------------------------------

  /// Registers `table` under its own name, backed by `db` (a fresh
  /// RoaringDatabase when null). Fails on duplicate names.
  Status RegisterDataset(std::shared_ptr<Table> table,
                         std::shared_ptr<Database> db = nullptr);

  /// Atomically replaces the dataset of the same name and bumps its epoch:
  /// queries already executing keep their snapshot; every later query sees
  /// the new table, and no cached result from the old epoch can be served
  /// — the dataset's cached results are released at once.
  Status ReplaceDataset(std::shared_ptr<Table> table,
                        std::shared_ptr<Database> db = nullptr);

  Result<uint64_t> DatasetEpoch(const std::string& name) const;
  Result<std::shared_ptr<Database>> DatasetDatabase(
      const std::string& name) const;
  Result<std::shared_ptr<Table>> DatasetTable(const std::string& name) const;
  std::vector<std::string> DatasetNames() const;

  /// --- Sessions ---------------------------------------------------------

  Result<SessionId> CreateSession();

  /// Ends the session now: queued queries resolve kCancelled, an executing
  /// one is cancelled cooperatively.
  Status EndSession(SessionId id);

  /// Registers a user-drawn input visualization (`-name` rows) on the
  /// session; snapshotted into subsequently submitted queries and folded
  /// into their cache fingerprints.
  Status SetUserInput(SessionId id, const std::string& name,
                      Visualization viz);

  /// Sweeps expired sessions, then returns the live count.
  size_t ActiveSessions();

  /// Validates `id` exactly the way Submit does — shutdown gate, TTL
  /// sweep, lookup — and refreshes its activity timestamp. The session
  /// check for request paths that do not execute (wire EXPLAIN), so both
  /// request kinds share one lifecycle semantics.
  Status TouchSession(SessionId id);

  /// --- Queries ----------------------------------------------------------

  /// Enqueues `zql_text` against `dataset` for `session`. Returns
  /// kUnavailable under overload, kNotFound for unknown session/dataset.
  /// Parse and execution errors surface on the handle, not here. A thin
  /// wrapper: parses the text and forwards to the typed overload below, so
  /// both entry points share one fingerprint space (a retyped query and
  /// its builder-built equivalent hit the same cache entry).
  /// `trace` requests a span tree for this query (QueryHandle::trace());
  /// ZV_TRACE / ServiceOptions::trace_all traces regardless.
  Result<QueryHandle> Submit(SessionId session, const std::string& dataset,
                             const std::string& zql_text,
                             std::optional<zql::OptLevel> optimization = {},
                             bool trace = false);

  /// Typed entry point: enqueues an already-built AST (from ZqlBuilder or a
  /// prior parse) — no text round trip. The cache key is the canonical AST
  /// serialization (zql::CanonicalText). The snapshot copies the row
  /// structure but *shares* the set/process expression nodes
  /// (shared_ptr<ZSetExpr> / shared_ptr<ProcessExpr>): dropping the
  /// caller's query is always safe, but mutating those shared nodes after
  /// Submit races with the executing worker and desynchronizes the
  /// already-computed fingerprint — build a fresh query per variant
  /// instead (ZqlBuilder makes that cheap).
  Result<QueryHandle> Submit(SessionId session, const std::string& dataset,
                             const zql::ZqlQuery& query,
                             std::optional<zql::OptLevel> optimization = {},
                             bool trace = false);

  ServiceStats stats() const;

  /// --- Observability ----------------------------------------------------

  /// One slow-query ring entry (queries whose submit → resolve time
  /// crossed the threshold, cache hits and errors included).
  struct SlowQuery {
    SessionId session = 0;
    std::string dataset;
    std::string zql;  ///< canonical text (empty for parse errors)
    std::string fingerprint;
    Status status;
    zql::ZqlStats stats;
    double total_ms = 0;
    /// The query's span tree when it was traced; null otherwise.
    std::shared_ptr<const Trace> trace;
  };

  /// The last (up to) kSlowRingCapacity slow queries, most recent first.
  std::vector<SlowQuery> SlowQueries() const;
  static constexpr size_t kSlowRingCapacity = 32;

  /// The registry this service records into (never null).
  MetricsRegistry* metrics() const { return metrics_; }
  bool trace_all() const { return trace_all_; }
  double slow_query_ms() const { return slow_query_ms_; }

  /// The base ZqlOptions every query executes under (modulo the per-query
  /// `optimization` override) — the configuration EXPLAIN plans against.
  const zql::ZqlOptions& zql_options() const { return base_zql_; }

  size_t max_inflight() const { return max_inflight_; }
  size_t max_queue() const { return max_queue_; }
  size_t cache_bytes() const { return result_cache_.max_bytes_total(); }

 private:
  struct Dataset {
    std::shared_ptr<Table> table;
    std::shared_ptr<Database> db;
    uint64_t epoch = 1;
  };

  void WorkerMain(size_t worker_index);
  void RunTask(const std::shared_ptr<QueryTask>& task);
  /// Shared Submit body: `canonical` is the query's canonical AST
  /// serialization (already computed so the text path canonicalizes once).
  Result<QueryHandle> SubmitCanonical(
      SessionId session, const std::string& dataset, zql::ZqlQuery query,
      const std::string& canonical, std::optional<zql::OptLevel> optimization,
      bool trace);
  /// Closes out one resolved query: latency histogram, the slow-query
  /// ring, and the trace root span's duration.
  void RecordCompletion(QueryTask& task, const Status& status,
                        const zql::ZqlStats& stats, double total_ms);
  /// Admits a query whose parse already failed: the error surfaces on the
  /// returned handle (kNotFound still surfaces here for a dead session or
  /// dataset, matching the typed path).
  Result<QueryHandle> SubmitParseError(SessionId session,
                                       const std::string& dataset,
                                       Status parse_error);
  /// Moves the session's next runnable task to the ready queue (or clears
  /// its running slot). Requires mu_.
  void AdvanceSessionLocked(const std::shared_ptr<QueryTask>& finished);
  /// Resolves every queued task of `session` with kCancelled and cancels
  /// its executing one, if any. Requires mu_.
  void DrainSessionLocked(Session& session);

  zql::ZqlOptions base_zql_;
  size_t max_inflight_ = 4;
  size_t max_queue_ = 32;
  bool result_cache_enabled_ = true;
  Clock* clock_;
  bool trace_all_ = false;
  double slow_query_ms_ = 100;

  /// Metrics, resolved once at construction (see ServiceOptions::metrics).
  MetricsRegistry* metrics_ = nullptr;
  Histogram* m_latency_ = nullptr;     ///< zv_query_latency_ms
  Histogram* m_queue_wait_ = nullptr;  ///< zv_queue_wait_ms
  Histogram* m_fetch_ = nullptr;       ///< zv_fetch_stage_ms
  Histogram* m_score_ = nullptr;       ///< zv_score_stage_ms
  Histogram* m_shard_ = nullptr;       ///< zv_shard_scan_ms
  Counter* c_submitted_ = nullptr;
  Counter* c_completed_ = nullptr;
  Counter* c_failed_ = nullptr;
  Counter* c_cancelled_ = nullptr;
  Counter* c_rejected_ = nullptr;
  Counter* c_cache_hits_ = nullptr;    ///< zv_result_cache_hits
  Counter* c_cache_misses_ = nullptr;  ///< zv_result_cache_misses
  Counter* c_ctx_reused_ = nullptr;    ///< zv_context_cache_reused

  /// Slow-query ring (most recent at the back), its own lock so a slow
  /// burst never contends with the scheduling mutex.
  mutable std::mutex slow_mu_;
  std::deque<SlowQuery> slow_ring_;
  std::atomic<uint64_t> slow_queries_{0};

  ResultCache result_cache_;
  /// Cross-query shared-scan queue: every served query's row selections
  /// join its passes (engine/shared_scan.h). Destroyed after the workers
  /// join (dtor body), so no caller can still be blocked in SelectRows
  /// when it goes down.
  std::unique_ptr<BatchScanQueue> batch_scans_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  bool stop_ = false;
  std::unordered_map<std::string, Dataset> datasets_;
  SessionManager sessions_;
  std::deque<std::shared_ptr<QueryTask>> ready_;
  /// Waiting queries (ready_ + session fifos, not yet started) — the
  /// admission-control gauge. Shared with every task (each holds the
  /// pointer) so QueryHandle::Cancel can release a dead queued entry's
  /// slot immediately instead of leaving it counted until a worker pops
  /// it; tasks therefore never need a back-pointer into the service.
  std::shared_ptr<std::atomic<int64_t>> queued_count_ =
      std::make_shared<std::atomic<int64_t>>(0);
  size_t in_flight_ = 0;  ///< currently executing
  std::vector<std::shared_ptr<QueryTask>> current_;  ///< per-worker slot
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> contexts_reused_{0};
};

}  // namespace zv::server

#endif  // ZV_SERVER_QUERY_SERVICE_H_
