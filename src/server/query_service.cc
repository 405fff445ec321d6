#include "server/query_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/cancel.h"
#include "common/clock.h"
#include "common/sync.h"
#include "common/strings.h"
#include "engine/roaring_db.h"
#include "server/fingerprint.h"
#include "zql/canonical.h"
#include "zql/parser.h"

namespace zv::server {

namespace {

size_t EnvSize(const char* name, size_t def) {
  if (const char* env = std::getenv(name)) {
    const long long v = std::atoll(env);
    if (v >= 0) return static_cast<size_t>(v);
  }
  return def;
}

/// For knobs where 0 is nonsense (0 workers = every query hangs; 0 queue
/// slots = every Submit rejected) — and where atoll's 0-on-garbage would
/// silently produce exactly that. Falls back to the default instead.
size_t EnvSizePositive(const char* name, size_t def) {
  if (const char* env = std::getenv(name)) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return def;
}

double EnvDouble(const char* name, double def) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env) return v;
  }
  return def;
}

/// The result-cache budget in bytes: `cache_mb`, or ZV_CACHE_MB when it
/// is SIZE_MAX. A budget past SIZE_MAX bytes saturates instead of
/// wrapping (2^44 MB would otherwise wrap to 0 and disable the cache).
size_t ResolveCacheBytes(size_t cache_mb) {
  constexpr size_t kMiB = size_t{1} << 20;
  const size_t mb = cache_mb == static_cast<size_t>(-1)
                        ? EnvSize("ZV_CACHE_MB", 48)
                        : cache_mb;
  return mb > SIZE_MAX / kMiB ? SIZE_MAX : mb * kMiB;
}

}  // namespace

/// \brief One submitted query, shared between its QueryHandle copies, the
/// session FIFO, the ready queue, and the executing worker. Immutable
/// after Submit() except for the mu-guarded resolution block.
struct QueryTask {
  SessionId session = 0;
  std::string dataset;
  zql::ZqlQuery query;  ///< the typed payload (parsed or builder-built)
  std::string fingerprint;
  std::string canonical;  ///< canonical ZQL text (for the slow-query log)
  /// Submission instant — the epoch for queue-wait and submit→complete
  /// latency (and the owning Trace's epoch, when traced).
  std::chrono::steady_clock::time_point submit_tp;
  /// The query's span tree; null for untraced queries. Written by the
  /// executing worker, published by task resolution, then immutable.
  std::shared_ptr<Trace> trace;
  std::shared_ptr<Database> db;  ///< snapshot: ReplaceDataset can't race us
  std::string table_name;
  std::map<std::string, Visualization> user_inputs;  ///< session snapshot
  std::optional<zql::OptLevel> opt_override;
  CancelToken token;

  /// The service's admission gauge, co-owned so the slot can be released
  /// from the handle even as the service shuts down.
  std::shared_ptr<std::atomic<int64_t>> queued_slot;

  std::mutex mu;
  std::condition_variable cv;
  bool queued_counted = false;  ///< still holds an admission-queue slot
  bool started = false;
  bool done = false;
  Status status;
  std::shared_ptr<const zql::ZqlResult> result;
  zql::ZqlStats stats;
};

namespace {

/// Releases the task's admission-queue slot. Exactly-once: guarded by
/// queued_counted under t.mu, so the handle's Cancel, the popping worker,
/// session drains, and shutdown can all race to it safely.
void ReleaseQueueSlotLocked(QueryTask& t) {
  if (t.queued_counted) {
    t.queued_counted = false;
    t.queued_slot->fetch_sub(1, std::memory_order_relaxed);
  }
}

void ReleaseQueueSlot(QueryTask& t) {
  std::lock_guard<std::mutex> lock(t.mu);
  ReleaseQueueSlotLocked(t);
}

/// Resolves `t` exactly once; later calls (a lost cancel/finish race) are
/// no-ops, so the first resolution wins.
void ResolveTask(QueryTask& t, Status status,
                 std::shared_ptr<const zql::ZqlResult> result,
                 const zql::ZqlStats& stats) {
  std::lock_guard<std::mutex> lock(t.mu);
  if (t.done) return;
  t.done = true;
  t.status = std::move(status);
  t.result = std::move(result);
  t.stats = stats;
  t.cv.notify_all();
}

}  // namespace

// ===========================================================================
// QueryHandle
// ===========================================================================

void QueryHandle::Cancel() {
  if (task_ == nullptr) return;
  task_->token.Cancel();
  // A query that never started needs no cooperation — resolve it here.
  // The worker that later pops it sees done and skips (counting it
  // cancelled); an already-started query resolves through its executor.
  std::lock_guard<std::mutex> lock(task_->mu);
  if (!task_->done && !task_->started) {
    task_->done = true;
    task_->status = Status::Cancelled("cancelled while queued");
    // Free the admission slot now — a dead queued entry must not keep
    // rejecting new submissions until a worker happens to pop it.
    ReleaseQueueSlotLocked(*task_);
    task_->cv.notify_all();
  }
}

Status QueryHandle::Wait() {
  if (task_ == nullptr) return Status::InvalidArgument("null query handle");
  std::unique_lock<std::mutex> lock(task_->mu);
  task_->cv.wait(lock, [&] { return task_->done; });
  return task_->status;
}

bool QueryHandle::done() const {
  if (task_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(task_->mu);
  return task_->done;
}

std::shared_ptr<const zql::ZqlResult> QueryHandle::result() const {
  if (task_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(task_->mu);
  return task_->result;
}

zql::ZqlStats QueryHandle::stats() const {
  if (task_ == nullptr) return {};
  std::lock_guard<std::mutex> lock(task_->mu);
  return task_->stats;
}

std::string QueryHandle::fingerprint() const {
  // Immutable after Submit — no lock needed.
  return task_ == nullptr ? std::string() : task_->fingerprint;
}

std::shared_ptr<const Trace> QueryHandle::trace() const {
  if (task_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(task_->mu);
  // Gated on resolution: the tree is still being written until then (the
  // ResolveTask handshake orders those writes before this read).
  return task_->done ? task_->trace : nullptr;
}

// ===========================================================================
// QueryService
// ===========================================================================

QueryService::QueryService(ServiceOptions options)
    : base_zql_(std::move(options.zql)),
      max_inflight_(std::min(options.max_inflight > 0
                                 ? options.max_inflight
                                 : EnvSizePositive("ZV_MAX_INFLIGHT", 4),
                             kMaxInflight)),
      max_queue_(options.max_queue > 0
                     ? options.max_queue
                     : EnvSizePositive("ZV_MAX_QUEUE", 32)),
      result_cache_enabled_(options.result_cache),
      clock_(options.clock != nullptr ? options.clock : Clock::System()),
      trace_all_(options.trace_all >= 0 ? options.trace_all != 0
                                        : EnvSize("ZV_TRACE", 0) != 0),
      slow_query_ms_(std::isnan(options.slow_query_ms)
                         ? EnvDouble("ZV_SLOW_QUERY_MS", 100)
                         : options.slow_query_ms),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : MetricsRegistry::Global()),
      result_cache_(ResolveCacheBytes(options.cache_mb)),
      sessions_(clock_, options.session_ttl_ms) {
  base_zql_.sql_trace = nullptr;  // executors run concurrently
  // Traces are per-task (QueryTask::trace); a caller-provided shared span
  // tree would interleave concurrent queries' spans.
  base_zql_.trace = nullptr;
  base_zql_.trace_parent = nullptr;
  m_latency_ = metrics_->GetHistogram("zv_query_latency_ms");
  m_queue_wait_ = metrics_->GetHistogram("zv_queue_wait_ms");
  m_fetch_ = metrics_->GetHistogram("zv_fetch_stage_ms");
  m_score_ = metrics_->GetHistogram("zv_score_stage_ms");
  m_shard_ = metrics_->GetHistogram("zv_shard_scan_ms");
  c_submitted_ = metrics_->GetCounter("zv_queries_submitted");
  c_completed_ = metrics_->GetCounter("zv_queries_completed");
  c_failed_ = metrics_->GetCounter("zv_queries_failed");
  c_cancelled_ = metrics_->GetCounter("zv_queries_cancelled");
  c_rejected_ = metrics_->GetCounter("zv_queries_rejected");
  c_cache_hits_ = metrics_->GetCounter("zv_result_cache_hits");
  c_cache_misses_ = metrics_->GetCounter("zv_result_cache_misses");
  c_ctx_reused_ = metrics_->GetCounter("zv_context_cache_reused");
  if (result_cache_.max_bytes_total() == 0) result_cache_enabled_ = false;
  BatchScanOptions bopts;
  bopts.window_ms = options.batch_window_ms;
  bopts.metrics = metrics_;
  batch_scans_ = std::make_unique<BatchScanQueue>(bopts);
  base_zql_.batch_scans = batch_scans_.get();
  current_.resize(max_inflight_);
  workers_.reserve(max_inflight_);
  for (size_t i = 0; i < max_inflight_; ++i) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
}

QueryService::~QueryService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    // Resolve everything still waiting; cancel everything executing. No
    // handle is left unresolved, so handles may safely outlive us.
    for (const auto& task : ready_) {
      ResolveTask(*task, Status::Cancelled("service shutting down"), nullptr,
                  {});
      ReleaseQueueSlot(*task);
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      c_cancelled_->Increment();
    }
    ready_.clear();
    for (const auto& session : sessions_.All()) {
      DrainSessionLocked(*session);
    }
    for (const auto& task : current_) {
      if (task != nullptr) task->token.Cancel();
    }
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

// --- Datasets --------------------------------------------------------------

Status QueryService::RegisterDataset(std::shared_ptr<Table> table,
                                     std::shared_ptr<Database> db) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (db == nullptr) {
    db = std::make_shared<RoaringDatabase>();
    ZV_RETURN_NOT_OK(db->RegisterTable(table));
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::string& name = table->name();
  if (datasets_.count(name)) {
    return Status::AlreadyExists("dataset already registered: " + name);
  }
  datasets_[name] = Dataset{std::move(table), std::move(db), 1};
  return Status::OK();
}

Status QueryService::ReplaceDataset(std::shared_ptr<Table> table,
                                    std::shared_ptr<Database> db) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (db == nullptr) {
    db = std::make_shared<RoaringDatabase>();
    ZV_RETURN_NOT_OK(db->RegisterTable(table));
  }
  const std::string name = table->name();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasets_.find(name);
    if (it == datasets_.end()) {
      return Status::NotFound("no such dataset: " + name);
    }
    it->second.table = std::move(table);
    it->second.db = std::move(db);
    ++it->second.epoch;  // every old fingerprint is now unreachable
  }
  result_cache_.EraseDataset(name);
  return Status::OK();
}

Result<uint64_t> QueryService::DatasetEpoch(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) return Status::NotFound("no such dataset: " + name);
  return it->second.epoch;
}

Result<std::shared_ptr<Database>> QueryService::DatasetDatabase(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) return Status::NotFound("no such dataset: " + name);
  return it->second.db;
}

Result<std::shared_ptr<Table>> QueryService::DatasetTable(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) return Status::NotFound("no such dataset: " + name);
  return it->second.table;
}

std::vector<std::string> QueryService::DatasetNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  // zv-lint: order-independent — sorted before returning.
  for (const auto& [name, d] : datasets_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

// --- Sessions --------------------------------------------------------------

Result<SessionId> QueryService::CreateSession() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) return Status::Unavailable("service shutting down");
  sessions_.SweepExpired();  // expired sessions have no queued work
  return sessions_.Create()->id;
}

Status QueryService::EndSession(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto session = sessions_.Find(id);
  if (session == nullptr) {
    return Status::NotFound(StrFormat("unknown session %llu",
                                      static_cast<unsigned long long>(id)));
  }
  DrainSessionLocked(*session);
  sessions_.End(id);
  return Status::OK();
}

Status QueryService::SetUserInput(SessionId id, const std::string& name,
                                  Visualization viz) {
  std::lock_guard<std::mutex> lock(mu_);
  auto session = sessions_.Find(id);
  if (session == nullptr) {
    return Status::NotFound(StrFormat("unknown session %llu",
                                      static_cast<unsigned long long>(id)));
  }
  session->user_inputs[name] = std::move(viz);
  session->inputs_fingerprint = UserInputsFingerprint(session->user_inputs);
  sessions_.Touch(*session);
  return Status::OK();
}

size_t QueryService::ActiveSessions() {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.SweepExpired();
  return sessions_.size();
}

Status QueryService::TouchSession(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) return Status::Unavailable("service shutting down");
  sessions_.SweepExpired();
  auto session = sessions_.Find(id);
  if (session == nullptr) {
    return Status::NotFound(
        StrFormat("unknown or expired session %llu",
                  static_cast<unsigned long long>(id)));
  }
  sessions_.Touch(*session);
  return Status::OK();
}

// --- Queries ---------------------------------------------------------------

Result<QueryHandle> QueryService::Submit(
    SessionId session_id, const std::string& dataset,
    const std::string& zql_text, std::optional<zql::OptLevel> optimization,
    bool trace) {
  // Parse outside the service lock; the shared canonical path does the
  // rest. A parse failure is a property of the query, not the service —
  // it surfaces on the handle, exactly as execution errors do.
  Result<zql::ZqlQuery> parsed = zql::ParseQuery(zql_text);
  if (!parsed.ok()) {
    return SubmitParseError(session_id, dataset, parsed.status());
  }
  zql::ZqlQuery query = std::move(parsed).value();
  std::string canonical = zql::CanonicalText(query);
  return SubmitCanonical(session_id, dataset, std::move(query), canonical,
                         optimization, trace);
}

Result<QueryHandle> QueryService::Submit(
    SessionId session_id, const std::string& dataset,
    const zql::ZqlQuery& query, std::optional<zql::OptLevel> optimization,
    bool trace) {
  // Canonicalize outside the lock: this serialization is the cache
  // identity, shared by text- and builder-submitted queries.
  return SubmitCanonical(session_id, dataset, query,
                         zql::CanonicalText(query), optimization, trace);
}

Result<QueryHandle> QueryService::SubmitParseError(SessionId session_id,
                                                   const std::string& dataset,
                                                   Status parse_error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) return Status::Unavailable("service shutting down");
  sessions_.SweepExpired();
  auto session = sessions_.Find(session_id);
  if (session == nullptr) {
    return Status::NotFound(
        StrFormat("unknown or expired session %llu",
                  static_cast<unsigned long long>(session_id)));
  }
  if (datasets_.find(dataset) == datasets_.end()) {
    return Status::NotFound("unknown dataset: " + dataset);
  }
  sessions_.Touch(*session);
  ++session->queries_submitted;
  ++session->queries_completed;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  failed_.fetch_add(1, std::memory_order_relaxed);
  c_submitted_->Increment();
  c_failed_->Increment();
  auto task = std::make_shared<QueryTask>();
  task->session = session_id;
  task->dataset = dataset;
  ResolveTask(*task, std::move(parse_error), nullptr, {});
  return QueryHandle(std::move(task));
}

Result<QueryHandle> QueryService::SubmitCanonical(
    SessionId session_id, const std::string& dataset, zql::ZqlQuery query,
    const std::string& canonical, std::optional<zql::OptLevel> optimization,
    bool trace) {
  std::shared_ptr<QueryTask> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return Status::Unavailable("service shutting down");
    sessions_.SweepExpired();
    auto session = sessions_.Find(session_id);
    if (session == nullptr) {
      return Status::NotFound(
          StrFormat("unknown or expired session %llu",
                    static_cast<unsigned long long>(session_id)));
    }
    auto dit = datasets_.find(dataset);
    if (dit == datasets_.end()) {
      return Status::NotFound("unknown dataset: " + dataset);
    }
    const int64_t waiting =
        queued_count_->load(std::memory_order_relaxed);
    if (waiting >= static_cast<int64_t>(max_queue_)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      c_rejected_->Increment();
      return Status::Unavailable(StrFormat(
          "admission control: %lld queries already waiting "
          "(ZV_MAX_QUEUE=%zu) — retry later",
          static_cast<long long>(waiting), max_queue_));
    }
    sessions_.Touch(*session);
    ++session->queries_submitted;
    submitted_.fetch_add(1, std::memory_order_relaxed);
    c_submitted_->Increment();

    task = std::make_shared<QueryTask>();
    task->session = session_id;
    task->dataset = dataset;
    task->query = std::move(query);
    task->db = dit->second.db;
    task->table_name = dit->second.table->name();
    task->user_inputs = session->user_inputs;
    task->opt_override = optimization;
    task->canonical = canonical;
    const zql::OptLevel effective =
        optimization.value_or(base_zql_.optimization);
    task->fingerprint = QueryFingerprint(
        dataset, dit->second.epoch, dit->second.db->name(), effective,
        canonical, session->inputs_fingerprint);
    task->submit_tp = SteadyNow();
    if (trace || trace_all_) {
      // The trace epoch is the submission instant: span offsets measure
      // time since submit, including the admission queue wait.
      task->trace = std::make_shared<Trace>();
      task->trace->root()->SetStr("dataset", dataset);
      task->trace->root()->SetStr("fingerprint", task->fingerprint);
    }

    // Fast path: an *idle* session's repeat query is a shard-local hash
    // lookup — serve it here, consuming neither a queue slot nor a worker,
    // so a cached answer can never be rejected by admission control or
    // convoyed behind cold queries. Gated on the session being idle
    // because serving it early would otherwise reorder the session's
    // responses (per-session FIFO); queued tasks re-probe in RunTask.
    if (result_cache_enabled_ && !session->running) {
      const auto t0 = SteadyNow();
      std::shared_ptr<const zql::ZqlResult> hit;
      {
        TraceScope lookup(task->trace.get(), nullptr, "cache_lookup");
        hit = result_cache_.Probe(task->dataset, task->fingerprint);
        lookup.SetBool("hit", hit != nullptr);
      }
      if (hit != nullptr) {
        zql::ZqlStats stats = hit->stats;
        stats.cache_hits = 1;
        stats.cache_misses = 0;
        stats.total_ms = MsSince(t0);
        completed_.fetch_add(1, std::memory_order_relaxed);
        c_completed_->Increment();
        c_cache_hits_->Increment();
        ++session->queries_completed;
        RecordCompletion(*task, Status::OK(), stats,
                         MsSince(task->submit_tp));
        ResolveTask(*task, Status::OK(), std::move(hit), stats);
        return QueryHandle(std::move(task));
      }
    }

    task->queued_slot = queued_count_;
    task->queued_counted = true;
    queued_count_->fetch_add(1, std::memory_order_relaxed);
    if (session->running) {
      session->fifo.push_back(task);  // per-session FIFO: wait for earlier
    } else {
      session->running = true;
      session->active = task;
      ready_.push_back(task);
      work_cv_.notify_one();
    }
  }
  return QueryHandle(std::move(task));
}

void QueryService::WorkerMain(size_t worker_index) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !ready_.empty(); });
    if (stop_) return;
    std::shared_ptr<QueryTask> task = ready_.front();
    ready_.pop_front();
    ++in_flight_;
    current_[worker_index] = task;
    {
      ScopedUnlock unlocked(lock);  // run the task outside the service lock
      bool skip = false;
      {
        std::lock_guard<std::mutex> tl(task->mu);
        ReleaseQueueSlotLocked(*task);  // no longer waiting (it's ours now)
        if (task->done) {
          skip = true;  // cancelled while queued; already resolved
        } else {
          task->started = true;
        }
      }
      if (skip) {
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        c_cancelled_->Increment();
      } else {
        RunTask(task);
      }
    }
    current_[worker_index] = nullptr;
    --in_flight_;
    AdvanceSessionLocked(task);
  }
}

void QueryService::RunTask(const std::shared_ptr<QueryTask>& task) {
  const auto t0 = SteadyNow();
  Trace* trace = task->trace.get();
  // Admission wait: everything between Submit and this worker picking the
  // task up (the trace epoch is the submission instant, so the span runs
  // from 0 to now).
  const double wait_ms = MsBetween(task->submit_tp, t0);
  m_queue_wait_->Record(wait_ms);
  if (trace != nullptr) {
    trace->Add(nullptr, "queue_wait", 0.0, wait_ms);
  }
  if (result_cache_enabled_) {
    std::shared_ptr<const zql::ZqlResult> hit;
    {
      TraceScope lookup(trace, nullptr, "cache_lookup");
      hit = result_cache_.Get(task->dataset, task->fingerprint);
      lookup.SetBool("hit", hit != nullptr);
    }
    if (hit != nullptr) {
      zql::ZqlStats stats = hit->stats;
      stats.cache_hits = 1;
      stats.cache_misses = 0;
      stats.total_ms = MsSince(t0);  // the lookup, not the original run
      completed_.fetch_add(1, std::memory_order_relaxed);
      c_completed_->Increment();
      c_cache_hits_->Increment();
      RecordCompletion(*task, Status::OK(), stats, MsSince(task->submit_tp));
      ResolveTask(*task, Status::OK(), std::move(hit), stats);
      return;
    }
  }

  zql::ZqlOptions opts = base_zql_;
  opts.trace = trace;
  opts.trace_parent = nullptr;  // operator spans nest under the root
  if (task->opt_override.has_value()) {
    opts.optimization = *task->opt_override;
  }
  zql::ZqlExecutor executor(task->db.get(), task->table_name, opts);
  for (const auto& [name, viz] : task->user_inputs) {
    executor.SetUserInput(name, viz);
  }

  CancelScope cancel_scope(task->token);
  Result<zql::ZqlResult> res = executor.Execute(task->query);
  if (!res.ok()) {
    const bool was_cancel = res.status().code() == StatusCode::kCancelled;
    auto& counter = was_cancel ? cancelled_ : failed_;
    counter.fetch_add(1, std::memory_order_relaxed);
    (was_cancel ? c_cancelled_ : c_failed_)->Increment();
    RecordCompletion(*task, res.status(), {}, MsSince(task->submit_tp));
    ResolveTask(*task, res.status(), nullptr, {});
    return;
  }

  zql::ZqlResult result = std::move(res).value();
  contexts_reused_.fetch_add(result.stats.contexts_reused,
                             std::memory_order_relaxed);
  c_ctx_reused_->Increment(result.stats.contexts_reused);
  if (result_cache_enabled_) {
    result.stats.cache_misses = 1;
    c_cache_misses_->Increment();
  }
  // Stage histograms: pure scan and scoring time per executed query (the
  // shard histogram only when a shared chunk pass actually scanned).
  m_fetch_->Record(result.stats.fetch_ms);
  m_score_->Record(result.stats.score_ms);
  if (result.stats.chunks_scanned > 0) {
    m_shard_->Record(result.stats.shard_ms);
  }
  auto shared = std::make_shared<const zql::ZqlResult>(std::move(result));
  // A cancel that arrived after the last cancellation point must not
  // poison the cache with a result we'll report as kCancelled elsewhere —
  // it didn't: execution completed. Cache it; it is a full, valid result.
  if (result_cache_enabled_) {
    result_cache_.Put(task->dataset, task->fingerprint, shared);
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  c_completed_->Increment();
  RecordCompletion(*task, Status::OK(), shared->stats,
                   MsSince(task->submit_tp));
  ResolveTask(*task, Status::OK(), shared, shared->stats);
}

void QueryService::RecordCompletion(QueryTask& task, const Status& status,
                                    const zql::ZqlStats& stats,
                                    double total_ms) {
  // Submit → resolve, cache hits and errors included — the latency a
  // client actually observed.
  m_latency_->Record(total_ms);
  if (task.trace != nullptr) {
    // Close the root span; the caller publishes it via ResolveTask, after
    // which the tree is immutable.
    task.trace->root()->duration_ms = task.trace->NowMs();
  }
  if (slow_query_ms_ < 0 || total_ms < slow_query_ms_) return;
  slow_queries_.fetch_add(1, std::memory_order_relaxed);
  SlowQuery entry;
  entry.session = task.session;
  entry.dataset = task.dataset;
  entry.zql = task.canonical;
  entry.fingerprint = task.fingerprint;
  entry.status = status;
  entry.stats = stats;
  entry.total_ms = total_ms;
  entry.trace = task.trace;
  std::lock_guard<std::mutex> lock(slow_mu_);
  slow_ring_.push_back(std::move(entry));
  if (slow_ring_.size() > kSlowRingCapacity) slow_ring_.pop_front();
}

std::vector<QueryService::SlowQuery> QueryService::SlowQueries() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return std::vector<SlowQuery>(slow_ring_.rbegin(), slow_ring_.rend());
}

void QueryService::AdvanceSessionLocked(
    const std::shared_ptr<QueryTask>& finished) {
  auto session = sessions_.Find(finished->session);
  if (session == nullptr) return;  // ended while we executed
  sessions_.Touch(*session);
  ++session->queries_completed;
  session->active = nullptr;
  while (!session->fifo.empty()) {
    std::shared_ptr<QueryTask> next = session->fifo.front();
    session->fifo.pop_front();
    bool already_done;
    {
      std::lock_guard<std::mutex> tl(next->mu);
      already_done = next->done;
      if (already_done) ReleaseQueueSlotLocked(*next);
    }
    if (already_done) {  // cancelled while in the FIFO
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      c_cancelled_->Increment();
      continue;
    }
    session->active = next;
    ready_.push_back(next);
    work_cv_.notify_one();
    return;  // session keeps its running slot
  }
  session->running = false;
}

void QueryService::DrainSessionLocked(Session& session) {
  for (const auto& task : session.fifo) {
    ResolveTask(*task, Status::Cancelled("session ended"), nullptr, {});
    ReleaseQueueSlot(*task);
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    c_cancelled_->Increment();
  }
  session.fifo.clear();
  if (session.active != nullptr) {
    // Executing (or sitting in ready_): cancel cooperatively; the worker
    // resolves it and finds the session gone.
    session.active->token.Cancel();
    std::lock_guard<std::mutex> tl(session.active->mu);
    if (!session.active->done && !session.active->started) {
      session.active->done = true;
      session.active->status = Status::Cancelled("session ended");
      ReleaseQueueSlotLocked(*session.active);
      session.active->cv.notify_all();
    }
  }
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.cache_hits = result_cache_.hits();
  s.cache_misses = result_cache_.misses();
  s.contexts_reused = contexts_reused_.load(std::memory_order_relaxed);
  s.batch_passes = batch_scans_->passes();
  s.batch_passes_shared = batch_scans_->shared_passes();
  s.batch_statements = batch_scans_->statements_served();
  s.slow_queries = slow_queries_.load(std::memory_order_relaxed);
  s.result_cache_bytes = result_cache_.bytes();
  s.result_cache_entries = result_cache_.entries();
  const int64_t waiting = queued_count_->load(std::memory_order_relaxed);
  s.queued = waiting > 0 ? static_cast<size_t>(waiting) : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.sessions = sessions_.size();
    s.in_flight = in_flight_;
  }
  return s;
}

}  // namespace zv::server
