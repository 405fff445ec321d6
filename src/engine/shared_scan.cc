#include "engine/shared_scan.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/cancel.h"
#include "common/clock.h"
#include "common/sync.h"

namespace zv {

namespace {

/// How often a waiting caller re-checks its cancellation token. The wait
/// is otherwise event-driven (done_cv_), so this only bounds how stale a
/// cancel can go unnoticed.
constexpr std::chrono::milliseconds kCancelPollInterval{2};

double ResolveWindowMs(double requested) {
  if (requested >= 0) return requested;
  const char* env = std::getenv("ZV_BATCH_WINDOW_MS");
  if (env != nullptr && *env != '\0') {
    const double parsed = std::strtod(env, nullptr);
    if (parsed > 0) return parsed;
  }
  return 0;
}

size_t ResolveWorkers(size_t requested) {
  if (requested > 0) return requested;
  const size_t hw = std::thread::hardware_concurrency();
  return std::min<size_t>(4, std::max<size_t>(1, hw));
}

}  // namespace

/// One SelectRows call, self-contained: the scanner pins the table
/// snapshot, so the pass can finish even after the caller abandoned (and
/// its Database possibly died — `db` is only ever compared, never
/// dereferenced, past enqueue).
struct BatchScanQueue::Request {
  const Database* db = nullptr;  ///< group key half 1 (identity only)
  std::string table;             ///< group key half 2
  ChunkMap map;
  std::unique_ptr<MultiChunkScanner> scanner;
  size_t num_stmts = 0;
  std::chrono::steady_clock::time_point arrival;

  // Filled by the pass, read by the caller after `done`.
  Status status = Status::OK();
  std::vector<std::vector<uint32_t>> rows;
  uint64_t chunks_scanned = 0;
  double scan_ms = 0;
  double job_ms = 0;
  bool shared = false;
  bool done = false;
};

/// One scan pass: the fused/parallel work unit the coordinator cuts from a
/// (db, table) group. Jobs are (unit, chunk) pairs claimed via an atomic
/// counter — no bounded queues, so a pass can never wedge on its own
/// results — and every job writes into a preallocated slot, keeping the
/// demultiplexed concatenation positional (chunk order == serial order).
struct BatchScanQueue::Pass {
  struct Unit {
    std::unique_ptr<MultiChunkScanner> scanner;
    /// (member index, statement slot base) per absorbed request, in
    /// absorb order — the demultiplexing table.
    std::vector<std::pair<size_t, size_t>> segments;
  };

  ChunkMap map;
  std::vector<Unit> units;
  size_t chunks = 0;
  size_t total = 0;  ///< units × chunks
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::vector<Status> statuses;
  std::vector<double> job_ms;                            ///< per job
  std::vector<std::vector<std::vector<uint32_t>>> outs;  ///< per job, per stmt
  std::mutex m;
  std::condition_variable cv;
};

BatchScanQueue::BatchScanQueue(BatchScanOptions options)
    : window_ms_(ResolveWindowMs(options.window_ms)),
      num_workers_(ResolveWorkers(options.workers)) {
  MetricsRegistry* metrics = options.metrics != nullptr
                                 ? options.metrics
                                 : MetricsRegistry::Global();
  hold_hist_ = metrics->GetHistogram("zv_batch_hold_ms");
  pass_hist_ = metrics->GetHistogram("zv_batch_pass_ms");
}

BatchScanQueue::~BatchScanQueue() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  pass_cv_.notify_all();
  if (coordinator_.joinable()) coordinator_.join();
  for (std::thread& w : workers_) w.join();
}

BatchScanQueue::Selection BatchScanQueue::SelectRows(
    Database* db, const std::string& table,
    const std::vector<const sql::SelectStatement*>& stmts) {
  Selection sel;
  Result<ChunkMap> map = db->GetChunkMap(table);
  if (!map.ok()) {
    sel.status = map.status();
    return sel;
  }
  if (map.value().num_chunks() == 0) {
    // Empty table: every statement selects nothing; no pass needed.
    sel.rows.resize(stmts.size());
    return sel;
  }
  // Prepare on the calling thread — compile errors surface here (failing
  // only this query, never a pass sibling), and the scanner becomes
  // self-contained before anything crosses threads.
  Result<std::unique_ptr<MultiChunkScanner>> scanner =
      db->PrepareMultiChunkScan(stmts);
  if (!scanner.ok()) {
    sel.status = scanner.status();
    return sel;
  }

  auto req = std::make_shared<Request>();
  req->db = db;
  req->table = table;
  req->map = map.value();
  req->scanner = std::move(scanner.value());
  req->num_stmts = stmts.size();
  req->arrival = SteadyNow();

  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) {
    sel.status = Status(StatusCode::kUnavailable, "batch queue shutting down");
    return sel;
  }
  pending_.push_back(req);
  EnsureThreadsLocked();
  work_cv_.notify_one();
  while (!req->done) {
    done_cv_.wait_for(lock, kCancelPollInterval);
    if (req->done) break;
    if (CancellationRequested()) {
      // Abandon: drop out of the queue if the pass hasn't claimed us; if
      // it has, it completes without us (delivery into an abandoned
      // request is harmless — we hold the shared_ptr).
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->get() == req.get()) {
          pending_.erase(it);
          break;
        }
      }
      sel.status = Status(StatusCode::kCancelled, "query cancelled");
      return sel;
    }
  }
  sel.status = req->status;
  sel.rows = std::move(req->rows);
  sel.chunks_scanned = req->chunks_scanned;
  sel.scan_ms = req->scan_ms;
  sel.job_ms = req->job_ms;
  sel.shared = req->shared;
  return sel;
}

void BatchScanQueue::EnsureThreadsLocked() {
  if (threads_started_) return;
  threads_started_ = true;
  coordinator_ = std::thread([this] { CoordinatorMain(); });
  workers_.reserve(num_workers_);
  for (size_t i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

void BatchScanQueue::CoordinatorMain() {
  // Requests that may share a pass: same backend instance, same table,
  // identical chunk partitioning (an epoch bump swaps the Database, so
  // pre- and post-bump queries can never group).
  const auto same_group = [](const Request& a, const Request& b) {
    return a.db == b.db && a.table == b.table &&
           a.map.num_rows() == b.map.num_rows() &&
           a.map.num_chunks() == b.map.num_chunks();
  };
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] { return stop_ || !pending_.empty(); });
    if (stop_) return;
    if (window_ms_ > 0) {
      // Hold the pass open until window_ms past the oldest arrival; new
      // requests landing meanwhile simply join pending_ and get grouped.
      const auto deadline =
          pending_.front()->arrival +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(window_ms_));
      while (!stop_ && !pending_.empty() &&
             SteadyNow() < deadline) {
        work_cv_.wait_until(lock, deadline);
      }
      if (stop_) return;
      if (pending_.empty()) continue;  // every member abandoned meanwhile
    }
    const std::shared_ptr<Request> leader = pending_.front();
    std::vector<std::shared_ptr<Request>> members;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (same_group(**it, *leader)) {
        members.push_back(*it);
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    {
      ScopedUnlock unlocked(lock);  // the pass runs without the queue lock
      ExecutePass(members);
    }
    for (const auto& m : members) m->done = true;
    done_cv_.notify_all();
  }
}

void BatchScanQueue::WorkerMain() {
  uint64_t seen_gen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    pass_cv_.wait(lock, [&] { return stop_ || pass_gen_ != seen_gen; });
    if (stop_) return;
    seen_gen = pass_gen_;
    const std::shared_ptr<Pass> pass = current_pass_;
    {
      ScopedUnlock unlocked(lock);  // scan chunks without the queue lock
      if (pass != nullptr) RunJobs(pass.get());
    }
  }
}

void BatchScanQueue::RunJobs(Pass* pass) {
  while (true) {
    const size_t j = pass->next.fetch_add(1, std::memory_order_relaxed);
    if (j >= pass->total) return;
    const Pass::Unit& unit = pass->units[j / pass->chunks];
    const auto [begin, end] = pass->map.chunk_range(j % pass->chunks);
    pass->outs[j].resize(unit.scanner->num_statements());
    const auto t0 = SteadyNow();
    pass->statuses[j] = unit.scanner->ScanRange(begin, end, &pass->outs[j]);
    pass->job_ms[j] = MsSince(t0);
    if (pass->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        pass->total) {
      // Empty critical section pairs with the completion wait's predicate
      // check, so the final notify can never be missed.
      { std::lock_guard<std::mutex> g(pass->m); }
      pass->cv.notify_all();
    }
  }
}

void BatchScanQueue::ExecutePass(
    const std::vector<std::shared_ptr<Request>>& members) {
  const auto t0 = SteadyNow();
  // Group-commit hold: how long each member waited from arrival to the
  // pass being cut (the window plus any time behind an executing pass).
  for (const auto& m : members) {
    hold_hist_->Record(MsBetween(m->arrival, t0));
  }
  auto pass = std::make_shared<Pass>();
  pass->map = members[0]->map;
  pass->chunks = pass->map.num_chunks();

  // Fuse what can share a row loop; whatever can't (a different backend
  // strategy) still rides the same pass as its own unit.
  for (size_t m = 0; m < members.size(); ++m) {
    std::unique_ptr<MultiChunkScanner> scanner = std::move(members[m]->scanner);
    bool absorbed = false;
    for (Pass::Unit& unit : pass->units) {
      const size_t base = unit.scanner->num_statements();
      if (unit.scanner->Absorb(scanner)) {
        unit.segments.emplace_back(m, base);
        absorbed = true;
        break;
      }
    }
    if (!absorbed) {
      Pass::Unit unit;
      unit.scanner = std::move(scanner);
      unit.segments.emplace_back(m, 0);
      pass->units.push_back(std::move(unit));
    }
  }
  pass->total = pass->units.size() * pass->chunks;
  pass->statuses.assign(pass->total, Status::OK());
  pass->job_ms.assign(pass->total, 0);
  pass->outs.resize(pass->total);

  // Publish to the worker pool, scan alongside it, then wait out the last
  // straggler job.
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_pass_ = pass;
    ++pass_gen_;
  }
  pass_cv_.notify_all();
  RunJobs(pass.get());
  {
    std::unique_lock<std::mutex> lock(pass->m);
    pass->cv.wait(lock, [&] {
      return pass->done.load(std::memory_order_acquire) >= pass->total;
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_pass_.reset();
  }
  const double wall_ms = MsBetween(t0, SteadyNow());
  pass_hist_->Record(wall_ms);
  double job_ms = 0;
  for (double ms : pass->job_ms) job_ms += ms;

  // Demultiplex: per member, per statement, concatenate the chunk lists in
  // chunk order — the positional merge that equals a serial scan. Errors
  // surface as the first failing chunk index — the failure a serial scan,
  // which visits rows in ascending order, would have hit first.
  for (size_t u = 0; u < pass->units.size(); ++u) {
    const Pass::Unit& unit_ref = pass->units[u];
    Status unit_status = Status::OK();
    for (size_t c = 0; c < pass->chunks; ++c) {
      const Status& s = pass->statuses[u * pass->chunks + c];
      if (!s.ok()) {
        unit_status = s;
        break;
      }
    }
    for (const auto& [mi, base] : unit_ref.segments) {
      Request& req = *members[mi];
      req.status = unit_status;
      if (unit_status.ok()) {
        req.rows.resize(req.num_stmts);
        for (size_t s = 0; s < req.num_stmts; ++s) {
          size_t total_rows = 0;
          for (size_t c = 0; c < pass->chunks; ++c) {
            total_rows += pass->outs[u * pass->chunks + c][base + s].size();
          }
          std::vector<uint32_t>& rows = req.rows[s];
          rows.reserve(total_rows);
          for (size_t c = 0; c < pass->chunks; ++c) {
            const std::vector<uint32_t>& part =
                pass->outs[u * pass->chunks + c][base + s];
            rows.insert(rows.end(), part.begin(), part.end());
          }
        }
      }
      req.chunks_scanned =
          static_cast<uint64_t>(pass->chunks) * req.num_stmts;
      req.scan_ms = wall_ms;
      req.job_ms = job_ms;
      req.shared = members.size() > 1;
    }
  }

  passes_.fetch_add(1, std::memory_order_relaxed);
  if (members.size() > 1) shared_passes_.fetch_add(1, std::memory_order_relaxed);
  uint64_t stmts = 0;
  for (const auto& m : members) stmts += m->num_stmts;
  statements_.fetch_add(stmts, std::memory_order_relaxed);
}

}  // namespace zv
