#include "engine/shared_scan.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/cancel.h"
#include "common/clock.h"
#include "common/parallel.h"
#include "common/sync.h"

namespace zv {

namespace {

/// How often a waiting caller re-checks its cancellation token. The wait
/// is otherwise event-driven (done_cv_), so this only bounds how stale a
/// cancel can go unnoticed.
constexpr std::chrono::milliseconds kCancelPollInterval{2};

double ResolveWindowMs(double requested) {
  double window = requested;
  if (window < 0) {
    const char* env = std::getenv("ZV_BATCH_WINDOW_MS");
    window = env != nullptr ? std::strtod(env, nullptr) : 0;
  }
  // Non-finite and non-positive values mean no window; the cap keeps
  // LeadPass's deadline arithmetic far from overflow.
  if (!std::isfinite(window) || window <= 0) return 0;
  return std::min(window, kMaxBatchWindowMs);
}

/// A fused scan unit of a pass: one scanner plus its demultiplexing
/// table — (member index, statement slot base) per absorbed request, in
/// absorb order.
struct PassUnit {
  std::unique_ptr<MultiChunkScanner> scanner;
  std::vector<std::pair<size_t, size_t>> segments;
};

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
  std::vector<std::vector<std::vector<uint32_t>>> rows;
  uint64_t chunks_scanned = 0;
  double scan_ms = 0;
  double job_ms = 0;
  bool shared = false;
  bool done = false;
};

BatchScanQueue::BatchScanQueue(BatchScanOptions options)
    : window_ms_(ResolveWindowMs(options.window_ms)) {
  MetricsRegistry* metrics = options.metrics != nullptr
                                 ? options.metrics
                                 : MetricsRegistry::Global();
  hold_hist_ = metrics->GetHistogram("zv_batch_hold_ms");
  pass_hist_ = metrics->GetHistogram("zv_batch_pass_ms");
}

BatchScanQueue::Selection BatchScanQueue::SelectRows(
    Database* db, const std::string& table,
    const std::vector<const sql::SelectStatement*>& stmts) {
  Selection sel;
  // Prepare on the calling thread — compile errors surface here (failing
  // only this query, never a pass sibling), and the scanner becomes
  // self-contained before anything crosses threads.
  Result<std::unique_ptr<MultiChunkScanner>> scanner =
      db->PrepareMultiChunkScan(stmts);
  if (!scanner.ok()) {
    sel.status = scanner.status();
    return sel;
  }
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

  auto req = std::make_shared<Request>();
  req->db = db;
  req->table = table;
  req->map = map.value();
  req->scanner = std::move(scanner.value());
  req->num_stmts = stmts.size();
  req->arrival = SteadyNow();

  std::unique_lock<std::mutex> lock(mu_);
  pending_.push_back(req);
  const auto abandon = [&] {
    // Drop out of the queue if no pass has claimed us; if one has, it
    // completes without us (delivery into an abandoned request is
    // harmless — we hold the shared_ptr).
    pending_.erase(std::remove(pending_.begin(), pending_.end(), req),
                   pending_.end());
    sel.status = Status(StatusCode::kCancelled, "query cancelled");
    return sel;
  };
  while (!req->done) {
    if (CancellationRequested()) return abandon();
    if (pass_running_) {
      done_cv_.wait_for(lock, kCancelPollInterval);
      continue;
    }
    // Leader election: no pass is running, so this caller cuts the next
    // one — which need not carry its own request — and runs it.
    LeadPass(lock);
    if (CancellationRequested()) return abandon();
  }
  sel.status = req->status;
  sel.rows = std::move(req->rows);
  sel.chunks_scanned = req->chunks_scanned;
  sel.scan_ms = req->scan_ms;
  sel.job_ms = req->job_ms;
  sel.shared = req->shared;
  return sel;
}

void BatchScanQueue::LeadPass(std::unique_lock<std::mutex>& lock) {
  pass_running_ = true;
  if (window_ms_ > 0) {
    // Hold the pass open until window_ms past the oldest arrival; new
    // requests landing meanwhile simply join pending_ and get grouped. A
    // leader cancelled while holding hands leadership to the next waiter.
    const auto deadline =
        pending_.front()->arrival +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(window_ms_));
    for (auto now = SteadyNow(); now < deadline; now = SteadyNow()) {
      if (CancellationRequested()) {
        pass_running_ = false;
        done_cv_.notify_all();
        return;
      }
      done_cv_.wait_until(lock, std::min(deadline, now + kCancelPollInterval));
    }
  }
  // Requests that may share a pass: same backend instance, same table,
  // identical chunk partitioning (an epoch bump swaps the Database, so
  // pre- and post-bump queries can never group).
  const std::shared_ptr<Request> oldest = pending_.front();
  std::vector<std::shared_ptr<Request>> members;
  for (auto it = pending_.begin(); it != pending_.end();) {
    const Request& r = **it;
    if (r.db == oldest->db && r.table == oldest->table &&
        r.map.num_rows() == oldest->map.num_rows() &&
        r.map.num_chunks() == oldest->map.num_chunks()) {
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
  pass_running_ = false;
  done_cv_.notify_all();
}

void BatchScanQueue::ExecutePass(
    const std::vector<std::shared_ptr<Request>>& members) {
  const auto t0 = SteadyNow();
  // Group-commit hold: how long each member waited from arrival to the
  // pass being cut (the window plus any time behind an executing pass).
  for (const auto& m : members) {
    hold_hist_->Record(MsBetween(m->arrival, t0));
  }
  const ChunkMap& map = members[0]->map;
  const size_t chunks = map.num_chunks();

  // Fuse what can share a row loop; whatever can't (a different backend
  // strategy) still rides the same pass as its own unit.
  std::vector<PassUnit> units;
  for (size_t m = 0; m < members.size(); ++m) {
    std::unique_ptr<MultiChunkScanner> scanner = std::move(members[m]->scanner);
    bool absorbed = false;
    for (PassUnit& unit : units) {
      const size_t base = unit.scanner->num_statements();
      if (unit.scanner->Absorb(scanner)) {
        unit.segments.emplace_back(m, base);
        absorbed = true;
        break;
      }
    }
    if (!absorbed) {
      PassUnit unit;
      unit.scanner = std::move(scanner);
      unit.segments.emplace_back(m, 0);
      units.push_back(std::move(unit));
    }
  }

  // One job per (unit, chunk) on the common pool, each writing its own
  // slot, so the demultiplexed lists stay positional (chunk order ==
  // serial order). Every job runs: ParallelForStatus would skip the
  // chunks after a first error, truncating other units' rows, and no
  // member's token may stop a pass — a cancelled member only abandons its
  // request.
  const size_t total = units.size() * chunks;
  std::vector<Status> statuses(total, Status::OK());
  std::vector<double> job_ms(total, 0);
  std::vector<std::vector<std::vector<uint32_t>>> outs(total);
  {
    CancelScope no_cancel(nullptr);
    ParallelFor(total, [&](size_t j) {
      const PassUnit& unit = units[j / chunks];
      const auto [begin, end] = map.chunk_range(j % chunks);
      outs[j].resize(unit.scanner->num_statements());
      const auto tj = SteadyNow();
      statuses[j] = unit.scanner->ScanRange(begin, end, &outs[j]);
      job_ms[j] = MsSince(tj);
    });
  }
  const double wall_ms = MsBetween(t0, SteadyNow());
  pass_hist_->Record(wall_ms);
  double summed_job_ms = 0;
  for (double ms : job_ms) summed_job_ms += ms;

  // Demultiplex: per member, per statement, the chunk lists in chunk order
  // — the positional merge that equals a serial scan. Errors
  // surface as the first failing chunk index — the failure a serial scan,
  // which visits rows in ascending order, would have hit first.
  for (size_t u = 0; u < units.size(); ++u) {
    Status unit_status = Status::OK();
    for (size_t c = 0; c < chunks; ++c) {
      const Status& s = statuses[u * chunks + c];
      if (!s.ok()) {
        unit_status = s;
        break;
      }
    }
    for (const auto& [mi, base] : units[u].segments) {
      Request& req = *members[mi];
      req.status = unit_status;
      if (unit_status.ok()) {
        // Each (member, statement) slot is read exactly once, so its chunk
        // lists move to the caller as they are — never copied.
        req.rows.resize(req.num_stmts);
        for (size_t s = 0; s < req.num_stmts; ++s) {
          req.rows[s].reserve(chunks);
          for (size_t c = 0; c < chunks; ++c) {
            req.rows[s].push_back(std::move(outs[u * chunks + c][base + s]));
          }
        }
      }
      req.chunks_scanned = static_cast<uint64_t>(chunks) * req.num_stmts;
      req.scan_ms = wall_ms;
      req.job_ms = summed_job_ms;
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
