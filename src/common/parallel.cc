#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/sync.h"

namespace zv {

namespace {

/// True on pool worker threads — nested ParallelFor calls run inline.
thread_local bool t_in_worker = false;

std::atomic<size_t> g_thread_override{0};

size_t ResolveWorkerCount() {
  size_t count = g_thread_override.load(std::memory_order_relaxed);
  if (count == 0) {
    const char* env = std::getenv("ZV_THREADS");
    const long v = env != nullptr ? std::strtol(env, nullptr, 10) : 0;
    const unsigned hw = std::thread::hardware_concurrency();
    count = v > 0 ? static_cast<size_t>(v) : std::max(1u, hw);
  }
  return std::min(count, kMaxParallelThreads);
}

/// One ParallelFor invocation: workers claim contiguous chunks off an
/// atomic cursor. Results land in caller-owned slots, so claiming order
/// never shows in the output.
struct Job {
  size_t n = 0;
  size_t chunk = 1;
  size_t total_chunks = 0;
  size_t allowed_helpers = 0;  ///< pool workers admitted (caller always runs)
  const std::function<void(size_t)>* fn = nullptr;
  const std::function<Status(size_t)>* status_fn = nullptr;
  /// The submitting thread's cancellation flag (see cancel.h), checked at
  /// every chunk boundary and mirrored onto workers so fn can poll it too.
  /// The submitting thread blocks until the job drains, so the raw pointer
  /// stays valid for the job's lifetime.
  const std::atomic<bool>* cancel = nullptr;

  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> done_chunks{0};
  size_t helpers_entered = 0;  ///< guarded by the pool's mutex
  /// Chunks beginning at or above this index are skipped: the lowest
  /// captured error's index (a serial loop stops there), or 0 once a void
  /// job is cancelled. It only ever falls.
  std::atomic<size_t> stop_at{SIZE_MAX};

  // First-error capture: the error (Status or exception) with the lowest
  // index wins, matching what a serial loop would surface first.
  std::mutex err_mu;
  size_t err_index = 0;
  bool has_error = false;
  Status error = Status::OK();
  std::exception_ptr exception;

  std::mutex done_mu;
  std::condition_variable done_cv;

  void RecordError(size_t index, Status s, std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(err_mu);
    if (!has_error || index < err_index) {
      has_error = true;
      err_index = index;
      error = std::move(s);
      exception = e;
    }
    LowerStopAt(index);
  }

  void LowerStopAt(size_t index) {
    size_t cur = stop_at.load(std::memory_order_relaxed);
    while (index < cur && !stop_at.compare_exchange_weak(
                              cur, index, std::memory_order_relaxed)) {
    }
  }

  /// Claims and runs chunks until the cursor is exhausted.
  void RunChunks() {
    // Mirror the submitting thread's cancellation flag so fn's own
    // CheckCancelled() polls observe it from pool workers too.
    CancelScope cancel_scope(cancel);
    for (;;) {
      const size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= total_chunks) return;
      const size_t begin = c * chunk;
      // Cooperative cancellation at chunk granularity: a cancelled Status
      // job surfaces kCancelled (lowest-index error capture still prefers
      // any real error below it); a cancelled void job just stops claiming
      // work — its caller re-checks the token after the join.
      if (cancel != nullptr &&
          begin < stop_at.load(std::memory_order_relaxed) &&
          cancel->load(std::memory_order_relaxed)) {
        if (status_fn != nullptr) {
          RecordError(begin, Status::Cancelled("query cancelled"), nullptr);
        } else {
          LowerStopAt(0);
        }
      }
      // A chunk is skipped only when it lies entirely at or above a
      // captured error, where a serial loop would never reach. A chunk
      // claimed before that error was seen still runs, even when its
      // thread checks late, so the captured min-index error is exactly
      // the one a serial loop would hit first.
      if (begin < stop_at.load(std::memory_order_relaxed)) {
        const size_t end = std::min(n, begin + chunk);
        for (size_t i = begin; i < end; ++i) {
          try {
            if (status_fn != nullptr) {
              Status s = (*status_fn)(i);
              if (!s.ok()) {
                RecordError(i, std::move(s), nullptr);
                break;
              }
            } else {
              (*fn)(i);
            }
          } catch (...) {
            RecordError(i, Status::OK(), std::current_exception());
            break;
          }
        }
      }
      if (done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          total_chunks) {
        std::lock_guard<std::mutex> lock(done_mu);
        done_cv.notify_all();
      }
    }
  }

  void WaitDone() {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [this] {
      return done_chunks.load(std::memory_order_acquire) == total_chunks;
    });
  }
};

/// Fixed pool, lazily created on first parallel call and intentionally
/// leaked (workers are blocked in a wait at process exit; joining them from
/// a static destructor would race user code that still schedules work).
///
/// Concurrent callers each list their job; an idle worker serves the
/// oldest listed job that still has unclaimed chunks and a free helper
/// slot. Both conditions only ever become false, so a job that stops being
/// eligible never becomes eligible again, and a worker that finds none
/// waits for the next Run.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool* pool = new ThreadPool();
    return *pool;
  }

  /// Lists `job` for up to job->allowed_helpers workers, growing the pool
  /// if needed, then has the caller drain it and waits for the chunks
  /// helpers claimed before unlisting it.
  void Run(const std::shared_ptr<Job>& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (threads_.size() < job->allowed_helpers) {
        threads_.emplace_back([this] { WorkerMain(); });
      }
      jobs_.push_back(job);
    }
    cv_.notify_all();
    job->RunChunks();
    job->WaitDone();
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), job));
  }

 private:
  ThreadPool() = default;

  void WorkerMain() {
    t_in_worker = true;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      std::shared_ptr<Job> job;
      cv_.wait(lock, [&] { return (job = ClaimLocked()) != nullptr; });
      ScopedUnlock unlocked(lock);  // run chunks without the pool lock
      job->RunChunks();
    }
  }

  /// The oldest listed job with unclaimed chunks and a free helper slot,
  /// with that slot taken; null when no job is eligible.
  std::shared_ptr<Job> ClaimLocked() {
    for (const std::shared_ptr<Job>& job : jobs_) {
      if (job->next_chunk.load(std::memory_order_relaxed) <
              job->total_chunks &&
          job->helpers_entered < job->allowed_helpers) {
        ++job->helpers_entered;
        return job;
      }
    }
    return nullptr;
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::thread> threads_;
  std::vector<std::shared_ptr<Job>> jobs_;  ///< oldest first
};

size_t ChunkSize(size_t n, size_t workers) {
  // ~4 chunks per worker balances load without flooding the atomic cursor.
  return std::max<size_t>(1, n / (workers * 4));
}

}  // namespace

void SetParallelThreads(size_t n) {
  g_thread_override.store(n, std::memory_order_relaxed);
}

size_t ParallelWorkerCount() { return ResolveWorkerCount(); }

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t workers = std::min(n, ResolveWorkerCount());
  if (workers <= 1 || t_in_worker) {
    for (size_t i = 0; i < n; ++i) {
      if (CancellationRequested()) return;  // caller re-checks the token
      fn(i);
    }
    return;
  }
  auto job = std::make_shared<Job>();
  job->n = n;
  job->chunk = ChunkSize(n, workers);
  job->total_chunks = (n + job->chunk - 1) / job->chunk;
  job->allowed_helpers = workers - 1;  // the caller is the last worker
  job->fn = &fn;
  job->cancel = CurrentCancelFlag();
  ThreadPool::Instance().Run(job);
  // Moved out of the job, so the caller drops the exception's last
  // reference rather than a worker still releasing the job: libstdc++
  // counts those references in code ThreadSanitizer does not instrument,
  // so a worker's release would read as a race with the caller's catch.
  if (job->exception != nullptr) {
    std::rethrow_exception(std::move(job->exception));
  }
}

Status ParallelForStatus(size_t n, const std::function<Status(size_t)>& fn) {
  if (n == 0) return Status::OK();
  const size_t workers = std::min(n, ResolveWorkerCount());
  if (workers <= 1 || t_in_worker) {
    for (size_t i = 0; i < n; ++i) {
      ZV_RETURN_NOT_OK(CheckCancelled());
      ZV_RETURN_NOT_OK(fn(i));
    }
    return Status::OK();
  }
  auto job = std::make_shared<Job>();
  job->n = n;
  job->chunk = ChunkSize(n, workers);
  job->total_chunks = (n + job->chunk - 1) / job->chunk;
  job->allowed_helpers = workers - 1;
  job->status_fn = &fn;
  job->cancel = CurrentCancelFlag();
  ThreadPool::Instance().Run(job);
  if (job->exception != nullptr) {
    std::rethrow_exception(std::move(job->exception));  // see ParallelFor
  }
  return job->has_error ? job->error : Status::OK();
}

}  // namespace zv
