/// \file trace.h
/// \brief Per-query execution tracing: a TraceSpan tree recording where
/// each millisecond of one query went — one span per plan operator
/// (FetchOp / MaterializeOp / ScoreOp / ReduceOp / OutputOp), per flush,
/// per shared-scan (group-commit) pass, plus the serving layer's
/// admission queue-wait and cache-lookup spans.
///
/// Tracing is a *pure observer*: spans record steady-clock timestamps and
/// typed attributes, never influence scheduling or results, and never
/// enter QueryFingerprint or any cache (tests/trace_test.cc locks
/// byte-identity with tracing on vs off across chunk sizes and backends).
///
/// Threading model: the Trace owns every span (stable heap nodes) and
/// guards tree mutation with an internal mutex. A query opens its spans on
/// the thread that runs it; under the serving layer the submitting thread
/// may open the first cache-lookup span and hand the trace to a worker
/// through the admission queue. The mutex keeps Begin/Add safe from any
/// thread all the same. Each span's fields (duration, attributes) are
/// written only by the thread that opened it; readers consume the
/// finished tree after the query resolves, ordered by the task-resolution
/// handshake.
///
/// Exports: a deterministic JSON encoding (the QueryResponse::trace wire
/// payload), an indented text rendering (zql_shell `:trace`), and Chrome
/// `trace_event` JSON for chrome://tracing flame views (every span on one
/// timeline row, tid 0).

#ifndef ZV_COMMON_TRACE_H_
#define ZV_COMMON_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/clock.h"
#include "common/json.h"

namespace zv {

/// Typed span attribute value (int64 / double / string / bool).
using TraceValue = std::variant<int64_t, double, std::string, bool>;

/// \brief One timed node of the trace tree. Times are milliseconds
/// relative to the owning Trace's epoch (its construction instant), so a
/// span tree is self-contained and serializable.
struct TraceSpan {
  std::string name;
  double start_ms = 0;
  double duration_ms = 0;
  std::vector<std::pair<std::string, TraceValue>> attrs;
  std::vector<std::unique_ptr<TraceSpan>> children;

  /// Attribute setters — call only from the thread that owns the span
  /// (the one that opened it), before the trace is published.
  void SetInt(std::string key, int64_t v) { attrs.emplace_back(std::move(key), TraceValue(v)); }
  void SetDouble(std::string key, double v) { attrs.emplace_back(std::move(key), TraceValue(v)); }
  void SetStr(std::string key, std::string v) { attrs.emplace_back(std::move(key), TraceValue(std::move(v))); }
  void SetBool(std::string key, bool v) { attrs.emplace_back(std::move(key), TraceValue(v)); }

  /// The first direct child named `name` (nullptr if none) — test helper.
  const TraceSpan* FindChild(const std::string& child_name) const;
};

/// \brief One query's span tree. Begin/End/Add are thread-safe; the tree
/// is read after the query resolves.
class Trace {
 public:
  /// `root_name` labels the root span (its duration is set by EndRoot or
  /// left to the owner via End on root()).
  explicit Trace(std::string root_name = "query");

  TraceSpan* root() { return &root_; }
  const TraceSpan& root() const { return root_; }

  /// Milliseconds since this trace's epoch.
  double NowMs() const { return MsSince(epoch_); }

  /// Opens a child span under `parent` (nullptr = the root) starting now.
  /// Thread-safe: concurrent opens under one parent serialize on the
  /// trace mutex; the returned pointer stays stable for the trace's life.
  TraceSpan* Begin(TraceSpan* parent, std::string name);

  /// Closes `span`: duration = now - start. Call from the opening thread.
  void End(TraceSpan* span);

  /// Records an already-measured interval as a child span — for work
  /// timed elsewhere (e.g. a shared-scan pass whose wall time comes back
  /// from the coordinator) where Begin/End can't bracket the interval.
  TraceSpan* Add(TraceSpan* parent, std::string name, double start_ms,
                 double duration_ms);

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::mutex mu_;  ///< guards children vectors (tree shape), nothing else
  TraceSpan root_;
};

/// \brief RAII Begin/End. A null trace makes every operation a no-op, so
/// instrumentation sites need no `if (traced)` guards.
class TraceScope {
 public:
  TraceScope(Trace* trace, TraceSpan* parent, std::string name)
      : trace_(trace),
        span_(trace == nullptr ? nullptr
                               : trace->Begin(parent, std::move(name))) {}
  ~TraceScope() {
    if (trace_ != nullptr) trace_->End(span_);
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// The open span (nullptr when tracing is off).
  TraceSpan* span() const { return span_; }

  void SetInt(std::string key, int64_t v) {
    if (span_ != nullptr) span_->SetInt(std::move(key), v);
  }
  void SetDouble(std::string key, double v) {
    if (span_ != nullptr) span_->SetDouble(std::move(key), v);
  }
  void SetStr(std::string key, std::string v) {
    if (span_ != nullptr) span_->SetStr(std::move(key), std::move(v));
  }
  void SetBool(std::string key, bool v) {
    if (span_ != nullptr) span_->SetBool(std::move(key), v);
  }

 private:
  Trace* trace_;
  TraceSpan* span_;
};

/// Deterministic JSON form of a span (sub)tree:
///   {"name", "start_ms", "dur_ms", "attrs"?, "children"?}
/// attrs/children are omitted when empty — the wire payload of
/// QueryResponse::trace.
Json EncodeTraceSpan(const TraceSpan& span);

/// Indented text rendering of a span (sub)tree (zql_shell `:trace`).
std::string RenderTraceTree(const TraceSpan& span);

/// Chrome trace_event JSON for chrome://tracing: one complete ("ph":"X")
/// event per span, timestamps in microseconds, tid 0.
std::string ToChromeTrace(const TraceSpan& root);

}  // namespace zv

#endif  // ZV_COMMON_TRACE_H_
