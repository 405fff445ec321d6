/// \file attribution.h
/// \brief Turns traced operations into per-layer means.
///
/// The rule: track 0 of a query's span tree is the blocking path (the
/// serving worker walking the plan); tracks 1 and 2 are busy time off that
/// path (the pipelined fetch thread and the scan pool). The blocking-path
/// layers of one operation add up to its client-observed latency, with the
/// part no span covers reported as `unattributed_ms`; because every layer
/// is reported as a mean per operation, the means add up the same way.
///
/// Span-name contract: attribution consumes exactly the names in
/// SpanContract(). A traced operation whose tree holds any other name, or a
/// result-cache miss without an `execute` span, fails the run, so a rename
/// inside the program cannot silently zero a layer.

#ifndef ZVBENCH_ATTRIBUTION_H_
#define ZVBENCH_ATTRIBUTION_H_

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "zql/executor.h"

namespace zvbench {

inline const std::vector<std::string>& SpanContract() {
  static const std::vector<std::string> kNames = {
      "query",         "queue_wait", "cache_lookup", "execute",
      "FetchOp",       "Flush",      "FetchBatch",   "MaterializeOp",
      "ScoreOp",       "ReduceOp",   "OutputOp",     "SharedScanPass",
      "ChunkScanPass"};
  return kNames;
}

/// The blocking-path layers; with unattributed_ms they sum to
/// traced_mean_ms.
inline const std::vector<std::string>& BlockingLayers() {
  static const std::vector<std::string> kLayers = {
      "api.decode_ms",        "api.encode_ms",          "server.handoff_ms",
      "server.queue_wait_ms", "server.cache_lookup_ms", "zql.execute_self_ms",
      "zql.fetch_op_ms",      "zql.drain_wait_ms",      "zql.materialize_ms",
      "tasks.score_ms",       "tasks.reduce_ms"};
  return kLayers;
}

/// One traced operation as the client saw it.
struct TracedOp {
  double latency_ms = 0;  ///< client-observed, end to end
  double call_ms = 0;     ///< the service call: ExecuteRequest or Submit+Wait
  double decode_ms = 0;   ///< wire only: Json::Parse + DecodeRequest
  double encode_ms = 0;   ///< wire only: EncodeResponse + Dump
  bool executed = false;  ///< result-cache miss: the engine ran
  zv::Json trace;         ///< EncodeTraceSpan form of the span tree
  zv::zql::ZqlStats stats;
};

namespace detail {

inline double Num(const zv::Json& span, const char* key) {
  const zv::Json* v = span.Find(key);
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

inline double Attr(const zv::Json& span, const char* key) {
  const zv::Json* attrs = span.Find("attrs");
  return attrs == nullptr ? 0.0 : Num(*attrs, key);
}

inline std::string Name(const zv::Json& span) {
  const zv::Json* v = span.Find("name");
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

inline const zv::Json::Array& Children(const zv::Json& span) {
  static const zv::Json::Array kNone;
  const zv::Json* v = span.Find("children");
  return v != nullptr && v->is_array() ? v->array() : kNone;
}

/// First span whose name is outside the contract, or "" when all conform.
inline std::string UnknownSpan(const zv::Json& span) {
  const auto& names = SpanContract();
  if (std::find(names.begin(), names.end(), Name(span)) == names.end()) {
    return Name(span).empty() ? "<unnamed>" : Name(span);
  }
  for (const zv::Json& child : Children(span)) {
    std::string bad = UnknownSpan(child);
    if (!bad.empty()) return bad;
  }
  return "";
}

}  // namespace detail

/// Accumulates traced operations; Means() divides every sum by the count.
class LayerAttribution {
 public:
  /// Adds one operation. Returns false and sets `error` when its span tree
  /// breaks the contract.
  bool Add(const TracedOp& op, std::string* error) {
    using detail::Children;
    using detail::Name;
    using detail::Num;
    const zv::Json& root = op.trace;
    if (Name(root) != "query") {
      *error = "span tree root is '" + Name(root) + "', not 'query'";
      return false;
    }
    if (std::string bad = detail::UnknownSpan(root); !bad.empty()) {
      *error = "span '" + bad + "' is not in the attribution contract";
      return false;
    }
    std::map<std::string, double> s;
    s["api.decode_ms"] = op.decode_ms;
    s["api.encode_ms"] = op.encode_ms;
    s["server.handoff_ms"] = op.call_ms - Num(root, "dur_ms");
    bool saw_execute = false;
    for (const zv::Json& child : Children(root)) {
      const std::string name = Name(child);
      const double dur = Num(child, "dur_ms");
      if (name == "queue_wait") s["server.queue_wait_ms"] += dur;
      if (name == "cache_lookup") s["server.cache_lookup_ms"] += dur;
      if (name == "execute") {
        saw_execute = true;
        AddExecute(child, &s);
      }
    }
    if (op.executed && !saw_execute) {
      *error = "a result-cache miss has no 'execute' span";
      return false;
    }
    if (op.executed) {
      const auto& st = op.stats;
      s["engine.statements_per_op"] = static_cast<double>(st.sql_queries);
      s["engine.requests_per_op"] = static_cast<double>(st.sql_requests);
      s["engine.chunks_per_op"] = static_cast<double>(st.chunks_scanned);
      s["roaring.conversions_per_op"] =
          static_cast<double>(st.container_conversions);
      s["batched_scans"] = static_cast<double>(st.batched_scans);
      s["scans_shared"] = static_cast<double>(st.scans_shared);
      s["scores_pruned"] = static_cast<double>(st.scores_pruned);
    }
    double blocking = 0;
    for (const std::string& layer : BlockingLayers()) blocking += s[layer];
    s["traced_mean_ms"] = op.latency_ms;
    s["unattributed_ms"] = op.latency_ms - blocking;
    for (const auto& [key, value] : s) sums_[key] += value;
    ++ops_;
    return true;
  }

  size_t ops() const { return ops_; }

  void Merge(const LayerAttribution& other) {
    for (const auto& [key, value] : other.sums_) sums_[key] += value;
    ops_ += other.ops_;
  }

  /// Per-operation means, keyed by per-layer metric name. Ratios are taken
  /// over the summed counts, not averaged per operation.
  std::map<std::string, double> Means() const {
    auto sum = [&](const char* key) {
      auto it = sums_.find(key);
      return it == sums_.end() ? 0.0 : it->second;
    };
    const double n = ops_ == 0 ? 1.0 : static_cast<double>(ops_);
    std::map<std::string, double> out;
    for (const char* key :
         {"traced_mean_ms", "unattributed_ms", "engine.fetch_busy_ms",
          "engine.pass_ms", "engine.select_overhead_ms",
          "engine.aggregate_ms", "engine.statements_per_op",
          "engine.requests_per_op", "engine.chunks_per_op",
          "roaring.conversions_per_op", "tasks.scores_per_op"}) {
      out[key] = sum(key) / n;
    }
    for (const std::string& layer : BlockingLayers()) {
      out[layer] = sum(layer.c_str()) / n;
    }
    const double batched = sum("batched_scans");
    const double scores = sum("tasks.scores_per_op");
    out["engine.shared_ratio"] =
        batched > 0 ? sum("scans_shared") / batched : 0;
    out["tasks.pruned_ratio"] = scores > 0 ? sum("scores_pruned") / scores : 0;
    return out;
  }

 private:
  /// The `execute` span: track-0 operators form the blocking path; the
  /// track-1 FetchBatch spans (and their scan passes) are engine busy time
  /// that MaterializeOp/OutputOp wait on where they overlap.
  static void AddExecute(const zv::Json& exec,
                         std::map<std::string, double>* s) {
    using detail::Num;
    double children = 0;
    double materialize = 0;
    std::vector<std::pair<double, double>> drains;   // MaterializeOp/OutputOp
    std::vector<std::pair<double, double>> batches;  // FetchBatch
    for (const zv::Json& child : detail::Children(exec)) {
      const std::string name = detail::Name(child);
      const double start = Num(child, "start_ms");
      const double dur = Num(child, "dur_ms");
      if (name == "FetchBatch" || name == "Flush") AddScan(child, s);
      if (name == "FetchBatch") batches.emplace_back(start, start + dur);
      if (Num(child, "track") != 0) continue;
      children += dur;
      if (name == "FetchOp") (*s)["zql.fetch_op_ms"] += dur;
      if (name == "Flush") (*s)["zql.drain_wait_ms"] += dur;
      if (name == "ScoreOp") {
        (*s)["tasks.score_ms"] += dur;
        (*s)["tasks.scores_per_op"] += detail::Attr(child, "scores");
      }
      if (name == "ReduceOp") (*s)["tasks.reduce_ms"] += dur;
      if (name == "MaterializeOp" || name == "OutputOp") {
        materialize += dur;
        drains.emplace_back(start, start + dur);
      }
    }
    double overlap = 0;
    for (const auto& [d0, d1] : drains) {
      for (const auto& [b0, b1] : batches) {
        overlap += std::max(0.0, std::min(d1, b1) - std::max(d0, b0));
      }
    }
    (*s)["zql.drain_wait_ms"] += overlap;
    (*s)["zql.materialize_ms"] += materialize - overlap;
    (*s)["zql.execute_self_ms"] += Num(exec, "dur_ms") - children;
  }

  /// One FetchBatch/Flush span: its scan passes split into pass time and
  /// select overhead; the rest of the span is aggregation and routing.
  static void AddScan(const zv::Json& batch, std::map<std::string, double>* s) {
    using detail::Num;
    const double dur = Num(batch, "dur_ms");
    double passes = 0;
    for (const zv::Json& child : detail::Children(batch)) {
      const std::string name = detail::Name(child);
      const double pass_dur = Num(child, "dur_ms");
      if (name == "SharedScanPass") {
        const double pass_ms = detail::Attr(child, "pass_ms");
        (*s)["engine.pass_ms"] += pass_ms;
        (*s)["engine.select_overhead_ms"] += pass_dur - pass_ms;
        passes += pass_dur;
      } else if (name == "ChunkScanPass") {
        (*s)["engine.pass_ms"] += pass_dur;
        passes += pass_dur;
      }
    }
    (*s)["engine.fetch_busy_ms"] += dur;
    (*s)["engine.aggregate_ms"] += dur - passes;
  }

  std::map<std::string, double> sums_;
  size_t ops_ = 0;
};

}  // namespace zvbench

#endif  // ZVBENCH_ATTRIBUTION_H_
