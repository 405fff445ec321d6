/// \file executor.h
/// \brief The ZQL engine (Chapter 5): compiles each row's visual component
/// into SQL aggregation queries against a Database backend, batches them
/// according to the configured optimization level, and evaluates Process
/// column tasks over the fetched visualizations.
///
/// Execution is plan-driven: the query is first lowered into a physical
/// plan of typed operators (zql/plan.h — FetchOp, MaterializeOp, ScoreOp,
/// ReduceOp, OutputOp) and then run by a scheduler (zql/scheduler.h) that
/// is either staged (every flush completes before anything downstream
/// runs) or pipelined (backend scans overlap materialization and scoring;
/// see ZqlOptions::pipelined_execution). Both schedules produce
/// byte-identical results.
///
/// Optimization levels (§5.2):
///  - kNoOpt:     one SQL query *and* one request per visualization — the
///                naive compiler of §5.1.
///  - kIntraLine: per row, one SQL query covering all Z values and Y
///                attributes (z added to SELECT/GROUP BY, WHERE z IN …),
///                issued as one request per row.
///  - kIntraTask: additionally batches the queries of consecutive task-less
///                rows together with the next task row into one request.
///  - kInterTask: builds the query dependency tree (Figure 5.1) and batches
///                every row whose dependencies are satisfied into wavefront
///                requests — the maximal batching that respects
///                dependencies.

#ifndef ZV_ZQL_EXECUTOR_H_
#define ZV_ZQL_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "tasks/primitives.h"
#include "viz/visualization.h"
#include "zql/ast.h"

namespace zv {
class BatchScanQueue;  // engine/shared_scan.h
class Trace;           // common/trace.h
struct TraceSpan;      // common/trace.h
}  // namespace zv

namespace zv::zql {

enum class OptLevel { kNoOpt, kIntraLine, kIntraTask, kInterTask };

const char* OptLevelToString(OptLevel level);

/// \brief Sets that ZQL text can reference by bare name: attribute sets
/// (e.g. M = all measures, Table 3.24) and value sets with an implied
/// attribute (e.g. P = a user-specified set of products, Table 5.1).
struct NamedSets {
  std::map<std::string, std::vector<std::string>> attr_sets;
  struct ValueSet {
    std::string attr;
    std::vector<Value> values;
  };
  std::map<std::string, ValueSet> value_sets;
};

/// User-defined Process function: receives the visualizations bound to its
/// arguments and returns a score (treated as a black box, §3.8). Never
/// called concurrently — expressions containing user functions (or custom
/// TaskLibrary hooks) are scored serially; only the default, stateless
/// primitives ride the ZV_THREADS pool.
using UserProcessFn =
    std::function<double(const std::vector<const Visualization*>&)>;

struct ZqlOptions {
  OptLevel optimization = OptLevel::kInterTask;
  TaskLibrary tasks = TaskLibrary::Default();
  NamedSets named_sets;
  std::map<std::string, UserProcessFn> user_functions;
  /// When set, every issued SQL statement is appended here in execution
  /// order (one entry per statement; batch boundaries are not marked) —
  /// the observable form of the §5.1 ZQL→SQL translation.
  std::vector<std::string>* sql_trace = nullptr;
  /// Top-k pruned scoring for `argmin[k=n] D(f, g)` process declarations
  /// scored through a ScoringContext: candidates whose partial distance
  /// already exceeds the current k-th best are abandoned mid-kernel. A pure
  /// optimization — selected visualizations are byte-identical with the
  /// flag off (topk_test.cc asserts it); exposed so tests and benches can
  /// compare against the full scan.
  bool topk_pruning = true;
  /// Pipelined execution of the physical plan (see zql/plan.h): backend
  /// scans run on a dedicated fetch thread feeding a bounded hand-off
  /// queue, so scoring of an already-materialized row overlaps the scan of
  /// the next one. A pure scheduling change: routing and scoring still run
  /// on the calling thread in plan order, so results are byte-identical to
  /// the staged path at any ZV_THREADS (tests/pipeline_test.cc locks
  /// this); off = the staged oracle, which executes every flush to
  /// completion before anything downstream runs.
  bool pipelined_execution = true;
  /// Retired: selects nothing — every flush selects rows through a chunk
  /// pass (batch_scans below). Still declared only because the benchmark
  /// harness's oracle (zvbench/oracle.h) assigns it; it goes together
  /// with that assignment.
  size_t shards = 0;
  /// Which shared-scan queue (engine/shared_scan.h) selects this query's
  /// rows (docs/architecture.md "Batched execution"); null = the backend's
  /// own (Database::scan_queue). Either way every flush's row selection
  /// is a chunk pass over the table's chunks that coalesces compatible
  /// statements from concurrently executing queries over the same backend
  /// and table — the serving layer wires the QueryService's queue in here.
  /// Selection stays in the scan and aggregation in the table-size-pure
  /// blocked runner, so results are byte-identical to a naive whole-table
  /// selection regardless of chunk size, ZV_THREADS, or which queries
  /// happen to share a pass (tests/shard_test.cc and tests/batch_test.cc
  /// lock the matrices).
  BatchScanQueue* batch_scans = nullptr;
  /// Binning pushdown: viz specs that bin the x axis aggregate inside the
  /// backend scan (GROUP BY the bin's lower edge) instead of fetching
  /// every raw row and binning client-side — fetched volume drops from
  /// O(rows) to O(bins). Bin edges, ordering, and aggregate semantics
  /// match the client-side binner exactly; for float-valued measures the
  /// summation *order* differs (blocked aggregation vs fetched-row order),
  /// so sums can differ in final ulps between on and off. Each setting is
  /// individually deterministic across threads/schedules/batching,
  /// and integer measures are exact either way (tests/batch_test.cc locks
  /// on/off identity on integer data). Box-plot specs always bin
  /// client-side (they need the raw rows).
  bool binning_pushdown = true;
  /// Per-query execution tracing (common/trace.h): when set, the executor
  /// records a span tree under `trace_parent` (null = the trace root) —
  /// one "execute" span holding one span per plan operator
  /// (FetchOp/MaterializeOp/ScoreOp/ReduceOp/OutputOp, names matching the
  /// EXPLAIN rendering), plus per-batch scan spans ("Flush"/"FetchBatch")
  /// and per shared-scan group-commit pass ("SharedScanPass"). A pure
  /// observer: spans never influence scheduling, results are
  /// byte-identical with tracing on or off (tests/trace_test.cc locks the
  /// matrix), and the serving layer keeps trace state out of
  /// QueryFingerprint and every cache.
  Trace* trace = nullptr;
  TraceSpan* trace_parent = nullptr;
};

/// \brief Execution instrumentation for the Chapter 7 experiments.
/// Counts are exact when the executor has the backend to itself; under a
/// QueryService, sql_queries/sql_requests are deltas of the *shared*
/// backend counters, so concurrent queries' statements can interleave
/// into each other's deltas (monitoring noise only — results are
/// unaffected, and cached stats replay the first execution's values).
struct ZqlStats {
  uint64_t sql_queries = 0;   ///< SELECT statements issued
  uint64_t sql_requests = 0;  ///< backend round trips
  /// Candidates abandoned mid-kernel by top-k pruned scoring (a subset of
  /// the scored combinations; 0 when pruning is off or never applicable).
  uint64_t scores_pruned = 0;
  /// Result-cache verdicts, filled by the serving layer (QueryService): a
  /// hit means this ZqlResult was served from the ResultCache without
  /// executing; a miss means it executed and was (re)inserted. Both stay 0
  /// when the executor runs outside a service.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// ScoringContexts reused instead of rebuilt within this query: a
  /// Process declaration whose D() calls cover the same component set as
  /// an earlier declaration's shares that declaration's context. Contexts
  /// never outlive their query.
  uint64_t contexts_reused = 0;
  double total_ms = 0;
  double exec_ms = 0;     ///< flush time: backend scans + result routing
  double compute_ms = 0;  ///< Process column (task processor) time
  /// Per-stage breakdown across the operator pipeline. fetch_ms is pure
  /// backend scan time (statement execution + simulated request latency,
  /// a subset of exec_ms); score_ms is pure combination-scoring time
  /// (including ScoringContext assembly, a subset of compute_ms). Under
  /// pipelined execution the stages overlap in wall time, so
  /// fetch_ms + score_ms may exceed total_ms — the gap between
  /// (fetch_ms + score_ms) and total_ms is the overlap won.
  double fetch_ms = 0;
  double score_ms = 0;
  /// Chunk-pass instrumentation, served and direct alike: chunks_scanned
  /// counts the chunk sub-scans of this query's statements (chunks ×
  /// statements per pass), and shard_ms sums the covering passes' chunk
  /// job times across every scanning thread — the whole pass's figure,
  /// shared by every member, like fetch_ms — so under parallel fan-out
  /// shard_ms exceeds the pass's wall time and shard_ms / fetch_ms
  /// approximates the fan-out won. Both stay 0 on an empty table (no
  /// chunk, no pass).
  uint64_t chunks_scanned = 0;
  double shard_ms = 0;
  /// Shared-scan batching instrumentation: batched_scans counts this
  /// query's statements whose row selection went through a batch queue
  /// (every scanned statement); scans_shared is the subset whose scan pass
  /// also carried statements from other concurrent queries — the redundant
  /// table passes actually eliminated.
  uint64_t batched_scans = 0;
  uint64_t scans_shared = 0;
  /// Active distance-kernel vector width in doubles (tasks/simd.h dispatch:
  /// 1 = scalar fallback, 4 = AVX2). Constant for a process unless ZV_SIMD
  /// overrides it; recorded per query so wire consumers can attribute
  /// latency to the kernel tier that produced it.
  uint64_t simd_width = 1;
  /// Adaptive Roaring container representation changes (array/bitmap/
  /// run/inverted/all transitions) during this query, sampled as a delta of
  /// the backend's process-wide counter — same interleaving caveat as
  /// sql_queries. Stays 0 on backends without a bitmap index.
  uint64_t container_conversions = 0;
};

struct ZqlOutput {
  std::string name;
  std::vector<Visualization> visuals;
};

struct ZqlResult {
  std::vector<ZqlOutput> outputs;
  ZqlStats stats;

  /// Convenience: the visuals of the output named `name` (nullptr if none).
  const ZqlOutput* Find(const std::string& name) const {
    for (const auto& o : outputs) {
      if (o.name == name) return &o;
    }
    return nullptr;
  }
};

/// \brief Executes ZQL queries against one table of one backend.
///
/// Thread-compatible (no internal synchronization); create one per thread.
class ZqlExecutor {
 public:
  /// `db` must outlive the executor; `table` must be registered in it.
  ZqlExecutor(Database* db, std::string table, ZqlOptions options = {});

  /// Registers a user-drawn input visualization for a `-fN` row (§2,
  /// Table 2.2).
  void SetUserInput(const std::string& name, Visualization viz);

  Result<ZqlResult> Execute(const ZqlQuery& query);

  /// Parses and executes ZQL text.
  Result<ZqlResult> ExecuteText(const std::string& text);

  const ZqlOptions& options() const { return options_; }

 private:
  Database* db_;
  std::string table_name_;
  ZqlOptions options_;
  std::map<std::string, Visualization> user_inputs_;
};

}  // namespace zv::zql

#endif  // ZV_ZQL_EXECUTOR_H_
