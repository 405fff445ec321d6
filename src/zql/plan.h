/// \file plan.h
/// \brief Physical execution plans: the plan builder lowers a ZQL query
/// into an ordered graph of typed operator steps — FetchOp, MaterializeOp,
/// ScoreOp, ReduceOp, OutputOp — partitioned into flush-delimited stages.
///
/// The plan is *structural*: which rows fetch, where the batch boundaries
/// (flushes) fall under the configured optimization level, which rows the
/// Inter-Task wavefront groups together, and which Process declarations
/// score and reduce where. Cardinalities (Z-set sizes, statement counts)
/// are data-dependent and resolved when the operators run — the plan is
/// buildable without touching the backend, which is what lets EXPLAIN
/// render it and the serving layer ship it over the wire without
/// executing.
///
/// The scheduler (zql/scheduler.h) interprets the step list in order on
/// the calling thread: each flush scans and routes its batch before the
/// next step runs.

#ifndef ZV_ZQL_PLAN_H_
#define ZV_ZQL_PLAN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "zql/ast.h"
#include "zql/executor.h"

namespace zv::zql {

/// True for rows that materialize without a backend fetch — user-input
/// (`-f`) and derived (§3.6) components. The plan builder emits no FetchOp
/// for them, and the scheduler's MaterializeOp assembles them locally;
/// both layers must agree, so the predicate lives here.
inline bool IsLocalRow(const ZqlRow& row) {
  return row.name.user_input || row.name.derive != NameEntry::Derive::kNone;
}

/// \brief One operator step of the physical plan.
struct PlanStep {
  enum class Kind {
    kFetch,        ///< FetchOp: plan row's SQL statements into the batch
    kFlush,        ///< batch boundary: scan + route buffered statements
    kMaterialize,  ///< MaterializeOp: publish row's component / build derived
    kScore,        ///< ScoreOp: evaluate one Process declaration
    kReduce,       ///< ReduceOp: apply mechanism, bind output variables
    kOutput,       ///< OutputOp: end of plan; *-flagged components are final
  };
  Kind kind;
  int row = -1;   ///< index into ZqlQuery::rows (kFetch/kMaterialize/kScore/kReduce)
  int decl = -1;  ///< Process declaration index within the row (kScore/kReduce)
  int stage = 0;  ///< flush-delimited stage (rendering + progress grouping)
};

/// \brief The physical plan for one query under one option set.
struct PhysicalPlan {
  OptLevel optimization = OptLevel::kInterTask;
  int num_stages = 0;
  std::vector<PlanStep> steps;
  /// kInterTask: wavefront wave per row; sequential levels leave it empty.
  std::vector<int> wave_of_row;

  /// EXPLAIN rendering: the operator tree, one line per operator, grouped
  /// by stage, with each ScoreOp annotated with its scoring path (batch
  /// ScoringContext scan / top-k pruned / serial user function). `query`
  /// must be the query the plan was built from. `table_chunks` — the
  /// target table's ChunkMap size, when the caller has a backend to ask —
  /// annotates each FetchOp with its chunk-pass fan-out (`chunks=K`); 0
  /// (unknown) leaves it off.
  std::string Render(const ZqlQuery& query, size_t table_chunks = 0) const;
};

/// Lowers `query` into its physical plan under `options`. Pure — consults
/// no data. For Inter-Task optimization this computes the wavefront
/// schedule and fails with kInvalidArgument on unresolvable dependencies
/// (circular or undefined variables), naming the first stuck row.
Result<PhysicalPlan> BuildPhysicalPlan(const ZqlQuery& query,
                                       const ZqlOptions& options);

}  // namespace zv::zql

#endif  // ZV_ZQL_PLAN_H_
