/// \file operators.h
/// \brief The typed operator layer of the ZQL physical plan (§6): the
/// execution-state container plus the four operator families the scheduler
/// drives. This is an internal engine header — the public surface is
/// zql/executor.h; the plan *shape* lives in zql/plan.h.
///
///  - FetchOp       (PlanRowFetches): resolves a row's variable slots,
///    materializes its visualization identities, and lowers them into
///    batched SQL statements (PendingFetch) against the backend.
///  - MaterializeOp (MaterializeLocal / MarkReady): assembles user-input
///    and derived components and publishes components to downstream
///    operators. RouteFetch, which gathers a scanned statement's
///    column-major result (ColumnarResult) into the visualizations it
///    covers by dictionary code, runs inside the flush that scanned it.
///  - ScoreOp       (ScoreProcess): evaluates one Process declaration's
///    objective over its flattened iteration domain — ScoringContext batch
///    scans, top-k pruned scans, ParallelFor fan-out, or the serial loop
///    for user functions — producing a score per combination.
///  - ReduceOp      (ReduceProcess): applies the mechanism/filter to the
///    scores and binds the declaration's output variables.
///
/// Operators communicate only through ExecState (variables, components,
/// stats) and the PendingFetch hand-off: FetchOp buffers a row's
/// statements, and the flush that ends the batch scans them and routes
/// each result, all on the thread that runs the query. Every operator
/// is deterministic given ExecState, so neither ZV_THREADS nor how a
/// chunk pass is shared can change results.

#ifndef ZV_ZQL_OPERATORS_H_
#define ZV_ZQL_OPERATORS_H_

#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/trace.h"
#include "engine/database.h"
#include "sql/ast.h"
#include "tasks/series_cache.h"
#include "viz/visualization.h"
#include "zql/ast.h"
#include "zql/executor.h"

namespace zv::zql::exec {

/// A value bound to an axis variable: an axis (X/Y) attribute combination,
/// a Z slice, or a Viz spec.
using VarValue = std::variant<AxisValue, ZValue, VizSpec>;

/// \brief A group of variables declared together; tuples are traversed in a
/// consistent order wherever any of the variables is used (§3.7).
struct VarDomain {
  std::vector<std::string> names;
  std::vector<std::vector<VarValue>> tuples;

  int PosOf(const std::string& name) const {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
  size_t size() const { return tuples.size(); }
};

/// \brief A named visual component: the flattened, row-major enumeration of
/// the Cartesian product of its variable domains, one visualization each.
struct Component {
  std::string name;
  std::vector<std::shared_ptr<VarDomain>> domains;
  std::vector<size_t> strides;
  std::vector<Visualization> visuals;
  bool ready = false;

  size_t size() const { return visuals.size(); }
};

/// \brief One batched SQL fetch plus the routing needed to split its result
/// into the visualizations it covers. Holds shared ownership of its target
/// component, so an in-flight fetch keeps the component alive on its own —
/// operator lifetimes are self-contained (no executor-side pinning).
struct PendingFetch {
  sql::SelectStatement stmt;
  std::shared_ptr<Component> comp;
  VizSpec spec;
  std::vector<std::string> x_attrs;
  /// Z predicates equal for every member (WHERE attr = value).
  std::vector<ZValue> fixed_z;
  /// Z attributes that vary across members (selected + grouped + IN-listed).
  std::vector<std::string> varying_z_attrs;
  /// For each varying attribute, its IN list: the distinct (Value ==)
  /// values to fetch.
  std::vector<std::vector<Value>> varying_z_values;
  bool aggregated = true;
  /// True when a binned x axis (spec.x_bin) was pushed into the statement
  /// as an engine-side GROUP BY over bin edges (sql::SelectStatement::
  /// group_bins); routing then skips the client-side binner.
  bool bin_pushed = false;
  /// One visualization the fetch fills: its position in `comp`, its Z
  /// value per varying attribute as an index into that IN list (equal
  /// values share one; values that only print alike do not), and the
  /// output column each of its series reads.
  struct Member {
    size_t position;
    std::vector<uint32_t> z;
    std::vector<size_t> y;
  };
  std::vector<Member> members;
};

/// \brief Mutable execution state shared by every operator of one query.
/// Mutated only from the coordinating thread, in plan order.
struct ExecState {
  Database* db = nullptr;
  std::string table_name;
  const ZqlOptions* opts = nullptr;
  const std::map<std::string, Visualization>* user_inputs = nullptr;
  std::shared_ptr<Table> table;

  std::map<std::string, std::shared_ptr<VarDomain>> vars;
  std::map<std::string, std::shared_ptr<Component>> comps;
  ZqlStats stats;

  /// Per-query trace (ZqlOptions::trace; null when tracing is off) and
  /// the "execute" span operator spans parent under. Wired by the
  /// executor before the scheduler runs and immutable afterwards.
  Trace* trace = nullptr;
  TraceSpan* trace_span = nullptr;

  /// Batch-scoring state for the process declaration currently being
  /// evaluated (see ScoreProcess). Read-only while the parallel scoring
  /// loop runs; reset afterwards.
  std::shared_ptr<const ScoringContext> scoring_ctx;
  std::map<const Visualization*, size_t> scoring_index;
  /// Contexts already built during this query, by the set of D()
  /// component names they cover. Ready components never change and the
  /// scoring options are fixed per executor, so one name set always
  /// yields the same candidate pool — and so the same context.
  std::map<std::set<std::string>, std::shared_ptr<const ScoringContext>>
      query_contexts;

  /// Snapshots the table and wires the immutable query inputs.
  Status Init(Database* db_in, std::string table_name_in,
              const ZqlOptions& opts_in,
              const std::map<std::string, Visualization>& user_inputs_in);
};

// ---------------------------------------------------------------------------
// FetchOp
// ---------------------------------------------------------------------------

/// Plans one fetch row: resolves its slots against ExecState's variable
/// bindings, materializes the component's visualization identities, groups
/// them into batched SQL statements, and appends the resulting
/// PendingFetches to *out. Registers the component.
Status PlanRowFetches(const ZqlRow& row, ExecState* st,
                      std::vector<PendingFetch>* out);

// ---------------------------------------------------------------------------
// MaterializeOp
// ---------------------------------------------------------------------------

/// Assembles a component that needs no backend scan: a registered
/// user-input visualization (`-f` rows) or a §3.6 derivation over already
/// materialized components (+, -, ^, [i], [i:j], .range, .order).
Status MaterializeLocal(const ZqlRow& row, ExecState* st);

/// Routes one scanned statement's result into the visualizations its fetch
/// covers — a gather by code: each distinct Z code binds its members once,
/// X comes from the dictionary (only a composite X renders a label) — then
/// applies client-side statistical transformations (binning, box plots).
Status RouteFetch(const PendingFetch& pf, const ColumnarResult& rs);

/// Publishes the row's component to downstream operators.
void MarkReady(const ZqlRow& row, ExecState* st);

// ---------------------------------------------------------------------------
// ScoreOp / ReduceOp
// ---------------------------------------------------------------------------

/// The hand-off between ScoreOp and ReduceOp for one Process declaration.
struct ScoreResult {
  /// Iteration domains, deduplicated in declaration order.
  std::vector<std::shared_ptr<VarDomain>> doms;
  /// kMechanism: one score per flattened combination.
  std::vector<double> scores;
  /// kRepresentative: the chosen combination indices.
  std::vector<size_t> chosen;
};

/// Scores decl's objective over its iteration domain (or runs the
/// representative clustering). Adds pure scoring time to stats.score_ms.
Status ScoreProcess(const ProcessDecl& decl, ExecState* st, ScoreResult* out);

/// Applies the mechanism/filter to the scores (kMechanism) or takes the
/// chosen set (kRepresentative) and binds decl's output variables.
Status ReduceProcess(const ProcessDecl& decl, ScoreResult&& scored,
                     ExecState* st);

}  // namespace zv::zql::exec

#endif  // ZV_ZQL_OPERATORS_H_
