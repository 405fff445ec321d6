/// \file explain.h
/// \brief Query analysis without execution: the dependency structure the
/// Inter-Task optimizer exploits, rendered as the paper's Figure-5.1 query
/// tree, plus the wavefront schedule it induces.

#ifndef ZV_ZQL_EXPLAIN_H_
#define ZV_ZQL_EXPLAIN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "zql/ast.h"

namespace zv::zql {

/// \brief Static analysis of one ZQL query.
struct QueryPlan {
  struct RowInfo {
    std::string name;
    bool has_task = false;
    bool derived = false;
    bool user_input = false;
    /// Variables this row's visual component consumes / produces.
    std::vector<std::string> consumes_vars;
    std::vector<std::string> declares_vars;
    /// Variables produced by this row's tasks.
    std::vector<std::string> task_outputs;
    /// One note per Process declaration describing how the default task
    /// library will score it: batch ScoringContext vs. serial per-pair
    /// calls, and whether the top-k pruned scan applies (argmin[k=n] over
    /// a bare D(f, g)). A custom TaskLibrary downgrades batch paths to
    /// per-pair at run time; EXPLAIN reports the default-library plan.
    std::vector<std::string> task_scoring;
    /// Components referenced (by tasks or derivations).
    std::vector<std::string> consumes_components;
    /// Inter-Task wave this row's fetch lands in (0-based).
    int wave = 0;
  };
  std::vector<RowInfo> rows;
  int num_waves = 0;

  /// Figure-5.1-style rendering: one line per node with its parents, e.g.
  ///   f2 [wave 0] <- v1
  ///   t1(f1) -> v2
  std::string ToString() const;
};

/// Analyzes dependencies and computes the Inter-Task wavefront schedule.
/// Pure: consults no data, so Z-set cardinalities are unknown — only the
/// dependency structure is reported.
Result<QueryPlan> ExplainQuery(const ZqlQuery& query);

/// One-line description of how the default task library will score a
/// Process declaration (batch ScoringContext scan / top-k pruned / serial
/// user function / R k-means). Shared EXPLAIN vocabulary: QueryPlan task
/// annotations and the physical plan's ScoreOp lines (zql/plan.h) both
/// use it.
std::string DescribeTaskScoring(const ProcessDecl& decl);

}  // namespace zv::zql

#endif  // ZV_ZQL_EXPLAIN_H_
