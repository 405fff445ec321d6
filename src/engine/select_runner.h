/// \file select_runner.h
/// \brief Backend-independent SELECT evaluation: projection, hash/dense
/// group-by aggregation, ORDER BY and LIMIT.
///
/// A backend plans a SelectRunner for a statement, feeds it the row ids that
/// survive its own WHERE evaluation (scan loop or bitmap iteration), and
/// calls Finish(). Both backends share this code so measured differences
/// between them isolate row *selection*, which is what Figure 7.5 studies.
/// RunBlockedOverRows fixes how a statement's rows fold: dense group spaces
/// fold block by block on the calling thread (ConsumeBlock) — narrow ones
/// into a per-block partial merged in block order, wide ones in row order —
/// and every other statement aggregates in per-block runners. Finish hands
/// the result over column-major (ColumnarResult): categorical keys as
/// codes, aggregates as doubles, anything else as Values.

#ifndef ZV_ENGINE_SELECT_RUNNER_H_
#define ZV_ENGINE_SELECT_RUNNER_H_

#include <cstdint>
#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/result_set.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace zv {

/// \brief Streaming evaluator for one SELECT against one table.
class SelectRunner {
 public:
  /// Max group count for the dense (array-addressed) aggregation path.
  static constexpr uint64_t kDenseGroupLimit = 1u << 20;

  /// Validates the statement against the table and builds the plan.
  static Result<SelectRunner> Plan(const Table& table,
                                   const sql::SelectStatement& stmt);

  /// Feeds one selected row id to a projection, computed-key or hashed
  /// aggregation (dense aggregations fold through ConsumeBlock). Must be
  /// called in ascending row order for deterministic projection output.
  void Consume(size_t row);

  /// Merges the accumulated state of `other` into this runner. `other`
  /// must be planned from the same statement over the same table and must
  /// have consumed a row range strictly after this runner's (projection
  /// rows are appended in block order). Aggregate states merge
  /// associatively (sum/count add; min/max fold), so a partitioned scan
  /// followed by merges produces exactly the serial Finish() output.
  void MergeFrom(SelectRunner&& other);

  /// True when the statement aggregates over a dense group space (no GROUP
  /// BY included): its rows fold through ConsumeBlock.
  bool DenseAggregation() const { return aggregation_ && dense_; }

  /// True when a dense aggregation folds in the wide layout: more than
  /// 2^15 groups, or a per-block partial that would rival a block's rows.
  bool WideLayout() const { return wide_; }

  /// Folds one block's selected rows, rows[0, count) ascending, on the
  /// calling thread; called once per block, in block order. A batch's dense
  /// keys come from the group columns' code arrays, then each aggregate
  /// folds its input column, updating only the fields it finalizes from.
  /// The wide layout folds into the final state (every group in row
  /// order); the narrow one into a partial whose touched keys then merge
  /// into the final state and reset (partials add up in block order).
  /// Returns kCancelled when polled cancellation (every kScanCancelPollRows
  /// rows) finds the calling thread's token cancelled.
  Status ConsumeBlock(const uint32_t* rows, size_t count);

  /// Builds the final result (applies ORDER BY and LIMIT); a categorical
  /// group space writes it straight from its states.
  Result<ColumnarResult> Finish();

 private:
  struct AggState {
    double sum = 0;
    int64_t count = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  struct ItemPlan {
    bool is_agg = false;
    sql::AggFunc agg = sql::AggFunc::kNone;
    int col = -1;        ///< table column (-1 for COUNT(*))
    int group_pos = -1;  ///< for bare items: position in group_by
    int agg_slot = -1;   ///< for agg items: index among aggregates
    // Fast numeric access for aggregation.
    const double* dptr = nullptr;
    const int64_t* iptr = nullptr;
  };

  SelectRunner() = default;

  uint64_t DenseKey(size_t row) const;
  /// The value aggregate `item` (which reads a column) takes from `row`.
  double AggInput(const ItemPlan& item, size_t row) const;
  void AccumulateInto(AggState* states, size_t row) const;
  /// An aggregate's output; a COUNT is an exact integer.
  static double FinalizeAgg(const AggState& s, sql::AggFunc f);
  /// An empty result, one column per SELECT item: doubles for aggregates,
  /// codes for categorical columns outside the generic path, else Values.
  ColumnarResult NewResult() const;
  /// Orders ascending `keys` by the dictionary ranks of the ORDER BY
  /// columns (stable counting passes, so ties keep key order) and applies
  /// LIMIT, when every ORDER BY column is a strictly ordered categorical
  /// group key; returns false (keys untouched) otherwise.
  bool OrderKeysByRank(std::vector<uint64_t>* keys) const;
  Status ApplyOrderAndLimit(ColumnarResult* rs) const;

  const Table* table_ = nullptr;
  /// Output column names (one per SELECT item) and the ORDER BY / LIMIT
  /// clauses — all Finish needs of the statement.
  std::vector<std::string> columns_;
  std::vector<sql::OrderKey> order_by_;
  int64_t limit_ = -1;

  bool aggregation_ = false;

  // Aggregation state.
  std::vector<int> group_cols_;
  /// Parallel to group_cols_: bin width per key (0 = raw grouping). Any
  /// positive width forces the generic path (computed Value keys).
  std::vector<double> group_bin_widths_;
  std::vector<uint64_t> group_dict_sizes_;
  /// Parallel to group_cols_: each categorical key column's code array
  /// (nullptr for other columns), read by ConsumeBlock.
  std::vector<const int32_t*> group_codes_;
  /// Mixed-radix divisor per group position (suffix products of
  /// group_dict_sizes_), precomputed once at Plan() time: a key's code at
  /// position i is (key / group_strides_[i]) % group_dict_sizes_[i].
  std::vector<uint64_t> group_strides_;
  bool groups_categorical_ = true;
  uint64_t total_groups_ = 1;
  bool dense_ = false;
  std::vector<ItemPlan> items_;
  int num_aggs_ = 0;
  bool wide_ = false;

  std::vector<AggState> dense_states_;
  std::vector<uint8_t> dense_seen_;
  /// The narrow layout's block partial, its keys' seen flags and the keys
  /// it touched, in first-touch order; ConsumeBlock resets each to empty.
  std::vector<AggState> partial_states_;
  std::vector<uint8_t> partial_seen_;
  std::vector<uint32_t> touched_;

  std::unordered_map<uint64_t, uint32_t> hash_slots_;
  std::vector<AggState> hash_states_;
  std::vector<uint64_t> hash_keys_;

  // Generic (non-categorical group key) path.
  std::map<std::vector<Value>, uint32_t> generic_slots_;
  std::vector<AggState> generic_states_;

  // Projection state: the rows so far, column-major.
  ColumnarResult projected_;
};

/// Aggregates a statement's selected rows, handed over as a chunk pass
/// returns them: ascending row-id parts, one per chunk in chunk order, so
/// their concatenation is the ascending list a serial scan selects. The
/// one aggregation both backends share. The table's row space is split
/// into contiguous blocks whose *count depends only on the row count*
/// (never on the worker count or the pass's chunking); each block takes
/// its rows straight out of the part holding them (binary search), and
/// only a block straddling a part boundary is gathered into a scratch
/// list. The rows then aggregate one of two ways:
///  - dense group spaces (SelectRunner::DenseAggregation): the blocks'
///    rows fold in block order through SelectRunner::ConsumeBlock on the
///    calling thread. In the narrow layout every group's rows fold per
///    block and the block partials add up in block order; in the wide
///    layout (SelectRunner::WideLayout) they fold serially in row order;
///  - per-block runners (projections, computed keys, hashed group spaces):
///    each block aggregates into its own SelectRunner in parallel, and the
///    runners merge in block order.
/// The layout depends only on the table's row count and the group columns'
/// dictionary sizes, and the dense fold is serial, so floats associate
/// identically at every thread count, chunk size and on both backends
/// (Database::FinishChunkScan runs it after every pass). The result is
/// SelectRunner::Finish's column-major one.
Result<ColumnarResult> RunBlockedOverRows(
    const Table& table, const sql::SelectStatement& stmt,
    const std::vector<std::vector<uint32_t>>& parts);

}  // namespace zv

#endif  // ZV_ENGINE_SELECT_RUNNER_H_
