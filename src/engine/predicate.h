/// \file predicate.h
/// \brief Predicate compilation: a sql::Expr is bound against a Table into a
/// form evaluable per row in a tight loop.
///
/// Every leaf predicate over a *categorical* column — equality, inequality,
/// IN, BETWEEN, LIKE — is pre-evaluated against the column's dictionary into
/// an accept-vector indexed by code, so per-row evaluation is a single array
/// lookup. Leaves over measure columns compare doubles directly.

#ifndef ZV_ENGINE_PREDICATE_H_
#define ZV_ENGINE_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace zv {

/// Evaluates a leaf predicate (kCompare / kIn / kBetween / kLike) over
/// categorical column `col`'s dictionary: accept[code] says whether the
/// leaf holds for that code's value. Equality, inequality and IN look
/// their values up in the dictionary's order (Table::EqualRankRange), so
/// an IN list costs O(|IN| log d + d), not O(|IN| d). Shared by the scan
/// predicate compiler and the Roaring index planner.
std::vector<uint8_t> CategoricalAcceptSet(const Table& table, size_t col,
                                          const sql::Expr& leaf);

/// \brief A sql::Expr compiled against one table.
class CompiledPredicate {
 public:
  /// Node in the flattened predicate tree.
  struct Node {
    enum class Kind { kAnd, kOr, kNot, kCatAccept, kNumCompare, kNumBetween };
    Kind kind;
    std::vector<int> children;      // kAnd / kOr / kNot
    int col = -1;                   // leaf column index
    std::vector<uint8_t> accept;    // kCatAccept: accept[code]
    sql::CompareOp op = sql::CompareOp::kEq;  // kNumCompare
    double lhs_lo = 0, lhs_hi = 0;  // kNumCompare rhs in lhs_lo; kNumBetween
  };

  /// Binds `expr` to `table`, resolving columns and pre-computing
  /// dictionary accept-vectors. Fails on unknown columns or type errors.
  static Result<CompiledPredicate> Compile(const Table& table,
                                           const sql::Expr& expr);

  /// Evaluates the predicate against one row.
  bool Test(size_t row) const { return TestNode(root_, row); }

  /// True if every leaf touches only categorical columns — i.e. the whole
  /// predicate can be answered from bitmap indexes.
  bool categorical_only() const { return categorical_only_; }

  const std::vector<Node>& nodes() const { return nodes_; }
  int root() const { return root_; }
  const Table& table() const { return *table_; }

 private:
  bool TestNode(int idx, size_t row) const;

  const Table* table_ = nullptr;
  std::vector<Node> nodes_;
  int root_ = -1;
  bool categorical_only_ = true;
};

/// Rows between cancellation polls in every scanner's row loop.
inline constexpr uint32_t kScanCancelPollRows = 32768;

/// The plain row loop behind every scanner: appends the ids in
/// [begin, end) that satisfy `pred` — every id when `pred` is null — in
/// ascending order, polling the calling thread's cancellation token
/// (common/cancel.h) every kScanCancelPollRows rows and returning
/// kCancelled.
Status SelectRange(const CompiledPredicate* pred, uint32_t begin,
                   uint32_t end, std::vector<uint32_t>* out);

}  // namespace zv

#endif  // ZV_ENGINE_PREDICATE_H_
