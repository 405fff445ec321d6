/// \file predicate.h
/// \brief Predicate compilation and batch evaluation: a sql::Expr is bound
/// against a Table's typed column storage once, then evaluated a batch of
/// rows at a time.
///
/// Every leaf predicate over a *categorical* column — equality, inequality,
/// IN, BETWEEN, LIKE — is pre-evaluated against the column's dictionary into
/// an accept-vector indexed by code, so a leaf is one lookup per row. Leaves
/// over measure columns compare the column's values, read as double (int
/// columns convert exactly as Table::NumericAt does), with IEEE semantics:
/// NaN satisfies only `<>`. Each leaf fills a byte mask over the batch in
/// one branch-free loop with its comparison chosen once per batch; AND, OR
/// and NOT combine masks; survivors are compacted without branches.

#ifndef ZV_ENGINE_PREDICATE_H_
#define ZV_ENGINE_PREDICATE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/cancel.h"
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

/// Rows per evaluation batch: the length of every mask a predicate fills.
inline constexpr uint32_t kPredicateBatchRows = 1024;

/// Rows between cancellation polls in every scanner's row loop; a whole
/// number of batches.
inline constexpr uint32_t kScanCancelPollRows = 32768;

/// \brief Working memory for batch evaluation: one mask per evaluation
/// slot plus a compaction buffer. Grown on first use and reused for every
/// later batch, so a scan allocates once per call, never per batch. One
/// scratch serves any number of predicates, but only one thread.
class PredicateScratch {
 private:
  friend class CompiledPredicate;
  std::vector<uint8_t> masks_;
  std::vector<uint32_t> ids_;
};

/// \brief A sql::Expr compiled against one table's column storage. A
/// default-constructed predicate (no WHERE) selects every row. Holds raw
/// pointers into the table's columns: the table must outlive it.
class CompiledPredicate {
 public:
  /// Binds `expr` to `table`, resolving each leaf's column storage and
  /// pre-computing dictionary accept-vectors. Fails on unknown columns or
  /// type errors.
  static Result<CompiledPredicate> Compile(const Table& table,
                                           const sql::Expr& expr);

  /// Appends to `out`, ascending, the rows of [begin, begin + n) that
  /// satisfy the predicate; n <= kPredicateBatchRows.
  void SelectBatch(uint32_t begin, uint32_t n, PredicateScratch* scratch,
                   std::vector<uint32_t>* out) const;

  /// Appends to `out`, in the given order, the candidates among
  /// ids[0, n) that satisfy the predicate; n <= kPredicateBatchRows.
  void SelectCandidates(const uint32_t* ids, uint32_t n,
                        PredicateScratch* scratch,
                        std::vector<uint32_t>* out) const;

 private:
  /// One instruction of the flattened tree, evaluated in order over a
  /// batch. Leaves write mask slot `slot`; kAnd / kOr fold slot + 1 into
  /// `slot`; kNot flips `slot`; kFill sets it (an empty AND or OR).
  struct Step {
    enum class Kind : uint8_t { kDouble, kInt, kCodes, kAnd, kOr, kNot, kFill };
    Kind kind = Kind::kFill;
    uint8_t fill = 0;  ///< kFill
    uint32_t slot = 0;
    const double* doubles = nullptr;  ///< kDouble column storage
    const int64_t* ints = nullptr;    ///< kInt column storage
    const int32_t* codes = nullptr;   ///< kCodes column storage
    std::vector<uint8_t> accept;      ///< kCodes: accept[code]
    /// Measure leaves (kDouble / kInt) test `value op constant`.
    sql::CompareOp op = sql::CompareOp::kEq;
    double constant = 0;
  };

  template <typename Rows>
  void Select(Rows rows, uint32_t n, PredicateScratch* scratch,
              std::vector<uint32_t>* out) const;

  std::vector<Step> steps_;
  uint32_t num_slots_ = 0;
};

/// The batch walk behind every range scanner: calls fn(lo, n) for the
/// batches [lo, lo + n) of [begin, end) in ascending order, n <=
/// kPredicateBatchRows, polling the calling thread's cancellation token
/// (common/cancel.h) every kScanCancelPollRows rows and returning
/// kCancelled.
template <typename Fn>
Status ForEachBatch(uint32_t begin, uint32_t end, Fn&& fn) {
  for (uint32_t lo = begin; lo < end;) {
    ZV_RETURN_NOT_OK(CheckCancelled());
    const uint32_t poll_end = static_cast<uint32_t>(std::min<uint64_t>(
        end, static_cast<uint64_t>(lo) + kScanCancelPollRows));
    while (lo < poll_end) {
      const uint32_t n = std::min(kPredicateBatchRows, poll_end - lo);
      fn(lo, n);
      lo += n;
    }
  }
  return Status::OK();
}

/// Appends the ids in [begin, end) that satisfy `pred`, in ascending
/// order (ForEachBatch over SelectBatch).
Status SelectRange(const CompiledPredicate& pred, uint32_t begin,
                   uint32_t end, std::vector<uint32_t>* out);

}  // namespace zv

#endif  // ZV_ENGINE_PREDICATE_H_
