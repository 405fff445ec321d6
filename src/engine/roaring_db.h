/// \file roaring_db.h
/// \brief The zenvisage in-memory Roaring Bitmap Database (§6.2).
///
/// Storage model: column-oriented; categorical columns get one Roaring
/// bitmap per distinct value (built at RegisterTable), measure columns stay
/// un-indexed arrays — the paper's default policy. Selection predicates over
/// indexed columns are evaluated with bit-parallel AND/OR/ANDNOT; residual
/// (measure) predicates are evaluated a batch at a time over the bitmap's
/// survivors.

#ifndef ZV_ENGINE_ROARING_DB_H_
#define ZV_ENGINE_ROARING_DB_H_

#include <memory>
#include <optional>
#include <unordered_map>

#include "engine/database.h"
#include "engine/predicate.h"
#include "roaring/roaring.h"

namespace zv {

class RoaringDatabase : public Database {
 public:
  std::string name() const override { return "roaring"; }

  /// Registers the table and builds per-value bitmap indexes for every
  /// categorical column.
  Status RegisterTable(std::shared_ptr<Table> table) override;

  /// Total index memory for a table (bytes), for reporting.
  size_t IndexBytes(const std::string& table_name) const;

  /// Adaptive-container representation changes (process-wide counter from
  /// the roaring layer; see Database::container_conversions for sampling
  /// semantics).
  uint64_t container_conversions() const override;

  /// Chunk-scan compilation reusing the bitmap indexes: per statement, the
  /// index-answerable part of the WHERE becomes one Roaring filter (built
  /// once), and ScanRange extracts the filter's values inside each range,
  /// evaluating the residual predicate over them a batch at a time;
  /// statements with no WHERE or nothing indexable walk the rows like the
  /// base scanner. Every row selection on this backend — served, direct
  /// or Execute — runs through it.
  Result<std::unique_ptr<MultiChunkScanner>> PrepareMultiChunkScan(
      const std::vector<const sql::SelectStatement*>& stmts) override;

 private:
  struct TableIndex {
    // indexed by column position; empty vector for measure columns.
    std::vector<std::vector<roaring::RoaringBitmap>> per_value;
    roaring::RoaringBitmap all_rows;
  };

  /// Returns an exact bitmap for `expr` if every leaf touches an indexed
  /// column, otherwise nullopt.
  std::optional<roaring::RoaringBitmap> TryBitmap(const Table& table,
                                                  const TableIndex& index,
                                                  const sql::Expr& expr) const;

  /// A WHERE clause split into its index-answerable bitmap (absent when
  /// no conjunct is indexable) and the compiled residual predicate (every
  /// row when every conjunct is).
  struct SplitPredicate {
    std::optional<roaring::RoaringBitmap> filter;
    CompiledPredicate residual;
  };

  /// Splits a top-level conjunction into conjuncts TryBitmap can answer
  /// (ANDed into one filter) and the compiled conjunction of the rest.
  Result<SplitPredicate> SplitWhere(const Table& table,
                                    const TableIndex& index,
                                    const sql::Expr& where) const;

  std::unordered_map<std::string, TableIndex> indexes_;
};

}  // namespace zv

#endif  // ZV_ENGINE_ROARING_DB_H_
