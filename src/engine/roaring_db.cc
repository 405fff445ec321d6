#include "engine/roaring_db.h"

#include <algorithm>
#include <utility>

#include "common/cancel.h"
#include "engine/predicate.h"

namespace zv {

using roaring::RoaringBitmap;
using sql::Expr;

Status RoaringDatabase::RegisterTable(std::shared_ptr<Table> table) {
  ZV_RETURN_NOT_OK(Database::RegisterTable(table));
  TableIndex index;
  const size_t ncols = table->schema().num_columns();
  const size_t nrows = table->num_rows();
  index.per_value.resize(ncols);
  index.all_rows = RoaringBitmap::FromRange(0, static_cast<uint32_t>(nrows));
  for (size_t col = 0; col < ncols; ++col) {
    if (table->column_type(col) != ColumnType::kCategorical) continue;
    const size_t dict_size = table->DictSize(col);
    // Bucket row ids per code (already sorted), then bulk-build bitmaps.
    std::vector<std::vector<uint32_t>> buckets(dict_size);
    const auto& codes = table->CategoricalColumn(col);
    for (size_t row = 0; row < nrows; ++row) {
      buckets[static_cast<size_t>(codes[row])].push_back(
          static_cast<uint32_t>(row));
    }
    auto& bitmaps = index.per_value[col];
    bitmaps.reserve(dict_size);
    for (auto& bucket : buckets) {
      RoaringBitmap bm = RoaringBitmap::FromSortedValues(
          bucket.data(), bucket.data() + bucket.size());
      bm.RunOptimize();
      bitmaps.push_back(std::move(bm));
      bucket.clear();
      bucket.shrink_to_fit();
    }
  }
  indexes_.emplace(table->name(), std::move(index));
  return Status::OK();
}

uint64_t RoaringDatabase::container_conversions() const {
  return roaring::ContainerConversions();
}

size_t RoaringDatabase::IndexBytes(const std::string& table_name) const {
  auto it = indexes_.find(table_name);
  if (it == indexes_.end()) return 0;
  size_t n = it->second.all_rows.SizeInBytes();
  for (const auto& col : it->second.per_value) {
    for (const auto& bm : col) n += bm.SizeInBytes();
  }
  return n;
}

std::optional<RoaringBitmap> RoaringDatabase::TryBitmap(
    const Table& table, const TableIndex& index, const Expr& expr) const {
  switch (expr.kind) {
    case Expr::Kind::kAnd: {
      std::optional<RoaringBitmap> acc;
      for (const auto& child : expr.children) {
        auto bm = TryBitmap(table, index, *child);
        if (!bm.has_value()) return std::nullopt;
        if (!acc.has_value()) acc = std::move(bm);
        else acc = RoaringBitmap::And(*acc, *bm);
      }
      return acc;
    }
    case Expr::Kind::kOr: {
      std::optional<RoaringBitmap> acc;
      for (const auto& child : expr.children) {
        auto bm = TryBitmap(table, index, *child);
        if (!bm.has_value()) return std::nullopt;
        if (!acc.has_value()) acc = std::move(bm);
        else acc = RoaringBitmap::Or(*acc, *bm);
      }
      return acc;
    }
    case Expr::Kind::kNot: {
      auto bm = TryBitmap(table, index, *expr.children[0]);
      if (!bm.has_value()) return std::nullopt;
      return RoaringBitmap::AndNot(index.all_rows, *bm);
    }
    default: {
      const int col = table.schema().Find(expr.column);
      if (col < 0) return std::nullopt;  // surfaced by residual compile
      const size_t c = static_cast<size_t>(col);
      if (table.column_type(c) != ColumnType::kCategorical) {
        return std::nullopt;  // measure columns are un-indexed
      }
      const auto& bitmaps = index.per_value[c];
      const std::vector<uint8_t> accept = CategoricalAcceptSet(table, c, expr);
      const size_t accepted =
          static_cast<size_t>(std::count(accept.begin(), accept.end(), 1));
      // OR the smaller side; complement when most codes are accepted.
      const bool complement = accepted > accept.size() / 2;
      RoaringBitmap acc;
      for (size_t code = 0; code < accept.size(); ++code) {
        if ((accept[code] != 0) != complement) acc.OrWith(bitmaps[code]);
      }
      if (!complement) return acc;
      return RoaringBitmap::AndNot(index.all_rows, acc);
    }
  }
}

Result<RoaringDatabase::SplitPredicate> RoaringDatabase::SplitWhere(
    const Table& table, const TableIndex& index, const Expr& where) const {
  SplitPredicate split;
  std::vector<const Expr*> residual_parts;
  auto add_conjunct = [&](const Expr& e) {
    auto bm = TryBitmap(table, index, e);
    if (bm.has_value()) {
      if (!split.filter.has_value()) split.filter = std::move(bm);
      else split.filter = RoaringBitmap::And(*split.filter, *bm);
    } else {
      residual_parts.push_back(&e);
    }
  };
  if (where.kind == Expr::Kind::kAnd) {
    for (const auto& child : where.children) add_conjunct(*child);
  } else {
    add_conjunct(where);
  }
  if (!residual_parts.empty()) {
    std::vector<std::unique_ptr<Expr>> clones;
    clones.reserve(residual_parts.size());
    for (const Expr* e : residual_parts) clones.push_back(e->Clone());
    auto conj = Expr::And(std::move(clones));
    ZV_ASSIGN_OR_RETURN(split.residual,
                        CompiledPredicate::Compile(table, *conj));
  }
  return split;
}

namespace {

/// Multi-statement scanner over bitmap selections. Statements keep their
/// own loops — there is no fused row loop to share once a bitmap decides
/// which rows to visit — but a shared pass still schedules them all as one
/// set of chunk jobs.
class RoaringMultiScanner : public MultiChunkScanner {
 public:
  /// One statement's selection: the index-answerable filter, if any, and
  /// the residual predicate — with no filter, the whole WHERE (no WHERE =
  /// every row survives).
  struct Part {
    std::optional<RoaringBitmap> filter;
    CompiledPredicate residual;
  };

  RoaringMultiScanner(std::shared_ptr<Table> table, std::vector<Part> parts)
      : table_(std::move(table)), parts_(std::move(parts)) {}

  size_t num_statements() const override { return parts_.size(); }

  Status ScanRange(uint32_t begin, uint32_t end,
                   std::vector<std::vector<uint32_t>>* outs) const override {
    PredicateScratch scratch;
    for (size_t i = 0; i < parts_.size(); ++i) {
      const Part& part = parts_[i];
      std::vector<uint32_t>* out = &(*outs)[i];
      ZV_RETURN_NOT_OK(part.filter.has_value()
                           ? ScanFiltered(part, begin, end, &scratch, out)
                           : SelectRange(part.residual, begin, end, out));
    }
    return Status::OK();
  }

  bool Absorb(std::unique_ptr<MultiChunkScanner>& other) override {
    auto* peer = dynamic_cast<RoaringMultiScanner*>(other.get());
    if (peer == nullptr || peer->table_ != table_) return false;
    for (Part& part : peer->parts_) parts_.push_back(std::move(part));
    other.reset();
    return true;
  }

 private:
  /// Extracts the filter's values in [begin, end) into candidate batches,
  /// keeping the residual's survivors. Slices at container granularity so
  /// long extractions poll cancellation, like the base scanner's batch
  /// walk (ForEachBatch).
  static Status ScanFiltered(const Part& part, uint32_t begin, uint32_t end,
                             PredicateScratch* scratch,
                             std::vector<uint32_t>* out) {
    uint32_t candidates[kPredicateBatchRows] = {};
    for (uint32_t lo = begin; lo < end;) {
      ZV_RETURN_NOT_OK(CheckCancelled());
      const uint32_t hi = static_cast<uint32_t>(std::min<uint64_t>(
          end, (static_cast<uint64_t>(lo) | 0xFFFF) + 1));
      uint32_t n = 0;
      part.filter->ForEachInRange(lo, hi, [&](uint32_t row) {
        candidates[n++] = row;
        if (n == kPredicateBatchRows) {
          part.residual.SelectCandidates(candidates, n, scratch, out);
          n = 0;
        }
      });
      part.residual.SelectCandidates(candidates, n, scratch, out);
      lo = hi;
    }
    return Status::OK();
  }

  std::shared_ptr<Table> table_;  ///< keeps predicates' column pointers alive
  std::vector<Part> parts_;
};

}  // namespace

Result<std::unique_ptr<MultiChunkScanner>>
RoaringDatabase::PrepareMultiChunkScan(
    const std::vector<const sql::SelectStatement*>& stmts) {
  ZV_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, BatchTable(stmts));
  auto idx_it = indexes_.find(table->name());
  if (idx_it == indexes_.end()) return Status::Internal("missing index");
  std::vector<RoaringMultiScanner::Part> parts;
  parts.reserve(stmts.size());
  for (const sql::SelectStatement* stmt : stmts) {
    RoaringMultiScanner::Part part;
    if (stmt->where != nullptr) {
      // Nothing indexable leaves no filter and the conjunction of every
      // conjunct — the whole WHERE — as the residual.
      ZV_ASSIGN_OR_RETURN(SplitPredicate split,
                          SplitWhere(*table, idx_it->second, *stmt->where));
      part.filter = std::move(split.filter);
      part.residual = std::move(split.residual);
    }
    parts.push_back(std::move(part));
  }
  return std::unique_ptr<MultiChunkScanner>(
      new RoaringMultiScanner(std::move(table), std::move(parts)));
}

}  // namespace zv
