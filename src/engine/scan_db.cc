#include "engine/scan_db.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/cancel.h"
#include "engine/predicate.h"

namespace zv {

namespace {

/// Cancellation poll granularity, matching the solo chunk scanner's
/// (engine/database.cc) so batched and unbatched scans poll alike.
constexpr uint32_t kFusedCancelPollRows = 32768;

/// The fused evaluator: one row loop, every statement's predicate tested
/// per row (no predicate = every row survives). Each statement's output
/// list is exactly what its own PredicateChunkScanner would produce — the
/// fusion shares only the row iteration, never the selection decision.
class FusedPredicateScanner : public MultiChunkScanner {
 public:
  FusedPredicateScanner(std::shared_ptr<Table> table,
                        std::vector<std::optional<CompiledPredicate>> preds)
      : table_(std::move(table)), preds_(std::move(preds)) {}

  size_t num_statements() const override { return preds_.size(); }

  Status ScanRange(uint32_t begin, uint32_t end,
                   std::vector<std::vector<uint32_t>>* outs) const override {
    const size_t n = preds_.size();
    for (uint32_t lo = begin; lo < end;) {
      ZV_RETURN_NOT_OK(CheckCancelled());
      const uint32_t hi = static_cast<uint32_t>(std::min<uint64_t>(
          end, static_cast<uint64_t>(lo) + kFusedCancelPollRows));
      for (uint32_t row = lo; row < hi; ++row) {
        for (size_t i = 0; i < n; ++i) {
          if (!preds_[i].has_value() || preds_[i]->Test(row)) {
            (*outs)[i].push_back(row);
          }
        }
      }
      lo = hi;
    }
    return Status::OK();
  }

  bool Absorb(std::unique_ptr<MultiChunkScanner>& other) override {
    auto* peer = dynamic_cast<FusedPredicateScanner*>(other.get());
    if (peer == nullptr || peer->table_ != table_) return false;
    for (auto& pred : peer->preds_) preds_.push_back(std::move(pred));
    other.reset();
    return true;
  }

 private:
  std::shared_ptr<Table> table_;
  std::vector<std::optional<CompiledPredicate>> preds_;
};

}  // namespace

Result<std::unique_ptr<MultiChunkScanner>> ScanDatabase::PrepareMultiChunkScan(
    const std::vector<const sql::SelectStatement*>& stmts) {
  if (stmts.empty()) {
    return Status::InvalidArgument("empty multi-chunk scan batch");
  }
  ZV_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, GetTable(stmts[0]->table));
  std::vector<std::optional<CompiledPredicate>> preds;
  preds.reserve(stmts.size());
  for (const sql::SelectStatement* stmt : stmts) {
    if (stmt->table != stmts[0]->table) {
      return Status::InvalidArgument("multi-chunk scan batch spans tables");
    }
    if (stmt->where == nullptr) {
      preds.emplace_back(std::nullopt);
    } else {
      ZV_ASSIGN_OR_RETURN(CompiledPredicate pred,
                          CompiledPredicate::Compile(*table, *stmt->where));
      preds.emplace_back(std::move(pred));
    }
  }
  return std::unique_ptr<MultiChunkScanner>(
      new FusedPredicateScanner(std::move(table), std::move(preds)));
}

}  // namespace zv
