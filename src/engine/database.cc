#include "engine/database.h"

#include <chrono>
#include <thread>
#include <utility>

#include "engine/predicate.h"
#include "engine/select_runner.h"
#include "engine/shared_scan.h"
#include "sql/parser.h"

namespace zv {

namespace {

/// The base scanner: one batch walk, every statement's predicate evaluated
/// per batch (no WHERE = every row survives), so a batch's column data
/// stays cache-resident across the fused statements. Fusion shares only
/// the walk, never a selection decision, so each statement's list is
/// exactly what it would select alone.
class FusedPredicateScanner : public MultiChunkScanner {
 public:
  FusedPredicateScanner(std::shared_ptr<Table> table,
                        std::vector<CompiledPredicate> preds)
      : table_(std::move(table)), preds_(std::move(preds)) {}

  size_t num_statements() const override { return preds_.size(); }

  Status ScanRange(uint32_t begin, uint32_t end,
                   std::vector<std::vector<uint32_t>>* outs) const override {
    PredicateScratch scratch;
    return ForEachBatch(begin, end, [&](uint32_t lo, uint32_t n) {
      for (size_t i = 0; i < preds_.size(); ++i) {
        preds_[i].SelectBatch(lo, n, &scratch, &(*outs)[i]);
      }
    });
  }

  bool Absorb(std::unique_ptr<MultiChunkScanner>& other) override {
    auto* peer = dynamic_cast<FusedPredicateScanner*>(other.get());
    if (peer == nullptr || peer->table_ != table_) return false;
    for (auto& pred : peer->preds_) preds_.push_back(std::move(pred));
    other.reset();
    return true;
  }

 private:
  /// Keeps the compiled predicates' column pointers alive.
  std::shared_ptr<Table> table_;
  std::vector<CompiledPredicate> preds_;
};

}  // namespace

Database::Database()
    : scan_queue_(std::make_unique<BatchScanQueue>(
          BatchScanOptions{/*window_ms=*/0, /*metrics=*/nullptr})) {}

Database::~Database() = default;

Status Database::RegisterTable(std::shared_ptr<Table> table) {
  const std::string name = table->name();
  const size_t num_rows = table->num_rows();
  ZV_RETURN_NOT_OK(catalog_.AddTable(std::move(table)));
  chunk_maps_[name] = ChunkMap::Build(num_rows);
  return Status::OK();
}

Result<ChunkMap> Database::GetChunkMap(const std::string& table) const {
  auto it = chunk_maps_.find(table);
  if (it == chunk_maps_.end()) {
    return Status::NotFound("no chunk map for table '" + table + "'");
  }
  return it->second;
}

Status Database::RebuildChunkMap(const std::string& table, size_t chunk_rows) {
  ZV_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, GetTable(table));
  chunk_maps_[table] = ChunkMap::Build(t->num_rows(), chunk_rows);
  return Status::OK();
}

Result<std::shared_ptr<Table>> Database::BatchTable(
    const std::vector<const sql::SelectStatement*>& stmts) const {
  if (stmts.empty()) {
    return Status::InvalidArgument("empty multi-chunk scan batch");
  }
  for (const sql::SelectStatement* stmt : stmts) {
    if (stmt->table != stmts[0]->table) {
      return Status::InvalidArgument("multi-chunk scan batch spans tables");
    }
  }
  return GetTable(stmts[0]->table);
}

Result<std::unique_ptr<MultiChunkScanner>> Database::PrepareMultiChunkScan(
    const std::vector<const sql::SelectStatement*>& stmts) {
  ZV_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, BatchTable(stmts));
  std::vector<CompiledPredicate> preds(stmts.size());
  for (size_t i = 0; i < stmts.size(); ++i) {
    if (stmts[i]->where != nullptr) {
      ZV_ASSIGN_OR_RETURN(preds[i],
                          CompiledPredicate::Compile(*table, *stmts[i]->where));
    }
  }
  return std::unique_ptr<MultiChunkScanner>(
      new FusedPredicateScanner(std::move(table), std::move(preds)));
}

Result<ColumnarResult> Database::FinishChunkScan(
    const sql::SelectStatement& stmt,
    const std::vector<std::vector<uint32_t>>& parts) {
  ZV_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, GetTable(stmt.table));
  return RunBlockedOverRows(*table, stmt, parts);
}

void Database::AccountRequest(size_t num_queries) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  queries_.fetch_add(num_queries, std::memory_order_relaxed);
  if (request_latency_micros_ > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(request_latency_micros_));
  }
}

Result<ResultSet> Database::ExecuteSql(const std::string& sql) {
  ZV_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::ParseSelect(sql));
  return Execute(stmt);
}

Result<ResultSet> Database::Execute(const sql::SelectStatement& stmt) {
  AccountRequest(1);
  BatchScanQueue::Selection sel =
      scan_queue_->SelectRows(this, stmt.table, {&stmt});
  ZV_RETURN_NOT_OK(sel.status);
  ZV_ASSIGN_OR_RETURN(ColumnarResult result,
                      FinishChunkScan(stmt, sel.rows[0]));
  return ToResultSet(result);
}

}  // namespace zv
