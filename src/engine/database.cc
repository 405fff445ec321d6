#include "engine/database.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "common/cancel.h"
#include "engine/predicate.h"
#include "engine/select_runner.h"
#include "sql/parser.h"

namespace zv {

namespace {

/// Cancellation poll granularity inside ScanRange row loops.
constexpr uint32_t kChunkCancelPollRows = 32768;

/// The generic chunk scanner: CompiledPredicate per row (no predicate =
/// every row survives). Matches ScanDatabase's selection semantics exactly.
class PredicateChunkScanner : public ChunkScanner {
 public:
  PredicateChunkScanner(std::shared_ptr<Table> table,
                        std::optional<CompiledPredicate> pred)
      : table_(std::move(table)), pred_(std::move(pred)) {}

  Status ScanRange(uint32_t begin, uint32_t end,
                   std::vector<uint32_t>* out) const override {
    for (uint32_t lo = begin; lo < end;) {
      ZV_RETURN_NOT_OK(CheckCancelled());
      const uint32_t hi = static_cast<uint32_t>(std::min<uint64_t>(
          end, static_cast<uint64_t>(lo) + kChunkCancelPollRows));
      if (pred_.has_value()) {
        const CompiledPredicate& pred = *pred_;
        for (uint32_t row = lo; row < hi; ++row) {
          if (pred.Test(row)) out->push_back(row);
        }
      } else {
        for (uint32_t row = lo; row < hi; ++row) out->push_back(row);
      }
      lo = hi;
    }
    return Status::OK();
  }

 private:
  /// Keeps the compiled predicate's column pointers alive.
  std::shared_ptr<Table> table_;
  std::optional<CompiledPredicate> pred_;
};

/// The generic multi-statement scanner: one prepared ChunkScanner per
/// statement, run back-to-back over each range. No fused row loop — each
/// part keeps whatever evaluation strategy its backend compiled (bitmap
/// probes for Roaring) — but a shared pass still schedules all parts as
/// one set of chunk jobs. Absorb concatenates two wrappers over the same
/// table snapshot.
class WrappedMultiScanner : public MultiChunkScanner {
 public:
  WrappedMultiScanner(const void* table_tag,
                      std::vector<std::unique_ptr<ChunkScanner>> parts)
      : table_tag_(table_tag), parts_(std::move(parts)) {}

  size_t num_statements() const override { return parts_.size(); }

  Status ScanRange(uint32_t begin, uint32_t end,
                   std::vector<std::vector<uint32_t>>* outs) const override {
    for (size_t i = 0; i < parts_.size(); ++i) {
      ZV_RETURN_NOT_OK(parts_[i]->ScanRange(begin, end, &(*outs)[i]));
    }
    return Status::OK();
  }

  bool Absorb(std::unique_ptr<MultiChunkScanner>& other) override {
    auto* peer = dynamic_cast<WrappedMultiScanner*>(other.get());
    if (peer == nullptr || peer->table_tag_ != table_tag_) return false;
    for (auto& part : peer->parts_) parts_.push_back(std::move(part));
    other.reset();
    return true;
  }

 private:
  /// Identity of the table snapshot the parts were compiled against; the
  /// parts themselves keep it alive, so equal tags mean the same snapshot.
  const void* table_tag_;
  std::vector<std::unique_ptr<ChunkScanner>> parts_;
};

}  // namespace

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

Result<std::unique_ptr<ChunkScanner>> Database::PrepareChunkScan(
    const sql::SelectStatement& stmt) {
  ZV_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, GetTable(stmt.table));
  std::optional<CompiledPredicate> pred;
  if (stmt.where != nullptr) {
    ZV_ASSIGN_OR_RETURN(CompiledPredicate compiled,
                        CompiledPredicate::Compile(*table, *stmt.where));
    pred = std::move(compiled);
  }
  return std::unique_ptr<ChunkScanner>(
      new PredicateChunkScanner(std::move(table), std::move(pred)));
}

Result<std::unique_ptr<MultiChunkScanner>> Database::PrepareMultiChunkScan(
    const std::vector<const sql::SelectStatement*>& stmts) {
  if (stmts.empty()) {
    return Status::InvalidArgument("empty multi-chunk scan batch");
  }
  ZV_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, GetTable(stmts[0]->table));
  std::vector<std::unique_ptr<ChunkScanner>> parts;
  parts.reserve(stmts.size());
  for (const sql::SelectStatement* stmt : stmts) {
    if (stmt->table != stmts[0]->table) {
      return Status::InvalidArgument("multi-chunk scan batch spans tables");
    }
    ZV_ASSIGN_OR_RETURN(std::unique_ptr<ChunkScanner> scanner,
                        PrepareChunkScan(*stmt));
    parts.push_back(std::move(scanner));
  }
  return std::unique_ptr<MultiChunkScanner>(
      new WrappedMultiScanner(table.get(), std::move(parts)));
}

Result<ResultSet> Database::FinishChunkScan(const sql::SelectStatement& stmt,
                                            const std::vector<uint32_t>& rows) {
  ZV_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, GetTable(stmt.table));
  return RunBlockedOverRows(*table, stmt, rows);
}

Result<ResultSet> Database::ExecuteInternal(const sql::SelectStatement& stmt) {
  ZV_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, GetTable(stmt.table));
  ZV_ASSIGN_OR_RETURN(std::unique_ptr<ChunkScanner> scanner,
                      PrepareChunkScan(stmt));
  // ScanRange is const and thread-safe, so one scanner serves every block.
  return RunBlocked(*table, stmt,
                    [&scanner](uint32_t begin, uint32_t end,
                               std::vector<uint32_t>* out) {
                      return scanner->ScanRange(begin, end, out);
                    });
}

void Database::BeginRequest(size_t num_queries) {
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
  BeginRequest(1);
  return ExecuteInternal(stmt);
}

std::vector<Result<ResultSet>> Database::ExecuteBatch(
    const std::vector<sql::SelectStatement>& stmts) {
  std::vector<Result<ResultSet>> out;
  out.reserve(stmts.size());
  ScanBatch(stmts, /*batched=*/true, [&out](size_t, Result<ResultSet> rs) {
    out.push_back(std::move(rs));
    return true;
  });
  return out;
}

void Database::ScanBatch(
    const std::vector<sql::SelectStatement>& stmts, bool batched,
    const std::function<bool(size_t, Result<ResultSet>)>& sink,
    double* scan_ms) {
  using Clock = std::chrono::steady_clock;
  auto t0 = Clock::now();
  auto flush_timer = [&] {
    if (scan_ms != nullptr) {
      *scan_ms +=
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    }
  };
  if (batched) BeginRequest(stmts.size());
  for (size_t i = 0; i < stmts.size(); ++i) {
    if (!batched) BeginRequest(1);
    Result<ResultSet> rs = ExecuteInternal(stmts[i]);
    flush_timer();
    const bool keep_going = sink(i, std::move(rs));
    t0 = Clock::now();
    if (!keep_going) return;
  }
}

}  // namespace zv
