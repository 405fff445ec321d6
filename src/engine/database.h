/// \file database.h
/// \brief Backend interface: execute SQL (text or AST) with request/query
/// accounting, mirroring the paper's Execution Engine (§6.2).
///
/// Two implementations exist:
///  - ScanDatabase   — full-scan predicate evaluation (PostgreSQL stand-in),
///  - RoaringDatabase — per-value Roaring bitmap indexes on categorical
///    columns (the paper's in-memory Roaring Bitmap Database).
///
/// A *query* is one SELECT statement. A *request* is one round-trip to the
/// backend and may carry many queries (an optimizer-batched flush, see
/// zql/scheduler.h) — this is the unit the ZQL optimizer reduces and
/// Figures 7.1/7.2 plot. An optional simulated per-request latency models
/// the client/server round-trip that exists in the paper's deployment but
/// not in this in-process build.
///
/// Every row selection runs as a chunk pass of a BatchScanQueue
/// (engine/shared_scan.h): the serving layer's, or — for Execute and every
/// executor given no queue — the backend's own (scan_queue()).

#ifndef ZV_ENGINE_DATABASE_H_
#define ZV_ENGINE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/chunk_map.h"
#include "engine/result_set.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace zv {

class BatchScanQueue;

/// \brief Statements' WHERE clauses compiled for chunk-range evaluation —
/// the one row-selection unit: a BatchScanQueue pass
/// (engine/shared_scan.h) runs it chunk-parallel, possibly fused with
/// other callers' statements.
///
/// ScanRange is const and may run concurrently on disjoint ranges; for
/// each statement i it appends to (*outs)[i] the ascending ids of the rows
/// in [begin, end) that satisfy statement i's WHERE — so concatenating
/// per-range lists in range order reproduces exactly the rows a serial
/// scan selects, and demultiplexing a shared pass reproduces every solo
/// scan byte-for-byte. Scanners are self-contained (they pin the table
/// snapshot they were compiled against), so a pass may finish after the
/// preparing query has gone away.
class MultiChunkScanner {
 public:
  virtual ~MultiChunkScanner() = default;

  /// Number of statements this scanner evaluates per range.
  virtual size_t num_statements() const = 0;

  /// Appends the surviving rows of [begin, end) per statement;
  /// outs->size() must equal num_statements(). Polls the calling thread's
  /// cancellation token (common/cancel.h) at least every ~64K rows and
  /// returns kCancelled.
  virtual Status ScanRange(uint32_t begin, uint32_t end,
                           std::vector<std::vector<uint32_t>>* outs) const = 0;

  /// Attempts to fuse `other` into this scanner so a single ScanRange pass
  /// evaluates both statement sets, other's lists slotted after this
  /// one's. On success takes ownership (other is reset); returns false and
  /// leaves `other` untouched when the two cannot share a pass (different
  /// implementation or table snapshot). Fusion never changes any
  /// statement's output, only how many row loops produce it.
  virtual bool Absorb(std::unique_ptr<MultiChunkScanner>& other) = 0;
};

/// \brief Abstract SQL execution backend with instrumentation.
class Database {
 public:
  Database();
  virtual ~Database();

  /// Human-readable backend name ("scan" / "roaring").
  virtual std::string name() const = 0;

  /// Registers a table; backends may build indexes here.
  virtual Status RegisterTable(std::shared_ptr<Table> table);

  Result<std::shared_ptr<Table>> GetTable(const std::string& name) const {
    return catalog_.GetTable(name);
  }

  /// Parses and executes one SQL string (one request, one query).
  Result<ResultSet> ExecuteSql(const std::string& sql);

  /// Executes one statement (one request, one query): a pass of
  /// scan_queue() selects its rows, FinishChunkScan aggregates them, and
  /// ToResultSet (the SQL adapter) turns the result into rows. A caller
  /// cancelled mid-pass returns kCancelled once the pass ends.
  Result<ResultSet> Execute(const sql::SelectStatement& stmt);

  /// This backend's own shared-scan queue, window 0 (a lone query is never
  /// delayed). Execute and every executor without ZqlOptions::batch_scans
  /// select rows through it, so concurrent direct callers share passes.
  /// Records into MetricsRegistry::Global().
  BatchScanQueue* scan_queue() const { return scan_queue_.get(); }

  /// --- Chunked scans ---------------------------------------------------
  /// The protocol every pass drives: PrepareMultiChunkScan once per
  /// SelectRows call, ScanRange per chunk (on the common pool, for the
  /// pass's leader), FinishChunkScan per statement on its chunk lists.
  /// Splitting selection from aggregation this way keeps the aggregation
  /// block structure — a pure function of table size — out of the
  /// fan-out, so float sums associate identically at any chunk size,
  /// worker count, or co-tenancy.

  /// Chunk partitioning of a registered table, built at RegisterTable time
  /// with the default chunk size (kNotFound for unknown tables). Returned
  /// by value: the copy pins the partitioning for one query's lifetime.
  Result<ChunkMap> GetChunkMap(const std::string& table) const;

  /// Re-partitions `table` with an explicit chunk size (0 = default).
  /// Registration-time API for tests and benches — not safe to call while
  /// queries are executing against this Database.
  Status RebuildChunkMap(const std::string& table, size_t chunk_rows);

  /// Compiles a statement batch for chunk-range evaluation. All
  /// statements must target the same table; fails with the first
  /// statement's compile error. The base implementation compiles every
  /// WHERE into a CompiledPredicate and evaluates them all, one batch of
  /// rows at a time, in a single walk over the range (no WHERE = every row
  /// survives), whatever the statement count; the Roaring backend
  /// overrides it to answer indexed conjuncts from its bitmaps.
  virtual Result<std::unique_ptr<MultiChunkScanner>> PrepareMultiChunkScan(
      const std::vector<const sql::SelectStatement*>& stmts);

  /// The per-statement step after a pass, the same on every backend:
  /// aggregates the statement's surviving rows — ascending parts in chunk
  /// order, as the pass hands them over — with RunBlockedOverRows, whose
  /// blocks are cut at table-size-pure boundaries, so the bytes never
  /// depend on the pass's chunking or co-tenancy. ZQL routes the typed,
  /// column-major result as it is.
  Result<ColumnarResult> FinishChunkScan(
      const sql::SelectStatement& stmt,
      const std::vector<std::vector<uint32_t>>& parts);

  /// One round trip carrying `num_queries` statements: bumps the
  /// request/query counters and sleeps the simulated request latency.
  /// Execute calls it itself; executors call it once per SelectRows call.
  void AccountRequest(size_t num_queries);

  /// --- Instrumentation -------------------------------------------------
  /// Counters are atomic because one Database serves every session of a
  /// QueryService concurrently; relaxed order suffices — they are read
  /// for reporting, never for synchronization.
  uint64_t queries_executed() const {
    return queries_.load(std::memory_order_relaxed);
  }
  uint64_t requests_made() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Roaring container representation changes attributable to this
  /// backend's predicate work. Zero for backends without a bitmap index;
  /// RoaringDatabase reports the process-wide adaptive-container counter.
  /// The executor samples the delta per query (like queries_executed), so
  /// concurrent queries on other sessions can inflate an individual
  /// query's figure — the same caveat the sql_* counters carry.
  virtual uint64_t container_conversions() const { return 0; }
  void ResetCounters() {
    queries_.store(0, std::memory_order_relaxed);
    requests_.store(0, std::memory_order_relaxed);
  }

  /// Sleeps this long at the start of every request, emulating a
  /// client-server round trip (0 by default).
  void set_request_latency_micros(uint64_t micros) {
    request_latency_micros_ = micros;
  }
  uint64_t request_latency_micros() const { return request_latency_micros_; }

 protected:
  /// The table a PrepareMultiChunkScan batch targets; fails on an empty
  /// batch, statements spanning tables, or an unknown table.
  Result<std::shared_ptr<Table>> BatchTable(
      const std::vector<const sql::SelectStatement*>& stmts) const;

  Catalog catalog_;

 private:
  std::unordered_map<std::string, ChunkMap> chunk_maps_;
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> requests_{0};
  uint64_t request_latency_micros_ = 0;
  std::unique_ptr<BatchScanQueue> scan_queue_;
};

}  // namespace zv

#endif  // ZV_ENGINE_DATABASE_H_
