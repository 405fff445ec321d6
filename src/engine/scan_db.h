/// \file scan_db.h
/// \brief Full-scan backend — the PostgreSQL stand-in.
///
/// WHERE clauses compile to per-row predicates (dictionary accept-vectors
/// for categorical leaves) evaluated in a single sequential pass, feeding
/// the shared SelectRunner. No indexes are maintained. See DESIGN.md §4 for
/// why this substitution preserves the behaviour the paper measures.

#ifndef ZV_ENGINE_SCAN_DB_H_
#define ZV_ENGINE_SCAN_DB_H_

#include "engine/database.h"

namespace zv {

class ScanDatabase : public Database {
 public:
  std::string name() const override { return "scan"; }

  /// Fused multi-statement chunk scan: every statement's compiled
  /// predicate is tested inside a single row loop, so a shared pass over N
  /// batched queries walks the column data once instead of N times. The
  /// per-statement row lists are exactly what N solo scans would select.
  Result<std::unique_ptr<MultiChunkScanner>> PrepareMultiChunkScan(
      const std::vector<const sql::SelectStatement*>& stmts) override;
};

}  // namespace zv

#endif  // ZV_ENGINE_SCAN_DB_H_
