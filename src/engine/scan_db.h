/// \file scan_db.h
/// \brief Full-scan backend — the PostgreSQL stand-in.
///
/// WHERE clauses compile to batch predicates over the typed columns
/// (dictionary accept-vectors for categorical leaves) evaluated in
/// sequential batch walks, feeding the shared SelectRunner. No indexes are
/// maintained: this backend is the
/// Database base behavior unchanged (PrepareMultiChunkScan's fused
/// predicate scanner).

#ifndef ZV_ENGINE_SCAN_DB_H_
#define ZV_ENGINE_SCAN_DB_H_

#include "engine/database.h"

namespace zv {

class ScanDatabase : public Database {
 public:
  std::string name() const override { return "scan"; }
};

}  // namespace zv

#endif  // ZV_ENGINE_SCAN_DB_H_
