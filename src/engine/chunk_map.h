/// \file chunk_map.h
/// \brief Per-table chunk catalog for chunk-parallel scan passes.
///
/// A ChunkMap partitions a table's row space [0, num_rows) into fixed-size
/// contiguous row ranges ("chunks"), the unit of fan-out for the shared
/// scan pass (engine/shared_scan.h). This is the single-node analogue of
/// qserv's chunk catalog: chunks are defined purely by row position, so a
/// per-chunk sub-scan touches a disjoint range and the per-chunk results
/// concatenate back — in chunk order — into exactly the row list a serial
/// scan would produce.
///
/// The map is built when a table is registered (Database::RegisterTable)
/// and rebuilt whenever the serving layer swaps a dataset (ReplaceDataset
/// registers the new table into a fresh Database). It stores no per-chunk
/// state — just the row count and chunk size — so copying one into an
/// executing query pins the partitioning for that query's lifetime.

#ifndef ZV_ENGINE_CHUNK_MAP_H_
#define ZV_ENGINE_CHUNK_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>

namespace zv {

/// Default chunk size in rows: the ZV_CHUNK_ROWS environment variable when
/// set to a positive integer, otherwise 262144 (2^18 — large enough that
/// per-chunk dispatch overhead is noise, small enough that a 10M-row table
/// yields ~38 chunks to balance across workers).
size_t DefaultChunkRows();

/// \brief Fixed-size row-range partitioning of one table.
class ChunkMap {
 public:
  /// An empty map: zero rows, zero chunks.
  ChunkMap() = default;

  /// Partitions [0, num_rows) into ceil(num_rows / chunk_rows) chunks.
  /// `chunk_rows` = 0 uses DefaultChunkRows().
  static ChunkMap Build(size_t num_rows, size_t chunk_rows = 0);

  size_t num_rows() const { return num_rows_; }
  size_t chunk_rows() const { return chunk_rows_; }

  /// 0 for an empty table; the last chunk may be short.
  size_t num_chunks() const {
    return num_rows_ == 0 ? 0 : (num_rows_ + chunk_rows_ - 1) / chunk_rows_;
  }

  /// Row range [begin, end) of chunk `chunk` (must be < num_chunks()).
  std::pair<uint32_t, uint32_t> chunk_range(size_t chunk) const {
    const size_t begin = chunk * chunk_rows_;
    const size_t end = begin + chunk_rows_ < num_rows_ ? begin + chunk_rows_
                                                       : num_rows_;
    return {static_cast<uint32_t>(begin), static_cast<uint32_t>(end)};
  }

 private:
  size_t num_rows_ = 0;
  size_t chunk_rows_ = 1;
};

}  // namespace zv

#endif  // ZV_ENGINE_CHUNK_MAP_H_
