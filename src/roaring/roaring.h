/// \file roaring.h
/// \brief 32-bit Roaring bitmap built on the 16-bit containers.
///
/// This is the principal data storage format of the zenvisage in-memory
/// database (§6.2 of the paper): one bitmap per distinct value of each
/// indexed (categorical) column, combined with bit-parallel AND/OR to
/// evaluate arbitrary selection predicates.

#ifndef ZV_ROARING_ROARING_H_
#define ZV_ROARING_ROARING_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "roaring/container.h"

namespace zv::roaring {

/// \brief Compressed bitmap over the 32-bit integer universe.
///
/// Internally a sorted vector of (high-16-bit key, Container) pairs.
/// Copyable; copies are deep.
class RoaringBitmap {
 public:
  RoaringBitmap() = default;

  /// Builds from arbitrary (not necessarily sorted) values.
  static RoaringBitmap FromValues(const std::vector<uint32_t>& values);

  /// Builds from a sorted, deduplicated range [begin, end) efficiently.
  static RoaringBitmap FromSortedValues(const uint32_t* begin,
                                        const uint32_t* end);

  /// Bitmap containing the contiguous range [lo, hi).
  static RoaringBitmap FromRange(uint32_t lo, uint32_t hi);

  void Add(uint32_t x);
  void Remove(uint32_t x);
  bool Contains(uint32_t x) const;

  uint64_t Cardinality() const;
  bool Empty() const { return chunks_.empty(); }

  /// Number of values strictly less than x.
  uint64_t Rank(uint32_t x) const;

  static RoaringBitmap And(const RoaringBitmap& a, const RoaringBitmap& b);
  static RoaringBitmap Or(const RoaringBitmap& a, const RoaringBitmap& b);
  static RoaringBitmap AndNot(const RoaringBitmap& a, const RoaringBitmap& b);
  static RoaringBitmap Xor(const RoaringBitmap& a, const RoaringBitmap& b);

  /// |a AND b| without materializing the intersection; the fast path for
  /// selectivity estimation.
  static uint64_t AndCardinality(const RoaringBitmap& a,
                                 const RoaringBitmap& b);

  /// In-place variants.
  void AndWith(const RoaringBitmap& other) { *this = And(*this, other); }
  void OrWith(const RoaringBitmap& other) { *this = Or(*this, other); }

  /// Converts containers to run representation where beneficial.
  void RunOptimize();

  /// Calls fn(uint32_t) for every value in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [key, container] : chunks_) {
      const uint32_t base = static_cast<uint32_t>(key) << 16;
      container.ForEach([&fn, base](uint16_t low) { fn(base | low); });
    }
  }

  /// Calls fn(uint32_t) for every value in [lo, hi), ascending. Containers
  /// fully inside the range iterate directly; the boundary containers (at
  /// most two per call) filter per value — so a range restricted to one
  /// 64K-aligned chunk costs one binary search plus that chunk's values.
  /// This is the chunk-range extraction the Roaring scanner relies on.
  template <typename Fn>
  void ForEachInRange(uint32_t lo, uint32_t hi, Fn&& fn) const {
    if (hi <= lo) return;
    const uint16_t key_lo = static_cast<uint16_t>(lo >> 16);
    const uint16_t key_hi = static_cast<uint16_t>((hi - 1) >> 16);
    auto it = std::lower_bound(
        chunks_.begin(), chunks_.end(), key_lo,
        [](const std::pair<uint16_t, Container>& chunk, uint16_t key) {
          return chunk.first < key;
        });
    for (; it != chunks_.end() && it->first <= key_hi; ++it) {
      const uint32_t base = static_cast<uint32_t>(it->first) << 16;
      if (base >= lo && base + 0xFFFF < hi) {
        it->second.ForEach([&fn, base](uint16_t low) { fn(base | low); });
      } else {
        // Boundary chunk: clamp the window once and let the container skip
        // straight to it (no per-value filtering at any representation).
        const uint16_t w_lo =
            base >= lo ? 0 : static_cast<uint16_t>(lo - base);
        const uint16_t w_hi = base + 0xFFFF < hi
                                  ? static_cast<uint16_t>(0xFFFF)
                                  : static_cast<uint16_t>(hi - 1 - base);
        it->second.ForEachInWindow(w_lo, w_hi, [&fn, base](uint16_t low) {
          fn(base | low);
        });
      }
    }
  }

  std::vector<uint32_t> ToVector() const;

  /// Heap bytes across all containers (excludes the chunk index itself).
  size_t SizeInBytes() const;

  bool operator==(const RoaringBitmap& other) const;

 private:
  // Sorted by key.
  std::vector<std::pair<uint16_t, Container>> chunks_;

  Container* FindOrCreate(uint16_t key);
  const Container* Find(uint16_t key) const;
  void EraseEmpty();
};

}  // namespace zv::roaring

#endif  // ZV_ROARING_ROARING_H_
