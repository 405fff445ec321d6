/// \file container.h
/// \brief 16-bit containers underlying the Roaring bitmap (Chambi, Lemire,
/// Kaser, Godin, "Better bitmap performance with Roaring bitmaps", SPE 2015;
/// paper reference [17]).
///
/// A Roaring bitmap partitions the 32-bit universe into 2^16 chunks keyed by
/// the high 16 bits; each chunk stores its low 16 bits in whichever
/// container is smallest:
///   - ArrayContainer:    sorted uint16 list (cardinality <= 4096),
///   - BitmapContainer:   1024 x uint64 words (mid-density),
///   - InvertedContainer: sorted uint16 list of the *unset* positions
///     (cardinality >= 61440 — nearly full chunks, the mirror image of the
///     array container),
///   - AllContainer:      every one of the 65536 values present; a zero-byte
///     sentinel (full chunks are common under `WHERE`-free scans and
///     complement pushdown),
///   - RunContainer:      sorted (start, length) runs, chosen by
///     RunOptimize() when it beats the canonical form.
///
/// The inverted/all encodings follow multiroar's adaptive container set:
/// predicates over near-complete chunks (e.g. `NOT col = rare_value`)
/// otherwise pay full 8 KiB bitmaps for a handful of absent rows.

#ifndef ZV_ROARING_CONTAINER_H_
#define ZV_ROARING_CONTAINER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace zv::roaring {

/// Cardinality threshold at which an array container converts to a bitmap.
inline constexpr uint32_t kArrayMaxCardinality = 4096;
/// Number of 64-bit words in a bitmap container (2^16 / 64).
inline constexpr uint32_t kBitmapWords = 1024;
/// Number of values a chunk can hold (2^16).
inline constexpr uint32_t kChunkCardinality = 65536;
/// Cardinality threshold at which a bitmap converts to an inverted
/// container: the unset list then fits the same budget an array container
/// gets for its set list (<= kArrayMaxCardinality entries).
inline constexpr uint32_t kInvertedMinCardinality =
    kChunkCardinality - kArrayMaxCardinality;

/// \brief A run of consecutive values [start, start + length].
struct Run {
  uint16_t start;
  uint16_t length;  ///< inclusive extra values; run covers length+1 values
  bool operator==(const Run&) const = default;
};

/// How IntersectSorted walks its two inputs.
enum class IntersectMode {
  kLinear,     ///< two-pointer merge, O(|a| + |b|)
  kGalloping,  ///< exponential search in the larger list, O(|small| log)
  kAuto,       ///< galloping when the sizes are lopsided, merge otherwise
};

/// Intersection of two sorted uint16 lists. The galloping mode advances
/// through the larger list by exponential (1, 2, 4, ...) steps from the
/// previous match position before binary-searching the bracketed window —
/// O(small * log(gap)) instead of O(large) — which is the array-vs-array
/// kernel behind selective predicate conjunctions. Exposed as a free
/// function so tests and bench_roaring can pit the modes against each other
/// on identical inputs.
std::vector<uint16_t> IntersectSorted(const std::vector<uint16_t>& a,
                                      const std::vector<uint16_t>& b,
                                      IntersectMode mode = IntersectMode::kAuto);

/// Process-wide count of container representation changes (array<->bitmap,
/// ->inverted, ->all, ->run). Monotone, updated with relaxed atomics;
/// surfaced per-query as the `container_conversions` wire stat.
uint64_t ContainerConversions();

/// \brief One 16-bit chunk of a Roaring bitmap.
///
/// The container owns exactly one representation at a time, identified by
/// type(). All mutating operations keep the cached cardinality correct and
/// convert between representations at the density thresholds above.
/// Binary set operations return newly allocated containers in the smallest
/// canonical (array / bitmap / inverted / all) representation; run
/// containers are produced only by RunOptimize().
class Container {
 public:
  enum class Type { kArray, kBitmap, kRun, kInverted, kAll };

  Container() : type_(Type::kArray), cardinality_(0) {}

  static Container MakeArray(std::vector<uint16_t> sorted_values);
  static Container MakeBitmap(std::vector<uint64_t> words);
  static Container MakeRuns(std::vector<Run> runs);
  /// Container holding every value except `sorted_absent` (normalized to
  /// bitmap/all form when the absent list is out of inverted range).
  static Container MakeInverted(std::vector<uint16_t> sorted_absent);
  /// The full chunk: all 65536 values, zero bytes of storage.
  static Container MakeAll();

  Type type() const { return type_; }
  uint32_t Cardinality() const { return cardinality_; }
  bool Empty() const { return cardinality_ == 0; }

  /// Returns true if the value was newly added.
  bool Add(uint16_t x);
  /// Adds the inclusive range [lo, hi].
  void AddRange(uint16_t lo, uint16_t hi);
  /// Returns true if the value was present.
  bool Remove(uint16_t x);
  bool Contains(uint16_t x) const;

  /// Number of values strictly less than x.
  uint32_t Rank(uint16_t x) const;

  /// Appends all values (ascending) into out, offset by `base`.
  void AppendValues(uint32_t base, std::vector<uint32_t>* out) const;

  /// Calls fn(uint16_t) for each value in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    switch (type_) {
      case Type::kArray:
        for (uint16_t v : array_) fn(v);
        break;
      case Type::kBitmap:
        for (uint32_t w = 0; w < kBitmapWords; ++w) {
          uint64_t word = bitmap_[w];
          while (word != 0) {
            const int bit = __builtin_ctzll(word);
            fn(static_cast<uint16_t>((w << 6) + bit));
            word &= word - 1;
          }
        }
        break;
      case Type::kRun:
        for (const Run& r : runs_) {
          const uint32_t end = static_cast<uint32_t>(r.start) + r.length;
          for (uint32_t v = r.start; v <= end; ++v)
            fn(static_cast<uint16_t>(v));
        }
        break;
      case Type::kInverted: {
        // array_ holds the sorted *absent* values; emit the gaps between
        // them. Each gap is a dense run, so the inner loops stay tight.
        uint32_t v = 0;
        for (uint16_t absent : array_) {
          for (; v < absent; ++v) fn(static_cast<uint16_t>(v));
          ++v;  // skip the absent value
        }
        for (; v < kChunkCardinality; ++v) fn(static_cast<uint16_t>(v));
        break;
      }
      case Type::kAll:
        for (uint32_t v = 0; v < kChunkCardinality; ++v)
          fn(static_cast<uint16_t>(v));
        break;
    }
  }

  /// Calls fn(uint16_t) for each value in the inclusive window [lo, hi],
  /// ascending. Unlike filtering ForEach, every representation skips
  /// straight to the window: arrays binary-search the start, bitmaps mask
  /// the boundary words, runs clamp, and the all/inverted encodings emit
  /// dense loops. This is the boundary-chunk path of
  /// RoaringBitmap::ForEachInRange (the chunk scan's range extraction).
  template <typename Fn>
  void ForEachInWindow(uint16_t lo, uint16_t hi, Fn&& fn) const {
    if (lo > hi) return;
    switch (type_) {
      case Type::kArray: {
        auto it = std::lower_bound(array_.begin(), array_.end(), lo);
        for (; it != array_.end() && *it <= hi; ++it) fn(*it);
        break;
      }
      case Type::kBitmap: {
        const uint32_t w_lo = lo >> 6, w_hi = hi >> 6;
        for (uint32_t w = w_lo; w <= w_hi; ++w) {
          uint64_t word = bitmap_[w];
          if (w == w_lo) word &= ~0ULL << (lo & 63);
          if (w == w_hi && (hi & 63) != 63) word &= (1ULL << ((hi & 63) + 1)) - 1;
          while (word != 0) {
            const int bit = __builtin_ctzll(word);
            fn(static_cast<uint16_t>((w << 6) + bit));
            word &= word - 1;
          }
        }
        break;
      }
      case Type::kRun:
        for (const Run& r : runs_) {
          const uint32_t start = r.start;
          const uint32_t end = start + r.length;
          if (end < lo) continue;
          if (start > hi) break;
          const uint32_t from = start < lo ? lo : start;
          const uint32_t to = end > hi ? hi : end;
          for (uint32_t v = from; v <= to; ++v) fn(static_cast<uint16_t>(v));
        }
        break;
      case Type::kInverted: {
        auto it = std::lower_bound(array_.begin(), array_.end(), lo);
        uint32_t v = lo;
        for (; it != array_.end() && *it <= hi; ++it) {
          for (; v < *it; ++v) fn(static_cast<uint16_t>(v));
          v = static_cast<uint32_t>(*it) + 1;
        }
        for (; v <= hi; ++v) fn(static_cast<uint16_t>(v));
        break;
      }
      case Type::kAll:
        for (uint32_t v = lo; v <= hi; ++v) fn(static_cast<uint16_t>(v));
        break;
    }
  }

  static Container And(const Container& a, const Container& b);
  static Container Or(const Container& a, const Container& b);
  static Container AndNot(const Container& a, const Container& b);
  static Container Xor(const Container& a, const Container& b);
  static uint32_t AndCardinality(const Container& a, const Container& b);

  /// Converts to the run representation when it is strictly smaller than
  /// the current one; returns true if a conversion happened.
  bool RunOptimize();

  /// Heap bytes used by the active representation.
  size_t SizeInBytes() const;

  /// Structural equality on the represented set (representation-agnostic).
  bool SameSetAs(const Container& other) const;

  /// Converts to the smallest canonical representation for the current
  /// cardinality: all (== 65536), inverted (>= 61440), bitmap (> 4096),
  /// array otherwise. Run containers are canonicalized away (RunOptimize
  /// re-derives them when asked). Used after deserializing or bulk edits.
  void Normalize();

 private:
  void ConvertArrayToBitmap();
  void ConvertBitmapToArrayIfSmall();
  Container ToBitmapCopy() const;
  std::vector<uint16_t> ToArrayValues() const;
  /// Sorted list of the values NOT in this container.
  std::vector<uint16_t> AbsentValues() const;
  /// Full 1024-word bitmap of the current contents.
  std::vector<uint64_t> ToWords() const;

  static Container AndArrayArray(const std::vector<uint16_t>& a,
                                 const std::vector<uint16_t>& b);
  static Container AndArrayBitmap(const std::vector<uint16_t>& a,
                                  const Container& b);
  static Container AndBitmapBitmap(const Container& a, const Container& b);
  static Container OrArrayArray(const std::vector<uint16_t>& a,
                                const std::vector<uint16_t>& b);
  static Container OrBitmapAny(const Container& bitmap, const Container& any);

  Type type_;
  uint32_t cardinality_;
  /// Set values (kArray) or absent values (kInverted), both sorted.
  std::vector<uint16_t> array_;
  std::vector<uint64_t> bitmap_;
  std::vector<Run> runs_;
};

/// Human-readable name of a container type ("array", "bitmap", "run",
/// "inverted", "all"); check_docs.sh extracts these spellings and requires
/// each to be documented in docs/architecture.md.
const char* ContainerTypeName(Container::Type type);

}  // namespace zv::roaring

#endif  // ZV_ROARING_CONTAINER_H_
