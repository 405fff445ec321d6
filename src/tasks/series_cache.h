/// \file series_cache.h
/// \brief Cached series alignment for batch scoring: a ScoringContext
/// aligns + normalizes every Visualization of a candidate set exactly once
/// per (normalization, alignment) configuration, into one contiguous
/// row-major buffer the distance span kernels score straight out of.
///
/// The legacy D(f, g) primitive re-aligned and re-normalized both series on
/// every call — O(N · |X| log |X|) redundant work on the ZQL hot loop, where
/// the query visualization is re-flattened once per candidate. The context
/// replaces that with one global alignment pass and O(1) lookups.
///
/// Exactness contract: PairDistance(i, j, metric) returns the *same value*
/// as Distance(*set[i], *set[j], metric, norm, align). When both rows cover
/// the full global x-domain (the common case — candidates produced by one
/// ZQL row share their x values), the pairwise union domain *is* the global
/// domain and the precomputed normalized rows are used directly. Otherwise a
/// slow path gathers the pairwise restriction and reproduces the legacy
/// computation bit-for-bit.

#ifndef ZV_TASKS_SERIES_CACHE_H_
#define ZV_TASKS_SERIES_CACHE_H_

#include <cstdint>
#include <vector>

#include "tasks/distance.h"
#include "viz/visualization.h"

namespace zv {

/// \brief A dense row-major matrix of aligned series — one row per
/// visualization, rows contiguous in one allocation.
struct AlignedMatrix {
  std::vector<double> data;
  size_t rows = 0;
  size_t cols = 0;

  void Resize(size_t r, size_t c) {
    rows = r;
    cols = c;
    data.assign(r * c, 0.0);
  }
  const double* Row(size_t i) const { return data.data() + i * cols; }
  double* MutableRow(size_t i) { return data.data() + i * cols; }
};

/// \brief Immutable batch-scoring state over one candidate set.
///
/// Construction performs the only O(set · |X|) work; afterwards every method
/// is const and thread-safe, so ParallelFor workers score concurrently.
class ScoringContext {
 public:
  ScoringContext(const std::vector<const Visualization*>& set,
                 Normalization norm, Alignment align);

  size_t size() const { return raw_.rows; }

  /// Distance between candidates i and j — equal to
  /// Distance(*set[i], *set[j], metric, norm, align).
  double PairDistance(size_t i, size_t j, DistanceMetric metric) const;

  /// PairDistance with early termination for the top-k pruned scan: once
  /// the partial distance provably exceeds `bound` (see the bounded span
  /// kernels in distance.h), scoring stops and +inf is returned — the
  /// candidate cannot enter a top-k whose k-th best is `bound`. Calls that
  /// run to completion return exactly PairDistance(i, j, metric), so
  /// mixing bounded and unbounded calls never perturbs a selection.
  double PairDistanceBounded(size_t i, size_t j, DistanceMetric metric,
                             double bound) const;

  /// The set aligned over the global x-domain and normalized per row —
  /// exactly AlignToMatrix/AlignToMatrixInterpolated(set) + NormalizeSeries
  /// per row, but contiguous.
  const AlignedMatrix& normalized() const { return normalized_; }

  /// True when row i covers the whole global domain (fast-path eligible
  /// against any other full row). Exposed for tests and benches.
  bool full(size_t i) const { return full_[i] != 0; }

 private:
  /// Gathers row `r` restricted to the pairwise domain described by
  /// `positions` (sorted global x positions) and `pair_series` segments,
  /// re-interpolating and normalizing exactly like the legacy pairwise path.
  void BuildPairRow(size_t r, const std::vector<uint32_t>& positions,
                    size_t pair_series, std::vector<double>* out) const;

  Normalization norm_;
  Alignment align_;
  size_t width_ = 0;       ///< global x-domain size
  size_t max_series_ = 0;  ///< widest series count in the set

  AlignedMatrix raw_;         ///< zero-filled values, no interpolation
  AlignedMatrix normalized_;  ///< global-domain aligned + normalized rows
  std::vector<uint8_t> cell_present_;  ///< raw_.rows x raw_.cols presence
  std::vector<uint8_t> x_present_;     ///< rows x width_: x value present
  std::vector<uint8_t> full_;          ///< row covers every cell
  std::vector<uint32_t> series_count_;  ///< per row, >= 1
};

}  // namespace zv

#endif  // ZV_TASKS_SERIES_CACHE_H_
