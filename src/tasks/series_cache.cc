#include "tasks/series_cache.h"

#include <algorithm>
#include <limits>
#include <map>

namespace zv {

ScoringContext::ScoringContext(const std::vector<const Visualization*>& set,
                               Normalization norm, Alignment align)
    : norm_(norm), align_(align) {
  const size_t n = set.size();
  // Global x-domain + widest series count, via the shared alignment
  // convention. This is the one layout pass the legacy path repeated per
  // pair.
  const AlignmentLayout layout = ComputeAlignmentLayout(set);
  width_ = layout.width;
  max_series_ = layout.max_series;
  const size_t cols = layout.row_size();

  raw_.Resize(n, cols);
  cell_present_.assign(n * cols, 0);
  x_present_.assign(n * width_, 0);
  series_count_.assign(n, 1);
  full_.assign(n, 0);

  for (size_t r = 0; r < n; ++r) {
    const Visualization* v = set[r];
    series_count_[r] =
        static_cast<uint32_t>(std::max<size_t>(1, v->series.size()));
    uint8_t* cp = cell_present_.data() + r * cols;
    uint8_t* xp = x_present_.data() + r * width_;
    for (const Value& x : v->xs) xp[layout.x_index.at(x)] = 1;
    FillAlignedRow(*v, layout, raw_.MutableRow(r), cp);
    uint8_t all = 1;
    for (size_t c = 0; c < cols; ++c) all &= cp[c];
    full_[r] = all;
  }

  // Precompute the global-domain rows every full-coverage pair (and the
  // k-means / outlier consumers) score against: interpolate gaps when the
  // alignment asks for it, then normalize each row once.
  normalized_ = raw_;
  for (size_t r = 0; r < n; ++r) {
    double* row = normalized_.MutableRow(r);
    if (align_ == Alignment::kInterpolate && !full_[r] && width_ > 0) {
      const uint8_t* cp = cell_present_.data() + r * cols;
      for (size_t si = 0; si < max_series_; ++si) {
        InterpolateMissingSpan(row + si * width_, cp + si * width_, width_);
      }
    }
    NormalizeSpan(row, cols, norm_);
  }
}

void ScoringContext::BuildPairRow(size_t r,
                                  const std::vector<uint32_t>& positions,
                                  size_t pair_series,
                                  std::vector<double>* out) const {
  const size_t pw = positions.size();
  out->assign(pw * pair_series, 0.0);
  const double* row = raw_.Row(r);
  const uint8_t* cp = cell_present_.data() + r * raw_.cols;
  for (size_t si = 0; si < pair_series; ++si) {
    double* seg = out->data() + si * pw;
    for (size_t k = 0; k < pw; ++k) {
      seg[k] = row[si * width_ + positions[k]];
    }
  }
  if (align_ == Alignment::kInterpolate) {
    std::vector<uint8_t> present(pw);
    for (size_t si = 0; si < pair_series; ++si) {
      for (size_t k = 0; k < pw; ++k) {
        present[k] = cp[si * width_ + positions[k]];
      }
      InterpolateMissingSpan(out->data() + si * pw, present.data(), pw);
    }
  }
  NormalizeSpan(out->data(), out->size(), norm_);
}

double ScoringContext::PairDistance(size_t i, size_t j,
                                    DistanceMetric metric) const {
  return PairDistanceBounded(i, j, metric,
                             std::numeric_limits<double>::infinity());
}

double ScoringContext::PairDistanceBounded(size_t i, size_t j,
                                           DistanceMetric metric,
                                           double bound) const {
  if (full_[i] && full_[j]) {
    // Both rows cover the whole global domain, so the pairwise union domain
    // equals the global domain and the cached normalized rows are exactly
    // what the legacy per-pair path would have built.
    return SpanDistanceBounded(normalized_.Row(i), normalized_.Row(j),
                               normalized_.cols, metric, bound);
  }
  // Pairwise restriction: the union of the two x sets, in global (sorted)
  // order, re-interpolated and re-normalized — the legacy computation minus
  // the per-pair map construction.
  std::vector<uint32_t> positions;
  positions.reserve(width_);
  const uint8_t* xi = x_present_.data() + i * width_;
  const uint8_t* xj = x_present_.data() + j * width_;
  for (size_t p = 0; p < width_; ++p) {
    if (xi[p] | xj[p]) positions.push_back(static_cast<uint32_t>(p));
  }
  const size_t pair_series =
      std::max<size_t>(series_count_[i], series_count_[j]);
  std::vector<double> a, b;
  BuildPairRow(i, positions, pair_series, &a);
  BuildPairRow(j, positions, pair_series, &b);
  if (metric == DistanceMetric::kDtw) {
    return DtwSpanBounded(a.data(), a.size(), b.data(), b.size(), bound);
  }
  return SpanDistanceBounded(a.data(), b.data(), a.size(), metric, bound);
}

}  // namespace zv
