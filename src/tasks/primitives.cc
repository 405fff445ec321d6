#include "tasks/primitives.h"

#include <algorithm>
#include <numeric>

#include "common/stats.h"
#include "tasks/topk.h"

namespace zv {

double Trend(const Visualization& f) {
  std::vector<double> ys = f.ys();
  if (ys.size() < 2) return 0;
  NormalizeSeries(&ys, Normalization::kZScore);
  // Fit against normalized x positions so slopes are comparable across
  // visualizations with different domains.
  std::vector<double> xs(ys.size());
  const double denom = static_cast<double>(ys.size() - 1);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(i) / denom;
  }
  return FitLine(xs, ys).slope;
}

std::vector<size_t> Representatives(
    const std::vector<const Visualization*>& set, size_t k,
    const TaskOptions& opts) {
  if (set.empty() || k == 0) return {};
  auto matrix = opts.alignment == Alignment::kInterpolate
                    ? AlignToMatrixInterpolated(set)
                    : AlignToMatrix(set);
  for (auto& row : matrix) NormalizeSeries(&row, opts.normalization);
  KMeansResult km = KMeans(matrix, k, opts.kmeans_seed);
  // Deduplicate medoids (k > #distinct clusters can repeat) preserving order.
  std::vector<size_t> out;
  for (size_t m : km.medoids) {
    if (std::find(out.begin(), out.end(), m) == out.end()) out.push_back(m);
  }
  return out;
}

TaskLibrary TaskLibrary::Default(const TaskOptions& opts) {
  TaskLibrary lib;
  lib.trend = Trend;
  lib.default_options = opts;
  lib.distance_is_default = true;
  lib.trend_is_default = true;
  lib.distance = [opts](const Visualization& a, const Visualization& b) {
    return Distance(a, b, opts.metric, opts.normalization, opts.alignment);
  };
  lib.representatives = [opts](const std::vector<const Visualization*>& set,
                               size_t k) {
    return Representatives(set, k, opts);
  };
  return lib;
}

std::vector<size_t> ApplyMechanism(Mechanism mech,
                                   const std::vector<double>& scores,
                                   const MechanismFilter& filter) {
  // k-limited argmin/argmax without a threshold is a pure top-k problem:
  // a bounded heap selects the same indices in the same order as the
  // stable argsort below (ties break by lower index either way), in
  // O(n log k) instead of O(n log n). k <= 0 stays on the legacy path,
  // whose cut-after-push loop returns one element for k = 0 — ZQL rejects
  // such filters at parse time, but direct callers get the historical
  // behavior.
  if (filter.k.has_value() && *filter.k > 0 && !filter.t_above.has_value() &&
      !filter.t_below.has_value() &&
      (mech == Mechanism::kArgMin || mech == Mechanism::kArgMax)) {
    const size_t k =
        std::min(scores.size(), static_cast<size_t>(*filter.k));
    return TopKIndices(scores, k,
                       mech == Mechanism::kArgMin ? TopKOrder::kAscending
                                                  : TopKOrder::kDescending);
  }

  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);

  if (mech == Mechanism::kArgMin) {
    std::stable_sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
      return scores[a] < scores[b];
    });
  } else if (mech == Mechanism::kArgMax) {
    std::stable_sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
      return scores[a] > scores[b];
    });
  } else {
    // argany: keep input order, but a threshold still sorts the survivors
    // by score per §3.8 ("sorts the values in increasing order of the
    // objective function") — we retain input order for pure argany[k=n].
    if (filter.t_above.has_value()) {
      std::stable_sort(order.begin(), order.end(),
                       [&scores](size_t a, size_t b) {
                         return scores[a] > scores[b];
                       });
    } else if (filter.t_below.has_value()) {
      std::stable_sort(order.begin(), order.end(),
                       [&scores](size_t a, size_t b) {
                         return scores[a] < scores[b];
                       });
    }
  }

  std::vector<size_t> out;
  for (size_t idx : order) {
    if (filter.t_above.has_value() && !(scores[idx] > *filter.t_above))
      continue;
    if (filter.t_below.has_value() && !(scores[idx] < *filter.t_below))
      continue;
    out.push_back(idx);
    if (filter.k.has_value() &&
        out.size() >= static_cast<size_t>(*filter.k)) {
      break;
    }
  }
  return out;
}

}  // namespace zv
