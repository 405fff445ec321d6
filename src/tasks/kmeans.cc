#include "tasks/kmeans.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "common/rng.h"

namespace zv {

namespace {

double Sq(double x) { return x * x; }

double SqDist(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0;
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) s += Sq(a[i] - b[i]);
  for (size_t i = n; i < a.size(); ++i) s += Sq(a[i]);
  for (size_t i = n; i < b.size(); ++i) s += Sq(b[i]);
  return s;
}

}  // namespace

KMeansResult KMeans(const std::vector<std::vector<double>>& points, size_t k,
                    uint64_t seed, int max_iters) {
  KMeansResult result;
  const size_t n = points.size();
  if (n == 0 || k == 0) return result;
  k = std::min(k, n);
  Rng rng(seed);

  // k-means++ seeding.
  std::vector<size_t> centers;
  centers.push_back(rng.Uniform(n));
  std::vector<double> d2(n, std::numeric_limits<double>::infinity());
  while (centers.size() < k) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      d2[i] = std::min(d2[i], SqDist(points[i], points[centers.back()]));
      total += d2[i];
    }
    if (total <= 0) {
      // All remaining points coincide with chosen centers; pick arbitrary.
      centers.push_back(centers.size() % n);
      continue;
    }
    double target = rng.UniformDouble() * total;
    size_t chosen = n - 1;
    for (size_t i = 0; i < n; ++i) {
      target -= d2[i];
      if (target <= 0) {
        chosen = i;
        break;
      }
    }
    centers.push_back(chosen);
  }

  const size_t dim = points[0].size();
  result.centroids.resize(k);
  for (size_t c = 0; c < k; ++c) result.centroids[c] = points[centers[c]];
  result.assignment.assign(n, 0);

  for (int iter = 0; iter < max_iters; ++iter) {
    // Assign. Each point's nearest centroid is independent; assignment[i]
    // is a preallocated slot, so the parallel result is identical to the
    // serial one at any thread count.
    std::atomic<bool> changed{false};
    ParallelFor(n, [&](size_t i) {
      double best = std::numeric_limits<double>::infinity();
      int best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        const double d = SqDist(points[i], result.centroids[c]);
        if (d < best) {
          best = d;
          best_c = static_cast<int>(c);
        }
      }
      if (result.assignment[i] != best_c) {
        result.assignment[i] = best_c;
        changed.store(true, std::memory_order_relaxed);
      }
    });
    if (!changed.load(std::memory_order_relaxed) && iter > 0) break;
    // Update.
    std::vector<std::vector<double>> sums(k, std::vector<double>(dim, 0.0));
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>(result.assignment[i]);
      ++counts[c];
      for (size_t d = 0; d < dim && d < points[i].size(); ++d) {
        sums[c][d] += points[i][d];
      }
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // keep the old centroid
      for (size_t d = 0; d < dim; ++d) {
        result.centroids[c][d] = sums[c][d] / static_cast<double>(counts[c]);
      }
    }
  }

  // Medoids.
  result.medoids.assign(k, 0);
  std::vector<double> best_d(k, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < n; ++i) {
    const size_t c = static_cast<size_t>(result.assignment[i]);
    const double d = SqDist(points[i], result.centroids[c]);
    if (d < best_d[c]) {
      best_d[c] = d;
      result.medoids[c] = i;
    }
  }
  return result;
}

}  // namespace zv
