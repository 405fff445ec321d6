/// \file kmeans.h
/// \brief Seeded Lloyd's k-means with k-means++ initialization — the engine
/// behind the representative primitive R and the recommendation service.

#ifndef ZV_TASKS_KMEANS_H_
#define ZV_TASKS_KMEANS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace zv {

struct KMeansResult {
  std::vector<std::vector<double>> centroids;  ///< k centroid vectors
  std::vector<int> assignment;                 ///< per-point cluster index
  /// Index of the input point closest to each centroid (the "medoid"),
  /// which is what R returns as the representative visualization.
  std::vector<size_t> medoids;
};

/// Runs k-means on row-vector `points`. k is clamped to the number of
/// points. Deterministic for a fixed seed.
KMeansResult KMeans(const std::vector<std::vector<double>>& points, size_t k,
                    uint64_t seed = 42, int max_iters = 50);

}  // namespace zv

#endif  // ZV_TASKS_KMEANS_H_
