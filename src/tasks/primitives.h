/// \file primitives.h
/// \brief The three ZQL functional primitives (§3.8) — T (trend),
/// D (distance), R (representatives) — and the sorting/filtering mechanisms
/// argmin / argmax / argany.

#ifndef ZV_TASKS_PRIMITIVES_H_
#define ZV_TASKS_PRIMITIVES_H_

#include <functional>
#include <optional>
#include <vector>

#include "tasks/distance.h"
#include "tasks/kmeans.h"
#include "viz/visualization.h"

namespace zv {

/// \brief Configuration for the default T / D / R implementations.
///
/// Users may swap in their own functions (§3.8: "the user is free to specify
/// their own variants... more suited to their application") via the
/// std::function hooks in TaskLibrary.
struct TaskOptions {
  DistanceMetric metric = DistanceMetric::kEuclidean;
  Normalization normalization = Normalization::kZScore;
  Alignment alignment = Alignment::kZeroFill;
  uint64_t kmeans_seed = 42;
};

/// T(f): overall trend of a visualization — positive = growth, negative =
/// decline. Default: slope of a least-squares line on the z-normalized
/// series (the paper's example implementation).
double Trend(const Visualization& f);

/// R(k, set): indices of the k most representative visualizations, computed
/// as k-means medoids on the aligned series matrix (the paper's example
/// implementation). Indices are into `set`.
std::vector<size_t> Representatives(
    const std::vector<const Visualization*>& set, size_t k,
    const TaskOptions& opts = {});

/// \brief User-replaceable functional primitives, passed through the ZQL
/// executor to the Process column. Visual exploration completeness
/// (Theorem 1) is relative to a fixed choice of these.
struct TaskLibrary {
  std::function<double(const Visualization&)> trend = Trend;
  std::function<double(const Visualization&, const Visualization&)> distance;
  std::function<std::vector<size_t>(const std::vector<const Visualization*>&,
                                    size_t)>
      representatives;

  /// The options `Default()` built `distance` with. When
  /// `distance_is_default` is true, the ZQL executor may score D() calls
  /// through a shared ScoringContext constructed with these options instead
  /// of calling `distance` once per pair — identical results, one alignment
  /// pass. Installing a custom `distance` must clear the flag.
  ///
  /// The `*_is_default` flags also gate *parallel* scoring: the executor
  /// fans a Process declaration's combinations over the thread pool only
  /// when every call in its expression is a default (stateless, thread-
  /// safe) primitive. Custom trend/distance functions and user process
  /// functions are never required to be thread-safe — expressions using
  /// them are scored serially, exactly as before.
  TaskOptions default_options;
  bool distance_is_default = false;
  bool trend_is_default = false;

  /// Builds a library using the default primitives with `opts`.
  static TaskLibrary Default(const TaskOptions& opts = {});
};

/// --- Mechanisms (argmin / argmax / argany) ------------------------------

enum class Mechanism { kArgMin, kArgMax, kArgAny };

/// Filter clause: top-k ([k = 10]), threshold ([t > 0] / [t < 0]), or
/// neither (sort only).
struct MechanismFilter {
  std::optional<int64_t> k;            ///< k = n (k may be "inf" => nullopt k with sort_all)
  std::optional<double> t_above;       ///< t > value
  std::optional<double> t_below;       ///< t < value
};

/// Applies a mechanism to scored candidates: returns the indices of the
/// selected candidates, ordered as ZQL specifies (§3.8):
///  - argmin: increasing score; argmax: decreasing score;
///  - argany: input order (any k);
///  - with [k=n]: first n after ordering; with [t>v]/[t<v]: all passing,
///    ordered by score (increasing for t<, decreasing for t>; argany keeps
///    input order).
///
/// argmin/argmax with a [k=n] filter and no threshold select through a
/// bounded top-k heap (tasks/topk.h) — O(n log k), byte-identical indices
/// and order to the stable full argsort.
std::vector<size_t> ApplyMechanism(Mechanism mech,
                                   const std::vector<double>& scores,
                                   const MechanismFilter& filter);

}  // namespace zv

#endif  // ZV_TASKS_PRIMITIVES_H_
