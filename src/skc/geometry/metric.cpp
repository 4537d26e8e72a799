#include "skc/geometry/metric.h"

#include "skc/parallel/parallel_for.h"

#include <map>
#include <mutex>

namespace skc {

NearestCenter nearest_center(std::span<const Coord> p, const PointSet& centers,
                             LrOrder r) {
  SKC_CHECK(!centers.empty());
  CenterIndex best = 0;
  std::int64_t best_sq = dist_sq(p, centers[0]);
  for (PointIndex j = 1; j < centers.size(); ++j) {
    const std::int64_t d2 = dist_sq(p, centers[j]);
    if (d2 < best_sq) {
      best_sq = d2;
      best = static_cast<CenterIndex>(j);
    }
  }
  const double d2 = static_cast<double>(best_sq);
  double cost;
  if (r.r == 2.0) {
    cost = d2;
  } else if (r.r == 1.0) {
    cost = std::sqrt(d2);
  } else {
    cost = std::pow(d2, 0.5 * r.r);
  }
  return {best, cost};
}

double unconstrained_cost(const PointSet& points, const PointSet& centers,
                          LrOrder r) {
  const PointIndex n = points.size();
  if (n == 0) return 0.0;
  SKC_CHECK(!centers.empty());
  // Block-local partial sums keyed by block start and added in block order,
  // not the order blocks finish, so every run returns the same bits.
  std::map<std::int64_t, double> partial;
  std::mutex mu;
  parallel_for_blocked(0, n, [&](std::int64_t lo, std::int64_t hi) {
    double s = 0.0;
    for (std::int64_t i = lo; i < hi; ++i) {
      s += nearest_center(points[i], centers, r).cost;
    }
    std::scoped_lock lock(mu);
    partial.emplace(lo, s);
  });
  double total = 0.0;
  for (const auto& [lo, s] : partial) total += s;
  return total;
}

double diameter(const PointSet& points) {
  double best = 0.0;
  for (PointIndex i = 0; i < points.size(); ++i) {
    for (PointIndex j = i + 1; j < points.size(); ++j) {
      best = std::max(best, dist(points[i], points[j]));
    }
  }
  return best;
}

}  // namespace skc
