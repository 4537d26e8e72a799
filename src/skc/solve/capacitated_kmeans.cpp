#include "skc/solve/capacitated_kmeans.h"

#include <algorithm>
#include <cmath>

#include "skc/common/check.h"
#include "skc/geometry/metric.h"
#include "skc/parallel/parallel_for.h"
#include "skc/solve/kmeanspp.h"

namespace skc {

namespace {

PointSet centroid_update(const WeightedPointSet& points, const PointSet& old_centers,
                         const std::vector<CenterIndex>& assignment, LrOrder r,
                         Coord delta) {
  const int dim = points.dim();
  const int k = static_cast<int>(old_centers.size());
  PointSet centers(dim);
  std::vector<double> acc(
      static_cast<std::size_t>(k) * static_cast<std::size_t>(dim), 0.0);
  std::vector<double> mass(static_cast<std::size_t>(k), 0.0);
  for (PointIndex i = 0; i < points.size(); ++i) {
    const CenterIndex c = assignment[static_cast<std::size_t>(i)];
    if (c == kUnassigned) continue;
    const double w = points.weight(i);
    mass[static_cast<std::size_t>(c)] += w;
    const auto p = points.point(i);
    for (int j = 0; j < dim; ++j) {
      acc[static_cast<std::size_t>(c) * static_cast<std::size_t>(dim) +
          static_cast<std::size_t>(j)] +=
          w * static_cast<double>(p[static_cast<std::size_t>(j)]);
    }
  }
  std::vector<Coord> buf(static_cast<std::size_t>(dim));
  for (int c = 0; c < k; ++c) {
    if (mass[static_cast<std::size_t>(c)] <= 0.0) {
      centers.push_back(old_centers[c]);
      continue;
    }
    for (int j = 0; j < dim; ++j) {
      const double v =
          acc[static_cast<std::size_t>(c) * static_cast<std::size_t>(dim) +
              static_cast<std::size_t>(j)] /
          mass[static_cast<std::size_t>(c)];
      Coord coord = static_cast<Coord>(std::llround(v));
      if (delta > 0) coord = std::clamp<Coord>(coord, 1, delta);
      buf[static_cast<std::size_t>(j)] = coord;
    }
    centers.push_back(buf);
  }
  // The centroid is the l_2^2 minimizer; for other r it is still the
  // standard practical update (the assignment step remains exact either
  // way, and only the final capacitated cost is reported).
  (void)r;
  return centers;
}

CapacitatedSolution solve_once(const WeightedPointSet& points, int k, double t,
                               LrOrder r, const CapacitatedSolverOptions& options,
                               Rng& rng) {
  CapacitatedSolution best;
  PointSet centers = kmeanspp_seed(points, k, r, rng);
  for (int iter = 0; iter < options.max_iters; ++iter) {
    CapacitatedAssignment a = optimal_capacitated_assignment(points, centers, t, r);
    if (!a.feasible) break;
    if (a.cost < best.cost) {
      best.feasible = true;
      best.centers = centers;
      best.assignment = a.assignment;
      best.cost = a.cost;
      best.loads = a.loads;
    }
    best.iterations = iter + 1;
    PointSet next = centroid_update(points, centers, a.assignment, r, options.delta);
    if (next == centers) break;  // fixed point
    const double improvement =
        best.cost > 0 ? (best.cost - a.cost) / best.cost : 0.0;
    centers = std::move(next);
    if (iter > 0 && improvement < options.rel_tol && a.cost >= best.cost) break;
  }
  return best;
}

}  // namespace

CapacitatedSolution capacitated_kmeans(const WeightedPointSet& points, int k,
                                       double t, LrOrder r,
                                       const CapacitatedSolverOptions& options,
                                       Rng& rng) {
  SKC_CHECK(k >= 1);
  SKC_CHECK(points.size() >= k);
  CapacitatedSolution best;
  const int restarts = std::max(1, options.restarts);
  // Restarts are independent: run them in parallel, each on a forked RNG
  // stream (deterministic for a fixed input rng state).
  std::vector<CapacitatedSolution> attempts(static_cast<std::size_t>(restarts));
  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(restarts));
  for (int a = 0; a < restarts; ++a) {
    rngs.push_back(rng.fork(static_cast<std::uint64_t>(a)));
  }
  parallel_for(0, restarts, [&](std::int64_t a) {
    attempts[static_cast<std::size_t>(a)] =
        solve_once(points, k, t, r, options, rngs[static_cast<std::size_t>(a)]);
  }, ThreadPool::global(), /*grain=*/1);
  for (CapacitatedSolution& sol : attempts) {
    if (sol.feasible && sol.cost < best.cost) best = std::move(sol);
  }
  return best;
}

}  // namespace skc
