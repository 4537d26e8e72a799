// Capacitated (balanced) k-means — the (alpha, beta)-approximation black box
// the paper's theorems compose with (Fact 2.3).
//
// Balanced Lloyd: alternate an *optimal capacitated assignment* (an exact
// min-cost flow on the k-center graph, see capacitated_assignment.h) with
// the centroid update, keeping the best iterate.  With capacity t = ceil(n/k) this is the
// classic balanced k-means heuristic; with t = infinity it degenerates to
// Lloyd.  Centers live on the integer grid as the paper requires.
#pragma once

#include "skc/common/random.h"
#include "skc/common/types.h"
#include "skc/geometry/point_set.h"
#include "skc/geometry/weighted_set.h"
#include "skc/solve/cost.h"

namespace skc {

struct CapacitatedSolverOptions {
  int max_iters = 25;
  double rel_tol = 1e-4;
  Coord delta = 0;       ///< clamp centers into [1, delta]; 0 = no clamp
  int restarts = 1;      ///< independent k-means++ restarts; best kept
};

struct CapacitatedSolution {
  bool feasible = false;
  PointSet centers;
  std::vector<CenterIndex> assignment;
  double cost = kInfCost;              ///< capacitated cost of `assignment`
  std::vector<double> loads;
  int iterations = 0;
};

/// Solves capacitated k-means/k-clustering in l_r over a weighted set with
/// per-center capacity t.  Requires integral weights.
CapacitatedSolution capacitated_kmeans(const WeightedPointSet& points, int k,
                                       double t, LrOrder r,
                                       const CapacitatedSolverOptions& options,
                                       Rng& rng);

}  // namespace skc
