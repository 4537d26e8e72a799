// Optimal capacitated assignment of weighted points to fixed centers.
//
// Computes cost_t^{(r)}(Q, Z, w): the minimum-cost partition of Q into k
// clusters with per-cluster weight at most t (Section 2 of the paper).
// With integral weights (which this library guarantees for its coresets)
// the transportation LP has an integral optimum, realized exactly by the
// min-cost flow reduction of §3.3.
//
// The flow is solved by successive shortest paths on the k-node center
// graph rather than on the (n + k + 2)-node point graph, since k << n.
// Points are routed one at a time in index order.  Moving a point p that
// carries flow on center a over to center b is a center-graph edge a -> b
// of cost dist(p,b)^r - dist(p,a)^r; one lazy-deletion min-heap per ordered
// center pair yields the cheapest such move.  Each augmentation is a dense
// Dijkstra over the k centers with Johnson potentials, ending at the
// closest center with room, so it costs O(k^2 + k log n) plus the heap
// pushes of the points it moves.  The result is an exact optimum: its cost
// equals the general min-cost max-flow reduction's (differentially tested),
// though among equal-cost optima the labels may differ.
#pragma once

#include <cstdint>
#include <vector>

#include "skc/common/types.h"
#include "skc/geometry/point_set.h"
#include "skc/geometry/weighted_set.h"

namespace skc {

struct CapacitatedAssignment {
  bool feasible = false;
  /// Per-point assigned center (kUnassigned iff infeasible).
  std::vector<CenterIndex> assignment;
  /// Total cost sum_p w(p) dist(p, pi(p))^r; kInfCost iff infeasible.
  double cost = kInfCost;
  /// Per-center assigned weight.
  std::vector<double> loads;

  double max_load() const;
};

/// Exact optimal assignment under capacity `t` per center.  Weights must be
/// integral and `t` not NaN (SKC_CHECK enforced); `t` is clamped to
/// [0, total weight], where a larger capacity never binds, and floored to an
/// integer capacity.
CapacitatedAssignment optimal_capacitated_assignment(const WeightedPointSet& points,
                                                     const PointSet& centers,
                                                     double t, LrOrder r);

/// Exact minimum-cost assignment whose per-center loads equal exactly the
/// prescribed `sizes` (step 1b of the §3.3 canonicalization procedure).
/// sum(sizes) must equal the total weight.
CapacitatedAssignment exact_size_assignment(const WeightedPointSet& points,
                                            const PointSet& centers,
                                            const std::vector<std::int64_t>& sizes,
                                            LrOrder r);

}  // namespace skc
