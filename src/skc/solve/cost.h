// Capacitated clustering cost evaluation — cost_t^{(r)}(Q, Z[, w]) of §2.
//
// The exact evaluator is the min-cost flow of capacitated_assignment.h
// (integral weights); evaluate_assignment reports the cost and per-center
// loads of a fixed assignment so benchmarks can measure capacity violations
// (E10).
#pragma once

#include "skc/assign/capacitated_assignment.h"
#include "skc/common/types.h"
#include "skc/geometry/point_set.h"
#include "skc/geometry/weighted_set.h"

namespace skc {

/// Exact cost_t^{(r)}(Q, Z, w).  Returns kInfCost when infeasible
/// (t * k < total weight).
double capacitated_cost(const WeightedPointSet& points, const PointSet& centers,
                        double t, LrOrder r);

/// Unweighted flavor: cost_t^{(r)}(Q, Z).
double capacitated_cost(const PointSet& points, const PointSet& centers, double t,
                        LrOrder r);

/// Uncapacitated cost (t = infinity): every point to its nearest center.
double uncapacitated_cost(const WeightedPointSet& points, const PointSet& centers,
                          LrOrder r);

/// The tightest integral capacity: ceil(total_weight / k) — the smallest t
/// for which cost_t is defined (capacities below it are infeasible).
double tight_capacity(double total_weight, int k);

/// Evaluates the cost and loads of a fixed assignment.
struct AssignmentEval {
  double cost = 0.0;
  std::vector<double> loads;
  double max_load = 0.0;
};
AssignmentEval evaluate_assignment(const WeightedPointSet& points,
                                   const PointSet& centers, LrOrder r,
                                   const std::vector<CenterIndex>& assignment);

}  // namespace skc
