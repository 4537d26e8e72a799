// Offline coreset construction — Algorithm 2 + Theorem 3.19.
//
// For one guess o:
//   1. partition Q into parts Q_{i,j} via heavy cells (Algorithm 1);
//   2. FAIL if there are too many heavy cells or a level carries too much
//      part mass (lines 5-6);
//   3. drop parts smaller than gamma * T_i(o) (line 9, justified by
//      Lemma 3.4);
//   4. sample each surviving part's points lambda-wise independently with
//      the per-level probability phi_i, weight = 1/phi_i (lines 10-11).
//
// build_offline_coreset enumerates o geometrically from 1 to n (sqrt(d)
// Delta)^r and returns the first (smallest) non-FAILing attempt, exactly the
// selection rule of Theorem 3.19's proof.
//
// The same construction takes integral-weighted input (a point of weight w
// is a stack of w copies): heaviness and part mass count weight, and a point
// is kept with probability min(1, w phi_i) at weight w / P(keep).  Unit
// weights are the paper's input.  The merge-reduce composer (compose.h)
// re-coresets weighted summaries through it.
#pragma once

#include "skc/coreset/coreset.h"
#include "skc/coreset/params.h"
#include "skc/geometry/point_set.h"
#include "skc/geometry/weighted_set.h"
#include "skc/grid/hierarchical_grid.h"

namespace skc {

/// Runs Algorithm 2 for a fixed guess o.  Exact counts (offline).
BuildAttempt build_offline_coreset_at(const PointSet& points,
                                      const HierarchicalGrid& grid,
                                      const CoresetParams& params, double o);

/// Algorithm 2 for a fixed guess o over integral weights (aborts otherwise).
BuildAttempt build_weighted_coreset_at(const WeightedPointSet& points,
                                       const HierarchicalGrid& grid,
                                       const CoresetParams& params, double o);

struct OfflineBuildResult {
  bool ok = false;
  Coreset coreset;
  BuildDiagnostics diagnostics;
};

/// Theorem 3.19: draws the grid shift from params.seed, enumerates o, and
/// returns the coreset of the smallest non-FAILing guess.
OfflineBuildResult build_offline_coreset(const PointSet& points,
                                         const CoresetParams& params,
                                         int log_delta = 0 /* 0 = derive */);

/// The same over integral weights; n in the guess range is the total weight.
OfflineBuildResult build_weighted_coreset(const WeightedPointSet& points,
                                          const CoresetParams& params,
                                          int log_delta);

/// The upper end of the o-guess range: n * (sqrt(d) * Delta)^r.
double max_opt_guess(PointIndex n, int dim, int log_delta, LrOrder r);

}  // namespace skc
