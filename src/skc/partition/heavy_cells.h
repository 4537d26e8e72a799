// Heavy-cell partitioning — Algorithm 1 of the paper (§3.1).
//
// Given a guess `o` of the optimal unconstrained l_r k-clustering cost, each
// grid level i gets a threshold
//     T_i(o) = threshold_const * o / (sqrt(d) * g_i)^r            (paper: 0.01)
// A cell C in G_i (i <= L-1) is *heavy* when its (estimated) point count is
// at least T_i(o) and all its ancestors are heavy; a non-heavy cell whose
// ancestors are all heavy is *crucial*.  The points of the crucial children
// of the j-th heavy cell of G_{i-1} form the part Q_{i,j}; parts are disjoint
// and (up to points whose ancestry exits the heavy tree, which Algorithm 2
// drops via Lemma 3.4) cover Q.
//
// Two entry points:
//  * `partition_offline` — exact counts, walks the point set top-down and
//    returns explicit per-part point-index lists (used by the offline
//    coreset and as the ground truth in tests);
//  * `mark_cells` — the same marking rule applied to per-level estimated
//    cell counts (used by the streaming and distributed paths, which only
//    see sampled cells).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "skc/common/types.h"
#include "skc/geometry/point_set.h"
#include "skc/grid/hierarchical_grid.h"

namespace skc {

struct PartitionParams {
  int k = 8;
  LrOrder r{2.0};
  /// T_i(o) multiplier (paper: 0.01).
  double threshold_const = 0.01;
  /// FAIL when the total number of heavy cells exceeds
  /// heavy_bound_const * (k + d^{1.5 r}) * (L + 1)   (paper: 20000).
  double heavy_bound_const = 20000.0;
};

/// d^{1.5 r} — the dimension term of the paper's failure bounds.
double dim_term(int dim, LrOrder r);

/// T_i(o) for cells of grid level `level` (level in [-1, L]).
double part_threshold(const HierarchicalGrid& grid, const PartitionParams& params,
                      int level, double o);

/// The FAIL bound on the total number of heavy cells.
double heavy_cells_bound(const PartitionParams& params, int dim, int log_delta);

/// One part Q_{i,j}: the crucial-cell points at `level` under one heavy
/// parent cell of G_{level-1}.
struct Part {
  int level = 0;
  CellKey parent;                    ///< the heavy cell in G_{level-1}
  std::vector<PointIndex> points;    ///< indices into the input point set
  double weight = 0.0;               ///< total weight (== size() when unweighted)
  std::int64_t size() const { return static_cast<std::int64_t>(points.size()); }
};

struct OfflinePartition {
  bool fail = false;
  std::string fail_reason;
  std::vector<Part> parts;
  /// Heavy-cell count per grid level -1..L-1 (index shifted by +1);
  /// s_i of the paper is heavy_per_level[i] (heavy cells in G_{i-1}).
  std::vector<std::int64_t> heavy_per_level;
  std::int64_t total_heavy = 0;
};

/// Exact Algorithm 1.  O(n * L) time, O(n) extra space: only heavy cells are
/// refined, so each point is touched once per level of its heavy ancestry.
/// With `weights` (parallel to `points`) heaviness and part mass compare
/// total WEIGHT, as for a weighted summary; empty means unit weights.
OfflinePartition partition_offline(const PointSet& points, const HierarchicalGrid& grid,
                                   const PartitionParams& params, double o,
                                   std::span<const double> weights = {});

// ---------------------------------------------------------------------------
// Estimated-count flavor (streaming / distributed).
// ---------------------------------------------------------------------------

/// Estimated point count tau(C cap Q) for one cell, keyed by cell index.
struct EstimatedCell {
  std::vector<std::int32_t> index;
  double estimate = 0.0;
};

/// Per-level estimated counts: entry i holds cells of grid level i.
using LevelEstimates = std::vector<std::vector<EstimatedCell>>;

struct CellMarking {
  bool fail = false;
  std::string fail_reason;
  /// heavy[i + 1] = set of heavy cell indices at grid level i (i = -1..L-1);
  /// the root's entry holds a single empty index when the root is heavy.
  std::vector<std::unordered_set<CellKey, CellKeyHash>> heavy;
  std::vector<std::int64_t> heavy_per_level;  // same convention as above
  std::int64_t total_heavy = 0;

  bool is_heavy(const CellKey& cell) const {
    const std::size_t slot = static_cast<std::size_t>(cell.level + 1);
    return slot < heavy.size() && heavy[slot].contains(cell);
  }
};

/// Applies the Algorithm 1 marking rule to estimated counts.
/// `estimates[i]` must contain the estimated counts of the non-empty cells of
/// level i for i in [0, L-1]; `total_estimate` stands in for the root count.
CellMarking mark_cells(const HierarchicalGrid& grid, const PartitionParams& params,
                       double o, const LevelEstimates& estimates,
                       double total_estimate);

}  // namespace skc
