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
// One rule, three entry points.  The rule: a cell is heavy when its count
// meets T_i(o) and its parent is heavy, and the guess FAILs once the running
// heavy total (the root included) passes heavy_cells_bound.
//  * `partition_offline` — exact counts, walks the point set top-down and
//    returns explicit per-part point-index lists (used by the offline
//    coreset and as the ground truth in tests);
//  * `walk_heavy_cells` — the same top-down walk over a caller-supplied
//    estimate: it queries only the 2^d children of heavy cells and returns
//    the crucial cells grouped into parts, each with its estimate (the
//    streaming and distributed finalizes, which only see sketched counts);
//  * `mark_cells` — the rule applied to given per-level lists of estimated
//    cell counts (the assignment oracle, which re-estimates cells from a
//    coreset; the walk's tests use it as their reference).
#pragma once

#include <cstdint>
#include <functional>
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

/// A crucial cell found by the walk: a non-heavy child of a heavy cell with
/// a positive estimate.  The walk fills `cell` and `tau`; the caller then
/// attaches the cell's sampled points, or flags them unrecoverable.
struct CrucialCell {
  CellKey cell;
  double tau = 0.0;          ///< estimated tau(C cap Q)
  PointSet samples;          ///< the cell's coreset samples (empty: none)
  bool incomplete = false;   ///< the samples could not be recovered
};

/// Part Q_{i,j} as estimated: the crucial children of one heavy cell of
/// G_{i-1}, in expansion order; `tau` sums their estimates in that order.
struct EstimatedPart {
  CellKey parent;
  std::vector<CrucialCell> cells;
  double tau = 0.0;
};

struct HeavyWalk {
  bool fail = false;
  std::string fail_reason;
  /// parts[i], i in [0, L]: the parts of level i in expansion order.
  std::vector<std::vector<EstimatedPart>> parts;
  /// heavy[i + 1]: the heavy cells of grid level i (i = -1..L-1), in
  /// expansion order; the root's entry is one empty index when it is heavy.
  std::vector<std::vector<CellKey>> heavy;
  std::int64_t total_heavy = 0;
};

/// Estimated tau(C cap Q) of one cell of grid level 0..L.
using CellEstimate = std::function<double(const CellKey&)>;
/// Called before grid level i is walked; a non-null reason FAILs the walk
/// there (the streaming finalize refuses a level whose sample store is
/// saturated).
using LevelGate = std::function<const char*(int level)>;

/// Algorithm 1 top-down over estimates.  The root is heavy iff
/// `total_estimate` >= T_{-1}(o).  Levels 0..L are walked in order, each
/// first through `gate` (if given), even below a non-heavy root.  At level i
/// every child of a heavy cell of level i-1 is estimated once: a
/// non-positive estimate drops it, tau >= T_i(o) with i < L makes it heavy,
/// and anything else makes it crucial.  After each level the running heavy
/// total is tested against heavy_cells_bound, and the walk FAILs at the
/// level that passes it, with no parts below.
HeavyWalk walk_heavy_cells(const HierarchicalGrid& grid, const PartitionParams& params,
                           double o, double total_estimate,
                           const CellEstimate& estimate, const LevelGate& gate = {});

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
