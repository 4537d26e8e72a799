#include "skc/partition/heavy_cells.h"

#include <algorithm>
#include <cmath>

#include "skc/common/check.h"

namespace skc {

double dim_term(int dim, LrOrder r) {
  return std::pow(static_cast<double>(dim), 1.5 * r.r);
}

double part_threshold(const HierarchicalGrid& grid, const PartitionParams& params,
                      int level, double o) {
  const double diam = grid.cell_diameter(level);  // sqrt(d) * g_i
  return params.threshold_const * o / std::pow(diam, params.r.r);
}

double heavy_cells_bound(const PartitionParams& params, int dim, int log_delta) {
  return params.heavy_bound_const *
         (static_cast<double>(params.k) + dim_term(dim, params.r)) *
         static_cast<double>(log_delta + 1);
}

OfflinePartition partition_offline(const PointSet& points, const HierarchicalGrid& grid,
                                   const PartitionParams& params, double o,
                                   std::span<const double> weights) {
  OfflinePartition result;
  const int L = grid.log_delta();
  result.heavy_per_level.assign(static_cast<std::size_t>(L + 1), 0);
  const double heavy_bound = heavy_cells_bound(params, grid.dim(), L);
  const bool weighted = !weights.empty();
  SKC_CHECK(!weighted ||
            static_cast<PointIndex>(weights.size()) == points.size());
  auto weight_of = [&](PointIndex i) {
    return weighted ? weights[static_cast<std::size_t>(i)] : 1.0;
  };

  // Frontier of heavy cells at level i-1 with their point lists.  The root
  // (level -1) starts heavy iff the whole set meets T_{-1}(o).
  struct Frontier {
    CellKey cell;
    std::vector<PointIndex> points;
    double weight = 0.0;
  };
  std::vector<Frontier> frontier;
  double total_weight = 0.0;
  for (PointIndex i = 0; i < points.size(); ++i) total_weight += weight_of(i);
  if (total_weight >= part_threshold(grid, params, -1, o)) {
    Frontier root;
    root.cell = CellKey{};  // level -1
    root.weight = total_weight;
    root.points.resize(static_cast<std::size_t>(points.size()));
    for (PointIndex i = 0; i < points.size(); ++i) {
      root.points[static_cast<std::size_t>(i)] = i;
    }
    frontier.push_back(std::move(root));
    result.heavy_per_level[0] = 1;
    result.total_heavy = 1;
  }

  std::vector<std::int32_t> idx(static_cast<std::size_t>(grid.dim()));
  for (int level = 0; level <= L && !frontier.empty(); ++level) {
    const double threshold = part_threshold(grid, params, level, o);
    std::vector<Frontier> next;
    for (Frontier& parent : frontier) {
      // Bucket the parent's points by their level-`level` child cell.
      struct Child {
        std::vector<PointIndex> members;
        double weight = 0.0;
      };
      std::unordered_map<CellKey, Child, CellKeyHash> children;
      for (PointIndex pi : parent.points) {
        grid.cell_index_of(points[pi], level, idx);
        CellKey key;
        key.level = level;
        key.index = idx;
        Child& child = children[std::move(key)];
        child.members.push_back(pi);
        child.weight += weight_of(pi);
      }
      Part part;
      part.level = level;
      part.parent = parent.cell;
      for (auto& [cell, child] : children) {
        const bool heavy = level < L && child.weight >= threshold;
        if (heavy) {
          Frontier f;
          f.cell = cell;
          f.points = std::move(child.members);
          f.weight = child.weight;
          next.push_back(std::move(f));
        } else {
          // Crucial cell: its points join the part of this heavy parent.
          part.points.insert(part.points.end(), child.members.begin(),
                             child.members.end());
          part.weight += child.weight;
        }
      }
      if (!part.points.empty()) result.parts.push_back(std::move(part));
    }
    if (level < L) {
      result.heavy_per_level[static_cast<std::size_t>(level + 1)] =
          static_cast<std::int64_t>(next.size());
      result.total_heavy += static_cast<std::int64_t>(next.size());
      if (static_cast<double>(result.total_heavy) > heavy_bound) {
        result.fail = true;
        result.fail_reason = "too many heavy cells (guess o too small)";
        result.parts.clear();
        return result;
      }
    }
    frontier = std::move(next);
  }
  return result;
}

HeavyWalk walk_heavy_cells(const HierarchicalGrid& grid, const PartitionParams& params,
                           double o, double total_estimate,
                           const CellEstimate& estimate, const LevelGate& gate) {
  HeavyWalk walk;
  const int L = grid.log_delta();
  walk.parts.resize(static_cast<std::size_t>(L + 1));
  walk.heavy.resize(static_cast<std::size_t>(L + 1));
  if (total_estimate >= part_threshold(grid, params, -1, o)) {
    walk.heavy[0].push_back(CellKey{});
    walk.total_heavy = 1;
  }
  const double heavy_bound = heavy_cells_bound(params, grid.dim(), L);

  for (int level = 0; level <= L; ++level) {
    if (const char* reason = gate ? gate(level) : nullptr) {
      walk.fail = true;
      walk.fail_reason = reason;
      return walk;
    }
    const auto li = static_cast<std::size_t>(level);
    const double threshold = part_threshold(grid, params, level, o);
    std::vector<CellKey> heavy_here;
    for (const CellKey& parent : walk.heavy[li]) {
      EstimatedPart part;
      part.parent = parent;
      for (CellKey& child : grid.children(parent)) {
        const double tau = estimate(child);
        if (tau <= 0.0) continue;
        if (level < L && tau >= threshold) {
          heavy_here.push_back(std::move(child));
        } else {
          part.tau += tau;
          part.cells.push_back(
              CrucialCell{std::move(child), tau, PointSet(grid.dim()), false});
        }
      }
      if (!part.cells.empty()) walk.parts[li].push_back(std::move(part));
    }
    if (level == L) break;
    walk.total_heavy += static_cast<std::int64_t>(heavy_here.size());
    walk.heavy[li + 1] = std::move(heavy_here);
    if (static_cast<double>(walk.total_heavy) > heavy_bound) {
      walk.fail = true;
      walk.fail_reason = "too many heavy cells (guess o too small)";
      return walk;
    }
  }
  return walk;
}

CellMarking mark_cells(const HierarchicalGrid& grid, const PartitionParams& params,
                       double o, const LevelEstimates& estimates,
                       double total_estimate) {
  CellMarking result;
  const int L = grid.log_delta();
  SKC_CHECK(static_cast<int>(estimates.size()) >= L);  // levels 0..L-1 at least
  result.heavy.resize(static_cast<std::size_t>(L + 1));
  result.heavy_per_level.assign(static_cast<std::size_t>(L + 1), 0);
  const double heavy_bound = heavy_cells_bound(params, grid.dim(), L);

  if (total_estimate >= part_threshold(grid, params, -1, o)) {
    result.heavy[0].insert(CellKey{});
    result.heavy_per_level[0] = 1;
    result.total_heavy = 1;
  } else {
    return result;  // nothing below a non-heavy root can be heavy
  }

  for (int level = 0; level + 1 <= L && level < static_cast<int>(estimates.size());
       ++level) {
    const double threshold = part_threshold(grid, params, level, o);
    auto& heavy_here = result.heavy[static_cast<std::size_t>(level + 1)];
    for (const EstimatedCell& cell : estimates[static_cast<std::size_t>(level)]) {
      if (cell.estimate < threshold) continue;
      CellKey key;
      key.level = level;
      key.index = cell.index;
      const CellKey up = grid.parent(key);
      if (!result.is_heavy(up)) continue;
      heavy_here.insert(std::move(key));
    }
    result.heavy_per_level[static_cast<std::size_t>(level + 1)] =
        static_cast<std::int64_t>(heavy_here.size());
    result.total_heavy += static_cast<std::int64_t>(heavy_here.size());
    if (static_cast<double>(result.total_heavy) > heavy_bound) {
      result.fail = true;
      result.fail_reason = "too many heavy cells (guess o too small)";
      return result;
    }
  }
  return result;
}

}  // namespace skc
