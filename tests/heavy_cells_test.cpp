#include "skc/partition/heavy_cells.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "skc/stream/generators.h"
#include "test_util.h"

namespace skc {
namespace {

PartitionParams small_params(int k = 4, double r = 2.0) {
  PartitionParams p;
  p.k = k;
  p.r = LrOrder{r};
  p.heavy_bound_const = 8.0;
  return p;
}

TEST(PartThreshold, ScalesWithOAndLevel) {
  Rng rng(1);
  HierarchicalGrid grid(2, 8, rng);
  const PartitionParams params = small_params();
  const double t1 = part_threshold(grid, params, 3, 1000.0);
  const double t2 = part_threshold(grid, params, 3, 2000.0);
  EXPECT_NEAR(t2, 2.0 * t1, 1e-9);
  // Finer levels have smaller cells, hence larger thresholds for r > 0.
  EXPECT_GT(part_threshold(grid, params, 4, 1000.0), t1);
}

TEST(DimTerm, MatchesFormula) {
  EXPECT_DOUBLE_EQ(dim_term(4, LrOrder{2.0}), 64.0);   // 4^3
  EXPECT_DOUBLE_EQ(dim_term(9, LrOrder{1.0}), 27.0);   // 9^1.5
}

TEST(PartitionOffline, PartsCoverAllPointsDisjointly) {
  Rng rng(2);
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 8;
  cfg.clusters = 3;
  cfg.n = 600;
  PointSet pts = gaussian_mixture(cfg, rng);
  HierarchicalGrid grid(2, 8, rng);

  // o roughly at the clustering cost scale: use a mid-range guess where the
  // partition is non-degenerate.
  const OfflinePartition partition =
      partition_offline(pts, grid, small_params(3), 1e6);
  ASSERT_FALSE(partition.fail);

  std::vector<int> covered(static_cast<std::size_t>(pts.size()), 0);
  for (const Part& part : partition.parts) {
    for (PointIndex p : part.points) covered[static_cast<std::size_t>(p)] += 1;
  }
  // Every point in exactly one part (root is heavy at this o).
  EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                          [](int c) { return c == 1; }));
}

TEST(PartitionOffline, LargeOCollapsesToOnePart) {
  // With an enormous o every threshold is huge: only the root can be heavy,
  // so all points land in the single level-0 part under the root.
  Rng rng(3);
  PointSet pts = testutil::random_points(2, 200, 100, rng);
  HierarchicalGrid grid(2, 8, rng);
  const OfflinePartition partition =
      partition_offline(pts, grid, small_params(), 1e18);
  ASSERT_FALSE(partition.fail);
  // Root not heavy for absurdly large o => no parts at all; or exactly the
  // level-0 parts under the root.  Either way no deep heavy cells.
  EXPECT_LE(partition.total_heavy, 1);
}

TEST(PartitionOffline, TinyOFails) {
  // o = 1 makes every cell heavy on clustered data -> heavy-cell explosion.
  Rng rng(4);
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 10;
  cfg.clusters = 4;
  cfg.n = 4000;
  cfg.spread = 0.05;
  PointSet pts = gaussian_mixture(cfg, rng);
  HierarchicalGrid grid(2, 10, rng);
  const OfflinePartition partition = partition_offline(pts, grid, small_params(), 1.0);
  EXPECT_TRUE(partition.fail);
}

TEST(PartitionOffline, HeavyCountsAreConsistent) {
  Rng rng(5);
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 8;
  cfg.clusters = 2;
  cfg.n = 500;
  PointSet pts = gaussian_mixture(cfg, rng);
  HierarchicalGrid grid(2, 8, rng);
  const OfflinePartition partition =
      partition_offline(pts, grid, small_params(2), 5e5);
  ASSERT_FALSE(partition.fail);
  const std::int64_t sum = std::accumulate(partition.heavy_per_level.begin(),
                                           partition.heavy_per_level.end(),
                                           std::int64_t{0});
  EXPECT_EQ(sum, partition.total_heavy);
}

TEST(PartitionOffline, PartsSitUnderHeavyParents) {
  Rng rng(6);
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 8;
  cfg.clusters = 3;
  cfg.n = 800;
  PointSet pts = gaussian_mixture(cfg, rng);
  HierarchicalGrid grid(2, 8, rng);
  const OfflinePartition partition =
      partition_offline(pts, grid, small_params(3), 1e6);
  ASSERT_FALSE(partition.fail);
  for (const Part& part : partition.parts) {
    EXPECT_EQ(part.parent.level, part.level - 1);
    for (PointIndex p : part.points) {
      EXPECT_TRUE(grid.contains(part.parent, pts[p]));
    }
  }
}

TEST(MarkCells, AgreesWithOfflineOnExactCounts) {
  Rng rng(7);
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 7;
  cfg.clusters = 3;
  cfg.n = 700;
  PointSet pts = gaussian_mixture(cfg, rng);
  HierarchicalGrid grid(2, 7, rng);
  const PartitionParams params = small_params(3);
  const double o = 3e5;

  // Exact per-level cell counts (the estimates an ideal sketch would give).
  LevelEstimates estimates(static_cast<std::size_t>(grid.log_delta()));
  for (int level = 0; level < grid.log_delta(); ++level) {
    std::unordered_map<CellKey, double, CellKeyHash> counts;
    for (PointIndex i = 0; i < pts.size(); ++i) {
      counts[grid.cell_of(pts[i], level)] += 1.0;
    }
    for (auto& [cell, count] : counts) {
      estimates[static_cast<std::size_t>(level)].push_back(
          EstimatedCell{cell.index, count});
    }
  }

  const CellMarking marking =
      mark_cells(grid, params, o, estimates, static_cast<double>(pts.size()));
  const OfflinePartition partition = partition_offline(pts, grid, params, o);
  ASSERT_FALSE(marking.fail);
  ASSERT_FALSE(partition.fail);
  EXPECT_EQ(marking.total_heavy, partition.total_heavy);
  EXPECT_EQ(marking.heavy_per_level, partition.heavy_per_level);
}

TEST(MarkCells, NonHeavyRootBlocksEverything) {
  Rng rng(8);
  HierarchicalGrid grid(2, 6, rng);
  LevelEstimates estimates(static_cast<std::size_t>(grid.log_delta()));
  // A would-be-heavy level-0 cell, but the root (total) is below threshold.
  estimates[0].push_back(EstimatedCell{{0, 0}, 1e12});
  const CellMarking marking = mark_cells(grid, small_params(), 1e15, estimates, 1.0);
  ASSERT_FALSE(marking.fail);
  EXPECT_EQ(marking.total_heavy, 0);
}

// --- walk_heavy_cells against mark_cells, its reference on a cell list. ---

using EstimateTable = std::unordered_map<CellKey, double, CellKeyHash>;

/// The table as mark_cells reads it: per-level lists for levels 0..L-1.
LevelEstimates as_levels(const EstimateTable& table, int log_delta) {
  LevelEstimates out(static_cast<std::size_t>(log_delta));
  for (const auto& [cell, estimate] : table) {
    if (cell.level < log_delta) {
      out[static_cast<std::size_t>(cell.level)].push_back(
          EstimatedCell{cell.index, estimate});
    }
  }
  return out;
}

HeavyWalk walk_table(const HierarchicalGrid& grid, const PartitionParams& params,
                     double o, const EstimateTable& table, double total,
                     const LevelGate& gate = {}) {
  return walk_heavy_cells(
      grid, params, o, total,
      [&table](const CellKey& cell) {
        const auto it = table.find(cell);
        return it == table.end() ? 0.0 : it->second;
      },
      gate);
}

/// The walk's verdict, heavy sets and parts against mark_cells on the same
/// estimates: every part sits under a heavy cell and holds exactly its
/// non-heavy children with a positive estimate, each with its table value.
void expect_walk_matches_marking(const HierarchicalGrid& grid,
                                 const PartitionParams& params, double o,
                                 const EstimateTable& table, double total) {
  const int L = grid.log_delta();
  const HeavyWalk walk = walk_table(grid, params, o, table, total);
  const CellMarking marking = mark_cells(grid, params, o, as_levels(table, L), total);
  ASSERT_EQ(walk.fail, marking.fail) << "o = " << o;
  EXPECT_EQ(walk.fail_reason, marking.fail_reason);
  EXPECT_EQ(walk.total_heavy, marking.total_heavy);
  ASSERT_EQ(walk.heavy.size(), marking.heavy.size());
  for (std::size_t slot = 0; slot < walk.heavy.size(); ++slot) {
    const std::unordered_set<CellKey, CellKeyHash> heavy(walk.heavy[slot].begin(),
                                                         walk.heavy[slot].end());
    EXPECT_EQ(heavy.size(), walk.heavy[slot].size()) << "duplicate heavy cell";
    EXPECT_EQ(heavy, marking.heavy[slot])
        << "o = " << o << ", level " << static_cast<int>(slot) - 1;
  }
  if (walk.fail) return;
  ASSERT_EQ(walk.parts.size(), static_cast<std::size_t>(L + 1));
  for (int i = 0; i <= L; ++i) {
    std::size_t expected_parts = 0;
    for (const CellKey& parent : walk.heavy[static_cast<std::size_t>(i)]) {
      std::vector<std::pair<CellKey, double>> crucial;
      for (const CellKey& child : grid.children(parent)) {
        const auto it = table.find(child);
        if (it != table.end() && it->second > 0.0 && !marking.is_heavy(child)) {
          crucial.emplace_back(child, it->second);
        }
      }
      if (crucial.empty()) continue;
      ASSERT_LT(expected_parts, walk.parts[static_cast<std::size_t>(i)].size());
      const EstimatedPart& part =
          walk.parts[static_cast<std::size_t>(i)][expected_parts++];
      EXPECT_EQ(part.parent, parent);
      ASSERT_EQ(part.cells.size(), crucial.size());
      double tau = 0.0;
      for (std::size_t c = 0; c < crucial.size(); ++c) {
        EXPECT_EQ(part.cells[c].cell, crucial[c].first);
        EXPECT_EQ(part.cells[c].tau, crucial[c].second);
        EXPECT_TRUE(part.cells[c].samples.empty());
        EXPECT_FALSE(part.cells[c].incomplete);
        tau += crucial[c].second;
      }
      EXPECT_EQ(part.tau, tau);
    }
    EXPECT_EQ(walk.parts[static_cast<std::size_t>(i)].size(), expected_parts);
  }
}

TEST(HeavyWalk, MatchesMarkCellsOnSeededEstimateTables) {
  PartitionParams params = small_params(3);
  params.heavy_bound_const = 1.0;  // bound 88: small guesses FAIL
  int passed = 0, failed = 0;
  for (std::uint64_t seed = 11; seed < 15; ++seed) {
    Rng rng(seed);
    MixtureConfig cfg;
    cfg.dim = 2;
    cfg.log_delta = 7;
    cfg.clusters = 3;
    cfg.n = 900;
    cfg.spread = 0.05;
    const PointSet pts = gaussian_mixture(cfg, rng);
    HierarchicalGrid grid(2, 7, rng);
    // Exact counts of levels 0..L, each scaled by a seeded factor in
    // [0.5, 1.5), as a sketch's estimates would wobble.
    EstimateTable table;
    for (int level = 0; level <= grid.log_delta(); ++level) {
      for (PointIndex i = 0; i < pts.size(); ++i) {
        table[grid.cell_of(pts[i], level)] += 1.0;
      }
    }
    for (auto& [cell, estimate] : table) estimate *= 0.5 + rng.uniform();
    for (double o = 1.0; o < 1e12; o *= 4.0) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", o " << o);
      const auto total = static_cast<double>(pts.size());
      expect_walk_matches_marking(grid, params, o, table, total);
      const bool fail = walk_table(grid, params, o, table, total).fail;
      (fail ? failed : passed) += 1;
    }
  }
  // Both verdicts occur, so the comparison covers both.
  EXPECT_GT(passed, 0);
  EXPECT_GT(failed, 0);
}

TEST(HeavyWalk, FailsWhereTheRunningTotalPassesTheBound) {
  Rng rng(9);
  HierarchicalGrid grid(2, 6, rng);
  const int L = grid.log_delta();
  PartitionParams params = small_params(4);
  params.heavy_bound_const = 0.25;  // bound 0.25 * (4 + 2^3) * 7 = 21
  const double bound = heavy_cells_bound(params, 2, L);
  const double o = 1e8;  // 1 < T_i(o) < 1e12 at every level
  // Every level-0 cell is heavy, and below it the children of the first two
  // heavy cells of the level above: 4, 8, 8, ... heavy cells per level, each
  // under the bound, and 1 + 4 + 8 + 8 + 8 = 29 passes it at level 3.
  // Every other child of a heavy cell is a light crucial cell.
  EstimateTable table;
  std::vector<CellKey> heavy = grid.children(CellKey{});
  for (const CellKey& c : heavy) table[c] = 1e12;
  for (int level = 1; level < L; ++level) {
    std::vector<CellKey> next;
    for (std::size_t h = 0; h < heavy.size(); ++h) {
      for (const CellKey& child : grid.children(heavy[h])) {
        table[child] = h < 2 ? 1e12 : 1.0;
        if (h < 2) next.push_back(child);
      }
    }
    heavy = std::move(next);
  }
  ASSERT_LE(8.0, bound);
  ASSERT_GT(1.0 + 4.0 + 3.0 * 8.0, bound);
  ASSERT_LE(1.0 + 4.0 + 2.0 * 8.0, bound);

  const HeavyWalk walk = walk_table(grid, params, o, table, 1e12);
  ASSERT_TRUE(walk.fail);
  EXPECT_EQ(walk.fail_reason, "too many heavy cells (guess o too small)");
  EXPECT_EQ(walk.total_heavy, 29);
  const std::vector<std::size_t> per_level = {1, 4, 8, 8, 8, 0, 0};  // levels -1..5
  for (std::size_t slot = 0; slot < walk.heavy.size(); ++slot) {
    EXPECT_EQ(walk.heavy[slot].size(), per_level[slot])
        << "level " << static_cast<int>(slot) - 1;
  }
  // Levels 1..3 were expanded (light siblings make parts there); nothing
  // below the crossing level was.
  for (std::size_t i = 1; i < walk.parts.size(); ++i) {
    EXPECT_EQ(walk.parts[i].empty(), i > 3) << "level " << i;
  }
  expect_walk_matches_marking(grid, params, o, table, 1e12);

  // Under a bound of 84, above the table's 45 heavy cells, it passes.
  params.heavy_bound_const = 1.0;
  EXPECT_FALSE(walk_table(grid, params, o, table, 1e12).fail);
}

TEST(HeavyWalk, TheGateRunsBeforeEachLevelAndCanFailIt) {
  Rng rng(10);
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 7;
  cfg.clusters = 2;
  cfg.n = 500;
  const PointSet pts = gaussian_mixture(cfg, rng);
  HierarchicalGrid grid(2, 7, rng);
  const int L = grid.log_delta();
  EstimateTable table;
  for (int level = 0; level <= L; ++level) {
    for (PointIndex i = 0; i < pts.size(); ++i) {
      table[grid.cell_of(pts[i], level)] += 1.0;
    }
  }
  const PartitionParams params = small_params(2);
  const double o = 5e5;
  const auto total = static_cast<double>(pts.size());
  std::vector<int> gated;
  const auto record = [&gated](int level) -> const char* {
    gated.push_back(level);
    return nullptr;
  };
  const HeavyWalk full = walk_table(grid, params, o, table, total, record);
  ASSERT_FALSE(full.fail);
  ASSERT_FALSE(full.heavy[4].empty());  // the walk goes below level 2
  EXPECT_EQ(gated, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));

  // A gate refusing level 3 FAILs the walk there, with its reason, before
  // the level is expanded.
  gated.clear();
  const HeavyWalk cut = walk_table(grid, params, o, table, total, [&](int level) {
    gated.push_back(level);
    return level == 3 ? "level 3 refused" : nullptr;
  });
  ASSERT_TRUE(cut.fail);
  EXPECT_EQ(cut.fail_reason, "level 3 refused");
  EXPECT_EQ(gated, (std::vector<int>{0, 1, 2, 3}));
  for (std::size_t i = 0; i < full.parts.size(); ++i) {
    EXPECT_EQ(cut.parts[i].size(), i < 3 ? full.parts[i].size() : 0u) << "level " << i;
  }
  EXPECT_EQ(cut.heavy[3], full.heavy[3]);  // level 2, the last walked
  EXPECT_TRUE(cut.heavy[4].empty());

  // Below a non-heavy root every level is still gated.
  gated.clear();
  const HeavyWalk empty = walk_table(grid, params, o, table, 0.0, record);
  ASSERT_FALSE(empty.fail);
  EXPECT_EQ(empty.total_heavy, 0);
  EXPECT_EQ(gated.size(), static_cast<std::size_t>(L + 1));
}

TEST(HeavyCellsBound, GrowsWithKAndL) {
  const PartitionParams params = small_params(4);
  EXPECT_LT(heavy_cells_bound(params, 2, 6), heavy_cells_bound(params, 2, 12));
  PartitionParams bigger_k = params;
  bigger_k.k = 16;
  EXPECT_LT(heavy_cells_bound(params, 2, 8), heavy_cells_bound(bigger_k, 2, 8));
}

}  // namespace
}  // namespace skc
