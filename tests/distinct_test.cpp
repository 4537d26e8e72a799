#include "skc/sketch/distinct.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <unordered_set>

#include "skc/geometry/metric.h"

#include "test_util.h"

namespace skc {
namespace {

/// Feeds one event to `dc` (level `level` of `grid`) as a one-event batch.
void add(DistinctCells& dc, const HierarchicalGrid& grid, int level,
         std::span<const Coord> p, std::int64_t delta) {
  const CellKey cell = grid.cell_of(p, level);
  dc.update_batch(cell.index.data(), &delta, 1);
}

TEST(DistinctCells, ExactWhenUnderBudget) {
  Rng rng(1);
  HierarchicalGrid grid(2, 8, rng);
  DistinctCells dc(grid, 8, 1024, 7);  // unit cells, big budget: exact
  Rng prng(2);
  PointSet pts = testutil::random_points(2, 256, 200, prng);
  for (PointIndex i = 0; i < pts.size(); ++i) add(dc, grid, 8, pts[i], +1);
  // Distinct unit cells = distinct points.
  std::set<std::vector<Coord>> distinct;
  for (PointIndex i = 0; i < pts.size(); ++i) {
    const auto p = pts[i];
    distinct.insert(std::vector<Coord>(p.begin(), p.end()));
  }
  EXPECT_DOUBLE_EQ(dc.estimate(), static_cast<double>(distinct.size()));
}

TEST(DistinctCells, DeletionRemovesCells) {
  Rng rng(3);
  HierarchicalGrid grid(2, 6, rng);
  DistinctCells dc(grid, 6, 256, 9);
  PointSet p(2);
  p.push_back({3, 3});
  p.push_back({40, 40});
  add(dc, grid, 6, p[0], +1);
  add(dc, grid, 6, p[1], +1);
  EXPECT_DOUBLE_EQ(dc.estimate(), 2.0);
  add(dc, grid, 6, p[1], -1);
  EXPECT_DOUBLE_EQ(dc.estimate(), 1.0);
}

TEST(DistinctCells, SubsamplesOverBudgetWithinTolerance) {
  Rng rng(4);
  HierarchicalGrid grid(2, 12, rng);
  DistinctCells dc(grid, 12, 128, 11);  // small budget forces subsampling
  Rng prng(5);
  // ~4000 distinct unit cells.
  PointSet pts = testutil::random_points(2, 4096, 4000, prng);
  std::set<std::vector<Coord>> distinct;
  for (PointIndex i = 0; i < pts.size(); ++i) {
    add(dc, grid, 12, pts[i], +1);
    const auto p = pts[i];
    distinct.insert(std::vector<Coord>(p.begin(), p.end()));
  }
  const double est = dc.estimate();
  const double truth = static_cast<double>(distinct.size());
  EXPECT_GT(est, 0.4 * truth);
  EXPECT_LT(est, 2.5 * truth);
  EXPECT_LT(dc.memory_bytes(), 64u * 1024u);
}

// save() writes cells in index order; load() takes any order and refuses a
// state no history writes, leaving the estimator empty.
TEST(DistinctCells, LoadTakesAnyOrderAndRefusesToEmpty) {
  Rng rng(12);
  HierarchicalGrid grid(2, 8, rng);
  Rng prng(13);
  const PointSet pts = testutil::random_points(2, 256, 40, prng);
  DistinctCells dc(grid, 8, 64, 7);
  for (PointIndex i = 0; i < pts.size(); ++i) add(dc, grid, 8, pts[i], +1);
  serial::Writer out;
  dc.save(out);
  const std::string blob = out.take();
  // [i32 shift][u64 entries] then entries of [u64 2][2 x i32][i64 count].
  const std::size_t head = 4 + 8, entry = 8 + 2 * 4 + 8;
  const std::size_t entries = (blob.size() - head) / entry;
  ASSERT_GT(entries, 1u);
  const auto load = [&](DistinctCells& into, const std::string& bytes) {
    serial::Reader in(bytes);
    return into.load(in);
  };

  std::string reversed = blob.substr(0, head);
  for (std::size_t e = entries; e-- > 0;) reversed += blob.substr(head + e * entry, entry);
  DistinctCells thawed(grid, 8, 64, 7);
  ASSERT_TRUE(load(thawed, reversed));
  EXPECT_DOUBLE_EQ(thawed.estimate(), dc.estimate());
  serial::Writer again;
  thawed.save(again);
  EXPECT_TRUE(again.view() == blob);

  std::string bad = blob;
  const std::int32_t shift = 64;
  std::memcpy(bad.data(), &shift, sizeof shift);
  EXPECT_FALSE(load(thawed, bad));
  EXPECT_DOUBLE_EQ(thawed.estimate(), 0.0);
  EXPECT_EQ(thawed.memory_bytes(), 0u);
}

TEST(OptLowerBound, ZeroForFewCells) {
  Rng rng(6);
  HierarchicalGrid grid(2, 8, rng);
  const std::vector<double> estimates(8, 3.0);  // fewer than 8k + 8 cells
  EXPECT_DOUBLE_EQ(opt_lower_bound_from_cells(grid, 4, LrOrder{2.0}, estimates), 0.0);
}

TEST(OptLowerBound, BelowTrueOptOnMixtures) {
  Rng rng(7);
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 10;
  cfg.clusters = 4;
  cfg.n = 3000;
  cfg.spread = 0.02;
  const PlantedMixture planted = planted_gaussian_mixture(cfg, rng);
  HierarchicalGrid grid(2, 10, rng);
  std::vector<double> estimates;
  for (int level = 0; level < 10; ++level) {
    std::unordered_set<CellKey, CellKeyHash> distinct;
    for (PointIndex i = 0; i < planted.points.size(); ++i) {
      distinct.insert(grid.cell_of(planted.points[i], level));
    }
    estimates.push_back(static_cast<double>(distinct.size()));
  }
  const double bound =
      opt_lower_bound_from_cells(grid, 4, LrOrder{2.0}, estimates);
  // True OPT is at most the planted-center cost.
  const double planted_cost =
      unconstrained_cost(planted.points, planted.centers, LrOrder{2.0});
  EXPECT_LE(bound, planted_cost);
  EXPECT_GT(bound, 0.0);
}

}  // namespace
}  // namespace skc
