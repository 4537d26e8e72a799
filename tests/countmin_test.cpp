#include "skc/sketch/countmin.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "test_util.h"

namespace skc {
namespace {

// One guess that keeps every event: the plain single-stream CountMin.
CellCountMin single_guess(const HierarchicalGrid& grid, int level,
                          const CellCountMinConfig& cfg, std::uint64_t seed) {
  return CellCountMin(grid, level, cfg, seed, {SamplingRate{}.keep_below()});
}

void add(CellCountMin& cm, const HierarchicalGrid& grid, std::span<const Coord> p,
         std::int64_t delta) {
  std::vector<std::int32_t> cell(p.size());
  grid.cell_index_of(p, cm.level(), cell);
  const int hi = 1;
  cm.update(cell.data(), &delta, &hi, 1);
}

TEST(CellCountMin, ExactModeIsExact) {
  Rng rng(1);
  HierarchicalGrid grid(2, 8, rng);
  CellCountMinConfig cfg;
  cfg.exact = true;
  CellCountMin cm = single_guess(grid, 4, cfg, 9);
  Rng prng(2);
  PointSet pts = testutil::random_points(2, 256, 300, prng);
  std::unordered_map<CellKey, std::int64_t, CellKeyHash> truth;
  for (PointIndex i = 0; i < pts.size(); ++i) {
    add(cm, grid, pts[i], +1);
    truth[grid.cell_of(pts[i], 4)] += 1;
  }
  for (const auto& [cell, count] : truth) {
    EXPECT_DOUBLE_EQ(cm.query(0, cell), static_cast<double>(count));
  }
}

TEST(CellCountMin, SketchNeverUnderestimatesMuch) {
  Rng rng(3);
  HierarchicalGrid grid(2, 10, rng);
  CellCountMinConfig cfg;
  cfg.width = 1024;
  CellCountMin cm = single_guess(grid, 6, cfg, 11);
  Rng prng(4);
  PointSet pts = testutil::random_points(2, 1024, 3000, prng);
  std::unordered_map<CellKey, std::int64_t, CellKeyHash> truth;
  for (PointIndex i = 0; i < pts.size(); ++i) {
    add(cm, grid, pts[i], +1);
    truth[grid.cell_of(pts[i], 6)] += 1;
  }
  double total_over = 0.0;
  for (const auto& [cell, count] : truth) {
    const double est = cm.query(0, cell);
    // CountMin estimates are upper bounds on the true count (all deltas +1).
    EXPECT_GE(est, static_cast<double>(count));
    total_over += est - static_cast<double>(count);
  }
  // Average overestimate should be a small constant at this load factor.
  EXPECT_LT(total_over / static_cast<double>(truth.size()), 12.0);
}

TEST(CellCountMin, DeletionsCancel) {
  Rng rng(5);
  HierarchicalGrid grid(2, 6, rng);
  CellCountMinConfig cfg;
  cfg.width = 256;
  CellCountMin cm = single_guess(grid, 3, cfg, 13);
  PointSet p(2);
  p.push_back({5, 5});
  p.push_back({60, 60});
  for (int i = 0; i < 10; ++i) add(cm, grid, p[0], +1);
  for (int i = 0; i < 4; ++i) add(cm, grid, p[0], -1);
  add(cm, grid, p[1], +1);
  EXPECT_GE(cm.query(0, grid.cell_of(p[0], 3)), 6.0);
  EXPECT_LE(cm.query(0, grid.cell_of(p[0], 3)), 7.0 + 1e-9);  // +1 possible collision
}

TEST(CellCountMin, QueryUnseenCellIsSmall) {
  Rng rng(6);
  HierarchicalGrid grid(2, 8, rng);
  CellCountMinConfig cfg;
  cfg.width = 512;
  CellCountMin cm = single_guess(grid, 5, cfg, 17);
  Rng prng(7);
  PointSet pts = testutil::random_points(2, 256, 200, prng);
  for (PointIndex i = 0; i < pts.size(); ++i) add(cm, grid, pts[i], +1);
  // Probe cells far outside the data range.
  CellKey ghost;
  ghost.level = 5;
  ghost.index = {1000000, -1000000};
  EXPECT_LT(cm.query(0, ghost), 10.0);
}

TEST(CellCountMin, MergeEqualsConcatenation) {
  Rng rng(8);
  HierarchicalGrid grid(2, 7, rng);
  CellCountMinConfig cfg;
  cfg.width = 256;
  CellCountMin a = single_guess(grid, 3, cfg, 21);
  CellCountMin b = single_guess(grid, 3, cfg, 21);
  CellCountMin both = single_guess(grid, 3, cfg, 21);
  Rng prng(9);
  PointSet pa = testutil::random_points(2, 128, 100, prng);
  PointSet pb = testutil::random_points(2, 128, 100, prng);
  for (PointIndex i = 0; i < pa.size(); ++i) {
    add(a, grid, pa[i], +1);
    add(both, grid, pa[i], +1);
  }
  for (PointIndex i = 0; i < pb.size(); ++i) {
    add(b, grid, pb[i], +1);
    add(both, grid, pb[i], +1);
  }
  a.merge(b);
  for (PointIndex i = 0; i < pa.size(); ++i) {
    const CellKey c = grid.cell_of(pa[i], 3);
    EXPECT_DOUBLE_EQ(a.query(0, c), both.query(0, c));
  }
}

TEST(CellCountMin, FixedMemory) {
  Rng rng(10);
  HierarchicalGrid grid(2, 10, rng);
  CellCountMinConfig cfg;
  cfg.width = 512;
  CellCountMin cm = single_guess(grid, 6, cfg, 25);
  const std::size_t before = cm.memory_bytes();
  Rng prng(11);
  PointSet pts = testutil::random_points(2, 1024, 5000, prng);
  for (PointIndex i = 0; i < pts.size(); ++i) add(cm, grid, pts[i], +1);
  EXPECT_EQ(cm.memory_bytes(), before);
}

}  // namespace
}  // namespace skc
