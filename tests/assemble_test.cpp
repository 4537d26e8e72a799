// Direct tests of the shared assembly step on a synthetic heavy-cell walk —
// pins the part rules (mass bound, lost-mass budget, gamma * T_i filter)
// independent of any sketch.
#include "skc/coreset/assemble.h"

#include <gtest/gtest.h>

#include "skc/coreset/sampling.h"
#include "test_util.h"

namespace skc {
namespace {

struct Fixture {
  CoresetParams params = CoresetParams::practical(2, LrOrder{2.0}, 0.2, 0.2);
  HierarchicalGrid grid = make_grid(2, 4, params.seed);
  PointSet probe = [] {
    PointSet p(2);
    p.push_back({8, 8});
    return p;
  }();

  /// The walk of one heavy chain root -> the level-0 cell holding (8, 8),
  /// whose level-1 children are crucial with `child_mass` points each.
  HeavyWalk walk(double child_mass, double o, double total_count) const {
    const CellKey c0 = grid.cell_of(probe[0], 0);
    const double t0 = part_threshold(grid, params.partition(), 0, o);
    return walk_heavy_cells(grid, params.partition(), o, total_count,
                            [&](const CellKey& cell) {
                              if (cell == c0) return t0 + child_mass * 4.0;
                              return cell.level == 1 && grid.parent(cell) == c0
                                         ? child_mass
                                         : 0.0;
                            });
  }

  /// The walk's crucial cell holding (8, 8).
  CrucialCell& probe_cell(HeavyWalk& walk) const {
    const CellKey key = grid.cell_of(probe[0], 1);
    for (EstimatedPart& part : walk.parts[1]) {
      for (CrucialCell& cell : part.cells) {
        if (cell.cell == key) return cell;
      }
    }
    ADD_FAILURE() << "no crucial cell holds the probe";
    return walk.parts[1].front().cells.front();
  }
};

TEST(Assemble, AcceptsCleanData) {
  Fixture f;
  const double o = 2e5;
  HeavyWalk walk = f.walk(12.0, o, 60.0);
  ASSERT_FALSE(walk.fail);
  ASSERT_EQ(walk.parts[1].size(), 1u);
  EXPECT_EQ(walk.parts[1][0].cells.size(), 4u);
  // A sample point inside one crucial child.
  f.probe_cell(walk).samples.push_back(f.probe[0]);
  const BuildAttempt attempt = assemble_coreset(f.grid, f.params, o, walk, 60.0);
  ASSERT_TRUE(attempt.ok) << attempt.fail_reason;
  EXPECT_EQ(attempt.coreset.points.size(), 1);
  EXPECT_EQ(attempt.coreset.levels[0], 1);
}

TEST(Assemble, MassBoundFails) {
  Fixture f;
  const double o = 2e5;
  // Crucial cells cannot individually exceed T_1, so trip the level bound by
  // shrinking the bound constant instead.
  f.params.mass_bound_const = 0.001;
  const HeavyWalk walk = f.walk(12.0, o, 1e9);
  const BuildAttempt attempt = assemble_coreset(f.grid, f.params, o, walk, 1e9);
  ASSERT_FALSE(attempt.ok);
  EXPECT_NE(std::string(attempt.fail_reason).find("part mass"), std::string::npos);
}

TEST(Assemble, SmallLostMassIsAbsorbed) {
  Fixture f;
  const double o = 2e5;
  HeavyWalk walk = f.walk(12.0, o, 4000.0);
  // One incomplete crucial cell: budget is eta * n / (4k) = 0.2*4000/8 = 100
  // "points"; the cell's charge min(tau, T_1) is far below that.
  f.probe_cell(walk).incomplete = true;
  const BuildAttempt attempt = assemble_coreset(f.grid, f.params, o, walk, 4000.0);
  EXPECT_TRUE(attempt.ok) << attempt.fail_reason;
}

TEST(Assemble, LargeLostMassFails) {
  Fixture f;
  const double o = 2e5;
  HeavyWalk walk = f.walk(12.0, o, 60.0);
  // Tiny n makes the budget eta*n/(4k) tiny; the incomplete cell's charge
  // exceeds it.
  f.probe_cell(walk).incomplete = true;
  const BuildAttempt attempt = assemble_coreset(f.grid, f.params, o, walk, 60.0);
  ASSERT_FALSE(attempt.ok);
  EXPECT_NE(std::string(attempt.fail_reason).find("lost-mass"), std::string::npos);
}

TEST(Assemble, APartBelowGammaThresholdIsDroppedWithItsLostCells) {
  Fixture f;
  const double o = 2e5;
  // The part's tau (4 cells of 1e-9) is far below gamma * T_1(o): neither
  // its samples reach the coreset nor its incomplete cells the lost-mass
  // budget, which one charged cell already exceeds at n = 60
  // (LargeLostMassFails).
  HeavyWalk walk = f.walk(1e-9, o, 60.0);
  ASSERT_EQ(walk.parts[1].size(), 1u);
  EXPECT_LT(walk.parts[1][0].tau,
            f.params.gamma(2, 4) * part_threshold(f.grid, f.params.partition(), 1, o));
  f.probe_cell(walk).samples.push_back(f.probe[0]);
  for (CrucialCell& cell : walk.parts[1][0].cells) {
    cell.incomplete = cell.samples.empty();
  }
  const BuildAttempt attempt = assemble_coreset(f.grid, f.params, o, walk, 60.0);
  ASSERT_TRUE(attempt.ok) << attempt.fail_reason;
  EXPECT_EQ(attempt.coreset.points.size(), 0);
}

}  // namespace
}  // namespace skc
