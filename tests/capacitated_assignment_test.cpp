#include "skc/assign/capacitated_assignment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>

#include "skc/common/check.h"
#include "skc/flow/mcmf.h"
#include "skc/geometry/metric.h"
#include "skc/solve/brute_force.h"
#include "skc/solve/cost.h"
#include "test_util.h"

namespace skc {
namespace {

TEST(CapacitatedAssignment, UnconstrainedEqualsNearest) {
  Rng rng(1);
  PointSet pts = testutil::random_points(2, 64, 20, rng);
  PointSet centers = testutil::random_points(2, 64, 3, rng);
  const WeightedPointSet w = WeightedPointSet::unit(pts);
  const auto a = optimal_capacitated_assignment(w, centers, 1e9, LrOrder{2.0});
  ASSERT_TRUE(a.feasible);
  EXPECT_NEAR(a.cost, uncapacitated_cost(w, centers, LrOrder{2.0}), 1e-6);
}

TEST(CapacitatedAssignment, InfeasibleWhenCapacityTooSmall) {
  Rng rng(2);
  PointSet pts = testutil::random_points(2, 32, 10, rng);
  PointSet centers = testutil::random_points(2, 32, 2, rng);
  const auto a = optimal_capacitated_assignment(WeightedPointSet::unit(pts), centers,
                                                4.0, LrOrder{2.0});
  EXPECT_FALSE(a.feasible);  // 10 points, 2 centers x cap 4 = 8 < 10
  EXPECT_EQ(a.cost, kInfCost);
}

TEST(CapacitatedAssignment, TightCapacityBalancesExactly) {
  Rng rng(3);
  PointSet pts = testutil::random_points(2, 256, 12, rng);
  PointSet centers = testutil::random_points(2, 256, 3, rng);
  const auto a = optimal_capacitated_assignment(WeightedPointSet::unit(pts), centers,
                                                4.0, LrOrder{2.0});
  ASSERT_TRUE(a.feasible);
  for (double load : a.loads) EXPECT_DOUBLE_EQ(load, 4.0);
}

TEST(CapacitatedAssignment, CapacityBindsCostMonotonically) {
  Rng rng(4);
  PointSet pts = testutil::random_points(2, 128, 15, rng);
  PointSet centers = testutil::random_points(2, 128, 3, rng);
  const WeightedPointSet w = WeightedPointSet::unit(pts);
  double prev = kInfCost;
  for (double t : {5.0, 6.0, 8.0, 15.0}) {
    const auto a = optimal_capacitated_assignment(w, centers, t, LrOrder{2.0});
    ASSERT_TRUE(a.feasible);
    EXPECT_LE(a.cost, prev + 1e-9);  // looser capacity never costs more
    prev = a.cost;
  }
}

TEST(CapacitatedAssignment, WeightedLoadsRespectCapacity) {
  WeightedPointSet pts(1);
  const std::vector<Coord> p1 = {1}, p2 = {2}, p3 = {100};
  pts.push_back(p1, 3.0);
  pts.push_back(p2, 2.0);
  pts.push_back(p3, 4.0);
  PointSet centers(1);
  centers.push_back({1});
  centers.push_back({100});
  const auto a = optimal_capacitated_assignment(pts, centers, 5.0, LrOrder{1.0});
  ASSERT_TRUE(a.feasible);
  for (double load : a.loads) EXPECT_LE(load, 5.0 + 1e-9);
  EXPECT_DOUBLE_EQ(a.loads[0] + a.loads[1], 9.0);
}

TEST(CapacitatedAssignment, RejectsFractionalWeights) {
  WeightedPointSet pts(1);
  const std::vector<Coord> p = {1};
  pts.push_back(p, 1.5);
  PointSet centers(1);
  centers.push_back({1});
  EXPECT_DEATH(optimal_capacitated_assignment(pts, centers, 10, LrOrder{2.0}), "");
}

class AssignmentVsBruteForce
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(AssignmentVsBruteForce, FlowMatchesExhaustiveSearch) {
  const auto [n, k, r] = GetParam();
  Rng rng(static_cast<std::uint64_t>(100 + n * 7 + k * 3 + static_cast<int>(r)));
  for (int trial = 0; trial < 5; ++trial) {
    PointSet pts = testutil::random_points(2, 64, n, rng);
    PointSet centers = testutil::random_points(2, 64, k, rng);
    const WeightedPointSet w = WeightedPointSet::unit(pts);
    const double t = tight_capacity(static_cast<double>(n), k) + trial;  // sweep slack
    const auto flow = optimal_capacitated_assignment(w, centers, t, LrOrder{r});
    const double brute = brute_force_capacitated_cost(w, centers, t, LrOrder{r});
    ASSERT_TRUE(flow.feasible);
    EXPECT_NEAR(flow.cost, brute, 1e-6 * std::max(1.0, brute))
        << "n=" << n << " k=" << k << " r=" << r << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, AssignmentVsBruteForce,
    ::testing::Combine(::testing::Values(6, 9, 12), ::testing::Values(2, 3),
                       ::testing::Values(1.0, 2.0, 3.0)));

TEST(ExactSizeAssignment, HitsPrescribedSizes) {
  Rng rng(7);
  PointSet pts = testutil::random_points(2, 64, 10, rng);
  PointSet centers = testutil::random_points(2, 64, 3, rng);
  const std::vector<std::int64_t> sizes = {2, 3, 5};
  const auto a = exact_size_assignment(WeightedPointSet::unit(pts), centers, sizes,
                                       LrOrder{2.0});
  ASSERT_TRUE(a.feasible);
  EXPECT_DOUBLE_EQ(a.loads[0], 2.0);
  EXPECT_DOUBLE_EQ(a.loads[1], 3.0);
  EXPECT_DOUBLE_EQ(a.loads[2], 5.0);
}

TEST(ExactSizeAssignment, CostAtLeastCapacitatedOptimum) {
  Rng rng(8);
  PointSet pts = testutil::random_points(2, 64, 9, rng);
  PointSet centers = testutil::random_points(2, 64, 3, rng);
  const WeightedPointSet w = WeightedPointSet::unit(pts);
  const auto fixed = exact_size_assignment(w, centers, {3, 3, 3}, LrOrder{2.0});
  const auto capped = optimal_capacitated_assignment(w, centers, 3.0, LrOrder{2.0});
  ASSERT_TRUE(fixed.feasible);
  ASSERT_TRUE(capped.feasible);
  // Capacity 3 forces sizes exactly (3,3,3) here, so costs must match.
  EXPECT_NEAR(fixed.cost, capped.cost, 1e-6);
}

TEST(CapacitatedAssignment, HugeAndInfiniteCapacityIsUncapacitated) {
  Rng rng(11);
  PointSet pts = testutil::random_points(2, 64, 40, rng);
  PointSet centers = testutil::random_points(2, 64, 4, rng);
  const WeightedPointSet w = WeightedPointSet::unit(pts);
  const double free_cost = uncapacitated_cost(w, centers, LrOrder{2.0});
  for (double t : {5e18, 1e300, std::numeric_limits<double>::infinity()}) {
    const auto a = optimal_capacitated_assignment(w, centers, t, LrOrder{2.0});
    ASSERT_TRUE(a.feasible) << "t=" << t;
    EXPECT_NEAR(a.cost, free_cost, 1e-6) << "t=" << t;
  }
}

TEST(CapacitatedAssignment, RejectsNanCapacity) {
  Rng rng(12);
  PointSet pts = testutil::random_points(2, 64, 5, rng);
  PointSet centers = testutil::random_points(2, 64, 2, rng);
  EXPECT_DEATH(optimal_capacitated_assignment(WeightedPointSet::unit(pts), centers,
                                              std::numeric_limits<double>::quiet_NaN(),
                                              LrOrder{2.0}),
               "NaN");
}

// ---------------------------------------------------------------------------
// Differential oracle: the §3.3 reduction solved as a generic min-cost max
// flow over source -> points -> centers -> sink.  The center-graph solver
// must match it in feasibility and cost on every instance.

std::vector<std::int64_t> integral_weights(const WeightedPointSet& points) {
  SKC_CHECK_MSG(points.integral_weights(),
                "capacitated assignment requires integral weights");
  std::vector<std::int64_t> w(static_cast<std::size_t>(points.size()));
  for (PointIndex i = 0; i < points.size(); ++i) {
    w[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(std::llround(points.weight(i)));
  }
  return w;
}

/// Shared flow construction: source -> point (cap w_p), point -> center
/// (cap w_p, cost dist^r), center -> sink (cap per `center_cap`).
CapacitatedAssignment solve_flow(const WeightedPointSet& points,
                                 const PointSet& centers,
                                 const std::vector<std::int64_t>& center_cap,
                                 LrOrder r) {
  const PointIndex n = points.size();
  const int k = static_cast<int>(centers.size());
  CapacitatedAssignment out;
  out.assignment.assign(static_cast<std::size_t>(n), kUnassigned);
  out.loads.assign(static_cast<std::size_t>(k), 0.0);

  const std::vector<std::int64_t> w = integral_weights(points);
  const std::int64_t total =
      std::accumulate(w.begin(), w.end(), std::int64_t{0});
  const std::int64_t cap_total =
      std::accumulate(center_cap.begin(), center_cap.end(), std::int64_t{0});
  if (total > cap_total) return out;  // infeasible by counting

  // Node layout: 0 = source, 1..n = points, n+1..n+k = centers, n+k+1 = sink.
  MinCostMaxFlow flow(static_cast<int>(n) + k + 2);
  const int source = 0;
  const int sink = static_cast<int>(n) + k + 1;
  std::vector<int> pc_edge(static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
  for (PointIndex i = 0; i < n; ++i) {
    flow.add_edge(source, static_cast<int>(i) + 1, w[static_cast<std::size_t>(i)], 0.0);
    for (int j = 0; j < k; ++j) {
      const double cost = dist_pow(points.point(i), centers[j], r);
      pc_edge[static_cast<std::size_t>(i) * static_cast<std::size_t>(k) +
              static_cast<std::size_t>(j)] =
          flow.add_edge(static_cast<int>(i) + 1, static_cast<int>(n) + 1 + j,
                        w[static_cast<std::size_t>(i)], cost);
    }
  }
  for (int j = 0; j < k; ++j) {
    flow.add_edge(static_cast<int>(n) + 1 + j, sink,
                  center_cap[static_cast<std::size_t>(j)], 0.0);
  }

  const MinCostMaxFlow::Result res = flow.solve(source, sink);
  if (res.flow != total) return out;  // could not route all weight

  out.feasible = true;
  out.cost = 0.0;
  for (PointIndex i = 0; i < n; ++i) {
    // An optimal transportation basis splits at most k-1 points across two
    // centers; each point is labeled with the center carrying the plurality
    // of its weight while the cost/loads account the true (split) flow.
    std::int64_t best_flow = -1;
    for (int j = 0; j < k; ++j) {
      const std::int64_t f =
          flow.flow_on(pc_edge[static_cast<std::size_t>(i) * static_cast<std::size_t>(k) +
                               static_cast<std::size_t>(j)]);
      if (f > 0) {
        out.loads[static_cast<std::size_t>(j)] += static_cast<double>(f);
        out.cost += static_cast<double>(f) * dist_pow(points.point(i), centers[j], r);
        if (f > best_flow) {
          best_flow = f;
          out.assignment[static_cast<std::size_t>(i)] = static_cast<CenterIndex>(j);
        }
      }
    }
  }
  return out;
}

/// Asserts `got` is an optimum of the same instance as `want`: same
/// feasibility, cost within 1e-9 relative, every point labeled, loads within
/// `caps` summing to the total weight.  Labels are not compared: equal-cost
/// optima may label points differently.
void expect_same_optimum(const CapacitatedAssignment& got, const CapacitatedAssignment& want,
                         const std::vector<std::int64_t>& caps, double total,
                         const std::string& instance) {
  ASSERT_EQ(got.feasible, want.feasible) << instance;
  if (!want.feasible) {
    EXPECT_EQ(got.cost, kInfCost) << instance;
    return;
  }
  EXPECT_NEAR(got.cost, want.cost, 1e-9 * std::max(1.0, want.cost)) << instance;
  double load_sum = 0.0;
  for (std::size_t j = 0; j < caps.size(); ++j) {
    EXPECT_LE(got.loads[j], static_cast<double>(caps[j])) << instance << " center " << j;
    load_sum += got.loads[j];
  }
  EXPECT_EQ(load_sum, total) << instance;
  for (CenterIndex c : got.assignment) {
    EXPECT_TRUE(c >= 0 && c < static_cast<CenterIndex>(caps.size())) << instance;
  }
}

TEST(AssignmentOracle, MatchesMinCostFlowReductionOnRandomInstances) {
  Rng rng(2024);
  constexpr double kOrders[] = {1.0, 1.5, 2.0, 3.0};
  constexpr Coord kDeltas[] = {8, 64, 4096};  // small grids force cost ties
  int infeasible = 0;
  for (int inst = 0; inst < 300; ++inst) {
    const int dim = static_cast<int>(rng.uniform_int(1, 3));
    const Coord delta = kDeltas[rng.next_below(3)];
    // Mostly small n, with a tail up to 600.
    const auto n = static_cast<PointIndex>(
        rng.bernoulli(0.95) ? rng.uniform_int(1, 120) : rng.uniform_int(121, 600));
    const int k = static_cast<int>(rng.uniform_int(1, 16));
    const LrOrder r{kOrders[rng.next_below(4)]};
    const bool unit = rng.bernoulli(0.5);
    const PointSet pts = testutil::random_points(dim, delta, n, rng);
    const PointSet centers = testutil::random_points(dim, delta, k, rng);
    WeightedPointSet w(dim);
    for (PointIndex i = 0; i < n; ++i) {
      w.push_back(pts[i], unit ? 1.0 : static_cast<double>(rng.uniform_int(1, 50)));
    }
    const double total = w.total_weight();
    const double tight = std::ceil(total / k);
    std::ostringstream id;
    id << "instance " << inst << ": n=" << n << " k=" << k << " r=" << r.r
       << " dim=" << dim << " delta=" << delta << (unit ? " unit" : " weighted");

    // Capacity regimes: infeasible by one, tight, fractional slack, loose.
    const double ts[] = {tight - 1.0, tight, tight + rng.uniform(0.0, 3.0),
                         tight * rng.uniform(1.2, 3.0)};
    for (double t : ts) {
      // The reference takes floor(t) per center, as the solver does for t
      // below the total weight.
      const std::vector<std::int64_t> caps(
          static_cast<std::size_t>(k),
          std::max<std::int64_t>(static_cast<std::int64_t>(std::floor(t + 1e-9)), 0));
      const auto want = solve_flow(w, centers, caps, r);
      expect_same_optimum(optimal_capacitated_assignment(w, centers, t, r), want, caps,
                          total, id.str() + " t=" + std::to_string(t));
      infeasible += want.feasible ? 0 : 1;
    }

    // Exact sizes: a random composition of the total weight, zeros allowed.
    std::vector<std::int64_t> sizes(static_cast<std::size_t>(k), 0);
    for (std::int64_t left = std::llround(total); left > 0;) {
      const std::int64_t chunk = std::min<std::int64_t>(left, rng.uniform_int(1, 40));
      sizes[rng.next_below(static_cast<std::uint64_t>(k))] += chunk;
      left -= chunk;
    }
    const auto got = exact_size_assignment(w, centers, sizes, r);
    const auto want = solve_flow(w, centers, sizes, r);
    ASSERT_TRUE(want.feasible) << id.str();
    expect_same_optimum(got, want, sizes, total, id.str() + " exact sizes");
    for (std::size_t j = 0; j < sizes.size(); ++j) {
      EXPECT_EQ(got.loads[j], static_cast<double>(sizes[j])) << id.str();
    }
  }
  EXPECT_EQ(infeasible, 300);  // the "tight - 1" regime hits the early return
}

}  // namespace
}  // namespace skc
