#include "skc/geometry/metric.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "skc/parallel/thread_pool.h"
#include "test_util.h"

namespace skc {
namespace {

TEST(Metric, DistSqExact) {
  PointSet s(3);
  s.push_back({0, 0, 0});
  s.push_back({1, 2, 2});
  EXPECT_EQ(dist_sq(s[0], s[1]), 9);
  EXPECT_DOUBLE_EQ(dist(s[0], s[1]), 3.0);
}

TEST(Metric, DistIsSymmetricAndZeroOnEqual) {
  Rng rng(1);
  PointSet s = testutil::random_points(4, 1000, 50, rng);
  for (PointIndex i = 0; i < s.size(); ++i) {
    EXPECT_EQ(dist_sq(s[i], s[i]), 0);
    for (PointIndex j = i + 1; j < s.size(); ++j) {
      EXPECT_EQ(dist_sq(s[i], s[j]), dist_sq(s[j], s[i]));
    }
  }
}

TEST(Metric, TriangleInequality) {
  Rng rng(2);
  PointSet s = testutil::random_points(3, 100, 30, rng);
  for (PointIndex a = 0; a < 10; ++a) {
    for (PointIndex b = 10; b < 20; ++b) {
      for (PointIndex c = 20; c < 30; ++c) {
        EXPECT_LE(dist(s[a], s[c]), dist(s[a], s[b]) + dist(s[b], s[c]) + 1e-9);
      }
    }
  }
}

class DistPowTest : public ::testing::TestWithParam<double> {};

TEST_P(DistPowTest, MatchesPowOfDistance) {
  const LrOrder r{GetParam()};
  Rng rng(3);
  PointSet s = testutil::random_points(5, 500, 40, rng);
  for (PointIndex i = 0; i + 1 < s.size(); i += 2) {
    const double d = dist(s[i], s[i + 1]);
    EXPECT_NEAR(dist_pow(s[i], s[i + 1], r), std::pow(d, r.r),
                1e-9 * std::max(1.0, std::pow(d, r.r)));
  }
}

TEST_P(DistPowTest, RelaxedTriangleFact21) {
  // Fact 2.1: dist^r(x,z) <= 2^{r-1} (dist^r(x,y) + dist^r(y,z)).
  const LrOrder r{GetParam()};
  Rng rng(4);
  PointSet s = testutil::random_points(3, 200, 30, rng);
  const double factor = std::pow(2.0, r.r - 1.0);
  for (PointIndex a = 0; a < 10; ++a) {
    for (PointIndex b = 10; b < 20; ++b) {
      for (PointIndex c = 20; c < 30; ++c) {
        EXPECT_LE(dist_pow(s[a], s[c], r),
                  factor * (dist_pow(s[a], s[b], r) + dist_pow(s[b], s[c], r)) + 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, DistPowTest, ::testing::Values(1.0, 2.0, 3.0, 1.5));

TEST(Metric, NearestCenterPicksClosest) {
  PointSet centers(2);
  centers.push_back({0, 0});
  centers.push_back({10, 0});
  centers.push_back({0, 10});
  PointSet p(2);
  p.push_back({9, 1});
  const NearestCenter nc = nearest_center(p[0], centers, LrOrder{2.0});
  EXPECT_EQ(nc.index, 1);
  EXPECT_DOUBLE_EQ(nc.cost, 2.0);  // (1^2 + 1^2)
}

TEST(Metric, NearestCenterTiesToLowestIndex) {
  PointSet centers(1);
  centers.push_back({0});
  centers.push_back({2});
  PointSet p(1);
  p.push_back({1});
  EXPECT_EQ(nearest_center(p[0], centers, LrOrder{2.0}).index, 0);
}

TEST(Metric, UnconstrainedCostMatchesManualSum) {
  Rng rng(5);
  PointSet points = testutil::random_points(3, 64, 200, rng);
  PointSet centers = testutil::random_points(3, 64, 4, rng);
  const LrOrder r{2.0};
  double manual = 0.0;
  for (PointIndex i = 0; i < points.size(); ++i) {
    manual += nearest_center(points[i], centers, r).cost;
  }
  EXPECT_NEAR(unconstrained_cost(points, centers, r), manual, 1e-6 * manual);
}

TEST(Metric, UnconstrainedCostAddsBlocksInOrder) {
  // The per-block partial sums are added in block order, not in the order
  // the blocks finish, so every run returns the same bits.
  Rng rng(6);
  const PointSet points = testutil::random_points(3, 1 << 20, 20000, rng);
  const PointSet centers = testutil::random_points(3, 1 << 20, 5, rng);
  const LrOrder r{1.5};
  // The blocks parallel_for_blocked cuts on the global pool at grain 1024.
  const std::int64_t n = points.size();
  const std::int64_t blocks = std::min<std::int64_t>(
      static_cast<std::int64_t>(ThreadPool::global().size()) + 1, (n + 1023) / 1024);
  const std::int64_t block = (n + blocks - 1) / blocks;
  double want = 0.0;
  for (std::int64_t lo = 0; lo < n; lo += block) {
    double s = 0.0;
    for (std::int64_t i = lo; i < std::min(n, lo + block); ++i) {
      s += nearest_center(points[i], centers, r).cost;
    }
    want += s;
  }
  for (int run = 0; run < 20; ++run) {
    EXPECT_EQ(unconstrained_cost(points, centers, r), want) << "run " << run;
  }
}

TEST(Metric, DiameterOfColinearPoints) {
  PointSet s(1);
  s.push_back({1});
  s.push_back({5});
  s.push_back({3});
  EXPECT_DOUBLE_EQ(diameter(s), 4.0);
}

TEST(Metric, PowRHelpers) {
  EXPECT_DOUBLE_EQ(pow_r(3.0, LrOrder{2.0}), 9.0);
  EXPECT_DOUBLE_EQ(pow_r(3.0, LrOrder{1.0}), 3.0);
  EXPECT_NEAR(pow_r(2.0, LrOrder{3.0}), 8.0, 1e-12);
}

}  // namespace
}  // namespace skc
