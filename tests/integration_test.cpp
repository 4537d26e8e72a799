// End-to-end property tests: the strong-coreset guarantee itself
// (Theorem 3.19 / 4.5 in miniature), measured against exact capacitated
// costs on the full data.
#include <gtest/gtest.h>

#include <ctime>

#include "skc/skc.h"
#include "test_util.h"

namespace skc {
namespace {

struct QualityCase {
  double r;
  int k;
  double skew;
};

class CoresetQualityTest : public ::testing::TestWithParam<QualityCase> {};

TEST_P(CoresetQualityTest, CapacitatedCostPreservedAcrossCenters) {
  const QualityCase qcase = GetParam();
  const int k = qcase.k;
  const LrOrder r{qcase.r};
  Rng rng(static_cast<std::uint64_t>(
      1000 + k * 17 + static_cast<int>(qcase.r * 3 + qcase.skew * 7)));

  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 9;
  cfg.clusters = k;
  cfg.n = 1200;
  cfg.spread = 0.02;
  cfg.skew = qcase.skew;
  const PointSet pts = gaussian_mixture(cfg, rng);

  CoresetParams params = CoresetParams::practical(k, r, 0.3, 0.3);
  params.samples_per_part = 48.0;  // a bit more budget for the tight check
  const OfflineBuildResult built = build_offline_coreset(pts, params, 9);
  ASSERT_TRUE(built.ok);
  const Coreset& coreset = built.coreset;

  const double n = static_cast<double>(pts.size());
  const double w = coreset.total_weight();

  // Probe several center sets: k-means++ seeds (good centers) and uniform
  // random (bad centers); capacities from tight to loose.
  for (int probe = 0; probe < 4; ++probe) {
    Rng probe_rng(static_cast<std::uint64_t>(2000 + probe));
    PointSet centers =
        probe < 2 ? kmeanspp_seed(WeightedPointSet::unit(pts), k, r, probe_rng)
                  : testutil::random_points(2, 512, k, probe_rng);
    for (double slack : {1.05, 1.5}) {
      // The strong-coreset property is two-sided across RELAXED capacities
      // (Section 1.1):
      //   cost_{(1+eta)^2 t}(Q) / (1+eps)
      //     <= cost_{(1+eta) t}(Q', w') <= (1+eps) cost_t(Q).
      const double eta = 1.0 + params.eta;
      const double t = tight_capacity(n, k) * slack;
      const double full_at_t = capacitated_cost(pts, centers, t, r);
      const double full_relaxed = capacitated_cost(pts, centers, t * eta * eta, r);
      const double coreset_cost =
          capacitated_cost(coreset.points, centers, (t * w / n) * eta, r);
      ASSERT_LT(full_at_t, kInfCost);
      ASSERT_LT(coreset_cost, kInfCost)
          << "coreset infeasible at relaxed capacity (probe " << probe << ")";
      // Empirical epsilon envelope (generous vs the configured 0.3, but far
      // tighter than anything a broken construction would satisfy).
      EXPECT_LT(coreset_cost, 1.6 * full_at_t)
          << "probe " << probe << " slack " << slack;
      EXPECT_GT(coreset_cost, full_relaxed / 1.6)
          << "probe " << probe << " slack " << slack;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoresetQualityTest,
    ::testing::Values(QualityCase{2.0, 3, 1.0}, QualityCase{2.0, 4, 0.0},
                      QualityCase{1.0, 3, 1.0}, QualityCase{1.0, 4, 1.5},
                      QualityCase{3.0, 3, 1.0}),
    [](const ::testing::TestParamInfo<QualityCase>& param_info) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "r%dk%dskew%d",
                    static_cast<int>(param_info.param.r * 10), param_info.param.k,
                    static_cast<int>(param_info.param.skew * 10));
      return std::string(buf);
    });

TEST(Integration, StreamingCoresetSolvesCapacitatedKMeans) {
  // Full pipeline: dynamic stream -> coreset -> capacitated k-means ->
  // full-data assignment; compare against solving on the full data.
  Rng rng(1);
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 9;
  cfg.clusters = 3;
  cfg.n = 900;
  cfg.spread = 0.02;
  cfg.skew = 1.3;
  const PointSet base = gaussian_mixture(cfg, rng);
  const PointSet extra = gaussian_mixture(cfg, rng);
  Rng srng(2);
  const Stream stream = churn_stream(base, extra, ChurnConfig{}, srng);

  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  StreamingOptions opt;
  opt.log_delta = 9;
  opt.max_points = base.size() + extra.size();
  opt.counting_samples = 1e18;
  opt.exact_storing = true;
  const StreamingResult streamed = build_streaming_coreset(stream, 2, params, opt);
  ASSERT_TRUE(streamed.ok);

  const double n = static_cast<double>(base.size());
  const double t = tight_capacity(n, 3) * 1.1;
  Rng solver_rng(3);
  CapacitatedSolverOptions sopts;
  sopts.restarts = 2;
  const double tc = t * streamed.coreset.total_weight() / n;
  const CapacitatedSolution on_coreset = capacitated_kmeans(
      streamed.coreset.points, 3, tc, LrOrder{2.0}, sopts, solver_rng);
  ASSERT_TRUE(on_coreset.feasible);

  Rng solver_rng2(3);
  const CapacitatedSolution on_full = capacitated_kmeans(
      WeightedPointSet::unit(base), 3, t, LrOrder{2.0}, sopts, solver_rng2);
  ASSERT_TRUE(on_full.feasible);

  // Evaluate the coreset-derived centers on the FULL data (the end-to-end
  // metric of Fact 2.3), with the (1 + eta) capacity relaxation.
  const double full_eval = capacitated_cost(base, on_coreset.centers,
                                            t * (1.0 + params.eta), LrOrder{2.0});
  ASSERT_LT(full_eval, kInfCost);
  EXPECT_LT(full_eval, 2.0 * on_full.cost + 1e-9)
      << "coreset centers are far worse than full-data centers";
}

/// CPU seconds used by the calling thread so far.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

TEST(Integration, CoresetSpeedsUpWithoutDestroyingCost) {
  // The reason coresets exist: solving on the coreset must be much faster
  // at comparable cost.  (Timing asserted loosely: coreset is >= 3x faster.)
  // One restart runs inline, so both solves run on this thread and are
  // timed by its CPU clock: a loaded host stretches wall time, not this.
  Rng rng(4);
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 10;
  cfg.clusters = 4;
  cfg.n = 20000;  // large enough that the full solve dwarfs timer noise
  cfg.skew = 1.0;
  const PointSet pts = gaussian_mixture(cfg, rng);
  const CoresetParams params = CoresetParams::practical(4, LrOrder{2.0}, 0.3, 0.3);
  const OfflineBuildResult built = build_offline_coreset(pts, params, 10);
  ASSERT_TRUE(built.ok);
  ASSERT_LT(built.coreset.points.size(), pts.size() / 2);

  const double t = tight_capacity(static_cast<double>(pts.size()), 4) * 1.2;
  CapacitatedSolverOptions opts;
  opts.max_iters = 6;
  opts.restarts = 1;

  const double coreset_start = thread_cpu_seconds();
  Rng r1(5);
  const double tc = t * built.coreset.total_weight() / static_cast<double>(pts.size());
  const CapacitatedSolution fast =
      capacitated_kmeans(built.coreset.points, 4, tc, LrOrder{2.0}, opts, r1);
  const double coreset_time = thread_cpu_seconds() - coreset_start;
  ASSERT_TRUE(fast.feasible);

  const double full_start = thread_cpu_seconds();
  Rng r2(5);
  const CapacitatedSolution slow = capacitated_kmeans(
      WeightedPointSet::unit(pts), 4, t, LrOrder{2.0}, opts, r2);
  const double full_time = thread_cpu_seconds() - full_start;
  ASSERT_TRUE(slow.feasible);

  EXPECT_LT(coreset_time, full_time / 3.0);
  const double eval_fast = capacitated_cost(pts, fast.centers,
                                            t * (1.0 + params.eta), LrOrder{2.0});
  EXPECT_LT(eval_fast, 2.0 * slow.cost);
}

}  // namespace
}  // namespace skc
