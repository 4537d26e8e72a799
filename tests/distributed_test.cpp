#include "skc/coreset/distributed.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "skc/coreset/offline.h"
#include "skc/coreset/sampling.h"
#include "skc/partition/heavy_cells.h"
#include "skc/stream/generators.h"
#include "test_util.h"

namespace skc {
namespace {

std::vector<PointSet> split_round_robin(const PointSet& pts, int machines) {
  std::vector<PointSet> out(static_cast<std::size_t>(machines), PointSet(pts.dim()));
  for (PointIndex i = 0; i < pts.size(); ++i) {
    out[static_cast<std::size_t>(i % machines)].push_back(pts[i]);
  }
  return out;
}

MixtureConfig mixture(int n) {
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 9;
  cfg.clusters = 3;
  cfg.n = n;
  cfg.spread = 0.02;
  cfg.skew = 1.0;
  return cfg;
}

DistributedOptions lossless_options() {
  DistributedOptions opt;
  opt.log_delta = 9;
  opt.counting_samples = 1e18;  // psi = 1
  opt.exact = true;             // plain-map counts
  return opt;
}

TEST(DistributedCoreset, EqualsOfflineUnderExactRates) {
  Rng rng(1);
  PointSet pts = gaussian_mixture(mixture(800), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);

  const OfflineBuildResult offline = build_offline_coreset(pts, params, 9);
  ASSERT_TRUE(offline.ok);

  const DistributedResult dist = build_distributed_coreset(
      split_round_robin(pts, 4), params, lossless_options());
  ASSERT_TRUE(dist.ok);
  EXPECT_DOUBLE_EQ(dist.coreset.o, offline.coreset.o);
  EXPECT_EQ(testutil::canonical_multiset(dist.coreset.points),
            testutil::canonical_multiset(offline.coreset.points));
}

TEST(DistributedCoreset, InvariantToPartitioningAcrossMachines) {
  Rng rng(2);
  PointSet pts = gaussian_mixture(mixture(600), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  const DistributedResult a = build_distributed_coreset(
      split_round_robin(pts, 2), params, lossless_options());
  const DistributedResult b = build_distributed_coreset(
      split_round_robin(pts, 8), params, lossless_options());
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(testutil::canonical_multiset(a.coreset.points),
            testutil::canonical_multiset(b.coreset.points));
}

TEST(DistributedCoreset, CommunicationIsAccounted) {
  Rng rng(3);
  PointSet pts = gaussian_mixture(mixture(600), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  const DistributedResult result = build_distributed_coreset(
      split_round_robin(pts, 4), params, lossless_options());
  ASSERT_TRUE(result.ok);
  EXPECT_GT(result.communication.messages, 0u);
  EXPECT_GT(result.communication.bytes, 0u);
  // Coordinator (rank 0) touches every message.
  EXPECT_EQ(result.per_machine_bytes[0], result.communication.bytes);
}

TEST(DistributedCoreset, CommunicationScalesWithMachines) {
  Rng rng(4);
  PointSet pts = gaussian_mixture(mixture(1200), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  DistributedOptions opt = lossless_options();
  // Fixed o window so both runs decode the same guesses.
  opt.o_min = 1e4;
  opt.o_max = 1e8;
  const DistributedResult few = build_distributed_coreset(
      split_round_robin(pts, 2), params, opt);
  const DistributedResult many = build_distributed_coreset(
      split_round_robin(pts, 16), params, opt);
  ASSERT_TRUE(few.ok);
  ASSERT_TRUE(many.ok);
  // Theorem 4.7: total communication ~ s * poly(...); the per-machine term
  // dominated by fixed summaries, so 16 machines cost more than 2 in total.
  EXPECT_GT(many.communication.bytes, few.communication.bytes);
}

TEST(DistributedCoreset, MachineSampleCapFailureIsReported) {
  Rng rng(5);
  PointSet pts = uniform_points(2, 9, 2000, rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  DistributedOptions opt = lossless_options();
  opt.machine_sample_cap = 1;  // absurdly small: every guess FAILs
  const DistributedResult result =
      build_distributed_coreset(split_round_robin(pts, 3), params, opt);
  EXPECT_FALSE(result.ok);
  for (const std::string& outcome : result.diagnostics.guess_outcomes) {
    EXPECT_NE(outcome, "ok");
  }
}

TEST(DistributedCoreset, RoundsAreConstant) {
  Rng rng(7);
  PointSet pts = gaussian_mixture(mixture(500), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  const DistributedResult result = build_distributed_coreset(
      split_round_robin(pts, 4), params, lossless_options());
  ASSERT_TRUE(result.ok);
  // round 0 (sizes/centroid) + round 1 (counts) + one sample round per
  // decoded guess; the pruned range keeps this small.
  EXPECT_LE(result.rounds, 2 + 24);
}

TEST(DistributedCoreset, AGuessFailingOnHeavyCellsCostsNoSampleRound) {
  Rng rng(8);
  const PointSet pts = gaussian_mixture(mixture(800), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  DistributedOptions opt = lossless_options();
  const std::vector<PointSet> machines = split_round_robin(pts, 4);
  const DistributedResult full = build_distributed_coreset(machines, params, opt);
  ASSERT_TRUE(full.ok);

  // At psi = 1 the merged counts are exact, so the offline partition shows
  // each guess's heavy cells per level.  Some guess FAILs only on the
  // running total: no level alone passes the bound.
  const std::string heavy_fail = "too many heavy cells (guess o too small)";
  const HierarchicalGrid grid = make_grid(2, 9, params.seed);
  const double bound = heavy_cells_bound(params.partition(), 2, 9);
  const auto& tried = full.diagnostics.guesses_tried;
  const auto& outcomes = full.diagnostics.guess_outcomes;
  std::size_t heavy_fails = 0, first_walked = tried.size();
  bool cumulative_only = false;
  for (std::size_t g = 0; g < tried.size(); ++g) {
    if (outcomes[g] != heavy_fail) {
      first_walked = std::min(first_walked, g);
      continue;
    }
    ++heavy_fails;
    const OfflinePartition exact =
        partition_offline(pts, grid, params.partition(), tried[g]);
    EXPECT_TRUE(exact.fail) << "o = " << tried[g];
    const std::int64_t widest =
        *std::max_element(exact.heavy_per_level.begin(), exact.heavy_per_level.end());
    cumulative_only = cumulative_only || static_cast<double>(widest) <= bound;
  }
  ASSERT_TRUE(cumulative_only);
  ASSERT_LT(first_walked, tried.size());

  // Only the guesses the walk passes broadcast cells and collect samples.
  EXPECT_EQ(full.rounds, 2 + static_cast<int>(tried.size() - heavy_fails));
  // Starting at the first guess the walk passes costs the same rounds and
  // bytes: the guesses below it cost nothing past the count round (psi = 1
  // and exact counts, so round 1 is the same for both ranges).
  opt.o_min = tried[first_walked];
  opt.o_max = full.diagnostics.o_max;
  const DistributedResult skip = build_distributed_coreset(machines, params, opt);
  ASSERT_TRUE(skip.ok);
  EXPECT_EQ(skip.coreset.o, full.coreset.o);
  EXPECT_EQ(skip.rounds, full.rounds);
  EXPECT_EQ(skip.communication.bytes, full.communication.bytes);
  EXPECT_EQ(skip.communication.messages, full.communication.messages);
}

TEST(DistributedCoreset, SingleMachineDegeneratesToOffline) {
  Rng rng(6);
  PointSet pts = gaussian_mixture(mixture(500), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  const OfflineBuildResult offline = build_offline_coreset(pts, params, 9);
  ASSERT_TRUE(offline.ok);
  std::vector<PointSet> machines = {pts};
  const DistributedResult dist =
      build_distributed_coreset(machines, params, lossless_options());
  ASSERT_TRUE(dist.ok);
  EXPECT_EQ(testutil::canonical_multiset(dist.coreset.points),
            testutil::canonical_multiset(offline.coreset.points));
}

// The protocol walks heavy cells on the merged counts, so it refuses a
// dimension above the walk's limit at its entry.
TEST(DistributedCoresetDeathTest, DimensionAboveTheWalkLimitAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const int dim = HierarchicalGrid::kMaxWalkDim + 1;
  std::vector<PointSet> machines(2, PointSet(dim));
  machines[0].push_back(Point(static_cast<std::size_t>(dim), 1));
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  EXPECT_DEATH(build_distributed_coreset(machines, params, lossless_options()),
               "dimension too large");
}

}  // namespace
}  // namespace skc
