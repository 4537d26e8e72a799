#include "skc/coreset/sampling.h"

#include <gtest/gtest.h>

#include <set>

#include "test_util.h"

namespace skc {
namespace {

TEST(Sampling, GridDerivationIsDeterministic) {
  const HierarchicalGrid a = make_grid(3, 8, 42);
  const HierarchicalGrid b = make_grid(3, 8, 42);
  EXPECT_TRUE(std::equal(a.shift().begin(), a.shift().end(), b.shift().begin()));
  const HierarchicalGrid c = make_grid(3, 8, 43);
  EXPECT_FALSE(std::equal(a.shift().begin(), a.shift().end(), c.shift().begin()));
}

TEST(Sampling, PurposesYieldIndependentHashes) {
  CoresetParams params = CoresetParams::practical(4, LrOrder{2.0}, 0.2, 0.2);
  const auto counting = make_level_hashes(params, 6, SamplerPurpose::kCounting);
  const auto coreset = make_level_hashes(params, 6, SamplerPurpose::kCoreset);
  ASSERT_EQ(counting.size(), 7u);
  ASSERT_EQ(coreset.size(), 7u);
  PointSet p(2);
  p.push_back({17, 33});
  int equal = 0;
  for (std::size_t i = 0; i < counting.size(); ++i) {
    if (counting[i](p[0]) == coreset[i](p[0])) ++equal;
  }
  EXPECT_EQ(equal, 0);  // 7 collisions at 2^-61 each: never
}

TEST(Sampling, LevelHashesDifferAcrossLevels) {
  CoresetParams params = CoresetParams::practical(4, LrOrder{2.0}, 0.2, 0.2);
  const auto hashes = make_level_hashes(params, 8, SamplerPurpose::kCoreset);
  PointSet p(2);
  p.push_back({5, 9});
  std::set<std::uint64_t> values;
  for (const auto& h : hashes) values.insert(h(p[0]));
  EXPECT_EQ(values.size(), hashes.size());
}

// One seed per (purpose, level), shared by every o-guess.  Each equals the
// value the per-guess derivation gave guess 0, so the DistinctCells and
// distributed round-1 structures hash exactly as before.
TEST(Sampling, SketchSeedsAreDistinct) {
  CoresetParams params = CoresetParams::practical(4, LrOrder{2.0}, 0.2, 0.2);
  const auto guess_zero_seed = [&](SamplerPurpose purpose, int level) {
    std::uint64_t s = params.seed ^ (static_cast<std::uint64_t>(purpose) << 32);
    s ^= std::uint64_t{0x9e3779b97f4a7c15} * std::uint64_t{1};
    s ^= std::uint64_t{0xbf58476d1ce4e5b9} * static_cast<std::uint64_t>(level + 2);
    return splitmix64(s);
  };
  std::set<std::uint64_t> seeds;
  for (const SamplerPurpose purpose :
       {SamplerPurpose::kCounting, SamplerPurpose::kPartMass, SamplerPurpose::kCoreset}) {
    for (int level = 0; level < 10; ++level) {
      const std::uint64_t seed = sketch_seed(params, purpose, level);
      EXPECT_EQ(seed, guess_zero_seed(purpose, level));
      seeds.insert(seed);
      seeds.insert(sketch_seed(params, purpose, 100 + level));
    }
  }
  EXPECT_EQ(seeds.size(), 3u * 10u * 2u);
}

TEST(Sampling, SketchSeedDependsOnParamsSeed) {
  CoresetParams a = CoresetParams::practical(4, LrOrder{2.0}, 0.2, 0.2, 1);
  CoresetParams b = CoresetParams::practical(4, LrOrder{2.0}, 0.2, 0.2, 2);
  EXPECT_NE(sketch_seed(a, SamplerPurpose::kCounting, 0),
            sketch_seed(b, SamplerPurpose::kCounting, 0));
}

TEST(Sampling, KwiseKeepMatchesThreshold) {
  CoresetParams params = CoresetParams::practical(4, LrOrder{2.0}, 0.2, 0.2);
  const auto hashes = make_level_hashes(params, 4, SamplerPurpose::kCoreset);
  Rng prng(7);
  PointSet pts = testutil::random_points(2, 256, 20000, prng);
  const SamplingRate rate = SamplingRate::from_probability(0.25);
  int kept = 0;
  for (PointIndex i = 0; i < pts.size(); ++i) {
    kept += kwise_keep(hashes[2], pts[i], rate) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(kept) / static_cast<double>(pts.size()), 0.25, 0.02);
  // Rate 1 keeps everything.
  const SamplingRate always = SamplingRate::from_probability(1.0);
  EXPECT_TRUE(kwise_keep(hashes[0], pts[0], always));
}

TEST(Sampling, NestedThresholdsAreMonotone) {
  // keep at rate 1/8 implies keep at rate 1/2 under the same hash — the
  // property that lets one hash serve every o-guess.
  CoresetParams params = CoresetParams::practical(4, LrOrder{2.0}, 0.2, 0.2);
  const auto hashes = make_level_hashes(params, 4, SamplerPurpose::kCounting);
  Rng prng(9);
  PointSet pts = testutil::random_points(2, 512, 5000, prng);
  const SamplingRate fine = SamplingRate::from_probability(1.0 / 8.0);
  const SamplingRate coarse = SamplingRate::from_probability(1.0 / 2.0);
  for (PointIndex i = 0; i < pts.size(); ++i) {
    if (kwise_keep(hashes[1], pts[i], fine)) {
      EXPECT_TRUE(kwise_keep(hashes[1], pts[i], coarse));
    }
  }
}

}  // namespace
}  // namespace skc
