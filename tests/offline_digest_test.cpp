// Frozen digests of every offline Algorithm 2 output: the unit-weight build
// at r = 2 and r = 1, its plain-RNG sampling ablation, the integral-weight
// build and the merge-reduce composer that re-coresets weighted summaries.
// The digests were generated at commit 1200ff0, where unweighted and
// weighted input went through two separate constructions; the one
// construction that serves both must reproduce them bit for bit.  Never
// regenerate a digest: a mismatch is a behaviour change.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

#include "skc/common/crc64.h"
#include "skc/common/serial.h"
#include "skc/coreset/compose.h"
#include "skc/coreset/offline.h"
#include "skc/stream/generators.h"

namespace skc {
namespace {

struct Digest {
  std::uint64_t crc = 0;
  PointIndex points = 0;
  bool operator==(const Digest&) const = default;
};

void PrintTo(const Digest& d, std::ostream* os) {
  *os << "{0x" << std::hex << d.crc << std::dec << ", " << d.points << "}";
}

/// crc64 of the accepted o, then per point its level, coordinates and weight
/// (doubles as their bits), and the point count.
Digest digest(const Coreset& c) {
  serial::Writer w;
  w.put(c.o);
  for (PointIndex i = 0; i < c.points.size(); ++i) {
    w.put<std::int32_t>(c.levels[static_cast<std::size_t>(i)]);
    const auto p = c.points.point(i);
    w.put_array(p.data(), p.size());
    w.put(c.points.weight(i));
  }
  return {crc64(w.view()), c.points.size()};
}

PointSet mixture(int n, std::uint64_t seed) {
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 10;
  cfg.clusters = 4;
  cfg.n = n;
  cfg.spread = 0.02;
  cfg.skew = 1.2;
  Rng rng(seed);
  return gaussian_mixture(cfg, rng);
}

Digest offline(const CoresetParams& params) {
  const OfflineBuildResult built = build_offline_coreset(mixture(5000, 41), params, 10);
  EXPECT_TRUE(built.ok);
  return digest(built.coreset);
}

TEST(OfflineDigest, UnitWeightsR2) {
  EXPECT_EQ(offline(CoresetParams::practical(4, LrOrder{2.0}, 0.3, 0.3)),
            (Digest{0xff87faae57daeaa9, 1440}));
}

TEST(OfflineDigest, UnitWeightsR1) {
  EXPECT_EQ(offline(CoresetParams::practical(4, LrOrder{1.0}, 0.3, 0.3)),
            (Digest{0x1c3f35feaa8f608, 1066}));
}

TEST(OfflineDigest, PlainRngSampling) {
  CoresetParams params = CoresetParams::practical(4, LrOrder{2.0}, 0.3, 0.3);
  params.use_kwise_sampling = false;
  EXPECT_EQ(offline(params), (Digest{0x10b51bf84c6e5863, 1417}));
}

TEST(OfflineDigest, IntegralWeights) {
  const PointSet base = mixture(2000, 42);
  WeightedPointSet input(2);
  Rng wrng(43);
  for (PointIndex i = 0; i < base.size(); ++i) {
    input.push_back(base[i], static_cast<double>(wrng.uniform_int(1, 3)));
  }
  const OfflineBuildResult built = build_weighted_coreset(
      input, CoresetParams::practical(4, LrOrder{2.0}, 0.3, 0.3), 10);
  ASSERT_TRUE(built.ok);
  EXPECT_EQ(digest(built.coreset), (Digest{0xc72678fde35429c9, 1006}));
}

TEST(OfflineDigest, Composer) {
  CoresetComposer::Options opt;
  opt.log_delta = 10;
  opt.block_size = 1024;
  CoresetComposer composer(2, CoresetParams::practical(4, LrOrder{2.0}, 0.3, 0.3), opt);
  composer.insert_all(mixture(6000, 44));
  const auto coreset = composer.finalize();
  ASSERT_TRUE(coreset.has_value());
  EXPECT_EQ(composer.reductions(), 11);
  EXPECT_EQ(digest(*coreset), (Digest{0x4f1cb8aeca97d48b, 1339}));
}

}  // namespace
}  // namespace skc
