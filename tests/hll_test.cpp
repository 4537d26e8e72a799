#include "skc/sketch/hll.h"

#include <gtest/gtest.h>

#include <cmath>

#include "skc/common/random.h"

namespace skc {
namespace {

std::uint64_t hash_of(std::uint64_t x) {
  std::uint64_t state = x ^ 0x9e3779b97f4a7c15ULL;
  return splitmix64(state);
}

TEST(HyperLogLog, SmallRangeIsNearExact) {
  HyperLogLog hll(12);
  for (std::uint64_t i = 0; i < 100; ++i) hll.add_hash(hash_of(i));
  // Linear-counting regime: well under 1% error at n << m.
  EXPECT_NEAR(hll.estimate(), 100.0, 2.0);
}

TEST(HyperLogLog, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  for (int rep = 0; rep < 50; ++rep) {
    for (std::uint64_t i = 0; i < 64; ++i) hll.add_hash(hash_of(i));
  }
  EXPECT_NEAR(hll.estimate(), 64.0, 2.0);
}

TEST(HyperLogLog, LargeRangeWithinRelativeError) {
  HyperLogLog hll(12);
  const std::uint64_t n = 200'000;
  for (std::uint64_t i = 0; i < n; ++i) hll.add_hash(hash_of(i));
  // Theory: sigma ~= 1.04 / sqrt(2^12) ~= 1.6%; allow 5 sigma.
  const double err = std::abs(hll.estimate() - static_cast<double>(n)) /
                     static_cast<double>(n);
  EXPECT_LT(err, 0.08);
}

TEST(HyperLogLog, MergeEqualsUnion) {
  HyperLogLog a(10), b(10), u(10);
  for (std::uint64_t i = 0; i < 5'000; ++i) {
    a.add_hash(hash_of(i));
    u.add_hash(hash_of(i));
  }
  for (std::uint64_t i = 2'500; i < 8'000; ++i) {
    b.add_hash(hash_of(i));
    u.add_hash(hash_of(i));
  }
  ASSERT_TRUE(a.merge(b));
  // Register-wise max makes the merge exact: identical to the union sketch.
  EXPECT_DOUBLE_EQ(a.estimate(), u.estimate());
}

TEST(HyperLogLog, MergeRefusesPrecisionMismatch) {
  HyperLogLog a(10), b(12);
  b.add_hash(hash_of(1));
  EXPECT_FALSE(a.merge(b));
  EXPECT_DOUBLE_EQ(a.estimate(), 0.0);
}

TEST(HyperLogLog, ResetClears) {
  HyperLogLog hll(8);
  for (std::uint64_t i = 0; i < 1'000; ++i) hll.add_hash(hash_of(i));
  EXPECT_GT(hll.estimate(), 100.0);
  hll.reset();
  EXPECT_DOUBLE_EQ(hll.estimate(), 0.0);
}

}  // namespace
}  // namespace skc
