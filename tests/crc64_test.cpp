// CRC-64: the slicing-by-8 loop must compute the same CRC-64/XZ values as a
// bit-at-a-time reference, whatever the length, alignment or chunking, so
// that checkpoints, tenant spills and the frozen IngestDigest/OfflineDigest
// values written by the bytewise loop still verify.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "skc/common/crc64.h"
#include "skc/common/random.h"

namespace skc {
namespace {

/// One bit per step, straight from the reflected ECMA-182 polynomial.
std::uint64_t reference_crc64(std::string_view bytes) {
  std::uint64_t crc = ~std::uint64_t{0};
  for (const char c : bytes) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ detail::kCrc64Poly : crc >> 1;
    }
  }
  return ~crc;
}

std::string random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.uniform_int(0, 255));
  return out;
}

TEST(Crc64, CheckValueIsCrc64Xz) {
  EXPECT_EQ(crc64("123456789"), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(crc64(""), 0u);
}

TEST(Crc64, IncrementalEqualsOneShotAtEverySplitPoint) {
  const std::string bytes = random_bytes(300, 1);
  const std::uint64_t whole = crc64(bytes);
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    std::uint64_t state = crc64_init();
    state = crc64_update(state, bytes.data(), split);
    state = crc64_update(state, bytes.data() + split, bytes.size() - split);
    ASSERT_EQ(crc64_final(state), whole) << "split at " << split;
  }
}

TEST(Crc64, MatchesTheBitwiseReferenceAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 4096;
  const std::string buffer = random_bytes(kMaxLen + 8, 2);
  Rng rng(3);
  std::vector<std::size_t> lengths = {0, 1, 7, 8, 9, 15, 16, 17, kMaxLen};
  for (int i = 0; i < 48; ++i) {
    lengths.push_back(static_cast<std::size_t>(rng.uniform_int(0, kMaxLen)));
  }
  for (const std::size_t len : lengths) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::string_view bytes(buffer.data() + offset, len);
      ASSERT_EQ(crc64(bytes), reference_crc64(bytes))
          << "length " << len << ", offset " << offset;
    }
  }
}

}  // namespace
}  // namespace skc
