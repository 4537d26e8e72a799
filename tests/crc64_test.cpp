// CRC-64: both kernels (slicing-by-8 and, where the CPU has PCLMULQDQ, the
// carry-less fold) must compute the same CRC-64/XZ values as a
// bit-at-a-time reference, whatever the length, alignment, starting state
// or chunking, so that checkpoints, tenant spills and the frozen
// IngestDigest/OfflineDigest values written by the bytewise loop still
// verify.  Every case runs on each kernel this CPU has; the carry-less one
// is skipped without PCLMULQDQ.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "skc/common/crc64.h"
#include "skc/common/random.h"

namespace skc {
namespace {

/// One bit per step, straight from the reflected ECMA-182 polynomial, from
/// any starting state (no final inversion).
std::uint64_t reference_update(std::uint64_t crc, std::string_view bytes) {
  for (const char c : bytes) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ detail::kCrc64Poly : crc >> 1;
    }
  }
  return crc;
}

std::uint64_t reference_crc64(std::string_view bytes) {
  return ~reference_update(~std::uint64_t{0}, bytes);
}

std::uint64_t kernel_crc64(std::string_view bytes, Crc64Kernel kernel) {
  return crc64_final(crc64_update(crc64_init(), bytes.data(), bytes.size(), kernel));
}

std::string random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.uniform_int(0, 255));
  return out;
}

std::vector<Crc64Kernel> kernels_here() {
  std::vector<Crc64Kernel> out{Crc64Kernel::kSlicing8};
  if (crc64_kernel_supported(Crc64Kernel::kClmul)) out.push_back(Crc64Kernel::kClmul);
  return out;
}

const char* kernel_name(Crc64Kernel kernel) {
  return kernel == Crc64Kernel::kClmul ? "carry-less kernel" : "slicing-by-8 kernel";
}

TEST(Crc64, CheckValueIsCrc64Xz) {
  for (const Crc64Kernel kernel : kernels_here()) {
    SCOPED_TRACE(kernel_name(kernel));
    EXPECT_EQ(kernel_crc64("123456789", kernel), 0x995DC9BBDF1939FAULL);
    EXPECT_EQ(kernel_crc64("", kernel), 0u);
  }
  EXPECT_EQ(crc64("123456789"), 0x995DC9BBDF1939FAULL);
}

TEST(Crc64, CarryLessKernelRunsWhereTheCpuHasIt) {
  if (!crc64_kernel_supported(Crc64Kernel::kClmul)) {
    EXPECT_EQ(crc64_default_kernel(), Crc64Kernel::kSlicing8);
    GTEST_SKIP() << "no PCLMULQDQ on this CPU";
  }
  EXPECT_EQ(crc64_default_kernel(), Crc64Kernel::kClmul);
}

// Long enough that both halves take the folding path at some split points
// (each half at least kCrc64ClmulMin bytes) and that each half ends 1-15
// bytes past a 16-byte fold at others.
TEST(Crc64, IncrementalEqualsOneShotAtEverySplitPoint) {
  const std::string bytes = random_bytes(300, 1);
  static_assert(300 >= 2 * kCrc64ClmulMin + 16);
  const std::uint64_t whole = reference_crc64(bytes);
  for (const Crc64Kernel kernel : kernels_here()) {
    SCOPED_TRACE(kernel_name(kernel));
    for (std::size_t split = 0; split <= bytes.size(); ++split) {
      std::uint64_t state = crc64_init();
      state = crc64_update(state, bytes.data(), split, kernel);
      state = crc64_update(state, bytes.data() + split, bytes.size() - split, kernel);
      ASSERT_EQ(crc64_final(state), whole) << "split at " << split;
    }
  }
}

TEST(Crc64, MatchesTheBitwiseReferenceAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 70 * 1024;
  const std::string buffer = random_bytes(kMaxLen + 8, 2);
  std::vector<std::size_t> lengths = {0, 1, 7, 8, 9, 15, 16, 17};
  // Below, at and just above the carry-less cut-over.
  for (std::size_t len = kCrc64ClmulMin - 9; len <= kCrc64ClmulMin + 17; ++len) {
    lengths.push_back(len);
  }
  // 16-byte multiples, and 1-15 bytes past a fold (a 64-byte stride, then
  // 16-byte blocks).
  for (std::size_t blocks = 4; blocks <= 24; ++blocks) {
    for (std::size_t past = 0; past < 16; ++past) lengths.push_back(16 * blocks + past);
  }
  // A few lengths over 64 KiB.
  for (const std::size_t len : {std::size_t{65536}, std::size_t{65537}, std::size_t{65600},
                                std::size_t{66000} + 13, kMaxLen}) {
    lengths.push_back(len);
  }
  Rng rng(3);
  for (int i = 0; i < 48; ++i) {
    lengths.push_back(static_cast<std::size_t>(rng.uniform_int(0, 4096)));
  }
  for (const std::size_t len : lengths) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::string_view bytes(buffer.data() + offset, len);
      const std::uint64_t want = reference_crc64(bytes);
      // Also from a random starting state, as a chunk mid-stream.
      const std::uint64_t state = rng.next();
      const std::uint64_t want_from_state = reference_update(state, bytes);
      for (const Crc64Kernel kernel : kernels_here()) {
        ASSERT_EQ(kernel_crc64(bytes, kernel), want)
            << kernel_name(kernel) << ", length " << len << ", offset " << offset;
        ASSERT_EQ(crc64_update(state, bytes.data(), bytes.size(), kernel), want_from_state)
            << kernel_name(kernel) << ", length " << len << ", offset " << offset
            << ", state " << state;
      }
    }
  }
}

}  // namespace
}  // namespace skc
