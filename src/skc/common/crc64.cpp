#include "skc/common/crc64.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace skc {

namespace {

#if defined(__x86_64__)

/// x^n mod P, bit-reflected (bit i holds the coefficient of x^(63-i)).
constexpr std::uint64_t x_pow(unsigned n) {
  std::uint64_t v = std::uint64_t{1} << 63;  // x^0
  for (unsigned i = 0; i < n; ++i) v = (v & 1) ? (v >> 1) ^ detail::kCrc64Poly : v >> 1;
  return v;
}

/// The multipliers that move a 128-bit block D bits forward: its low qword
/// (the block's first 8 bytes, the high-degree half) by x^(D+63) mod P, its
/// high qword by x^(D-1) mod P.
template <unsigned D>
struct FoldBy {
  static constexpr std::uint64_t kLow = x_pow(D + 63);
  static constexpr std::uint64_t kHigh = x_pow(D - 1);
};

template <unsigned D>
__attribute__((target("pclmul"))) inline __m128i fold_constants() {
  return _mm_set_epi64x(static_cast<long long>(FoldBy<D>::kHigh),
                        static_cast<long long>(FoldBy<D>::kLow));
}

/// A block congruent to x * x^D mod P, at most 127 bits wide.
__attribute__((target("pclmul"))) inline __m128i fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11));
}

__attribute__((target("pclmul"))) inline __m128i load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// `size` >= kCrc64ClmulMin.  The pending message is kept as blocks that,
/// fed to the CRC from state 0, give the same state as the bytes they
/// replace: the state is xored into the first 8 bytes, each lane is folded
/// one 64-byte stride forward and the next block added, the lanes fold into
/// one block, then every further 16 bytes are folded in.
__attribute__((target("pclmul"))) std::uint64_t crc64_clmul(std::uint64_t state,
                                                             const unsigned char* p,
                                                             std::size_t size) {
  static_assert(kCrc64ClmulMin >= 64);
  const __m128i k512 = fold_constants<512>();
  const __m128i k128 = fold_constants<128>();
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi64_si128(static_cast<long long>(state)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    x0 = _mm_xor_si128(fold(x0, k512), load(p));
    x1 = _mm_xor_si128(fold(x1, k512), load(p + 16));
    x2 = _mm_xor_si128(fold(x2, k512), load(p + 32));
    x3 = _mm_xor_si128(fold(x3, k512), load(p + 48));
  }
  __m128i x = _mm_xor_si128(fold(x0, k128), x1);
  x = _mm_xor_si128(fold(x, k128), x2);
  x = _mm_xor_si128(fold(x, k128), x3);
  for (; size >= 16; p += 16, size -= 16) x = _mm_xor_si128(fold(x, k128), load(p));
  alignas(16) unsigned char block[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(block), x);
  return detail::crc64_slicing8(detail::crc64_slicing8(0, block, 16), p, size);
}

#endif

}  // namespace

std::uint64_t crc64_update(std::uint64_t state, const void* data, std::size_t size,
                           Crc64Kernel kernel) {
  const auto* p = static_cast<const unsigned char*>(data);
#if defined(__x86_64__)
  if (kernel == Crc64Kernel::kClmul && size >= kCrc64ClmulMin) {
    return crc64_clmul(state, p, size);
  }
#else
  (void)kernel;
#endif
  return detail::crc64_slicing8(state, p, size);
}

}  // namespace skc
