// Batched GF(2^61-1) kernels for the ingest hot path.
//
// The streaming builder evaluates the same polynomial hash over many folded
// keys per drained batch.  These kernels process lanes of independent keys
// with the coefficient in the outer loop (SoA order), which keeps the
// 128-bit multiply/reduce chain branch-light and lets the CPU pipeline the
// independent lane multiplies — the win over the scalar path is instruction-
// level parallelism even without explicit SIMD.
//
// Two lane kernels exist.  The portable one is plain C++ and is the
// reference.  On x86-64 the AVX2 one runs 4 lanes per vector; it is compiled
// with a per-function target("avx2") attribute, so the build sets no ISA
// flag, and default_kernel() picks it once per process when the CPU has
// AVX2.  AVX2 has no 64x64->128 multiply, so the modular product is
// assembled from 32-bit limbs:
//
//   a = a0 + a1*2^32,  b = b0 + b1*2^32   (a1, b1 < 2^29 since a, b < p)
//   a*b = a0*b0 + (a0*b1 + a1*b0)*2^32 + (a1*b1)*2^64
//
// and reduced with 2^61 = 1 (mod p):
//
//   p00 = a0*b0        -> (p00 & p) + (p00 >> 61)
//   mid = a0*b1+a1*b0  -> ((mid << 32) & p) + (mid >> 29)
//   p11 = a1*b1        -> p11 << 3                       (2^64 = 8 mod p)
//
// The partial sums stay under 2^63, one fold plus one conditional subtract
// canonicalizes, and the result is bit-identical to the scalar f61::mul —
// both kernels are pure reorganizations of the same field ops, which is
// what the batch-vs-scalar kernel tests (BatchHash, run on each kernel) pin.
#pragma once

#include <cstddef>
#include <cstdint>

#include "skc/hash/field61.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace skc::f61 {

/// Lanes processed per tile by the batch hash evaluators.  Small enough for
/// the accumulator tile to live in registers / L1, large enough to amortize
/// the per-tile loop overhead.
inline constexpr std::size_t kBatchTile = 16;

/// The lane kernel a batch evaluator runs.
enum class Kernel { kPortable, kAvx2 };

/// True when this CPU can run `kernel` (kAvx2: x86-64 with AVX2).
inline bool kernel_supported(Kernel kernel) {
#if defined(__x86_64__)
  if (kernel == Kernel::kAvx2) {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
  }
#endif
  return kernel == Kernel::kPortable;
}

/// The kernel the batch evaluators run unless told otherwise: AVX2 where
/// the CPU has it, portable elsewhere.  Decided once per process.
inline Kernel default_kernel() {
  static const Kernel chosen =
      kernel_supported(Kernel::kAvx2) ? Kernel::kAvx2 : Kernel::kPortable;
  return chosen;
}

/// One Horner step over a lane batch: acc[i] = acc[i] * x[i] + c (mod p).
/// All inputs must be canonical (< p); outputs are canonical.
inline void horner_step(std::uint64_t* acc, const std::uint64_t* x,
                        std::uint64_t c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] = add(mul(acc[i], x[i]), c);
}

/// One polynomial-fold step over a lane batch: acc[i] = acc[i] * theta + v[i]
/// (mod p).  `v` must already be canonical.
inline void fold_step(std::uint64_t* acc, const std::uint64_t* v,
                      std::uint64_t theta, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] = add(mul(acc[i], theta), v[i]);
}

#if defined(__x86_64__)

namespace detail {

__attribute__((target("avx2"))) inline __m256i mul_mod_avx2(__m256i a, __m256i b) {
  const __m256i mask_p = _mm256_set1_epi64x(static_cast<long long>(kP));
  const __m256i a1 = _mm256_srli_epi64(a, 32);
  const __m256i b1 = _mm256_srli_epi64(b, 32);
  // _mm256_mul_epu32 multiplies the low 32 bits of each 64-bit lane.
  const __m256i p00 = _mm256_mul_epu32(a, b);
  const __m256i p01 = _mm256_mul_epu32(a, b1);
  const __m256i p10 = _mm256_mul_epu32(a1, b);
  const __m256i p11 = _mm256_mul_epu32(a1, b1);
  const __m256i mid = _mm256_add_epi64(p01, p10);  // < 2^62
  __m256i s = _mm256_add_epi64(_mm256_and_si256(p00, mask_p),
                               _mm256_srli_epi64(p00, 61));
  s = _mm256_add_epi64(s, _mm256_and_si256(_mm256_slli_epi64(mid, 32), mask_p));
  s = _mm256_add_epi64(s, _mm256_srli_epi64(mid, 29));
  s = _mm256_add_epi64(s, _mm256_slli_epi64(p11, 3));
  // s < 4 * 2^61 < 2^63: one fold brings it under p + 4, one conditional
  // subtract canonicalizes (signed compare is safe below 2^63).
  s = _mm256_add_epi64(_mm256_and_si256(s, mask_p), _mm256_srli_epi64(s, 61));
  const __m256i ge = _mm256_cmpgt_epi64(s, _mm256_set1_epi64x(
                                               static_cast<long long>(kP - 1)));
  return _mm256_sub_epi64(s, _mm256_and_si256(ge, mask_p));
}

__attribute__((target("avx2"))) inline __m256i add_mod_avx2(__m256i a, __m256i b) {
  const __m256i mask_p = _mm256_set1_epi64x(static_cast<long long>(kP));
  __m256i s = _mm256_add_epi64(a, b);  // < 2^62, signed compare safe
  const __m256i ge = _mm256_cmpgt_epi64(s, _mm256_set1_epi64x(
                                               static_cast<long long>(kP - 1)));
  return _mm256_sub_epi64(s, _mm256_and_si256(ge, mask_p));
}

}  // namespace detail

/// horner_step on the AVX2 kernel, 4 lanes per vector.
__attribute__((target("avx2"))) inline void horner_step_avx2(
    std::uint64_t* acc, const std::uint64_t* x, std::uint64_t c, std::size_t n) {
  std::size_t i = 0;
  const __m256i cv = _mm256_set1_epi64x(static_cast<long long>(c));
  for (; i + 4 <= n; i += 4) {
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i xv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        detail::add_mod_avx2(detail::mul_mod_avx2(av, xv), cv));
  }
  horner_step(acc + i, x + i, c, n - i);
}

/// fold_step on the AVX2 kernel, 4 lanes per vector.
__attribute__((target("avx2"))) inline void fold_step_avx2(
    std::uint64_t* acc, const std::uint64_t* v, std::uint64_t theta, std::size_t n) {
  std::size_t i = 0;
  const __m256i tv = _mm256_set1_epi64x(static_cast<long long>(theta));
  for (; i + 4 <= n; i += 4) {
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i vv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        detail::add_mod_avx2(detail::mul_mod_avx2(av, tv), vv));
  }
  fold_step(acc + i, v + i, theta, n - i);
}

#endif  // __x86_64__

}  // namespace skc::f61
