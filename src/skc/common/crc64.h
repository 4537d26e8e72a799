// CRC-64 (ECMA-182 polynomial, reflected) over byte buffers.
//
// The engine checkpoint (engine.cpp, format version 2) frames its payload
// with this checksum so that ANY bit flip in a stored file — header, shard
// builder, or footer — deterministically fails restore() instead of relying
// on per-structure parsers to notice.  Tenant spills (.tnt) carry it too.
// The values are CRC-64/XZ ("123456789" -> 0x995DC9BBDF1939FA), computed by
// one of two kernels with the same values:
//
//   - slicing-by-8: eight 256-entry tables built at compile time, derived
//     from the one-byte table, fold eight bytes per step (the bytewise loop
//     finishes the tail).  About 1.1 GB/s on a 4-vCPU x86-64 host
//     (bench_hash, 4 MiB buffer).
//   - carry-less multiply (x86-64 with PCLMULQDQ): four 128-bit lanes fold
//     64-byte blocks forward with PCLMULQDQ, the lanes and any further
//     16-byte blocks fold into one, and that block and the tail go through
//     slicing-by-8 from state 0, so no Barrett step is needed.  About
//     12.8 GB/s on the same host, 11x slicing-by-8.  The fold constants
//     are x^(D+63) and x^(D-1) mod P, bit-reflected, computed at compile
//     time from the polynomial (the extra x^-1 undoes the shift a
//     reflected carry-less product carries).
//
// crc64_default_kernel() picks the carry-less kernel once per process when
// the CPU has it; inputs shorter than kCrc64ClmulMin bytes always take
// slicing-by-8.  Crc64.* pins both kernels against a bitwise reference.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace skc {

namespace detail {

inline constexpr std::uint64_t kCrc64Poly = 0xC96C5795D7870F42ULL;  // reflected

using Crc64Tables = std::array<std::array<std::uint64_t, 256>, 8>;

/// tables[0] is the one-byte table; tables[k][i] is the CRC state after i
/// followed by k zero bytes, so the eight lanes of a word are looked up
/// independently.
constexpr Crc64Tables make_crc64_tables() {
  Crc64Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kCrc64Poly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint64_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

inline constexpr Crc64Tables kCrc64Tables = make_crc64_tables();

/// The slicing-by-8 kernel.
inline std::uint64_t crc64_slicing8(std::uint64_t state, const unsigned char* p,
                                    std::size_t size) {
  const auto& t = kCrc64Tables;
  if constexpr (std::endian::native == std::endian::little) {
    for (; size >= 8; p += 8, size -= 8) {
      std::uint64_t v = 0;
      std::memcpy(&v, p, 8);
      v ^= state;
      state = t[7][v & 0xFF] ^ t[6][(v >> 8) & 0xFF] ^ t[5][(v >> 16) & 0xFF] ^
              t[4][(v >> 24) & 0xFF] ^ t[3][(v >> 32) & 0xFF] ^ t[2][(v >> 40) & 0xFF] ^
              t[1][(v >> 48) & 0xFF] ^ t[0][v >> 56];
    }
  }
  for (std::size_t i = 0; i < size; ++i) {
    state = t[0][(state ^ p[i]) & 0xFF] ^ (state >> 8);
  }
  return state;
}

}  // namespace detail

/// The kernel crc64_update runs.
enum class Crc64Kernel { kSlicing8, kClmul };

/// Inputs shorter than this take slicing-by-8 whatever the kernel: the
/// carry-less kernel starts with four 16-byte lanes.
inline constexpr std::size_t kCrc64ClmulMin = 64;

/// True when this CPU can run `kernel` (kClmul: x86-64 with PCLMULQDQ).
inline bool crc64_kernel_supported(Crc64Kernel kernel) {
#if defined(__x86_64__)
  if (kernel == Crc64Kernel::kClmul) {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul");
  }
#endif
  return kernel == Crc64Kernel::kSlicing8;
}

/// The carry-less kernel where the CPU has it, else slicing-by-8.  Decided
/// once per process.
inline Crc64Kernel crc64_default_kernel() {
  static const Crc64Kernel chosen = crc64_kernel_supported(Crc64Kernel::kClmul)
                                        ? Crc64Kernel::kClmul
                                        : Crc64Kernel::kSlicing8;
  return chosen;
}

/// Incremental form: feed `crc64_init()` through chunks, finish with
/// `crc64_final()`.  crc64() below is the one-shot convenience.  `kernel`
/// must be supported by this CPU (see crc64_kernel_supported).
inline constexpr std::uint64_t crc64_init() { return ~std::uint64_t{0}; }

std::uint64_t crc64_update(std::uint64_t state, const void* data, std::size_t size,
                           Crc64Kernel kernel = crc64_default_kernel());

inline constexpr std::uint64_t crc64_final(std::uint64_t state) {
  return ~state;
}

inline std::uint64_t crc64(std::string_view bytes) {
  return crc64_final(crc64_update(crc64_init(), bytes.data(), bytes.size()));
}

}  // namespace skc
