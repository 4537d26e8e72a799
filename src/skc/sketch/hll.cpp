#include "skc/sketch/hll.h"

#include <bit>
#include <cmath>

#include "skc/common/check.h"

namespace skc {

namespace {

/// Bias-correction constant alpha_m for m registers (Flajolet et al. §4).
double alpha(std::size_t m) {
  switch (m) {
    case 16: return 0.673;
    case 32: return 0.697;
    case 64: return 0.709;
    default: return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

}  // namespace

HyperLogLog::HyperLogLog(int precision) : precision_(precision) {
  SKC_CHECK_MSG(precision >= 4 && precision <= 18,
                "HyperLogLog precision must lie in [4, 18]");
  registers_.assign(std::size_t{1} << precision, 0);
}

void HyperLogLog::add_hash(std::uint64_t hash) {
  // Top `precision_` bits pick the register; the rank is the position of
  // the first set bit in the remaining suffix (1-based), capped so the
  // 8-bit register can never overflow.
  const std::size_t idx = static_cast<std::size_t>(hash >> (64 - precision_));
  const std::uint64_t suffix = hash << precision_;
  const int rank =
      suffix == 0 ? 64 - precision_ + 1 : std::countl_zero(suffix) + 1;
  const auto r = static_cast<std::uint8_t>(rank);
  if (r > registers_[idx]) registers_[idx] = r;
}

double HyperLogLog::estimate() const {
  const auto m = static_cast<double>(registers_.size());
  double inv_sum = 0.0;
  std::size_t zeros = 0;
  for (const std::uint8_t r : registers_) {
    inv_sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  const double raw = alpha(registers_.size()) * m * m / inv_sum;
  // Small-range correction: linear counting on the empty registers is more
  // accurate below 2.5 m (the regime where raw HLL is biased high).
  if (raw <= 2.5 * m && zeros > 0) {
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

bool HyperLogLog::merge(const HyperLogLog& other) {
  if (other.precision_ != precision_) return false;
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    if (other.registers_[i] > registers_[i]) registers_[i] = other.registers_[i];
  }
  return true;
}

void HyperLogLog::reset() {
  registers_.assign(registers_.size(), 0);
}

std::size_t HyperLogLog::memory_bytes() const {
  return sizeof(*this) + registers_.capacity();
}

}  // namespace skc
