#include "skc/hash/kwise_hash.h"

#include <algorithm>
#include <cmath>

#include "skc/common/check.h"

namespace skc {

VectorFold::VectorFold(Rng& rng) {
  // theta uniform in [2, p); salt uniform in [0, p).
  theta_ = 2 + rng.next_below(f61::kP - 2);
  salt_ = rng.next_below(f61::kP);
}

KWiseHash::KWiseHash(int independence, Rng& rng) : fold_(rng) {
  SKC_CHECK(independence >= 2);
  coeffs_.resize(static_cast<std::size_t>(independence));
  for (auto& c : coeffs_) c = rng.next_below(f61::kP);
  // A zero leading coefficient only lowers the polynomial degree, which is
  // harmless for independence, so no rejection is needed.
}

namespace {

// The tile loops, built once per lane kernel: `kStep` is the kernel's fold
// or Horner step, applied to one tile of lanes at a time.
template <auto kStep, typename Key, typename Load>
void fold_tiles(const Key* keys, std::size_t len, std::size_t n,
                std::uint64_t theta, std::uint64_t salt, std::uint64_t* out,
                Load load) {
  for (std::size_t base = 0; base < n; base += f61::kBatchTile) {
    const std::size_t tn = std::min(f61::kBatchTile, n - base);
    std::uint64_t acc[f61::kBatchTile] = {0};
    std::uint64_t v[f61::kBatchTile];
    for (std::size_t j = 0; j < len; ++j) {
      for (std::size_t b = 0; b < tn; ++b) {
        v[b] = load(keys[(base + b) * len + j]);
      }
      kStep(acc, v, theta, tn);
    }
    for (std::size_t b = 0; b < tn; ++b) out[base + b] = f61::add(acc[b], salt);
  }
}

template <auto kStep>
void eval_tiles(const std::vector<std::uint64_t>& coeffs, std::uint64_t* xs,
                std::size_t n) {
  for (std::size_t base = 0; base < n; base += f61::kBatchTile) {
    const std::size_t tn = std::min(f61::kBatchTile, n - base);
    std::uint64_t acc[f61::kBatchTile];
    // First Horner step from acc = 0 is just the leading coefficient.
    for (std::size_t b = 0; b < tn; ++b) acc[b] = coeffs[0];
    for (std::size_t ci = 1; ci < coeffs.size(); ++ci) {
      kStep(acc, xs + base, coeffs[ci], tn);
    }
    for (std::size_t b = 0; b < tn; ++b) xs[base + b] = acc[b];
  }
}

#if defined(__x86_64__)
// The AVX2 builds: `flatten` inlines the loop and its step here, under the
// avx2 target, so the step's intrinsics compile with no ISA flag set for
// the whole build.
template <typename Key, typename Load>
__attribute__((target("avx2"), flatten)) void fold_tiles_avx2(
    const Key* keys, std::size_t len, std::size_t n, std::uint64_t theta,
    std::uint64_t salt, std::uint64_t* out, Load load) {
  fold_tiles<f61::fold_step_avx2>(keys, len, n, theta, salt, out, load);
}

__attribute__((target("avx2"), flatten)) void eval_tiles_avx2(
    const std::vector<std::uint64_t>& coeffs, std::uint64_t* xs, std::size_t n) {
  eval_tiles<f61::horner_step_avx2>(coeffs, xs, n);
}
#endif

// The one body of the two fold flavors: `load` maps one raw key entry to
// its canonical field element (the per-overload offset lives there), and
// the kernel is picked once per call.
template <typename Key, typename Load>
void fold_batch_impl(const Key* keys, std::size_t len, std::size_t n,
                     std::uint64_t theta, std::uint64_t salt, std::uint64_t* out,
                     Load load, f61::Kernel kernel) {
#if defined(__x86_64__)
  if (kernel == f61::Kernel::kAvx2) {
    fold_tiles_avx2(keys, len, n, theta, salt, out, load);
    return;
  }
#endif
  (void)kernel;
  fold_tiles<f61::fold_step>(keys, len, n, theta, salt, out, load);
}

}  // namespace

void VectorFold::fold_batch(const Coord* keys, std::size_t len, std::size_t n,
                            std::uint64_t* out, f61::Kernel kernel) const {
  fold_batch_impl(keys, len, n, theta_, salt_, out, [](Coord c) {
    return f61::reduce(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(c) + (std::int64_t{1} << 31)));
  }, kernel);
}

void VectorFold::fold_cells_batch(const std::int32_t* keys, std::size_t len,
                                  std::size_t n, std::uint64_t* out,
                                  f61::Kernel kernel) const {
  fold_batch_impl(keys, len, n, theta_, salt_, out, [](std::int32_t c) {
    return f61::reduce(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(c) + (std::int64_t{1} << 62)));
  }, kernel);
}

void KWiseHash::eval_batch(std::uint64_t* xs, std::size_t n,
                           f61::Kernel kernel) const {
  if (coeffs_.empty()) {
    for (std::size_t i = 0; i < n; ++i) xs[i] = 0;
    return;
  }
#if defined(__x86_64__)
  if (kernel == f61::Kernel::kAvx2) {
    eval_tiles_avx2(coeffs_, xs, n);
    return;
  }
#endif
  (void)kernel;
  eval_tiles<f61::horner_step>(coeffs_, xs, n);
}

SamplingRate SamplingRate::from_probability(double p) {
  SKC_CHECK_MSG(p > 0.0 && p <= 1.0, "sampling probability must be in (0, 1]");
  double m = std::round(1.0 / p);
  if (m < 1.0) m = 1.0;
  // Cap at 2^60 so the field threshold stays meaningful.
  if (m > 9.2e18) m = 9.2e18;
  return SamplingRate{static_cast<std::uint64_t>(m)};
}

}  // namespace skc
