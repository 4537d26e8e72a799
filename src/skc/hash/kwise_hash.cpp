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

// Shared tile driver for the three fold flavors: `load` maps one raw key
// entry to its canonical field element (the per-overload offset lives
// there), everything else is the SoA fold loop.
template <typename Key, typename Load>
void fold_batch_impl(const Key* keys, std::size_t len, std::size_t n,
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
      f61::fold_step(acc, v, theta, tn);
    }
    for (std::size_t b = 0; b < tn; ++b) out[base + b] = f61::add(acc[b], salt);
  }
}

}  // namespace

void VectorFold::fold_batch(const Coord* keys, std::size_t len, std::size_t n,
                            std::uint64_t* out) const {
  fold_batch_impl(keys, len, n, theta_, salt_, out, [](Coord c) {
    return f61::reduce(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(c) + (std::int64_t{1} << 31)));
  });
}

void VectorFold::fold_cells_batch(const std::int32_t* keys, std::size_t len,
                                  std::size_t n, std::uint64_t* out) const {
  fold_batch_impl(keys, len, n, theta_, salt_, out, [](std::int32_t c) {
    return f61::reduce(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(c) + (std::int64_t{1} << 62)));
  });
}

void KWiseHash::eval_batch(std::uint64_t* xs, std::size_t n) const {
  if (coeffs_.empty()) {
    for (std::size_t i = 0; i < n; ++i) xs[i] = 0;
    return;
  }
  for (std::size_t base = 0; base < n; base += f61::kBatchTile) {
    const std::size_t tn = std::min(f61::kBatchTile, n - base);
    std::uint64_t acc[f61::kBatchTile];
    // First Horner step from acc = 0 is just the leading coefficient.
    for (std::size_t b = 0; b < tn; ++b) acc[b] = coeffs_[0];
    for (std::size_t ci = 1; ci < coeffs_.size(); ++ci) {
      f61::horner_step(acc, xs + base, coeffs_[ci], tn);
    }
    for (std::size_t b = 0; b < tn; ++b) xs[base + b] = acc[b];
  }
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
