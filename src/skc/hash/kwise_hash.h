// Lambda-wise independent hash functions (Algorithm 2 line 10, Algorithm 3,
// Algorithm 4 step 2 of the paper).
//
// A degree-(lambda-1) polynomial with uniform coefficients over GF(2^61-1)
// evaluated at an injective encoding of the input is a lambda-wise
// independent family.  Points in [Delta]^d generally do not fit in one field
// element, so inputs are first folded with a random-base polynomial
// fingerprint x(p) = sum_i coord_i * theta^(i+1) mod p.  The fold is not
// injective in the worst case, but two fixed points collide with probability
// <= d/p over theta (~ 2^-58 for any realistic d), so the composed family is
// lambda-wise independent up to that additive error.  This is the standard
// implementation compromise for hashing vectors and is documented in
// DESIGN.md.
//
// The Bernoulli view used everywhere in the coreset construction
// ("keep p with probability psi, lambda-wise independently") compares the
// hash value against floor(psi * p); to keep coreset weights integral the
// caller rounds psi to 1/m first (see SamplingRate).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "skc/common/random.h"
#include "skc/common/types.h"
#include "skc/hash/field61.h"
#include "skc/hash/field61_batch.h"

namespace skc {

/// Random-base polynomial fold of a coordinate vector into one field element.
class VectorFold {
 public:
  VectorFold() = default;
  explicit VectorFold(Rng& rng);

  std::uint64_t operator()(std::span<const Coord> p) const {
    std::uint64_t acc = 0;
    for (Coord c : p) {
      // Map the signed coordinate into the field before folding.
      const std::uint64_t v =
          f61::reduce(static_cast<std::uint64_t>(static_cast<std::int64_t>(c) + (std::int64_t{1} << 31)));
      acc = f61::add(f61::mul(acc, theta_), v);
    }
    return f61::add(acc, salt_);
  }

  std::uint64_t operator()(std::span<const std::int64_t> p) const {
    std::uint64_t acc = 0;
    for (std::int64_t c : p) {
      const std::uint64_t v =
          f61::reduce(static_cast<std::uint64_t>(c + (std::int64_t{1} << 62)));
      acc = f61::add(f61::mul(acc, theta_), v);
    }
    return f61::add(acc, salt_);
  }

  /// Folds `n` keys of `len` coordinates stored back-to-back (row-major) into
  /// `out[0..n)`.  Bit-identical to n calls of the Coord overload; the
  /// coordinate loop is hoisted outside the lane loop (SoA order) so the
  /// field multiplies of independent keys pipeline, on the lane `kernel`
  /// (which the CPU must support; see f61::kernel_supported).
  void fold_batch(const Coord* keys, std::size_t len, std::size_t n,
                  std::uint64_t* out,
                  f61::Kernel kernel = f61::default_kernel()) const;

  /// Same, for keys already widened to int64 semantics (matches the int64
  /// overload's 2^62 offset) but stored as int32 — the cell-index layout the
  /// sketch batch paths carry.
  void fold_cells_batch(const std::int32_t* keys, std::size_t len, std::size_t n,
                        std::uint64_t* out,
                        f61::Kernel kernel = f61::default_kernel()) const;

 private:
  std::uint64_t theta_ = 3;
  std::uint64_t salt_ = 0;
};

/// Degree-(lambda-1) polynomial hash: lambda-wise independent values in
/// [0, 2^61-1).
class KWiseHash {
 public:
  KWiseHash() = default;

  /// `independence` is lambda (>= 2).  Coefficients are drawn from `rng`.
  KWiseHash(int independence, Rng& rng);

  int independence() const { return static_cast<int>(coeffs_.size()); }

  /// Hash of a field element (Horner evaluation; O(lambda)).
  std::uint64_t eval(std::uint64_t x) const {
    std::uint64_t acc = 0;
    for (std::uint64_t c : coeffs_) acc = f61::add(f61::mul(acc, x), c);
    return acc;
  }

  /// Horner evaluation over a batch of field elements, in place: xs[i] is
  /// replaced by eval(xs[i]).  Bit-identical to n scalar eval() calls; the
  /// coefficient loop runs outside the lane loop (SoA order).
  void eval_batch(std::uint64_t* xs, std::size_t n,
                  f61::Kernel kernel = f61::default_kernel()) const;

  /// Hash of a coordinate vector via the fold.
  std::uint64_t operator()(std::span<const Coord> p) const { return eval(fold_(p)); }

  /// Batch hash of `n` keys of `len` coordinates stored row-major:
  /// out[i] = eval(fold(keys[i*len .. i*len+len))).  Bit-identical to n
  /// scalar operator() calls.
  void hash_batch(const Coord* keys, std::size_t len, std::size_t n,
                  std::uint64_t* out,
                  f61::Kernel kernel = f61::default_kernel()) const {
    fold_.fold_batch(keys, len, n, out, kernel);
    eval_batch(out, n, kernel);
  }

  const VectorFold& fold() const { return fold_; }

 private:
  VectorFold fold_;
  std::vector<std::uint64_t> coeffs_;
};

/// A sampling probability rounded to 1/m so that inverse-probability weights
/// are integers (DESIGN.md section 6).
struct SamplingRate {
  std::uint64_t m = 1;  // keep probability = 1/m

  static SamplingRate from_probability(double p);

  double probability() const { return 1.0 / static_cast<double>(m); }
  double weight() const { return static_cast<double>(m); }
  bool always() const { return m == 1; }
  /// Keep bound on a field hash value h: keep iff h < keep_below().
  std::uint64_t keep_below() const {
    return always() ? std::numeric_limits<std::uint64_t>::max() : f61::kP / m;
  }
};

/// Lambda-wise independent Bernoulli sampler over points: keeps p iff
/// hash(p) < p_field / m.
class KWiseSampler {
 public:
  KWiseSampler() = default;
  KWiseSampler(int independence, SamplingRate rate, Rng& rng)
      : hash_(independence, rng), rate_(rate),
        threshold_(rate.m == 0 ? 0 : f61::kP / rate.m) {}

  bool keep(std::span<const Coord> p) const {
    return rate_.always() || hash_(p) < threshold_;
  }

  const SamplingRate& rate() const { return rate_; }

 private:
  KWiseHash hash_;
  SamplingRate rate_;
  std::uint64_t threshold_ = f61::kP;
};

}  // namespace skc
