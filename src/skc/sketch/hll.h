// HyperLogLog distinct-count estimator — the tenant-admission signal.
//
// The multi-tenant registry (src/skc/tenant/) keeps one of these per stream
// id, always on, and uses the running distinct-point estimate to size that
// tenant's sketch configuration lazily: tenants start on the smallest rung
// of the guess ladder and are promoted when the estimate crosses a
// threshold (DESIGN.md §13).  This is a different job from sketch/distinct.h
// — DistinctCells feeds the OPT lower bound and must honor deletions, while
// admission wants distinct-points-EVER-SEEN (a tenant that inserted and
// deleted a million points still needs million-scale structures), which is
// exactly the insertion-only F0 regime HLL serves in a few KiB.
//
// Standard Flajolet–Fuss–Gandouet–Meunier construction: m = 2^precision
// byte registers, register j = max leading-zero rank of the hashed suffix,
// harmonic-mean estimate with the alpha_m bias constant and the
// linear-counting small-range correction.  Registers combine by element-wise
// max, so merge() is exact (same union semantics as the paper's linear
// sketches, though HLL itself is max-linear, not additive).  Relative error
// ~= 1.04 / sqrt(m): the default precision 12 gives ~1.6% at 4 KiB.
#pragma once

#include <cstdint>
#include <vector>

namespace skc {

class HyperLogLog {
 public:
  /// `precision` in [4, 18]: 2^precision one-byte registers.
  explicit HyperLogLog(int precision = 12);

  /// Folds one already-hashed item in.  Callers hash (e.g. via splitmix64
  /// over the coordinates); HLL consumes 64 uniform bits.
  void add_hash(std::uint64_t hash);

  /// Estimated number of distinct hashes ever added.
  double estimate() const;

  /// Element-wise register max; exact union of the two item sets.  The
  /// peer must share this precision (checked; merge is a no-op on
  /// mismatch and returns false).
  bool merge(const HyperLogLog& other);

  void reset();

  int precision() const { return precision_; }
  std::size_t memory_bytes() const;

 private:
  int precision_;
  std::vector<std::uint8_t> registers_;  ///< 2^precision entries
};

}  // namespace skc
