// Shared randomness derivation for the three construction paths.
//
// Offline, streaming, and distributed builds must agree bit-for-bit on the
// grid shift and on every hash function when given the same CoresetParams
// seed — that is what makes "stream(insert+delete) == offline on the
// surviving set" an exact equality test, and what lets distributed machines
// sample consistently without communication beyond the seed.  All derivation
// goes through this header.
#pragma once

#include <cstdint>
#include <vector>

#include "skc/common/random.h"
#include "skc/coreset/params.h"
#include "skc/grid/hierarchical_grid.h"
#include "skc/hash/kwise_hash.h"

namespace skc {

/// The three per-level sampler families of Algorithm 4 step 2.
enum class SamplerPurpose : std::uint64_t {
  kCounting = 0xC0047u,   ///< h_i  — heavy-cell count estimates (Algorithm 3)
  kPartMass = 0x9A55u,    ///< h'_i — part-size estimates
  kCoreset = 0xC0DE5E7u,  ///< hat-h_i — the coreset samples (Algorithm 2 line 10)
};

/// The grid every path uses for a given seed.
inline HierarchicalGrid make_grid(int dim, int log_delta, std::uint64_t seed) {
  Rng rng(seed);
  return HierarchicalGrid(dim, log_delta, rng);
}

/// One lambda-wise hash per grid level 0..L for the given purpose.
inline std::vector<KWiseHash> make_level_hashes(const CoresetParams& params,
                                                int log_delta, SamplerPurpose purpose) {
  Rng rng(Rng(params.seed).fork(static_cast<std::uint64_t>(purpose)).next());
  std::vector<KWiseHash> hashes;
  hashes.reserve(static_cast<std::size_t>(log_delta + 1));
  for (int i = 0; i <= log_delta; ++i) {
    hashes.emplace_back(params.hash_independence, rng);
  }
  return hashes;
}

/// Deterministic sketch seed for (purpose, level); equal across machines and
/// across the streaming/distributed paths.  Every o-guess of a level shares
/// it (one CellCountMin per level).  The 0x9e37... term is what a guess
/// index of 0 contributed when the seed was per guess; keeping it keeps the
/// DistinctCells seeds and the distributed round-1 hashes unchanged.
inline std::uint64_t sketch_seed(const CoresetParams& params, SamplerPurpose purpose,
                                 int level) {
  std::uint64_t s = params.seed ^ (static_cast<std::uint64_t>(purpose) << 32);
  s ^= std::uint64_t{0x9e3779b97f4a7c15};
  s ^= std::uint64_t{0xbf58476d1ce4e5b9} * static_cast<std::uint64_t>(level + 2);
  std::uint64_t sm = s;
  return splitmix64(sm);
}

/// keep(p) test at sampling rate 1/m against a level hash.
inline bool kwise_keep(const KWiseHash& hash, std::span<const Coord> p,
                       const SamplingRate& rate) {
  if (rate.always()) return true;
  return hash(p) < f61::kP / rate.m;
}

}  // namespace skc
