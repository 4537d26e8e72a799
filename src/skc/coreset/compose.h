// Merge-reduce composition over the weighted construction.
//
// Algorithm 2 takes integral-weighted input too (offline.h: a weighted
// point is semantically a stack of copies), which enables the classic
// merge-reduce tree of [HPM04/BFL16]: buffer a block of the stream, build
// its coreset, and whenever two summaries of the same tier exist, merge
// (concatenate) and re-coreset into the next tier.
//
// This is the INSERTION-ONLY alternative to the paper's linear sketch and a
// useful baseline: each re-coreset compounds the (eps, eta) error, so a
// stream of B blocks pays O(log B) compounding — exactly the degradation
// Theorem 4.5's one-shot sketch avoids.  Benchmark E11 measures it.
#pragma once

#include <optional>
#include <vector>

#include "skc/coreset/coreset.h"
#include "skc/coreset/offline.h"
#include "skc/coreset/params.h"
#include "skc/geometry/weighted_set.h"

namespace skc {

/// Merge-reduce composer: feed insertion blocks, get a coreset of the union.
class CoresetComposer {
 public:
  struct Options {
    int log_delta = 14;
    /// Points buffered before a tier-0 coreset is built.
    PointIndex block_size = 4096;
    /// Re-coreset when this many summaries pile up in one tier (2 = classic
    /// binary merge-reduce).
    int tier_fanout = 2;
  };

  CoresetComposer(int dim, const CoresetParams& params, const Options& options);

  /// Appends one point (insertions only — that is the point of E11).
  void insert(std::span<const Coord> p);
  void insert_all(const PointSet& points);

  /// Number of re-coreset operations performed so far (the compounding depth
  /// driver).
  int reductions() const { return reductions_; }
  std::int64_t points_seen() const { return points_seen_; }

  /// Merges every tier and the tail buffer into the final coreset.
  /// Returns nullopt if any construction step failed.
  std::optional<Coreset> finalize();

  /// Peak bytes across buffered blocks and tier summaries.
  std::size_t peak_memory_bytes() const { return peak_bytes_; }

 private:
  void flush_buffer();
  void reduce_tiers();
  OfflineBuildResult reduce(const WeightedPointSet& input);
  void note_memory();

  int dim_;
  CoresetParams params_;
  Options options_;
  PointSet buffer_;
  std::vector<std::vector<WeightedPointSet>> tiers_;
  int reductions_ = 0;
  std::int64_t points_seen_ = 0;
  std::size_t peak_bytes_ = 0;
  bool failed_ = false;
};

}  // namespace skc
