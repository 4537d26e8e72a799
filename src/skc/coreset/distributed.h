// Distributed coreset construction — Lemma 4.6 + Theorem 4.7.
//
// s machines each hold a subset of Q; communication is machine<->coordinator
// only, and every logical message is routed through Network for exact byte
// accounting.  The protocol is a constant number of rounds:
//
//   Round 0 (o-range estimation): machines report their local point counts
//     and coordinate sums; the coordinator broadcasts the global centroid;
//     machines report their local cost-to-centroid.  The sum is OPT_1 >= OPT
//     so [ub / 2^range_span, 2 ub] (aligned to the global guess grid)
//     contains the paper's [OPT/10, OPT] acceptance window for any workload
//     with OPT >= OPT_1 / 2^range_span; the full theoretical range is the
//     fallback when every pruned guess FAILs.
//   Round 1 (counts): per level, each machine ships a CountMin of its local
//     h_i-substream sampled at the FINEST rate in the range (rates are
//     nested, so one fixed-size summary serves every guess at better-than-
//     required resolution).  The coordinator merges them — CountMin is
//     linear.
//   Round 2+ (samples): for each guess, ascending, the coordinator runs the
//     streaming path's top-down heavy-cell walk (walk_heavy_cells) on the
//     merged counts; a guess it FAILs costs no round.  Otherwise the
//     coordinator broadcasts the walk's crucial cells, and machines return
//     their hat-h_i-sampled points inside those cells (crucial cells are
//     light, so this is coreset-sized), each filed under its cell.  The
//     first guess passing every check wins.
//
// Total communication: s * (O(d) + L * countmin + |crucial cells| * d +
// coreset-sized samples) bytes — independent of n, linear in s
// (Theorem 4.7's shape, measured by benchmark E6).
#pragma once

#include <vector>

#include "skc/coreset/coreset.h"
#include "skc/coreset/params.h"
#include "skc/dist/network.h"
#include "skc/geometry/point_set.h"

namespace skc {

struct DistributedOptions {
  int log_delta = 14;
  /// o-range control; 0 = derive via the round-0 centroid upper bound.
  double o_min = 0.0;
  double o_max = 0.0;
  /// Width of the derived o-range below the centroid upper bound, in powers
  /// of two (range = [ub / 2^range_span, 2 ub]).
  int range_span = 16;
  /// Counting-substream resolution (matches StreamingOptions).
  double counting_samples = 64.0;
  /// CountMin geometry for the per-level machine summaries.
  int countmin_width = 512;
  int countmin_depth = 3;
  /// Cap on sample points a machine ships per round (guards hostile guesses).
  std::int64_t machine_sample_cap = 1 << 16;
  /// Exact reference mode: plain-map counts (bit-identical to offline).
  bool exact = false;
};

struct DistributedResult {
  bool ok = false;
  Coreset coreset;
  BuildDiagnostics diagnostics;
  Network::Stats communication;
  std::vector<std::uint64_t> per_machine_bytes;
  int rounds = 0;
};

/// Runs the full protocol over `machines` (machine i holds machines[i]).
DistributedResult build_distributed_coreset(const std::vector<PointSet>& machines,
                                            const CoresetParams& params,
                                            const DistributedOptions& options);

}  // namespace skc
