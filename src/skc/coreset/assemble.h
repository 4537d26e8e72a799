// Shared back end of the streaming (Algorithm 4 steps 4-6) and distributed
// (Theorem 4.7) constructions.  Its input is the heavy-cell walk of one
// o-guess (walk_heavy_cells, which has already applied Algorithm 1's FAIL
// rule) with each crucial cell's recovered samples attached; it applies
// Algorithm 2's part rules and emits the coreset:
//   * the per-level part-mass bound (line 6);
//   * the lost-mass budget for crucial cells whose samples could not be
//     recovered;
//   * the gamma * T_i(o) part filter (line 9) on the samples.
// Every rule reads tau from the part in hand; nothing is re-marked.
//
// The offline path reaches the same outcome through exact counts
// (offline.cpp); tests pin the three paths against each other.
#pragma once

#include "skc/coreset/coreset.h"
#include "skc/coreset/params.h"
#include "skc/grid/hierarchical_grid.h"
#include "skc/partition/heavy_cells.h"

namespace skc {

/// Runs the part rules and sample selection for one guess o whose walk
/// passed.  `total_count` is the exact net number of stream points
/// (insertions minus deletions), which every path tracks exactly.
BuildAttempt assemble_coreset(const HierarchicalGrid& grid, const CoresetParams& params,
                              double o, const HeavyWalk& walk, double total_count);

}  // namespace skc
