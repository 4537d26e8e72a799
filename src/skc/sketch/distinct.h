// Distinct non-empty cell counting over a dynamic stream, and the grid-based
// OPT lower bound built on it.
//
// For each level i, any k-clustering pays at least (g_i / d)^r for every
// point in a cell farther than g_i / d from all centers, and only O(k) cells
// are that close (Lemma 3.2/3.3).  Hence
//     OPT >= (m_i - c k) * (g_i / d)^r      for m_i = #non-empty cells at i,
// which the streaming path uses to prune the guess range for o at finalize
// time (DESIGN.md §3).
//
// m_i is tracked with an adaptive-threshold F0 structure that tolerates
// deletions: cells whose hash falls under the current threshold are kept
// with their net count (a cell dropping to zero is erased); when more cells
// than the budget are kept the threshold halves and off-threshold cells are
// evicted.  The estimate is |kept| / threshold_fraction.  The kept cells are
// flat records (index row, count, hash) behind an open-addressing slot
// table (slot_table.h), so a kept cell costs no node and no vector of its
// own.  Events arrive through one path, update_batch, as the level's cell
// index rows the builder computed once for every structure of the level.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "skc/common/serial.h"
#include "skc/common/types.h"
#include "skc/grid/hierarchical_grid.h"
#include "skc/hash/kwise_hash.h"
#include "skc/sketch/slot_table.h"

namespace skc {

class DistinctCells {
 public:
  DistinctCells(const HierarchicalGrid& grid, int level, std::size_t budget,
                std::uint64_t seed);

  /// The one ingest path, over precomputed level-`level` cell indices
  /// (`cell_idx` holds n rows of grid dim entries).  The cell hash is
  /// evaluated over the whole batch at once (SoA Horner); events then apply
  /// in order, so the state does not depend on how a stream is cut into
  /// batches.  Deleting a cell that is not kept changes nothing.
  void update_batch(const std::int32_t* cell_idx, const std::int64_t* deltas,
                    std::size_t n);

  /// Estimated number of distinct non-empty cells.
  double estimate() const;

  /// Merges another estimator built with identical (grid, level, budget,
  /// seed) — the seed is verified.  The result equals a single estimator fed
  /// both substreams whenever neither side ever shrank below a cell that was
  /// later deleted (always true for insertion-only substreams); otherwise the
  /// estimate degrades gracefully, matching update_batch()'s deletion
  /// semantics.
  void merge(const DistinctCells& other);

  /// Capacity bytes of the kept-cell arrays and the slot table.
  std::size_t memory_bytes() const;

  /// Checkpointing (hash re-derived from the constructor seed; entries in
  /// cell-index order, so equal contents give equal bytes).  load() accepts
  /// entries in any order and fails closed on a state no history writes: a
  /// shift outside [0, 61], an index row that is not grid dim long, a count
  /// <= 0 or past kMaxEvents, a duplicate cell or more entries than the
  /// budget.  A refused load leaves the estimator empty.
  void save(serial::Writer& out) const;
  bool load(serial::Reader& in);

 private:
  std::uint64_t threshold() const { return f61::kP >> shift_; }
  std::size_t kept() const { return counts_.size(); }
  const std::int32_t* row(std::size_t id) const { return rows_.data() + id * dim_; }
  /// count[cell] += delta for a cell whose hash is `hash`: a missing cell is
  /// added only for delta > 0, and a cell whose count drops to zero or
  /// below is erased.
  void add(const std::int32_t* cell, std::uint64_t hash, std::int64_t delta);
  /// Erases the cell at `slot`; the last record moves into its place.
  void erase_at(std::size_t slot);
  /// Sets the shift and drops every kept cell at or above the new threshold.
  void raise_shift(int shift);
  void shrink_to_budget();
  /// Drops every kept cell and frees the arrays.
  void clear();

  int level_;
  std::size_t dim_;
  std::size_t budget_;
  std::uint64_t seed_ = 0;
  int shift_ = 0;  ///< kept iff hash < 2^61 / 2^shift
  KWiseHash hash_;
  // One record per kept cell: its index row (dim_ words), its net count and
  // its hash, found by row through slots_.
  std::vector<std::int32_t> rows_;
  std::vector<std::int64_t> counts_;
  std::vector<std::uint64_t> hashes_;
  slot_table::Slots slots_;
};

/// OPT^{(r)} lower bound from per-level distinct-cell estimates
/// (`estimates[i]` = estimated m_i for level i).
double opt_lower_bound_from_cells(const HierarchicalGrid& grid, int k, LrOrder r,
                                  std::span<const double> estimates);

}  // namespace skc
