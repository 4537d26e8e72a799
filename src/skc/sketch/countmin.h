// CountMin sketch over grid cells — the practical replacement for storing
// every non-empty sampled cell verbatim (DESIGN.md §3).
//
// Heavy-cell marking (Algorithm 1) never needs the full cell inventory: the
// heavy set is discovered top-down, querying only the 2^d children of
// already-heavy cells (heaviness requires a heavy ancestry), and part masses
// are sums over the crucial children of heavy cells.  Point queries with a
// small additive error are exactly what CountMin provides, in fixed memory,
// linearly (insertions and deletions), with estimates that only ever
// over-count — a light cell can be marked heavy by collision noise (caught
// by the heavy-cell FAIL bound) but a heavy cell is never missed.
//
// The exact flag swaps the counters for a plain cell->count map (the
// infinite-precision mode used by the equality tests).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <unordered_map>
#include <vector>

#include "skc/common/types.h"
#include "skc/grid/hierarchical_grid.h"
#include "skc/hash/kwise_hash.h"

namespace skc {

struct CellCountMinConfig {
  int width = 2048;  ///< counters per row
  int depth = 3;     ///< rows (estimate = min over rows)
  bool exact = false;
};

class CellCountMin {
 public:
  /// Equal (grid, level, config, seed) => mergeable.
  CellCountMin(const HierarchicalGrid& grid, int level,
               const CellCountMinConfig& config, std::uint64_t seed);

  int level() const { return level_; }

  /// Routes one point event into its level cell: count[cell] += delta.
  void update(std::span<const Coord> p, std::int64_t delta);

  /// Batch form over precomputed level-`level()` cell indices: `cell_idx`
  /// holds n rows of grid().dim() entries (the layout cell_index_of_batch
  /// emits), deltas[i] the signed multiplicity of row i.  Equivalent to n
  /// pointwise updates in order — bit-identical in exact and sketch mode
  /// (same field ops, reorganized).
  void update_cells(const std::int32_t* cell_idx, const std::int64_t* deltas,
                    std::size_t n);

  /// Estimated count of `cell` (>= true count in expectation; exact in
  /// exact mode).  `cell.level` must equal level().
  double query(const CellKey& cell) const;

  std::int64_t events() const { return events_; }

  void merge(const CellCountMin& other);

  /// Frees the counters (used when the owning guess is pruned mid-stream);
  /// further updates and queries become no-ops returning 0.
  void release();
  bool released() const { return released_; }

  std::size_t memory_bytes() const;

  /// Checkpointing: dumps/restores counters and counters only; the hashes
  /// are re-derived from the constructor seed, so load() must be called on
  /// a structure built with identical (grid, level, config, seed).
  void save(std::ostream& out) const;
  bool load(std::istream& in);

 private:
  std::size_t slot(int row, std::uint64_t fold) const {
    return static_cast<std::size_t>(row) * static_cast<std::size_t>(config_.width) +
           static_cast<std::size_t>(
               row_hash_[static_cast<std::size_t>(row)].eval(fold) %
               static_cast<std::uint64_t>(config_.width));
  }

  const HierarchicalGrid* grid_;
  int level_;
  CellCountMinConfig config_;
  std::uint64_t seed_;
  VectorFold fold_;
  std::vector<KWiseHash> row_hash_;
  std::vector<std::int64_t> counters_;  // depth * width (sketch mode)
  std::unordered_map<CellKey, std::int64_t, CellKeyHash> exact_;
  bool released_ = false;
  std::int64_t events_ = 0;
};

}  // namespace skc
