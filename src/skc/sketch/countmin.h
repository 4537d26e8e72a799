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
// One structure serves every o-guess of one grid level (DESIGN.md §12).
// Guess g keeps an event iff the level's counting hash h is below its keep
// bound; the bounds are non-increasing in g (psi falls as o grows), so the
// guesses that keep an event form a prefix [0, hi).  Guesses with equal
// bounds count the same substream, so the structure holds one counter
// column per distinct bound, not per guess: column c counts the events
// whose h is below the c-th largest bound, and guess g reads the column of
// its own bound.  All columns share one fold and `depth` row hashes, and
// the counters are laid out column-minor, [row][slot][column - first live
// column], so an event adds its delta into `depth` contiguous runs of the
// live columns whose bound is above its h.  Guesses [0, lo) are pruned;
// a column is freed once every guess reading it is.
//
// The exact flag swaps the counters for a cell -> per-column count map (the
// infinite-precision mode used by the equality tests).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "skc/common/serial.h"
#include "skc/common/types.h"
#include "skc/grid/hierarchical_grid.h"
#include "skc/hash/kwise_hash.h"

namespace skc {

struct CellCountMinConfig {
  /// Most rows a structure may have (summed_query keeps a stack array of
  /// this many row sums).
  static constexpr int kMaxDepth = 8;
  int width = 2048;  ///< counters per row
  int depth = 3;     ///< rows (estimate = min over rows), at most kMaxDepth
  bool exact = false;
};

class CellCountMin {
 public:
  /// `keep_below[g]` is guess g's keep bound on the level's counting hash
  /// (SamplingRate::keep_below); it must be non-increasing in g.  Equal
  /// (grid, level, config, seed, keep_below) => mergeable.
  CellCountMin(const HierarchicalGrid& grid, int level,
               const CellCountMinConfig& config, std::uint64_t seed,
               std::vector<std::uint64_t> keep_below);

  int level() const { return level_; }
  int guesses() const { return static_cast<int>(keep_below_.size()); }
  /// First live guess: guesses [0, lo()) are pruned.
  int lo() const { return lo_; }

  /// hi: the number of guesses that keep an event whose counting hash is
  /// `h` — they are exactly the guesses [0, hi).
  int kept_prefix(std::uint64_t h) const {
    return static_cast<int>(
        std::partition_point(keep_below_.begin(), keep_below_.end(),
                             [h](std::uint64_t bound) { return h < bound; }) -
        keep_below_.begin());
  }

  /// The ingest entry point: `cell_idx` holds n level-`level()` cell rows of
  /// grid().dim() entries (the layout cell_index_of_batch emits), deltas[i]
  /// the signed multiplicity of row i and hi[i] its kept prefix.  Adds
  /// deltas[i] to guesses [lo(), hi[i]) of row i's cell; rows with
  /// hi[i] <= lo() change nothing.
  void update(const std::int32_t* cell_idx, const std::int64_t* deltas,
              const int* hi, std::size_t n);

  /// Guess g's estimated count of `cell` (>= its true count in expectation;
  /// exact in exact mode); 0 for a pruned guess.  `cell.level` must equal
  /// level().  The one-part case of summed_query.
  double query(int guess, const CellKey& cell) const;

  /// query() on the sum of `parts` (identically constructed structures),
  /// read in place: 0 if any part pruned the guess (merge trims to the
  /// longer prefix), else the minimum over rows of the parts' counters of the
  /// guess's column in the cell's slot summed, clamped at 0 — what merging
  /// the parts would answer.  The slots are the same in every part,
  /// so the cell is folded and hashed once.
  static double summed_query(std::span<const CellCountMin* const> parts, int guess,
                             const CellKey& cell);

  /// Prunes guesses [lo(), new_lo): the columns no live guess reads any
  /// more are freed (the block is reallocated at the smaller size).
  void trim(int new_lo);

  /// Adds `other` (same construction) into this: both sides are trimmed to
  /// the larger lo, then the live columns add.  Into a structure nothing was
  /// added to yet (the first shard of an export fold) it copies instead.
  void merge(const CellCountMin& other);

  std::size_t memory_bytes() const;
  /// One live guess's share: one counter column plus the shared hashes
  /// (the footprint a per-guess structure would have).
  std::size_t memory_bytes_per_guess() const;

  /// Checkpointing: dumps/restores lo (a guess index) and the live columns'
  /// counters (exact rows in cell-index order, so equal contents give equal
  /// bytes; load() accepts any order); the hashes and the column map are
  /// re-derived from the constructor arguments, so load() must be called on
  /// a structure built with identical arguments.
  /// The counter block is written as runs: a u64 run count, then per run a
  /// u32 zero-run length, a u32 literal-run length and that many nonzero
  /// int64 counters.  Runs are maximal (only the first may start without
  /// zeros, only the last may end without literals), so equal counters
  /// give equal bytes.  load() decodes into the block the live columns
  /// need and allocates nothing the input sizes.
  /// load() returns false on truncation, on any layout that disagrees with
  /// the construction (a run that covers nothing, runs past the block or
  /// short of it, a run split in two, a zero literal), or on a counter past
  /// ±kMaxEvents, and leaves every guess pruned then.
  void save(serial::Writer& out) const;
  bool load(serial::Reader& in);

 private:
  /// The distinct keep bounds: one counter column each.
  int columns() const { return column_end(guesses()); }
  /// The columns read by guesses [0, hi): [0, column_end(hi)).
  int column_end(int hi) const {
    return hi == 0 ? 0 : column_[static_cast<std::size_t>(hi - 1)] + 1;
  }
  /// The first column guesses [g, guesses()) read: g's own, or columns()
  /// past the last guess.
  int first_column(int g) const {
    return g == guesses() ? columns() : column_[static_cast<std::size_t>(g)];
  }
  /// The live columns: [first_column(lo()), columns()).
  std::size_t live() const { return static_cast<std::size_t>(columns() - first_column(lo_)); }
  /// depth * width: the (row, slot) pairs, each holding live() counters.
  std::size_t slots() const {
    return static_cast<std::size_t>(config_.depth) * static_cast<std::size_t>(config_.width);
  }
  std::size_t hash_bytes() const { return row_hash_.size() * 8 * sizeof(std::uint64_t); }
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
  std::vector<std::uint64_t> keep_below_;
  /// Guess -> its column: the rank of its bound among the distinct bounds,
  /// largest first, so it is non-decreasing in the guess.
  std::vector<int> column_;
  int lo_ = 0;
  VectorFold fold_;
  std::vector<KWiseHash> row_hash_;
  // Sketch mode: depth * width * live() counters,
  // [row][slot][column - first_column(lo)]; at most 2^32 - 1 of them, so a
  // run length fits its u32.
  std::vector<std::int64_t> counters_;
  // Exact mode: cell -> live() column counts; a row whose counts are all
  // zero is dropped.
  std::unordered_map<CellKey, std::vector<std::int64_t>, CellKeyHash> exact_;
  // No update, merge or load has reached the counters yet: all are zero.
  bool empty_ = true;
};

}  // namespace skc
