// Randomly shifted hierarchical grids G_{-1}, G_0, ..., G_L (paper §3.1).
//
// Level i >= 0 tiles R^d with axis-aligned cells of side g_i = Delta / 2^i
// anchored at a shift vector v drawn uniformly from [0, Delta)^d; level L has
// unit cells (one grid point each).  Level -1 is a single virtual root cell
// containing the whole domain — the paper asserts a unique all-containing
// G_{-1} cell exists (Fact A.1); anchoring the root virtually makes that
// true unconditionally (see DESIGN.md §3).
//
// Points have integer coordinates, so an integer shift is distributionally
// equivalent to a real one for every event the analysis uses (cell
// membership only depends on floor((p - v)/g_i), and g_i is integral).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "skc/common/check.h"
#include "skc/common/random.h"
#include "skc/common/types.h"

namespace skc {

/// Identifies a cell: grid level plus the per-dimension cell index
/// t_j = floor((p_j - v_j) / g_i).  Level -1 is the root (empty index).
struct CellKey {
  int level = -1;
  std::vector<std::int32_t> index;

  bool is_root() const { return level < 0; }
  bool operator==(const CellKey&) const = default;
};

struct CellKeyHash {
  std::size_t operator()(const CellKey& c) const {
    std::uint64_t h = std::uint64_t{0x9e3779b97f4a7c15} ^
                      static_cast<std::uint64_t>(c.level + 2);
    for (std::int32_t v : c.index) {
      h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)) +
           std::uint64_t{0x9e3779b9} + (h << 6) + (h >> 2);
      h *= std::uint64_t{0xff51afd7ed558ccd};
    }
    return static_cast<std::size_t>(h ^ (h >> 33));
  }
};

/// The entries of a CellKey-keyed map in cell-index order.  save() writes
/// map entries in this order, so a blob depends only on the map's contents,
/// not on its insertion history or the standard library's bucket layout.
template <typename Map>
std::vector<const typename Map::value_type*> in_cell_order(const Map& map) {
  std::vector<const typename Map::value_type*> out;
  out.reserve(map.size());
  for (const auto& entry : map) out.push_back(&entry);
  std::sort(out.begin(), out.end(), [](const auto* a, const auto* b) {
    return a->first.index < b->first.index;
  });
  return out;
}

class HierarchicalGrid {
 public:
  /// Grid over [1, Delta]^d with Delta = 2^log_delta and a shift drawn from
  /// `rng` (uniform integer in [0, Delta) per dimension).
  HierarchicalGrid(int dim, int log_delta, Rng& rng);

  /// Deterministic-shift constructor (tests, distributed agreement).
  HierarchicalGrid(int dim, int log_delta, std::vector<Coord> shift);

  int dim() const { return dim_; }
  /// L: the number of refinement levels; valid cell levels are -1..L.
  int log_delta() const { return log_delta_; }
  Coord delta() const { return Coord{1} << log_delta_; }
  std::span<const Coord> shift() const { return shift_; }

  /// Side length g_i of level-i cells; level -1 reports 2*Delta to match the
  /// paper's T_{-1}(o) threshold even though the root is virtual.
  std::int64_t side(int level) const {
    SKC_DCHECK(level >= -1 && level <= log_delta_);
    return std::int64_t{1} << (log_delta_ - level);
  }

  /// sqrt(d) * g_i: the diameter bound of a level-i cell used by T_i(o).
  double cell_diameter(int level) const;

  /// The cell of p at `level` (level == -1 returns the root).
  CellKey cell_of(std::span<const Coord> p, int level) const;

  /// Writes the level-`level` cell index of p into `out` (size dim) without
  /// allocating; hot path for sketch updates.
  void cell_index_of(std::span<const Coord> p, int level,
                     std::span<std::int32_t> out) const;

  /// Batch form: `points` holds n points back-to-back (row-major, n * dim
  /// coordinates); writes the n cell index rows into `out` (n * dim
  /// entries).  One pass per drained batch gives every structure of the
  /// level its cell index rows.
  void cell_index_of_batch(const Coord* points, std::size_t n, int level,
                           std::int32_t* out) const;

  /// Parent cell (one level coarser).  Parent of a level-0 cell is the root.
  CellKey parent(const CellKey& cell) const;

  /// True if `p` lies inside `cell`.
  bool contains(const CellKey& cell, std::span<const Coord> p) const;

  /// The largest dimension children() enumerates.  The builders whose
  /// finalize walks heavy cells (StreamingCoresetBuilder,
  /// build_distributed_coreset) and the tenant registry and cluster
  /// coordinator that make them refuse a larger one up front, so no query
  /// reaches the check in children().
  static constexpr int kMaxWalkDim = 20;

  /// The 2^d children (one level finer) of a non-leaf cell.  For the root
  /// this returns the candidate level-0 cells overlapping [1, Delta]^d
  /// (index coordinates in {-1, 0}) — also 2^d cells.  Enumeration is how
  /// the streaming path discovers heavy candidates top-down, so dim must be
  /// small enough for 2^d to be practical (checked: dim <= kMaxWalkDim).
  std::vector<CellKey> children(const CellKey& cell) const;

 private:
  int dim_;
  int log_delta_;
  std::vector<Coord> shift_;
};

}  // namespace skc
