// Per-cell point storage with provably-heavy eviction — the practical
// carrier of the coreset samples in the streaming path.
//
// The hat-h_i substream (rate phi_i = min(1, S / T_i)) delivers ~S sampled
// points per crucial cell but floods the structure with points of heavy
// (center) cells wherever phi_i clamps to 1.  The key observation: a cell
// whose SAMPLED count exceeds the watermark w >> S has true count
// > w / phi_i >> T_i with overwhelming probability — i.e. it is heavy, and
// heavy cells never need point recovery (only crucial cells feed the
// coreset).  So each cell keeps an exact (point -> count) map until its
// gross update count crosses the watermark, at which point the map is
// dropped and the cell is tombstoned (reported incomplete).
//
// Memory is therefore bounded by the light-cell mass (small for any viable
// guess o) plus one tombstone per evicted cell; a global live-point cap
// kills structures of hopeless guesses outright.  Caveat shared with every
// eviction scheme: tombstoning is keyed to gross updates, so an adversarial
// insert+delete churn concentrated on one light cell can evict it spuriously
// (the guess then FAILs and a coarser o is used).  The exact flag disables
// eviction entirely (pure linear semantics; memory proportional to data),
// which is what the equality tests and the distributed protocol use.
//
// Layout (DESIGN.md §12): flat arrays with no per-cell or per-point heap
// node, so merge, save, load and destruction cost array passes rather than
// allocator traffic.  Cells are append-only records (index row, net, peak,
// tombstone, head of the cell's point list) found through an open-addressing
// slot table; points are records keyed by their coordinates (a point has
// exactly one cell per level) in a second slot table with backward-shift
// erase, chained per cell by an intrusive circular list and recycled
// through a free list.  Events arrive through one path, update_batch, with
// the cell index rows the builder computed once per level.  cell() reports
// a cell's points in coordinate-lexicographic order, so what a query sees
// does not depend on the insert or merge history.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "skc/common/serial.h"
#include "skc/common/types.h"
#include "skc/geometry/point_set.h"
#include "skc/grid/hierarchical_grid.h"

namespace skc {

struct PointStoreConfig {
  /// Evict a cell once its net point count has ever exceeded this (sketch
  /// mode).  The *peak* net count is used, not gross updates, so
  /// insert/delete churn does not inflate it; only deletions that briefly
  /// coexist with the survivors do.
  std::int64_t watermark = 128;
  /// Kill the whole structure once live stored points exceed this.
  std::int64_t max_live_points = 1 << 17;
  bool exact = false;  ///< no eviction, no death
};

class CellPointStore {
 public:
  CellPointStore(const HierarchicalGrid& grid, int level,
                 const PointStoreConfig& config);

  int level() const { return level_; }

  /// The one ingest path, over precomputed cell indices: `points` holds n
  /// points row-major (n * dim coords), `cell_idx` their level-`level()`
  /// cell index rows (same layout), `deltas` +1 (insert) or -1 (delete),
  /// checked: load() relies on it to bound counts.  Events apply in order,
  /// so the state (eviction history included) does not depend on how a
  /// stream is cut into batches.  Once the structure dies, the rest of the
  /// batch is dropped uncounted: events() counts the events applied while
  /// alive.
  void update_batch(const Coord* points, const std::int32_t* cell_idx,
                    const std::int64_t* deltas, std::size_t n);

  bool dead() const { return dead_; }
  std::int64_t events() const { return events_; }

  struct CellPoints {
    PointSet points;            ///< coordinate-lexicographic, multiplicity-expanded
    std::int64_t net_count = 0;
    bool complete = false;      ///< false iff the cell was tombstoned
  };

  /// Points of one cell (cell.level must equal level()).  nullopt when the
  /// cell was never touched.  The one-part case of summed_cell.
  std::optional<CellPoints> cell(const CellKey& key) const;

  /// Reads of the sum of `parts` (identically configured stores of one
  /// level) in place: what merging them in order into an empty store would
  /// report, without building it.  summed_cell is the union of the parts'
  /// records of the cell (nets add; counts of equal coordinates add), and is
  /// incomplete if any part tombstoned it or, in sketch mode, if the parts'
  /// peaks sum past the watermark (merge's re-check).  summed_dead is true
  /// if any part is dead, or if merge's cap check, run after each part,
  /// would fire on some prefix of the parts (death is permanent); that
  /// prefix pass runs only when the parts' live points sum past the cap.
  static std::optional<CellPoints> summed_cell(
      std::span<const CellPointStore* const> parts, const CellKey& key);
  static bool summed_dead(std::span<const CellPointStore* const> parts);

  /// Every touched cell with a nonzero net count (tombstoned ones have
  /// complete == false and empty points).
  std::vector<std::pair<CellKey, CellPoints>> all_cells() const;

  void merge(const CellPointStore& other);

  /// Frees everything and marks the structure dead (mid-stream pruning).
  void release();

  /// Capacity bytes of the arrays (0 once dead or released).
  std::size_t memory_bytes() const;

  /// Checkpointing (same contract as CellCountMin::save/load; the record
  /// layout of STRM2 to STRM4 builder blobs).  load() fails closed on a
  /// record the store could never have written: a cell row or point record
  /// of the wrong length, a count <= 0, counts that sum past events() (each
  /// unit of multiplicity is one applied insert), an events() outside
  /// [0, kMaxEvents], a cell net past ±events() or peak outside
  /// [0, events()], a duplicate cell or point, a point outside its cell,
  /// points on a tombstoned cell, a dead store with contents, or a
  /// live-point total that disagrees with the records.  A failed load
  /// leaves the store empty.
  void save(serial::Writer& out) const;
  bool load(serial::Reader& in);

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct CellRecord {
    std::int64_t net = 0;
    std::int64_t net_peak = 0;
    std::uint32_t head = kNone;  ///< first record of the cell's point list
    bool tombstoned = false;
  };
  struct PointRecord {
    std::int64_t count = 0;
    std::uint32_t cell = 0;
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;  ///< also the free-list link
    std::uint32_t hash = 0;      ///< of the coordinates
  };
  /// One open-addressing slot: a record id and its key's hash (whose high
  /// bits pick the home slot, so rehash and erase never reread keys).
  struct Slot {
    std::uint32_t id = kNone;
    std::uint32_t hash = 0;
  };

  const std::int32_t* cell_row(std::uint32_t c) const {
    return cell_rows_.data() + std::size_t{c} * dim_;
  }
  const Coord* point_coords(std::uint32_t id) const {
    return point_coords_.data() + std::size_t{id} * dim_;
  }

  /// Calls f(id) for each point record of cell c, in list order.
  template <typename F>
  void for_each_point(std::uint32_t c, F&& f) const {
    const std::uint32_t head = cells_[c].head;
    if (head == kNone) return;
    std::uint32_t id = head;
    do {
      f(id);
      id = points_[id].next;
    } while (id != head);
  }

  /// Grows a slot table so that `count + 1` entries keep it at most half full.
  static void grow_slots(std::vector<Slot>& slots, std::size_t count);
  static void erase_slot(std::vector<Slot>& slots, std::size_t hole);

  /// The slot of `slots` whose record's key (dim_ entries of `keys`) equals
  /// `key`, or the empty slot that ends its probe run.
  std::size_t probe(const std::vector<Slot>& slots, const std::vector<std::int32_t>& keys,
                    const std::int32_t* key, std::uint32_t hash) const;
  std::uint32_t find_or_add_cell(const std::int32_t* idx);
  /// count[p] += count in cell c; a missing point is created only when
  /// `create`, and a point whose count reaches zero is erased.
  void add_count(std::uint32_t c, const Coord* p, std::uint32_t hash,
                 std::int64_t count, bool create);
  void erase_point(std::size_t slot);
  void maybe_evict(std::uint32_t c);
  void evict(std::uint32_t c);
  void check_cap();
  /// Drops every record and frees the arrays (death, release, failed load).
  void clear();

  const HierarchicalGrid* grid_;
  int level_;
  std::size_t dim_;
  PointStoreConfig config_;
  std::vector<CellRecord> cells_;
  std::vector<std::int32_t> cell_rows_;  ///< dim_ index entries per cell
  std::vector<Slot> cell_slots_;
  std::vector<PointRecord> points_;
  std::vector<Coord> point_coords_;      ///< dim_ coordinates per record
  std::vector<Slot> point_slots_;
  std::uint32_t free_points_ = kNone;
  std::int64_t live_points_ = 0;
  bool dead_ = false;
  std::int64_t events_ = 0;
};

}  // namespace skc
