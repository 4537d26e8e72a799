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
// peak net count crosses the watermark, at which point the map is dropped
// and the cell is tombstoned (reported incomplete).
//
// Memory is therefore bounded by the light-cell mass (small for any viable
// guess o) plus one tombstone per evicted cell; a global live-point cap
// kills the samples of hopeless guesses outright.  Caveat shared with every
// eviction scheme: an adversarial insert+delete churn concentrated on one
// light cell can evict it spuriously (the guess then FAILs and a coarser o
// is used).  The exact flag disables eviction entirely (pure linear
// semantics; memory proportional to data), which is what the equality tests
// and the distributed protocol use.
//
// Rate classes (DESIGN.md §12).  One structure holds the samples of one grid
// level for every o-guess.  Guess g keeps an event iff the level's coreset
// hash h is below its keep bound P / m_g, and the bounds are non-increasing
// in g, so the guesses' sampled sets nest.  The distinct bounds
// B_0 > B_1 > ... are the level's rate classes; an event's class is the
// largest j with h < B_j, and the event belongs to the views of classes
// 0..j.  A guess reads the view of its own class (rate_class()), and every
// read of view j — cell, summed_cell, summed_dead, dead, events — returns
// what a separate store fed only the events of classes >= j would return.
// A point's class is a function of its coordinates (its hash), so each
// point is stored once, in its class.  Eviction and death are per view and
// not monotone in the class (a low class can tombstone a cell where a
// higher one does not, and then hold fewer live points), so each class has
// its own death flag and each (cell, class) its own net, peak and
// tombstone.  A point is kept while some live view of a class at or below
// its own holds its cell untombstoned.  Guesses [0, lo()) are pruned; the
// classes no live guess reads are released by trim().
//
// Layout: flat arrays with no per-cell or per-point heap node, so merge,
// save, load and destruction cost array passes rather than allocator
// traffic.  Cells are append-only records (index row, the highest class
// that touched the cell, and the offset of its run of per-class view
// records, one for each live class up to that highest one) found through an
// open-addressing slot table (slot_table.h).  Points are records keyed by
// their coordinates in a second slot table with backward-shift erase,
// chained per (cell,
// class) by an intrusive circular list, so a read of view j walks the points
// of classes >= j only, and recycled through a free list.  Events arrive
// through one path, update_batch, with the cell index rows and coreset
// hashes the builder computed once per level.  cell() reports a cell's
// points in coordinate-lexicographic order, so what a query sees does not
// depend on the insert or merge history.
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
#include "skc/sketch/slot_table.h"

namespace skc {

struct PointStoreConfig {
  /// Evict a cell once its net point count has ever exceeded this (sketch
  /// mode).  The *peak* net count is used, not gross updates, so
  /// insert/delete churn does not inflate it; only deletions that briefly
  /// coexist with the survivors do.
  std::int64_t watermark = 128;
  /// Kill a class's samples once its view holds more live points than this.
  std::int64_t max_live_points = 1 << 17;
  bool exact = false;  ///< no eviction, no death
};

class CellPointStore {
 public:
  /// `keep_below[g]` is guess g's keep bound on the level's coreset hash
  /// (SamplingRate::keep_below); it must be non-increasing in g.  Equal
  /// (grid, level, config, keep_below) => mergeable.
  CellPointStore(const HierarchicalGrid& grid, int level, const PointStoreConfig& config,
                 std::vector<std::uint64_t> keep_below);

  int level() const { return level_; }
  int guesses() const { return static_cast<int>(class_.size()); }
  /// The distinct keep bounds, largest first.
  int classes() const { return static_cast<int>(bounds_.size()); }
  /// Guess g's rate class: the rank of its bound among the distinct bounds.
  int rate_class(int guess) const { return class_[static_cast<std::size_t>(guess)]; }
  /// First live guess: guesses [0, lo()) are pruned.
  int lo() const { return lo_; }
  /// First live class: classes [0, first_class()) are released.
  int first_class() const { return first_; }

  /// The class of an event whose coreset hash is `h`: the largest j with
  /// h < bound j, or -1 if no class keeps it.  A scan from the top bound:
  /// each class keeps a fraction of the one below, so for a uniform hash
  /// it stops after a step or two, where a binary search takes log(classes)
  /// hard-to-predict steps.
  int kept_class(std::uint64_t h) const {
    int k = -1;
    while (k + 1 < classes() && h < bounds_[static_cast<std::size_t>(k + 1)]) ++k;
    return k;
  }

  /// The one ingest path: `points` holds n points row-major (n * dim
  /// coords), `cell_idx` their level-`level()` cell index rows (same
  /// layout), `h` their coreset hashes at this level, `deltas` +1 (insert)
  /// or -1 (delete), checked: load() relies on it to bound counts.  An
  /// event reaches the live views of classes first_class()..kept_class(h)
  /// and is skipped when none is live.  Events apply in order, so the state
  /// (eviction history included) does not depend on how a stream is cut
  /// into batches.  A dead view drops the events after its death
  /// uncounted: events(j) counts the events applied while view j was alive.
  void update_batch(const Coord* points, const std::int32_t* cell_idx,
                    const std::uint64_t* h, const std::int64_t* deltas, std::size_t n);

  /// View j's death flag; released classes (below first_class()) read dead.
  bool dead(int cls) const {
    return cls < first_ || state_[static_cast<std::size_t>(cls)].dead;
  }
  std::int64_t events(int cls) const { return state_[static_cast<std::size_t>(cls)].events; }
  /// Distinct points view j holds in untombstoned cells.
  std::int64_t live_points(int cls) const {
    return state_[static_cast<std::size_t>(cls)].live;
  }

  struct CellPoints {
    PointSet points;            ///< coordinate-lexicographic, multiplicity-expanded
    std::int64_t net_count = 0;
    bool complete = false;      ///< false iff the cell was tombstoned
  };

  /// View `cls`'s points of one cell (cell.level must equal level()).
  /// nullopt when the view never saw the cell or is dead.  The one-part
  /// case of summed_cell.
  std::optional<CellPoints> cell(int cls, const CellKey& key) const;

  /// Reads of the sum of `parts` (identically constructed stores) in place:
  /// what view `cls` of a store that merged them in order into an empty
  /// store would report, without building it.  summed_cell is the union of
  /// the parts' records of the cell in the view (nets add; counts of equal
  /// coordinates add), and is incomplete if any part tombstoned it or, in
  /// sketch mode, if the parts' peaks sum past the watermark (merge's
  /// re-check).  summed_dead is true if any part's view is dead, or if
  /// merge's cap check, run after each part, would fire on some prefix of
  /// the parts (death is permanent); that prefix pass runs only when the
  /// parts' live points sum past the cap.
  static std::optional<CellPoints> summed_cell(
      std::span<const CellPointStore* const> parts, int cls, const CellKey& key);
  static bool summed_dead(std::span<const CellPointStore* const> parts, int cls);

  /// Every cell of view `cls` with a nonzero net count (tombstoned ones have
  /// complete == false and empty points).
  std::vector<std::pair<CellKey, CellPoints>> all_cells(int cls) const;

  /// Adds `other` (same construction): both sides are trimmed to the larger
  /// lo, then every live view of the result is the per-view sum — events
  /// add, death and tombstones carry over, peaks add and are re-checked
  /// against the watermark, counts of equal points add, and the cap is
  /// checked once at the end.  Into an empty store it copies the arrays.
  void merge(const CellPointStore& other);

  /// Prunes guesses [lo(), new_lo): the classes no live guess reads any
  /// more are released, with the points and view records only they held.
  void trim(int new_lo);

  /// Capacity bytes of the arrays.
  std::size_t memory_bytes() const;
  /// The bytes a store holding only view `cls` would need: its cells and
  /// points with their rows, one view record per cell and two slots per
  /// record (the tables stay at most half full); 0 for a dead view.
  std::size_t view_bytes(int cls) const;

  /// Checkpointing (the store record of STRM6 builder blobs, unchanged since
  /// STRM5): the live class count, per live class its death flag, events
  /// and live points, then every cell with its index row and, per class
  /// from the first live one not dead up to the cell's highest, its net,
  /// peak, tombstone and the points of that class.  Released classes are
  /// not written: load() reads a blob written by a store of the same
  /// construction whose lo() was `lo`, and takes that lo().  load() fails closed on a record the store
  /// could never have written: a live class count other than the
  /// construction's past `lo`, a cell row or point record of the wrong
  /// length, a cell with no view record or more than the live classes, a
  /// count <= 0, counts a view holds
  /// that sum past its events() (each unit of multiplicity is one applied
  /// insert), an events() outside [0, kMaxEvents], a view net past
  /// ±events() or peak outside [0, events()], a duplicate cell or point, a
  /// point outside its cell, points no live view holds (their cell
  /// tombstoned in every live view at or below their class), a dead class
  /// with a view record other than zero or with live points, a cell no live
  /// view holds, or a class's live-point total that disagrees with the
  /// records.  A failed load leaves the store empty.
  void save(serial::Writer& out) const;
  bool load(serial::Reader& in, int lo);

 private:
  static constexpr std::uint32_t kNone = slot_table::kNone;

  struct ClassState {
    std::int64_t events = 0;
    std::int64_t live = 0;
    bool dead = false;
  };
  struct CellRecord {
    std::uint32_t views = kNone;  ///< offset of its base-class view record
    std::uint32_t top = 0;        ///< highest class with a view record
  };
  /// One (cell, class) pair: the view's net and peak, and its tombstone,
  /// kept as the sign of the stored peak (a peak is never negative).  A
  /// dead view's record stays zero.  The head of the cell's list of points
  /// of exactly this class sits at the same index of heads_.
  struct ViewRecord {
    std::int64_t net = 0;
    std::int64_t peak_bits = 0;  ///< the peak, or ~peak once tombstoned

    std::int64_t peak() const { return peak_bits < 0 ? ~peak_bits : peak_bits; }
    bool tombstoned() const { return peak_bits < 0; }
    void set(std::int64_t net_in, std::int64_t peak, bool tombstoned) {
      net = net_in;
      peak_bits = tombstoned ? ~peak : peak;
    }
    void add(std::int64_t delta) {
      net += delta;
      if (net > peak()) peak_bits = tombstoned() ? ~net : net;
    }
    void tombstone() {
      if (peak_bits >= 0) peak_bits = ~peak_bits;
    }
  };
  /// A point's cell is the cell of its coordinates and its slot is found
  /// from their hash, so the record keeps neither; its class sits at the
  /// same index of point_cls_.
  struct PointRecord {
    std::int64_t count = 0;
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;  ///< also the free-list link
  };
  using Slot = slot_table::Slot;

  const std::int32_t* cell_row(std::uint32_t c) const {
    return cell_rows_.data() + std::size_t{c} * dim_;
  }
  const Coord* point_coords(std::uint32_t id) const {
    return point_coords_.data() + std::size_t{id} * dim_;
  }
  std::uint32_t view_index(std::uint32_t c, int cls) const {
    return cells_[c].views + static_cast<std::uint32_t>(cls - base_);
  }
  ViewRecord& view(std::uint32_t c, int cls) { return views_[view_index(c, cls)]; }
  const ViewRecord& view(std::uint32_t c, int cls) const { return views_[view_index(c, cls)]; }
  /// The first point of class `cls` in cell c (kNone if none).
  std::uint32_t& head(std::uint32_t c, int cls) { return heads_[view_index(c, cls)]; }
  std::uint32_t head(std::uint32_t c, int cls) const { return heads_[view_index(c, cls)]; }
  bool alive(int cls) const { return !state_[static_cast<std::size_t>(cls)].dead; }
  /// The first live class at or above `from`, or classes() if none.
  int first_alive(int from) const;
  /// Whether some live view of a class in [base, cls] holds cell c
  /// untombstoned: a point of class `cls` there is still needed.
  bool held(std::uint32_t c, int cls) const;

  /// Calls f(id) for each point record of cell c in class `cls`, in list
  /// order.
  template <typename F>
  void for_each_point(std::uint32_t c, int cls, F&& f) const {
    const std::uint32_t first = head(c, cls);
    if (first == kNone) return;
    std::uint32_t id = first;
    do {
      f(id);
      id = points_[id].next;
    } while (id != first);
  }

  /// The cell of `idx`, created if missing; its view records reach class
  /// `top` at least.
  std::uint32_t find_or_add_cell(const std::int32_t* idx, int top);
  /// A run of `n` zeroed view records, from the free blocks of that size or
  /// appended.
  std::uint32_t alloc_views(std::uint32_t n);
  /// A new point record of class `cls` in cell c at the empty slot `slot`,
  /// appended to its (cell, class) list; live counts are the caller's.
  void new_point(std::uint32_t c, int cls, const Coord* p, std::uint32_t hash,
                 std::int64_t count, std::size_t slot);
  /// count[p] += count in cell c (class `cls` for a new record); a missing
  /// point is created only when `create`, and a point whose count reaches
  /// zero is erased.  Adds the resulting change of live points (+1 created,
  /// -1 erased) to the live views that hold it.
  void add_count(std::uint32_t c, const Coord* p, std::uint32_t hash, int cls,
                 std::int64_t count, bool create);
  /// Adds `by` to the live count of every live view in [base, cls] that
  /// holds cell c untombstoned.
  void count_live(std::uint32_t c, int cls, std::int64_t by);
  /// Erases the point at `slot`, or the point record `id`, of cell c.
  void erase_point(std::uint32_t c, std::size_t slot);
  void erase_point_id(std::uint32_t c, std::uint32_t id);
  /// Tombstones view `cls` of cell c if it passed the watermark (sketch mode).
  void maybe_evict(std::uint32_t c, int cls);
  void evict(std::uint32_t c, int cls);
  /// Kills every live view of the classes [from, to] over the live-point
  /// cap; true if one died.
  bool check_cap(int from, int to);
  /// Rebuilds the arrays over the classes [new_first, classes()), view
  /// records from the first live one: dead views' records zeroed, cells and
  /// points no live view holds dropped, order kept.  Everything is freed
  /// once no class is live.
  void compact(int new_first);
  /// An empty store of the same construction.
  CellPointStore blank() const;
  /// Drops every record and frees the arrays (failed load, no live class).
  void clear();

  const HierarchicalGrid* grid_;
  int level_;
  std::size_t dim_;
  PointStoreConfig config_;
  /// The distinct keep bounds, largest first: bound j of class j.
  std::vector<std::uint64_t> bounds_;
  /// Guess -> its class, non-decreasing in the guess.
  std::vector<int> class_;
  int lo_ = 0;
  int first_ = 0;
  /// The first live class at or above first_: view records and points of
  /// the classes below it are gone, so a dead m = 1 class (the one that
  /// keeps every event) costs no record per cell.  Dead classes above it
  /// keep zero view records.
  int base_ = 0;
  std::vector<ClassState> state_;  ///< per class
  std::vector<CellRecord> cells_;
  std::vector<std::int32_t> cell_rows_;  ///< dim_ index entries per cell
  std::vector<Slot> cell_slots_;
  std::vector<ViewRecord> views_;
  std::vector<std::uint32_t> heads_;  ///< per view record; a free run's link
  /// Per run length n, the first free run of n view records (kNone if none).
  std::vector<std::uint32_t> free_views_;
  std::vector<PointRecord> points_;
  std::vector<std::uint32_t> point_cls_;  ///< per point record
  std::vector<Coord> point_coords_;      ///< dim_ coordinates per record
  std::vector<Slot> point_slots_;
  std::uint32_t free_points_ = kNone;
  std::size_t npoints_ = 0;  ///< point records in use
};

}  // namespace skc
