#include "skc/sketch/point_store.h"

#include <algorithm>
#include <functional>
#include <span>

#include "skc/common/check.h"
#include "skc/common/serial.h"

namespace skc {

namespace {

using slot_table::hash_row;
using slot_table::home_slot;

template <typename T>
void free_array(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

/// Makes room for `n` more entries, growing by half the capacity rather
/// than by std::vector's doubling: a builder holds one store per level,
/// and at 2x a store that has just crossed a power of two leaves half its
/// bytes unused.
template <typename T>
void reserve_more(std::vector<T>& v, std::size_t n) {
  if (v.size() + n <= v.capacity()) return;
  v.reserve(std::max<std::size_t>({4, v.size() + n, v.capacity() + v.capacity() / 2}));
}

}  // namespace

CellPointStore::CellPointStore(const HierarchicalGrid& grid, int level,
                               const PointStoreConfig& config,
                               std::vector<std::uint64_t> keep_below)
    : grid_(&grid),
      level_(level),
      dim_(static_cast<std::size_t>(grid.dim())),
      config_(config) {
  SKC_CHECK(level >= 0 && level <= grid.log_delta());
  SKC_CHECK(config.watermark >= 1);
  SKC_CHECK(!keep_below.empty());
  SKC_CHECK(std::is_sorted(keep_below.begin(), keep_below.end(), std::greater<>()));
  class_.reserve(keep_below.size());
  for (std::size_t g = 0; g < keep_below.size(); ++g) {
    if (g == 0 || keep_below[g] != keep_below[g - 1]) bounds_.push_back(keep_below[g]);
    class_.push_back(static_cast<int>(bounds_.size()) - 1);
  }
  state_.resize(bounds_.size());
}

int CellPointStore::first_alive(int from) const {
  while (from < classes() && !alive(from)) ++from;
  return from;
}

bool CellPointStore::held(std::uint32_t c, int cls) const {
  const ViewRecord* v = &view(c, base_);
  for (int j = base_; j <= cls; ++j, ++v) {
    if (alive(j) && !v->tombstoned()) return true;
  }
  return false;
}

std::uint32_t CellPointStore::alloc_views(std::uint32_t n) {
  if (n < free_views_.size() && free_views_[n] != kNone) {
    const std::uint32_t run = free_views_[n];
    free_views_[n] = heads_[run];
    std::fill_n(views_.begin() + run, n, ViewRecord{});
    std::fill_n(heads_.begin() + run, n, kNone);
    return run;
  }
  SKC_CHECK(views_.size() + n < kNone);
  const auto run = static_cast<std::uint32_t>(views_.size());
  reserve_more(views_, n);
  reserve_more(heads_, n);
  views_.resize(views_.size() + n);
  heads_.resize(heads_.size() + n, kNone);
  return run;
}

std::uint32_t CellPointStore::find_or_add_cell(const std::int32_t* idx, int top) {
  const std::uint32_t hash = hash_row(idx, dim_);
  slot_table::grow(cell_slots_, cells_.size());
  const std::size_t slot = slot_table::probe(cell_slots_, cell_rows_.data(), dim_, idx, hash);
  const auto need = static_cast<std::uint32_t>(top - base_ + 1);
  if (const std::uint32_t c = cell_slots_[slot].id; c != kNone) {
    if (static_cast<int>(cells_[c].top) < top) {
      // A higher class reached the cell: move its view records to a longer
      // run and put the old run on the free list of its length.
      const std::uint32_t had = cells_[c].top - static_cast<std::uint32_t>(base_) + 1;
      const std::uint32_t run = alloc_views(need);
      const std::uint32_t old = cells_[c].views;
      std::copy_n(views_.begin() + old, had, views_.begin() + run);
      std::copy_n(heads_.begin() + old, had, heads_.begin() + run);
      if (free_views_.size() <= had) free_views_.resize(had + 1, kNone);
      heads_[old] = free_views_[had];
      free_views_[had] = old;
      cells_[c].views = run;
      cells_[c].top = static_cast<std::uint32_t>(top);
    }
    return c;
  }
  SKC_CHECK(cells_.size() < kNone);
  const auto c = static_cast<std::uint32_t>(cells_.size());
  const std::uint32_t run = alloc_views(need);
  reserve_more(cells_, 1);
  reserve_more(cell_rows_, dim_);
  cells_.push_back(CellRecord{run, static_cast<std::uint32_t>(top)});
  cell_rows_.insert(cell_rows_.end(), idx, idx + dim_);
  cell_slots_[slot] = Slot{c, hash};
  return c;
}

void CellPointStore::new_point(std::uint32_t c, int cls, const Coord* p, std::uint32_t hash,
                               std::int64_t count, std::size_t slot) {
  std::uint32_t id = free_points_;
  if (id != kNone) {
    free_points_ = points_[id].next;
    std::copy(p, p + dim_, point_coords_.begin() + static_cast<std::ptrdiff_t>(id * dim_));
  } else {
    SKC_CHECK(points_.size() < kNone);
    id = static_cast<std::uint32_t>(points_.size());
    reserve_more(points_, 1);
    reserve_more(point_cls_, 1);
    reserve_more(point_coords_, dim_);
    points_.emplace_back();
    point_cls_.emplace_back();
    point_coords_.insert(point_coords_.end(), p, p + dim_);
  }
  PointRecord& rec = points_[id];
  rec.count = count;
  point_cls_[id] = static_cast<std::uint32_t>(cls);
  // Append at the tail of the (cell, class) circular list, so save() writes
  // the points in the order load() read them.
  std::uint32_t& first = head(c, cls);
  if (first == kNone) {
    rec.prev = rec.next = first = id;
  } else {
    const std::uint32_t tail = points_[first].prev;
    rec.prev = tail;
    rec.next = first;
    points_[tail].next = id;
    points_[first].prev = id;
  }
  point_slots_[slot] = Slot{id, hash};
  ++npoints_;
}

void CellPointStore::count_live(std::uint32_t c, int cls, std::int64_t by) {
  const ViewRecord* v = &view(c, base_);
  for (int j = base_; j <= cls; ++j, ++v) {
    if (alive(j) && !v->tombstoned()) state_[static_cast<std::size_t>(j)].live += by;
  }
}

void CellPointStore::add_count(std::uint32_t c, const Coord* p, std::uint32_t hash, int cls,
                               std::int64_t count, bool create) {
  slot_table::grow(point_slots_, npoints_);
  const std::size_t slot = slot_table::probe(point_slots_, point_coords_.data(), dim_, p, hash);
  if (const std::uint32_t found = point_slots_[slot].id; found != kNone) {
    PointRecord& rec = points_[found];
    rec.count += count;
    if (rec.count == 0) {
      count_live(c, static_cast<int>(point_cls_[found]), -1);
      erase_point(c, slot);
    }
    return;
  }
  // A deletion of an untracked point only happens in ill-formed streams; the
  // net count catches it downstream.
  if (!create) return;
  new_point(c, cls, p, hash, count, slot);
  count_live(c, cls, +1);
}

void CellPointStore::erase_point(std::uint32_t c, std::size_t slot) {
  const std::uint32_t id = point_slots_[slot].id;
  PointRecord& rec = points_[id];
  std::uint32_t& first = head(c, static_cast<int>(point_cls_[id]));
  if (rec.next == id) {
    first = kNone;
  } else {
    points_[rec.prev].next = rec.next;
    points_[rec.next].prev = rec.prev;
    if (first == id) first = rec.next;
  }
  rec.next = free_points_;
  free_points_ = id;
  slot_table::erase(point_slots_, slot);
  --npoints_;
}

void CellPointStore::erase_point_id(std::uint32_t c, std::uint32_t id) {
  erase_point(c, slot_table::find_id(point_slots_, id, hash_row(point_coords(id), dim_)));
}

void CellPointStore::maybe_evict(std::uint32_t c, int cls) {
  if (config_.exact) return;
  const ViewRecord& v = view(c, cls);
  if (!v.tombstoned() && v.peak() > config_.watermark) evict(c, cls);
}

void CellPointStore::evict(std::uint32_t c, int cls) {
  view(c, cls).tombstone();
  const int top = static_cast<int>(cells_[c].top);
  std::int64_t dropped = 0;
  for (int q = cls; q <= top; ++q) for_each_point(c, q, [&dropped](std::uint32_t) { ++dropped; });
  state_[static_cast<std::size_t>(cls)].live -= dropped;
  // Free the points of the classes no live view holds any more; a class
  // held by a view is held by every higher class's points too.
  for (int q = cls; q <= top && !held(c, q); ++q) {
    while (head(c, q) != kNone) erase_point_id(c, head(c, q));
  }
}

bool CellPointStore::check_cap(int from, int to) {
  if (config_.exact) return false;
  bool died = false;
  for (int j = from; j <= to; ++j) {
    ClassState& s = state_[static_cast<std::size_t>(j)];
    if (s.dead || s.live <= config_.max_live_points) continue;
    s.dead = true;
    s.live = 0;
    died = true;
  }
  return died;
}

CellPointStore CellPointStore::blank() const {
  std::vector<std::uint64_t> keep_below;
  keep_below.reserve(class_.size());
  for (const int c : class_) keep_below.push_back(bounds_[static_cast<std::size_t>(c)]);
  return CellPointStore(*grid_, level_, config_, std::move(keep_below));
}

void CellPointStore::compact(int new_first) {
  CellPointStore out = blank();
  out.lo_ = lo_;
  out.first_ = new_first;
  out.state_ = state_;
  out.base_ = out.first_alive(new_first);
  if (out.base_ < classes()) {
    // Size the arrays for what survives: a trim may keep a small part.
    std::size_t ncells = 0, nviews = 0, npoints = 0;
    for (std::uint32_t c = 0; c < cells_.size(); ++c) {
      const int top = static_cast<int>(cells_[c].top);
      if (top < out.base_) continue;
      ++ncells;
      nviews += static_cast<std::size_t>(top - out.base_ + 1);
      for (int q = out.base_; q <= top; ++q) {
        for_each_point(c, q, [&npoints](std::uint32_t) { ++npoints; });
      }
    }
    out.cells_.reserve(ncells);
    out.cell_rows_.reserve(ncells * dim_);
    out.views_.reserve(nviews);
    out.heads_.reserve(nviews);
    out.points_.reserve(npoints);
    out.point_cls_.reserve(npoints);
    out.point_coords_.reserve(npoints * dim_);
    for (std::uint32_t c = 0; c < cells_.size(); ++c) {
      const int top = static_cast<int>(cells_[c].top);
      if (top < out.base_) continue;
      const std::uint32_t nc = out.find_or_add_cell(cell_row(c), top);
      for (int j = out.base_; j <= top; ++j) {
        if (!alive(j)) continue;  // a dead view's record stays zero
        out.view(nc, j) = view(c, j);
      }
      for (int q = out.base_; q <= top; ++q) {
        if (!out.held(nc, q)) continue;
        for_each_point(c, q, [&](std::uint32_t id) {
          const Coord* p = point_coords(id);
          const std::uint32_t hash = hash_row(p, dim_);
          slot_table::grow(out.point_slots_, out.npoints_);
          const std::size_t slot =
              slot_table::probe(out.point_slots_, out.point_coords_.data(), dim_, p, hash);
          out.new_point(nc, q, p, hash, points_[id].count, slot);
        });
      }
    }
  }
  *this = std::move(out);
}

void CellPointStore::clear() {
  free_array(cells_);
  free_array(cell_rows_);
  free_array(cell_slots_);
  free_array(views_);
  free_array(heads_);
  free_array(free_views_);
  free_array(points_);
  free_array(point_cls_);
  free_array(point_coords_);
  free_array(point_slots_);
  free_points_ = kNone;
  npoints_ = 0;
}

void CellPointStore::update_batch(const Coord* points, const std::int32_t* cell_idx,
                                  const std::uint64_t* h, const std::int64_t* deltas,
                                  std::size_t n) {
  // The slot tables of a busy level outgrow the cache: fetch the home slots
  // of the event kAhead places on while this one is applied.
  constexpr std::size_t kAhead = 6;
  const auto prefetch = [&](std::size_t j) {
    if (j >= n || kept_class(h[j]) < base_ || cell_slots_.empty() || point_slots_.empty()) {
      return;
    }
    __builtin_prefetch(
        &cell_slots_[home_slot(hash_row(cell_idx + j * dim_, dim_), cell_slots_.size())]);
    __builtin_prefetch(
        &point_slots_[home_slot(hash_row(points + j * dim_, dim_), point_slots_.size())]);
  };
  for (std::size_t j = 0; j < kAhead; ++j) prefetch(j);
  for (std::size_t i = 0; i < n; ++i) {
    SKC_CHECK_MSG(deltas[i] == 1 || deltas[i] == -1,
                  "a point store event inserts or deletes one point");
    prefetch(i + kAhead);
    // The classes below base_ are released or dead: an event none above it
    // keeps reaches no live view.
    const int k = kept_class(h[i]);
    if (k < base_) continue;
    const std::int64_t d = deltas[i];
    const std::uint32_t c = find_or_add_cell(cell_idx + i * dim_, k);
    bool kept = false;
    ViewRecord* v = &view(c, base_);
    for (int j = base_; j <= k; ++j, ++v) {
      ClassState& s = state_[static_cast<std::size_t>(j)];
      if (s.dead) continue;
      ++s.events;
      v->add(d);
      kept = kept || !v->tombstoned();
    }
    if (kept) {
      const Coord* p = points + i * dim_;
      add_count(c, p, hash_row(p, dim_), k, d, d > 0);
    }
    if (config_.exact) continue;
    if (kept) {
      for (int j = base_; j <= k; ++j) {
        if (alive(j)) maybe_evict(c, j);
      }
    }
    if (check_cap(base_, k)) compact(first_);
  }
}

std::optional<CellPointStore::CellPoints> CellPointStore::cell(int cls,
                                                               const CellKey& key) const {
  const CellPointStore* self = this;
  return summed_cell({&self, 1}, cls, key);
}

std::optional<CellPointStore::CellPoints> CellPointStore::summed_cell(
    std::span<const CellPointStore* const> parts, int cls, const CellKey& key) {
  SKC_CHECK(!parts.empty());
  const CellPointStore& first = *parts.front();
  SKC_DCHECK(key.level == first.level_);
  SKC_DCHECK(cls >= 0 && cls < first.classes());
  if (key.index.size() != first.dim_) return std::nullopt;
  const std::uint32_t hash = hash_row(key.index.data(), first.dim_);
  CellPoints out;
  std::int64_t peak = 0;
  bool found = false, tombstoned = false;
  // Each part's point records of the cell in the view: coordinates and count.
  std::vector<std::pair<const Coord*, std::int64_t>> refs;
  for (const CellPointStore* part : parts) {
    if (part->dead(cls) || part->cell_slots_.empty()) continue;
    const std::uint32_t c =
        part->cell_slots_[slot_table::probe(part->cell_slots_, part->cell_rows_.data(),
                                             first.dim_, key.index.data(), hash)]
            .id;
    if (c == kNone) continue;
    const int top = static_cast<int>(part->cells_[c].top);
    if (top < cls) continue;  // the view never saw the cell
    found = true;
    const ViewRecord& rec = part->view(c, cls);
    out.net_count += rec.net;
    peak += rec.peak();
    tombstoned = tombstoned || rec.tombstoned();
    if (tombstoned) continue;
    // The view holds the points of its own class and every higher one.
    for (int q = cls; q <= top; ++q) {
      part->for_each_point(c, q, [&](std::uint32_t id) {
        refs.emplace_back(part->point_coords(id), part->points_[id].count);
      });
    }
  }
  if (!found) return std::nullopt;
  // merge adds the peaks and evicts a cell whose sum passes the watermark.
  tombstoned = tombstoned || (!first.config_.exact && peak > first.config_.watermark);
  out.complete = !tombstoned;
  out.points = PointSet(first.grid_->dim());
  if (!out.complete) return out;
  // Coordinate-lexicographic: the coreset's order then depends only on the
  // summarized multiset, not on the insert or merge history.  Equal
  // coordinates from two parts end up adjacent, so their counts add.
  const std::size_t dim = first.dim_;
  std::sort(refs.begin(), refs.end(), [dim](const auto& a, const auto& b) {
    return std::lexicographical_compare(a.first, a.first + dim, b.first, b.first + dim);
  });
  std::int64_t total = 0;
  for (const auto& ref : refs) total += std::max<std::int64_t>(ref.second, 0);
  out.points.reserve(total);
  for (const auto& [coords, count] : refs) {
    const std::span<const Coord> p(coords, dim);
    for (std::int64_t k = 0; k < count; ++k) out.points.push_back(p);
  }
  return out;
}

bool CellPointStore::summed_dead(std::span<const CellPointStore* const> parts, int cls) {
  SKC_CHECK(!parts.empty());
  std::int64_t live = 0;
  for (const CellPointStore* part : parts) {
    if (part->dead(cls)) return true;
    live += part->live_points(cls);
  }
  // The sum's view holds at most `live` points, so under the cap no prefix
  // of the merge can cross it.  Past it, replay the merge: it checks the cap
  // after each part, so a prefix may die even if later tombstones would
  // bring the final count back under.
  const CellPointStore& first = *parts.front();
  if (first.config_.exact || live <= first.config_.max_live_points) return false;
  CellPointStore sum = first.blank();
  for (const CellPointStore* part : parts) {
    sum.merge(*part);
    if (sum.dead(cls)) return true;
  }
  return false;
}

std::vector<std::pair<CellKey, CellPointStore::CellPoints>> CellPointStore::all_cells(
    int cls) const {
  std::vector<std::pair<CellKey, CellPoints>> out;
  if (dead(cls)) return out;
  for (std::uint32_t c = 0; c < cells_.size(); ++c) {
    if (static_cast<int>(cells_[c].top) < cls) continue;
    const ViewRecord& v = view(c, cls);
    if (v.net == 0 && !v.tombstoned()) continue;
    CellKey key;
    key.level = level_;
    key.index.assign(cell_row(c), cell_row(c) + dim_);
    std::optional<CellPoints> cp = cell(cls, key);
    out.emplace_back(std::move(key), std::move(*cp));
  }
  return out;
}

void CellPointStore::trim(int new_lo) {
  SKC_CHECK(new_lo >= 0 && new_lo <= guesses());
  if (new_lo <= lo_) return;
  lo_ = new_lo;
  const int first = new_lo == guesses() ? classes() : class_[static_cast<std::size_t>(new_lo)];
  if (first == first_) return;
  for (int j = first_; j < first; ++j) state_[static_cast<std::size_t>(j)] = ClassState{};
  compact(first);
}

void CellPointStore::merge(const CellPointStore& other) {
  SKC_CHECK(other.level_ == level_);
  SKC_CHECK(other.config_.exact == config_.exact);
  SKC_CHECK(other.bounds_ == bounds_ && other.class_ == class_);
  SKC_CHECK(&other != this);
  trim(std::max(lo_, other.lo_));
  // Events add in every live view; a view dead on either side is dead in
  // the sum.  A view dead here but live there must not take its records.
  bool died = false, stale = false;
  for (int j = first_; j < classes(); ++j) {
    ClassState& mine = state_[static_cast<std::size_t>(j)];
    const ClassState& theirs = other.state_[static_cast<std::size_t>(j)];
    mine.events += theirs.events;
    if (theirs.dead && !mine.dead) {
      mine.dead = true;
      mine.live = 0;
      died = true;
    } else if (mine.dead && !theirs.dead) {
      stale = true;
    }
  }
  const int base = first_alive(first_);
  if (base == classes()) {
    clear();
    base_ = base;
    return;
  }
  if (cells_.empty() && other.first_ == first_ && other.base_ == base) {
    // Into an empty store the sum is the other store itself: copy its arrays
    // outright instead of re-inserting record by record, then re-check
    // eviction as the record-wise sum would (a loaded blob may carry a
    // complete cell above the watermark).
    cells_ = other.cells_;
    cell_rows_ = other.cell_rows_;
    cell_slots_ = other.cell_slots_;
    views_ = other.views_;
    heads_ = other.heads_;
    free_views_ = other.free_views_;
    points_ = other.points_;
    point_cls_ = other.point_cls_;
    point_coords_ = other.point_coords_;
    point_slots_ = other.point_slots_;
    free_points_ = other.free_points_;
    npoints_ = other.npoints_;
    base_ = base;
    for (int j = base_; j < classes(); ++j) {
      if (alive(j)) state_[static_cast<std::size_t>(j)].live = other.live_points(j);
    }
    for (std::uint32_t c = 0; c < cells_.size(); ++c) {
      for (int j = base_; j <= static_cast<int>(cells_[c].top); ++j) {
        if (alive(j)) maybe_evict(c, j);
      }
    }
  } else {
    // Records stay at this store's base until the compaction below; the
    // classes under the new base are dead, so nothing reads them.
    for (std::uint32_t oc = 0; oc < other.cells_.size(); ++oc) {
      const int top = static_cast<int>(other.cells_[oc].top);
      if (top < base) continue;
      const std::uint32_t c = find_or_add_cell(other.cell_row(oc), top);
      for (int j = base; j <= top; ++j) {
        if (!alive(j)) continue;
        const ViewRecord& theirs = other.view(oc, j);
        ViewRecord& mine = view(c, j);
        // Peaks are not exactly mergeable (they depend on interleaving); the
        // sum upper-bounds any interleaved peak, which errs toward eviction.
        mine.set(mine.net + theirs.net, mine.peak() + theirs.peak(), mine.tombstoned());
        if (theirs.tombstoned() && !mine.tombstoned()) evict(c, j);
      }
      for (int q = base; q <= top; ++q) {
        if (!held(c, q)) continue;
        other.for_each_point(oc, q, [&](std::uint32_t id) {
          const Coord* p = other.point_coords(id);
          add_count(c, p, hash_row(p, dim_), q, other.points_[id].count, /*create=*/true);
        });
      }
      for (int j = base; j <= static_cast<int>(cells_[c].top); ++j) {
        if (alive(j)) maybe_evict(c, j);
      }
    }
  }
  // A compaction zeroes the records of views that died here or there and
  // drops what no live view holds any more.
  died = check_cap(base_, classes() - 1) || died;
  if (died || stale) compact(first_);
}

void CellPointStore::save(serial::Writer& out) const {
  // Store records (since STRM5): the live class count (so a reader can walk the record
  // without the construction), per live class its state, then per cell its
  // index row as put_vector writes it (entry count, entries), its view
  // count (views from the first live class not dead), and per view its
  // state and the points of that class, each as put_string writes its
  // packed coordinates (byte count, bytes) and its count.
  out.put<std::uint32_t>(static_cast<std::uint32_t>(classes() - first_));
  for (int j = first_; j < classes(); ++j) {
    const ClassState& s = state_[static_cast<std::size_t>(j)];
    out.put<std::uint8_t>(s.dead ? 1 : 0);
    out.put<std::int64_t>(s.events);
    out.put<std::int64_t>(s.live);
  }
  out.put<std::uint64_t>(cells_.size());
  for (std::uint32_t c = 0; c < cells_.size(); ++c) {
    out.put<std::uint64_t>(dim_);
    out.put_array(cell_row(c), dim_);
    const int top = static_cast<int>(cells_[c].top);
    out.put<std::uint64_t>(static_cast<std::uint64_t>(top - base_ + 1));
    for (int j = base_; j <= top; ++j) {
      const ViewRecord& v = view(c, j);
      out.put<std::int64_t>(v.net);
      out.put<std::int64_t>(v.peak());
      out.put<std::uint8_t>(v.tombstoned() ? 1 : 0);
      std::uint64_t npoints = 0;
      for_each_point(c, j, [&npoints](std::uint32_t) { ++npoints; });
      out.put<std::uint64_t>(npoints);
      for_each_point(c, j, [&](std::uint32_t id) {
        out.put<std::uint64_t>(dim_ * sizeof(Coord));
        out.put_array(point_coords(id), dim_);
        out.put<std::int64_t>(points_[id].count);
      });
    }
  }
}

bool CellPointStore::load(serial::Reader& in, int lo) {
  SKC_CHECK(lo >= 0 && lo <= guesses());
  lo_ = lo;
  first_ = lo == guesses() ? classes() : class_[static_cast<std::size_t>(lo)];
  base_ = first_;
  clear();
  std::fill(state_.begin(), state_.end(), ClassState{});
  const int K = classes();
  // Per class: the events its view has not yet accounted for (each unit of
  // multiplicity it holds is one applied insert: update_batch takes unit
  // deltas, merge adds both sides' events) and the live points it holds.
  std::vector<std::int64_t> unclaimed(static_cast<std::size_t>(K), 0);
  std::vector<std::int64_t> live(static_cast<std::size_t>(K), 0);
  std::vector<std::int32_t> row, home(dim_);
  std::vector<Coord> coords;
  const bool ok = [&] {
    std::uint32_t nclasses = 0;
    if (!in.get(nclasses) || nclasses != static_cast<std::uint32_t>(K - first_)) return false;
    for (int j = first_; j < K; ++j) {
      ClassState& s = state_[static_cast<std::size_t>(j)];
      std::uint8_t dead = 0;
      if (!in.get(dead) || !in.get(s.events) || !in.get(s.live)) return false;
      if (s.events < 0 || s.events > kMaxEvents) return false;
      s.dead = dead != 0;
      if (s.dead && s.live != 0) return false;
      unclaimed[static_cast<std::size_t>(j)] = s.events;
    }
    base_ = first_alive(first_);
    std::uint64_t ncells = 0;
    if (!in.get(ncells) || ncells >= kNone) return false;
    for (std::uint64_t n = 0; n < ncells; ++n) {
      std::uint64_t len = 0, nviews = 0;
      if (!in.get(len) || len != dim_ || !in.get_array(dim_, row)) return false;
      // Views run from the first live class; a cell needs one (so no cell
      // outlives every live view) and at most one per live class.
      if (!in.get(nviews) || nviews == 0 || nviews > static_cast<std::uint64_t>(K - base_)) {
        return false;
      }
      const int top = base_ + static_cast<int>(nviews) - 1;
      const std::size_t known = cells_.size();
      const std::uint32_t c = find_or_add_cell(row.data(), top);
      if (c < known) return false;  // duplicate cell
      for (int j = base_; j <= top; ++j) {
        std::int64_t net = 0, peak = 0;
        std::uint8_t tomb = 0;
        std::uint64_t npoints = 0;
        if (!in.get(net) || !in.get(peak) || !in.get(tomb) || !in.get(npoints)) return false;
        // Each event moves one cell's net by one, and a peak is a past net;
        // a dead view's record is zero.
        const std::int64_t events = state_[static_cast<std::size_t>(j)].events;
        if (alive(j) ? (net < -events || net > events || peak < 0 || peak > events)
                     : (net != 0 || peak != 0 || tomb != 0)) {
          return false;
        }
        view(c, j).set(net, peak, tomb != 0);
        if (npoints != 0 && !held(c, j)) return false;  // points no live view holds
        for (std::uint64_t k = 0; k < npoints; ++k) {
          std::int64_t count = 0;
          if (!in.get(len) || len != dim_ * sizeof(Coord) || !in.get_array(dim_, coords)) {
            return false;
          }
          if (!in.get(count) || count <= 0) return false;
          for (int i = base_; i <= j; ++i) {
            const auto si = static_cast<std::size_t>(i);
            if (!alive(i) || view(c, i).tombstoned()) continue;
            if (count > unclaimed[si]) return false;
            unclaimed[si] -= count;
            ++live[si];
          }
          grid_->cell_index_of(coords, level_, home);
          if (home != row) return false;  // point outside its cell
          const std::uint32_t hash = hash_row(coords.data(), dim_);
          slot_table::grow(point_slots_, npoints_);
          const std::size_t slot = slot_table::probe(point_slots_, point_coords_.data(),
                                                     dim_, coords.data(), hash);
          if (point_slots_[slot].id != kNone) return false;  // duplicate point
          new_point(c, j, coords.data(), hash, count, slot);
        }
      }
    }
    for (int j = first_; j < K; ++j) {
      if (state_[static_cast<std::size_t>(j)].live != live[static_cast<std::size_t>(j)]) {
        return false;
      }
    }
    return true;
  }();
  if (!ok) {
    clear();
    std::fill(state_.begin(), state_.end(), ClassState{});
    base_ = first_;
  }
  return ok;
}

std::size_t CellPointStore::memory_bytes() const {
  return cells_.capacity() * sizeof(CellRecord) +
         cell_rows_.capacity() * sizeof(std::int32_t) +
         cell_slots_.capacity() * sizeof(Slot) +
         views_.capacity() * sizeof(ViewRecord) +
         heads_.capacity() * sizeof(std::uint32_t) +
         free_views_.capacity() * sizeof(std::uint32_t) +
         points_.capacity() * sizeof(PointRecord) +
         point_cls_.capacity() * sizeof(std::uint32_t) +
         point_coords_.capacity() * sizeof(Coord) +
         point_slots_.capacity() * sizeof(Slot);
}

std::size_t CellPointStore::view_bytes(int cls) const {
  if (dead(cls)) return 0;
  std::size_t ncells = 0, npoints = 0;
  for (std::uint32_t c = 0; c < cells_.size(); ++c) {
    const int top = static_cast<int>(cells_[c].top);
    if (top < cls) continue;
    ++ncells;
    if (view(c, cls).tombstoned()) continue;
    for (int q = cls; q <= top; ++q) for_each_point(c, q, [&npoints](std::uint32_t) { ++npoints; });
  }
  return ncells * (sizeof(CellRecord) + dim_ * sizeof(std::int32_t) + sizeof(ViewRecord) +
                   sizeof(std::uint32_t) + 2 * sizeof(Slot)) +
         npoints * (sizeof(PointRecord) + sizeof(std::uint32_t) + dim_ * sizeof(Coord) +
                    2 * sizeof(Slot));
}

}  // namespace skc
