#include "skc/sketch/point_store.h"

#include <algorithm>
#include <span>

#include "skc/common/check.h"
#include "skc/common/serial.h"

namespace skc {

namespace {

/// 32-bit hash of a row of int32 words (a cell index row or a point's
/// coordinates).  Deterministic, so equal histories give equal tables.
std::uint32_t hash_row(const std::int32_t* w, std::size_t n) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<std::uint32_t>(w[i])) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return static_cast<std::uint32_t>((h * 0xc4ceb9fe1a85ec53ULL) >> 32);
}

/// Home slot of a hash in a table of `size` slots: its high bits.
std::size_t home_slot(std::uint32_t hash, std::size_t size) {
  return static_cast<std::size_t>((std::uint64_t{hash} * size) >> 32);
}

bool rows_equal(const std::int32_t* a, const std::int32_t* b, std::size_t n) {
  return std::equal(a, a + n, b);
}

template <typename T>
void free_array(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

/// Makes room for one more record and its `width` row entries, growing both
/// arrays by half their capacity rather than by std::vector's doubling.  A
/// builder holds a few hundred stores that fill at different rates, and at
/// 2x a store that has just crossed a power of two leaves half its record
/// bytes unused.
template <typename Record, typename Entry>
void reserve_record(std::vector<Record>& records, std::vector<Entry>& rows,
                    std::size_t width) {
  if (records.size() < records.capacity()) return;
  const std::size_t cap =
      std::max<std::size_t>(4, records.capacity() + records.capacity() / 2);
  records.reserve(cap);
  rows.reserve(cap * width);
}

}  // namespace

CellPointStore::CellPointStore(const HierarchicalGrid& grid, int level,
                               const PointStoreConfig& config)
    : grid_(&grid),
      level_(level),
      dim_(static_cast<std::size_t>(grid.dim())),
      config_(config) {
  SKC_CHECK(level >= 0 && level <= grid.log_delta());
  SKC_CHECK(config.watermark >= 1);
}

void CellPointStore::grow_slots(std::vector<Slot>& slots, std::size_t count) {
  // Linear probing at load <= 1/2; power-of-two sizes.
  if ((count + 1) * 2 <= slots.size()) return;
  std::vector<Slot> bigger(std::max<std::size_t>(16, slots.size() * 2));
  const std::size_t mask = bigger.size() - 1;
  for (const Slot& s : slots) {
    if (s.id == kNone) continue;
    std::size_t i = home_slot(s.hash, bigger.size());
    while (bigger[i].id != kNone) i = (i + 1) & mask;
    bigger[i] = s;
  }
  slots.swap(bigger);
}

void CellPointStore::erase_slot(std::vector<Slot>& slots, std::size_t hole) {
  // Backward-shift deletion: pull each later entry of the probe run into the
  // hole unless its home slot lies cyclically after the hole.
  const std::size_t mask = slots.size() - 1;
  for (std::size_t j = (hole + 1) & mask; slots[j].id != kNone; j = (j + 1) & mask) {
    const std::size_t home = home_slot(slots[j].hash, slots.size());
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots[hole] = slots[j];
      hole = j;
    }
  }
  slots[hole] = Slot{};
}

std::size_t CellPointStore::probe(const std::vector<Slot>& slots,
                                  const std::vector<std::int32_t>& keys,
                                  const std::int32_t* key, std::uint32_t hash) const {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = home_slot(hash, slots.size());
  for (; slots[i].id != kNone; i = (i + 1) & mask) {
    const Slot& s = slots[i];
    if (s.hash == hash && rows_equal(keys.data() + std::size_t{s.id} * dim_, key, dim_)) {
      break;
    }
  }
  return i;
}

std::uint32_t CellPointStore::find_or_add_cell(const std::int32_t* idx) {
  const std::uint32_t hash = hash_row(idx, dim_);
  grow_slots(cell_slots_, cells_.size());
  const std::size_t slot = probe(cell_slots_, cell_rows_, idx, hash);
  if (cell_slots_[slot].id != kNone) return cell_slots_[slot].id;
  SKC_CHECK(cells_.size() < kNone);
  const auto c = static_cast<std::uint32_t>(cells_.size());
  reserve_record(cells_, cell_rows_, dim_);
  cells_.emplace_back();
  cell_rows_.insert(cell_rows_.end(), idx, idx + dim_);
  cell_slots_[slot] = Slot{c, hash};
  return c;
}

void CellPointStore::add_count(std::uint32_t c, const Coord* p, std::uint32_t hash,
                               std::int64_t count, bool create) {
  grow_slots(point_slots_, static_cast<std::size_t>(live_points_));
  const std::size_t slot = probe(point_slots_, point_coords_, p, hash);
  if (const std::uint32_t found = point_slots_[slot].id; found != kNone) {
    points_[found].count += count;
    if (points_[found].count == 0) erase_point(slot);
    return;
  }
  // A deletion of an untracked point only happens in ill-formed streams; the
  // net count catches it downstream.
  if (!create) return;
  std::uint32_t id = free_points_;
  if (id != kNone) {
    free_points_ = points_[id].next;
    std::copy(p, p + dim_, point_coords_.begin() + static_cast<std::ptrdiff_t>(id * dim_));
  } else {
    SKC_CHECK(points_.size() < kNone);
    id = static_cast<std::uint32_t>(points_.size());
    reserve_record(points_, point_coords_, dim_);
    points_.emplace_back();
    point_coords_.insert(point_coords_.end(), p, p + dim_);
  }
  PointRecord& rec = points_[id];
  rec.count = count;
  rec.cell = c;
  rec.hash = hash;
  // Append at the tail of the cell's circular list, so save() writes the
  // points in the order load() read them.
  std::uint32_t& head = cells_[c].head;
  if (head == kNone) {
    rec.prev = rec.next = head = id;
  } else {
    const std::uint32_t tail = points_[head].prev;
    rec.prev = tail;
    rec.next = head;
    points_[tail].next = id;
    points_[head].prev = id;
  }
  point_slots_[slot] = Slot{id, hash};
  ++live_points_;
}

void CellPointStore::erase_point(std::size_t slot) {
  const std::uint32_t id = point_slots_[slot].id;
  PointRecord& rec = points_[id];
  std::uint32_t& head = cells_[rec.cell].head;
  if (rec.next == id) {
    head = kNone;
  } else {
    points_[rec.prev].next = rec.next;
    points_[rec.next].prev = rec.prev;
    if (head == id) head = rec.next;
  }
  rec.next = free_points_;
  free_points_ = id;
  erase_slot(point_slots_, slot);
  --live_points_;
}

void CellPointStore::maybe_evict(std::uint32_t c) {
  if (config_.exact || cells_[c].tombstoned) return;
  if (cells_[c].net_peak > config_.watermark) evict(c);
}

void CellPointStore::evict(std::uint32_t c) {
  // Free the cell's records; each one's slot is found from its stored hash.
  const std::size_t mask = point_slots_.size() - 1;
  for (std::uint32_t id = cells_[c].head; id != kNone; id = cells_[c].head) {
    std::size_t slot = home_slot(points_[id].hash, point_slots_.size());
    while (point_slots_[slot].id != id) slot = (slot + 1) & mask;
    erase_point(slot);
  }
  cells_[c].tombstoned = true;
}

void CellPointStore::check_cap() {
  if (!config_.exact && live_points_ > config_.max_live_points) release();
}

void CellPointStore::clear() {
  free_array(cells_);
  free_array(cell_rows_);
  free_array(cell_slots_);
  free_array(points_);
  free_array(point_coords_);
  free_array(point_slots_);
  free_points_ = kNone;
  live_points_ = 0;
}

void CellPointStore::update_batch(const Coord* points, const std::int32_t* cell_idx,
                                  const std::int64_t* deltas, std::size_t n) {
  for (std::size_t i = 0; i < n && !dead_; ++i) {
    SKC_CHECK_MSG(deltas[i] == 1 || deltas[i] == -1,
                  "a point store event inserts or deletes one point");
    ++events_;
    const Coord* p = points + i * dim_;
    const std::uint32_t c = find_or_add_cell(cell_idx + i * dim_);
    CellRecord& cell = cells_[c];
    cell.net += deltas[i];
    cell.net_peak = std::max(cell.net_peak, cell.net);
    if (!cell.tombstoned) {
      add_count(c, p, hash_row(p, dim_), deltas[i], deltas[i] > 0);
      maybe_evict(c);
    }
    check_cap();
  }
}

std::optional<CellPointStore::CellPoints> CellPointStore::cell(
    const CellKey& key) const {
  const CellPointStore* self = this;
  return summed_cell({&self, 1}, key);
}

std::optional<CellPointStore::CellPoints> CellPointStore::summed_cell(
    std::span<const CellPointStore* const> parts, const CellKey& key) {
  SKC_CHECK(!parts.empty());
  const CellPointStore& first = *parts.front();
  SKC_DCHECK(key.level == first.level_);
  if (key.index.size() != first.dim_) return std::nullopt;
  const std::uint32_t hash = hash_row(key.index.data(), first.dim_);
  CellPoints out;
  std::int64_t peak = 0;
  bool found = false, tombstoned = false;
  // Each part's point records of the cell: coordinates and count.
  std::vector<std::pair<const Coord*, std::int64_t>> refs;
  for (const CellPointStore* part : parts) {
    if (part->cell_slots_.empty()) continue;
    const std::uint32_t c =
        part->cell_slots_[part->probe(part->cell_slots_, part->cell_rows_,
                                      key.index.data(), hash)]
            .id;
    if (c == kNone) continue;
    found = true;
    const CellRecord& rec = part->cells_[c];
    out.net_count += rec.net;
    peak += rec.net_peak;
    tombstoned = tombstoned || rec.tombstoned;
    if (tombstoned) continue;
    part->for_each_point(c, [&](std::uint32_t id) {
      refs.emplace_back(part->point_coords(id), part->points_[id].count);
    });
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

bool CellPointStore::summed_dead(std::span<const CellPointStore* const> parts) {
  SKC_CHECK(!parts.empty());
  std::int64_t live = 0;
  for (const CellPointStore* part : parts) {
    if (part->dead_) return true;
    live += part->live_points_;
  }
  // The sum holds at most `live` points, so under the cap no prefix of the
  // merge can cross it.  Past it, replay the merge: it checks the cap after
  // each part, so a prefix may die even if later tombstones would bring the
  // final count back under.
  const CellPointStore& first = *parts.front();
  if (first.config_.exact || live <= first.config_.max_live_points) return false;
  CellPointStore sum(*first.grid_, first.level_, first.config_);
  for (const CellPointStore* part : parts) {
    sum.merge(*part);
    if (sum.dead_) return true;
  }
  return false;
}

std::vector<std::pair<CellKey, CellPointStore::CellPoints>>
CellPointStore::all_cells() const {
  std::vector<std::pair<CellKey, CellPoints>> out;
  for (std::uint32_t c = 0; c < cells_.size(); ++c) {
    if (cells_[c].net == 0 && !cells_[c].tombstoned) continue;
    CellKey key;
    key.level = level_;
    key.index.assign(cell_row(c), cell_row(c) + dim_);
    std::optional<CellPoints> cp = cell(key);
    out.emplace_back(std::move(key), std::move(*cp));
  }
  return out;
}

void CellPointStore::merge(const CellPointStore& other) {
  SKC_CHECK(other.level_ == level_);
  SKC_CHECK(other.config_.exact == config_.exact);
  SKC_CHECK(&other != this);
  events_ += other.events_;
  if (other.dead_) release();
  if (dead_) return;
  if (cells_.empty()) {
    // Into an empty store the sum is the other store itself: copy its arrays
    // outright instead of re-inserting record by record, then re-check
    // eviction as the record-wise sum would (a loaded blob may carry a
    // complete cell above the watermark).
    cells_ = other.cells_;
    cell_rows_ = other.cell_rows_;
    cell_slots_ = other.cell_slots_;
    points_ = other.points_;
    point_coords_ = other.point_coords_;
    point_slots_ = other.point_slots_;
    free_points_ = other.free_points_;
    live_points_ = other.live_points_;
    for (std::uint32_t c = 0; c < cells_.size(); ++c) maybe_evict(c);
  } else {
    for (std::uint32_t oc = 0; oc < other.cells_.size(); ++oc) {
      const CellRecord& theirs = other.cells_[oc];
      const std::uint32_t c = find_or_add_cell(other.cell_row(oc));
      cells_[c].net += theirs.net;
      // Peaks are not exactly mergeable (they depend on interleaving); the
      // sum upper-bounds any interleaved peak, which errs toward eviction.
      cells_[c].net_peak += theirs.net_peak;
      if (theirs.tombstoned && !cells_[c].tombstoned) evict(c);
      if (cells_[c].tombstoned) continue;
      other.for_each_point(oc, [&](std::uint32_t id) {
        add_count(c, other.point_coords(id), other.points_[id].hash,
                  other.points_[id].count, /*create=*/true);
      });
      maybe_evict(c);
    }
  }
  check_cap();
}

void CellPointStore::release() {
  dead_ = true;
  clear();
}

void CellPointStore::save(serial::Writer& out) const {
  // STRM2-STRM4 records: a cell's index row as put_vector writes it (entry
  // count, entries), a point as put_string writes its packed coordinates
  // (byte count, bytes).
  out.put<std::uint8_t>(dead_ ? 1 : 0);
  out.put<std::int64_t>(events_);
  out.put<std::int64_t>(live_points_);
  out.put<std::uint64_t>(cells_.size());
  for (std::uint32_t c = 0; c < cells_.size(); ++c) {
    out.put<std::uint64_t>(dim_);
    out.put_array(cell_row(c), dim_);
    out.put<std::int64_t>(cells_[c].net);
    out.put<std::int64_t>(cells_[c].net_peak);
    out.put<std::uint8_t>(cells_[c].tombstoned ? 1 : 0);
    std::uint64_t npoints = 0;
    for_each_point(c, [&npoints](std::uint32_t) { ++npoints; });
    out.put<std::uint64_t>(npoints);
    for_each_point(c, [&](std::uint32_t id) {
      out.put<std::uint64_t>(dim_ * sizeof(Coord));
      out.put_array(point_coords(id), dim_);
      out.put<std::int64_t>(points_[id].count);
    });
  }
}

bool CellPointStore::load(serial::Reader& in) {
  clear();
  dead_ = false;
  events_ = 0;
  std::vector<std::int32_t> row, home(dim_);
  std::vector<Coord> coords;
  std::uint8_t dead = 0;
  std::int64_t events = 0, live = 0;
  const bool ok = [&] {
    std::uint64_t ncells = 0;
    if (!in.get(dead) || !in.get(events) || !in.get(live) || !in.get(ncells)) {
      return false;
    }
    if (events < 0 || events > kMaxEvents) return false;
    if (dead != 0 && (ncells != 0 || live != 0)) return false;
    if (ncells >= kNone) return false;
    // Each unit of multiplicity is one applied insert (update_batch takes
    // unit deltas, merge adds both sides' events), so the counts sum to at
    // most events(): a larger count is a point set no history holds, and
    // cell() would expand it.
    std::int64_t unclaimed = events;
    for (std::uint64_t n = 0; n < ncells; ++n) {
      std::uint64_t len = 0, npoints = 0;
      CellRecord rec;
      std::uint8_t tomb = 0;
      if (!in.get(len) || len != dim_ || !in.get_array(dim_, row)) return false;
      if (!in.get(rec.net) || !in.get(rec.net_peak) || !in.get(tomb) ||
          !in.get(npoints)) {
        return false;
      }
      // Each event moves one cell's net by one, and a peak is a past net.
      if (rec.net < -events || rec.net > events || rec.net_peak < 0 ||
          rec.net_peak > events) {
        return false;
      }
      rec.tombstoned = tomb != 0;
      if (rec.tombstoned && npoints != 0) return false;
      const std::size_t known = cells_.size();
      const std::uint32_t c = find_or_add_cell(row.data());
      if (c < known) return false;  // duplicate cell
      cells_[c] = rec;
      for (std::uint64_t k = 0; k < npoints; ++k) {
        std::int64_t count = 0;
        if (!in.get(len) || len != dim_ * sizeof(Coord) ||
            !in.get_array(dim_, coords)) {
          return false;
        }
        if (!in.get(count) || count <= 0 || count > unclaimed) return false;
        unclaimed -= count;
        grid_->cell_index_of(coords, level_, home);
        if (home != row) return false;  // point outside its cell
        const std::int64_t before = live_points_;
        add_count(c, coords.data(), hash_row(coords.data(), dim_), count,
                  /*create=*/true);
        if (live_points_ == before) return false;  // duplicate point
      }
    }
    return live == live_points_;
  }();
  if (!ok) {
    clear();
    return false;
  }
  dead_ = dead != 0;
  events_ = events;
  return true;
}

std::size_t CellPointStore::memory_bytes() const {
  return cells_.capacity() * sizeof(CellRecord) +
         cell_rows_.capacity() * sizeof(std::int32_t) +
         cell_slots_.capacity() * sizeof(Slot) +
         points_.capacity() * sizeof(PointRecord) +
         point_coords_.capacity() * sizeof(Coord) +
         point_slots_.capacity() * sizeof(Slot);
}

}  // namespace skc
