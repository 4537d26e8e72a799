#include "skc/sketch/point_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "node_map_point_store.h"
#include "skc/common/serial.h"
#include "test_util.h"

namespace skc {
namespace {

/// A store with one rate class that keeps every event: the shape of one
/// per-(level, phi) store before rate classes, read as class 0.
CellPointStore one_class(const HierarchicalGrid& grid, int level, const PointStoreConfig& cfg) {
  return CellPointStore(grid, level, cfg, {~std::uint64_t{0}});
}

/// Feeds one event to `store` as a one-event batch (a coreset hash every
/// class keeps), skipping a dead store as the builder does.
void add(CellPointStore& store, const HierarchicalGrid& grid, std::span<const Coord> p,
         std::int64_t delta) {
  if (store.dead(0)) return;
  const CellKey cell = grid.cell_of(p, store.level());
  const std::uint64_t h = 0;
  store.update_batch(p.data(), cell.index.data(), &h, &delta, 1);
}

TEST(CellPointStore, RoundTripsPointsPerCell) {
  Rng rng(1);
  HierarchicalGrid grid(2, 8, rng);
  PointStoreConfig cfg;
  CellPointStore store = one_class(grid, 4, cfg);
  Rng prng(2);
  PointSet pts = testutil::random_points(2, 256, 100, prng);
  for (PointIndex i = 0; i < pts.size(); ++i) add(store, grid, pts[i], +1);

  PointSet recovered(2);
  for (PointIndex i = 0; i < pts.size(); ++i) {
    const CellKey key = grid.cell_of(pts[i], 4);
    const auto cp = store.cell(0, key);
    ASSERT_TRUE(cp.has_value());
    EXPECT_TRUE(cp->complete);
  }
  for (const auto& [key, cp] : store.all_cells(0)) {
    recovered.append(cp.points);
  }
  EXPECT_EQ(testutil::canonical_multiset(recovered), testutil::canonical_multiset(pts));
}

TEST(CellPointStore, DeletionsCancelExactly) {
  Rng rng(3);
  HierarchicalGrid grid(2, 6, rng);
  PointStoreConfig cfg;
  CellPointStore store = one_class(grid, 3, cfg);
  PointSet p(2);
  p.push_back({5, 5});
  add(store, grid, p[0], +1);
  add(store, grid, p[0], +1);
  add(store, grid, p[0], -1);
  const auto cp = store.cell(0, grid.cell_of(p[0], 3));
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->net_count, 1);
  EXPECT_EQ(cp->points.size(), 1);
}

TEST(CellPointStore, WatermarkEvictsHeavyCells) {
  // Zero shift so cell membership is deterministic: level-2 cells have side
  // 16 anchored at 0, so x in [17, 31] shares one cell and 60..61 another.
  HierarchicalGrid grid(2, 6, std::vector<Coord>{0, 0});
  PointStoreConfig cfg;
  cfg.watermark = 10;
  CellPointStore store = one_class(grid, 2, cfg);
  // 20 points in one cell: evicted; 3 in another: kept.
  PointSet heavy(2);
  for (Coord x = 17; x <= 31; ++x) heavy.push_back({x, 17});
  for (Coord x = 17; x <= 21; ++x) heavy.push_back({x, 18});
  for (PointIndex i = 0; i < heavy.size(); ++i) add(store, grid, heavy[i], +1);
  PointSet light(2);
  light.push_back({60, 60});
  light.push_back({61, 60});
  light.push_back({60, 61});
  for (PointIndex i = 0; i < light.size(); ++i) add(store, grid, light[i], +1);

  const CellKey heavy_cell = grid.cell_of(heavy[0], 2);
  const CellKey light_cell = grid.cell_of(light[0], 2);
  ASSERT_NE(heavy_cell, light_cell);

  const auto hc = store.cell(0, heavy_cell);
  ASSERT_TRUE(hc.has_value());
  EXPECT_FALSE(hc->complete);
  EXPECT_EQ(hc->net_count, 20);  // net count survives eviction
  EXPECT_TRUE(hc->points.empty());

  const auto lc = store.cell(0, light_cell);
  ASSERT_TRUE(lc.has_value());
  EXPECT_TRUE(lc->complete);
  EXPECT_EQ(lc->points.size(), 3);
}

TEST(CellPointStore, ExactModeNeverEvicts) {
  Rng rng(5);
  HierarchicalGrid grid(2, 6, rng);
  PointStoreConfig cfg;
  cfg.watermark = 4;
  cfg.exact = true;
  CellPointStore store = one_class(grid, 2, cfg);
  PointSet pts(2);
  for (Coord x = 1; x <= 30; ++x) pts.push_back({x, 1});
  for (PointIndex i = 0; i < pts.size(); ++i) add(store, grid, pts[i], +1);
  for (const auto& [key, cp] : store.all_cells(0)) {
    EXPECT_TRUE(cp.complete);
  }
}

TEST(CellPointStore, LivePointCapKillsStructure) {
  Rng rng(6);
  HierarchicalGrid grid(2, 10, rng);
  PointStoreConfig cfg;
  cfg.watermark = 1000;
  cfg.max_live_points = 50;
  CellPointStore store = one_class(grid, 8, cfg);
  Rng prng(7);
  PointSet pts = testutil::random_points(2, 1024, 200, prng);
  for (PointIndex i = 0; i < pts.size(); ++i) add(store, grid, pts[i], +1);
  EXPECT_TRUE(store.dead(0));
  EXPECT_TRUE(store.all_cells(0).empty());
  EXPECT_LT(store.memory_bytes(), 1000u);
}

TEST(CellPointStore, MergeMatchesConcatenation) {
  Rng rng(8);
  HierarchicalGrid grid(2, 7, rng);
  PointStoreConfig cfg;
  CellPointStore a = one_class(grid, 3, cfg);
  CellPointStore b = one_class(grid, 3, cfg);
  CellPointStore both = one_class(grid, 3, cfg);
  Rng prng(9);
  PointSet pa = testutil::random_points(2, 128, 50, prng);
  PointSet pb = testutil::random_points(2, 128, 50, prng);
  for (PointIndex i = 0; i < pa.size(); ++i) {
    add(a, grid, pa[i], +1);
    add(both, grid, pa[i], +1);
  }
  for (PointIndex i = 0; i < pb.size(); ++i) {
    add(b, grid, pb[i], +1);
    add(both, grid, pb[i], +1);
  }
  a.merge(b);
  PointSet merged(2), direct(2);
  for (const auto& [key, cp] : a.all_cells(0)) merged.append(cp.points);
  for (const auto& [key, cp] : both.all_cells(0)) direct.append(cp.points);
  EXPECT_EQ(testutil::canonical_multiset(merged), testutil::canonical_multiset(direct));
}

TEST(CellPointStore, ChurnLeavesOnlySurvivors) {
  Rng rng(10);
  HierarchicalGrid grid(2, 7, rng);
  PointStoreConfig cfg;
  cfg.watermark = 1 << 20;  // effectively off
  CellPointStore store = one_class(grid, 4, cfg);
  Rng prng(11);
  PointSet keep = testutil::random_points(2, 128, 40, prng);
  PointSet churn = testutil::random_points(2, 128, 60, prng);
  for (PointIndex i = 0; i < keep.size(); ++i) add(store, grid, keep[i], +1);
  for (PointIndex i = 0; i < churn.size(); ++i) add(store, grid, churn[i], +1);
  for (PointIndex i = 0; i < churn.size(); ++i) add(store, grid, churn[i], -1);
  PointSet recovered(2);
  for (const auto& [key, cp] : store.all_cells(0)) {
    EXPECT_TRUE(cp.complete);
    recovered.append(cp.points);
  }
  EXPECT_EQ(testutil::canonical_multiset(recovered), testutil::canonical_multiset(keep));
}

template <typename Store>
std::string saved(const Store& store) {
  serial::Writer out;
  store.save(out);
  return out.take();
}

bool loads(CellPointStore& store, const std::string& blob) {
  serial::Reader in(blob);
  return store.load(in, 0) && in.done();
}

bool loads(oracle::NodeMapPointStore& store, const std::string& blob) {
  serial::Reader in(blob);
  return store.load(in);
}

// ---------------------------------------------------------------------------
// A store blob written by the node-map store this one replaced (the STRM2
// store record), carried into the STRM5 record of a one-class store by
// StoreBlob below.  2-D, zero grid shift, level 2 (cells of side 16),
// watermark 6:
//   cell (0,0): (3,4) x2, (5,6) x1, (9,2) x3 — net 6, complete;
//   cell (1,1): 8 distinct points (one deleted after the peak) — tombstoned;
//   cell (2,3): (40,50), plus (41,50) inserted and deleted — net 1;
//   cell (3,0): (60,5) inserted and deleted — net 0, record kept.
// ---------------------------------------------------------------------------

const std::string& node_map_blob() {
  static const unsigned char kBytes[] = {
    0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x28, 0x00, 0x00, 0x00, 0x32,
    0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01,
    0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
    0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  static const std::string blob(reinterpret_cast<const char*>(kBytes), sizeof(kBytes));
  return blob;
}

HierarchicalGrid pin_grid() { return HierarchicalGrid(2, 6, std::vector<Coord>{0, 0}); }

PointStoreConfig pin_config() {
  PointStoreConfig cfg;
  cfg.watermark = 6;
  return cfg;
}

CellKey level2(std::int32_t x, std::int32_t y) { return CellKey{2, {x, y}}; }

std::vector<std::vector<Coord>> coords_of(const PointSet& s) {
  std::vector<std::vector<Coord>> out;
  for (PointIndex i = 0; i < s.size(); ++i) out.emplace_back(s[i].begin(), s[i].end());
  return out;
}

TEST(CellPointStore, SaveLoadSaveIsByteIdentical) {
  Rng rng(31);
  HierarchicalGrid grid(2, 7, rng);
  PointStoreConfig cfg;
  cfg.watermark = 8;  // tombstones some cells
  CellPointStore store = one_class(grid, 3, cfg);
  Rng prng(32);
  const PointSet pts = testutil::random_points(2, 60, 900, prng);
  for (PointIndex i = 0; i < pts.size(); ++i) add(store, grid, pts[i], +1);
  for (PointIndex i = 0; i < pts.size(); i += 3) add(store, grid, pts[i], -1);
  const std::string first = saved(store);
  CellPointStore thawed = one_class(grid, 3, cfg);
  ASSERT_TRUE(loads(thawed, first));
  EXPECT_EQ(saved(thawed), first);
}

// ---------------------------------------------------------------------------
// load() fails closed.  Each test mutates one record of the pinned blob and
// expects a refused load that leaves the store empty.
// ---------------------------------------------------------------------------

/// A one-class store blob as plain records: the STRM5 store record (its
/// class count, the class's dead flag, events and live points, then each
/// cell's index row, its one view record and its points), or the STRM2
/// record the node-map store writes (the same fields without the counts of
/// classes and views).
struct StoreBlob {
  struct Cell {
    std::vector<std::int32_t> row;
    std::int64_t net = 0;
    std::int64_t peak = 0;
    std::uint8_t tombstoned = 0;
    std::vector<std::pair<std::string, std::int64_t>> points;  // packed coords
  };
  std::uint8_t dead = 0;
  std::int64_t events = 0;
  std::int64_t live = 0;
  std::vector<Cell> cells;

  static StoreBlob parse(const std::string& bytes) { return read(bytes, true); }
  static StoreBlob parse_node_map(const std::string& bytes) { return read(bytes, false); }

  std::string str() const { return write(true); }
  std::string node_map_str() const { return write(false); }

  Cell& at(std::int32_t x, std::int32_t y) {
    for (Cell& c : cells) {
      if (c.row == std::vector<std::int32_t>{x, y}) return c;
    }
    ADD_FAILURE() << "no cell (" << x << "," << y << ")";
    return cells.front();
  }

 private:
  static StoreBlob read(const std::string& bytes, bool strm5) {
    serial::Reader in(bytes);
    StoreBlob b;
    std::uint32_t classes = 1;
    std::uint64_t ncells = 0;
    EXPECT_TRUE((!strm5 || in.get(classes)) && in.get(b.dead) && in.get(b.events) &&
                in.get(b.live) && in.get(ncells));
    EXPECT_EQ(classes, 1u) << "one class";
    b.cells.resize(ncells);
    for (Cell& c : b.cells) {
      std::uint64_t views = 1, npoints = 0;
      EXPECT_TRUE(in.get_vector(c.row) && (!strm5 || in.get(views)) && in.get(c.net) &&
                  in.get(c.peak) && in.get(c.tombstoned) && in.get(npoints));
      EXPECT_EQ(views, 1u) << "one class";
      c.points.resize(npoints);
      for (auto& [packed, count] : c.points) {
        EXPECT_TRUE(in.get_string(packed) && in.get(count));
      }
    }
    EXPECT_TRUE(in.done());
    return b;
  }

  std::string write(bool strm5) const {
    serial::Writer out;
    if (strm5) out.put<std::uint32_t>(1);
    out.put(dead);
    out.put(events);
    out.put(live);
    out.put<std::uint64_t>(cells.size());
    for (const Cell& c : cells) {
      out.put_vector(c.row);
      if (strm5) out.put<std::uint64_t>(1);
      out.put(c.net);
      out.put(c.peak);
      out.put(c.tombstoned);
      out.put<std::uint64_t>(c.points.size());
      for (const auto& [packed, count] : c.points) {
        out.put_string(packed);
        out.put(count);
      }
    }
    return out.take();
  }
};

/// The node-map store's pinned blob as records.
StoreBlob pinned() { return StoreBlob::parse_node_map(node_map_blob()); }

std::string packed(std::vector<Coord> p) {
  return std::string(reinterpret_cast<const char*>(p.data()), p.size() * sizeof(Coord));
}

void expect_refused(const StoreBlob& blob) {
  const HierarchicalGrid grid = pin_grid();
  CellPointStore store = one_class(grid, 2, pin_config());
  EXPECT_FALSE(loads(store, blob.str()));
  EXPECT_FALSE(store.dead(0));
  EXPECT_TRUE(store.all_cells(0).empty());
  EXPECT_EQ(store.memory_bytes(), 0u);
}

TEST(CellPointStore, LoadsABlobWrittenByTheNodeMapStore) {
  const HierarchicalGrid grid = pin_grid();
  CellPointStore store = one_class(grid, 2, pin_config());
  const std::string blob = StoreBlob::parse_node_map(node_map_blob()).str();
  ASSERT_TRUE(loads(store, blob));
  EXPECT_FALSE(store.dead(0));
  EXPECT_EQ(store.events(0), 20);

  const auto a = store.cell(0, level2(0, 0));
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->complete);
  EXPECT_EQ(a->net_count, 6);
  // Coordinate-lexicographic and expanded by multiplicity, whatever order
  // the blob listed the points in.
  const std::vector<std::vector<Coord>> want_a = {{3, 4}, {3, 4}, {5, 6},
                                                  {9, 2}, {9, 2}, {9, 2}};
  EXPECT_EQ(coords_of(a->points), want_a);

  const auto b = store.cell(0, level2(1, 1));
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(b->complete);
  EXPECT_EQ(b->net_count, 7);
  EXPECT_TRUE(b->points.empty());

  const auto c = store.cell(0, level2(2, 3));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(coords_of(c->points), (std::vector<std::vector<Coord>>{{40, 50}}));

  const auto d = store.cell(0, level2(3, 0));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->net_count, 0);
  EXPECT_FALSE(store.cell(0, level2(0, 1)).has_value());
  EXPECT_EQ(store.all_cells(0).size(), 3u);  // the net-0 cell is skipped

  // The node-map store reads the same blob to the same multisets.
  oracle::NodeMapPointStore reference(grid, 2, pin_config());
  ASSERT_TRUE(loads(reference, node_map_blob()));
  for (const auto& [key, want] : reference.all_cells()) {
    const auto got = store.cell(0, key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->net_count, want.net_count);
    EXPECT_EQ(got->complete, want.complete);
    EXPECT_EQ(testutil::canonical_multiset(got->points),
              testutil::canonical_multiset(want.points));
  }

  // Records keep the blob's order, so re-saving reproduces it byte for byte.
  EXPECT_EQ(saved(store), blob);
}

TEST(CellPointStore, LoadAcceptsTheUnmutatedBlob) {
  const StoreBlob blob = pinned();
  EXPECT_EQ(blob.node_map_str(), node_map_blob());
  EXPECT_EQ(StoreBlob::parse(blob.str()).str(), blob.str());
  const HierarchicalGrid grid = pin_grid();
  CellPointStore store = one_class(grid, 2, pin_config());
  EXPECT_TRUE(loads(store, blob.str()));
}

TEST(CellPointStore, LoadRejectsACellRowOfTheWrongLength) {
  StoreBlob blob = pinned();
  blob.at(3, 0).row.push_back(0);
  expect_refused(blob);
}

// The record that used to load and then abort the next cell() call.
TEST(CellPointStore, LoadRejectsAPointRecordOfTheWrongLength) {
  StoreBlob blob = pinned();
  blob.at(2, 3).points.front().first.append(4, '\0');  // 12 bytes for 2-D
  expect_refused(blob);
}

TEST(CellPointStore, LoadRejectsANonPositiveCount) {
  for (const std::int64_t count : {0, -2}) {
    StoreBlob blob = pinned();
    blob.at(0, 0).points.front().second = count;
    expect_refused(blob);
  }
}

// Each unit of multiplicity is one applied insert, so a blob's counts sum
// to at most its events().  A larger count used to load, and the next
// cell() read expanded it: a store that had applied one event, with that
// point's count set to 2^40, reserved a 2^40-point PointSet and aborted
// with bad_alloc.
TEST(CellPointStore, LoadRejectsCountsPastItsEvents) {
  const HierarchicalGrid grid = pin_grid();
  CellPointStore one = one_class(grid, 2, pin_config());
  add(one, grid, std::vector<Coord>{5, 6}, +1);
  StoreBlob blob = StoreBlob::parse(saved(one));
  ASSERT_EQ(blob.events, 1);
  blob.at(0, 0).points.front().second = std::int64_t{1} << 40;
  expect_refused(blob);

  // The bound is on the sum, and it is exact: with events() at 8 (the
  // largest cell peak), the pinned blob's counts (7) may grow to 8, not 9.
  StoreBlob tight = pinned();
  tight.events = 8;
  std::int64_t& count = tight.at(0, 0).points.front().second;
  ++count;
  CellPointStore store = one_class(grid, 2, pin_config());
  EXPECT_TRUE(loads(store, tight.str()));
  ++count;
  expect_refused(tight);
  tight.events = -1;
  expect_refused(tight);
}

// A cell's net moves by one per event and its peak is a past net, so both
// are bounded by events(), and events() by kMaxEvents: a fold adds nets,
// peaks and events of up to 1,023 loaded stores without overflowing.
TEST(CellPointStore, LoadRejectsEventsNetsAndPeaksNoHistoryWrites) {
  const StoreBlob pinned_blob = pinned();
  ASSERT_EQ(pinned_blob.events, 20);
  {
    StoreBlob blob = pinned_blob;
    blob.events = kMaxEvents + 1;
    expect_refused(blob);
  }
  for (const std::int64_t net : {21, -21}) {
    StoreBlob blob = pinned_blob;
    blob.at(3, 0).net = net;
    expect_refused(blob);
  }
  for (const std::int64_t peak : {21, -1}) {
    StoreBlob blob = pinned_blob;
    blob.at(3, 0).peak = peak;
    expect_refused(blob);
  }
}

TEST(CellPointStore, LoadRejectsADuplicateCell) {
  StoreBlob blob = pinned();
  blob.cells.push_back(blob.at(3, 0));  // no points: only the key repeats
  expect_refused(blob);
}

TEST(CellPointStore, LoadRejectsADuplicatePoint) {
  StoreBlob blob = pinned();
  StoreBlob::Cell& cell = blob.at(2, 3);
  cell.points.push_back(cell.points.front());
  ++blob.live;
  expect_refused(blob);
}

TEST(CellPointStore, LoadRejectsAPointOutsideItsCell) {
  StoreBlob blob = pinned();
  blob.at(0, 0).points.emplace_back(packed({40, 51}), 1);  // lies in (2,3)
  ++blob.live;
  expect_refused(blob);
}

TEST(CellPointStore, LoadRejectsPointsOnATombstonedCell) {
  StoreBlob blob = pinned();
  blob.at(1, 1).points.emplace_back(packed({18, 20}), 1);
  ++blob.live;
  expect_refused(blob);
}

TEST(CellPointStore, LoadRejectsAMismatchedLivePointCount) {
  StoreBlob blob = pinned();
  ++blob.live;
  expect_refused(blob);
}

TEST(CellPointStore, LoadRejectsADeadStoreWithContents) {
  StoreBlob blob = pinned();
  blob.dead = 1;
  expect_refused(blob);
}

// ---------------------------------------------------------------------------
// Differential test against the node-map store: seeded random operation
// sequences drive both stores, and after every step they must report the
// same dead(), events() and contents.
// ---------------------------------------------------------------------------

using CellView = std::tuple<std::int64_t, bool, std::vector<std::vector<Coord>>>;

CellView view(const CellPointStore::CellPoints& cp) {
  return {cp.net_count, cp.complete, testutil::canonical_multiset(cp.points)};
}

std::vector<std::pair<CellKey, CellPointStore::CellPoints>> cells_of(
    const CellPointStore& store) {
  return store.all_cells(0);
}

std::vector<std::pair<CellKey, CellPointStore::CellPoints>> cells_of(
    const oracle::NodeMapPointStore& store) {
  return store.all_cells();
}

template <typename Store>
std::map<std::vector<std::int32_t>, CellView> all_cells_of(const Store& store) {
  std::map<std::vector<std::int32_t>, CellView> out;
  for (const auto& [key, cp] : cells_of(store)) {
    EXPECT_TRUE(out.emplace(key.index, view(cp)).second) << "cell listed twice";
  }
  return out;
}

// Merge sums peaks, carries the other side's tombstones, then re-checks
// eviction — also into an empty store, where it copies the arrays, and also
// for blob states the store itself never writes.
TEST(CellPointStore, MergeEvictsLikeTheNodeMapStoreOnLoadedBlobs) {
  const HierarchicalGrid grid = pin_grid();
  StoreBlob tombstone = pinned();
  tombstone.at(1, 1).peak = 0;  // tombstoned below the watermark
  StoreBlob over = pinned();
  over.at(0, 0).peak = 7;  // complete above the watermark (6)
  for (const StoreBlob* blob : {&tombstone, &over}) {
    CellPointStore theirs = one_class(grid, 2, pin_config());
    oracle::NodeMapPointStore theirs_ref(grid, 2, pin_config());
    ASSERT_TRUE(loads(theirs, blob->str()));
    ASSERT_TRUE(loads(theirs_ref, blob->node_map_str()));
    for (const bool empty : {true, false}) {
      SCOPED_TRACE(empty ? "into an empty store" : "into a fed store");
      CellPointStore mine = one_class(grid, 2, pin_config());
      oracle::NodeMapPointStore mine_ref(grid, 2, pin_config());
      if (!empty) {
        add(mine, grid, std::vector<Coord>{18, 20}, +1);
        mine_ref.update(std::vector<Coord>{18, 20}, +1);
      }
      mine.merge(theirs);
      mine_ref.merge(theirs_ref);
      EXPECT_EQ(all_cells_of(mine), all_cells_of(mine_ref));
      EXPECT_FALSE(mine.cell(0, level2(1, 1))->complete);
    }
  }
}

struct DiffCase {
  const char* name;
  PointStoreConfig config;
  bool tombstones;  ///< some cell must tombstone in some run
  bool dies;        ///< some run must end with a dead store
};

class StorePair {
 public:
  StorePair(const HierarchicalGrid& grid, int level, const PointStoreConfig& cfg)
      : flat(one_class(grid, level, cfg)), nodes(grid, level, cfg), grid_(&grid), level_(level) {}

  /// One event: a one-event batch on the flat store, the pointwise update
  /// on the node-map store; a dead store is skipped, as the builder does.
  void update(const std::vector<Coord>& p, std::int64_t delta) {
    touched.insert(grid_->cell_of(p, level_).index);
    add(flat, *grid_, p, delta);
    if (!nodes.dead()) nodes.update(p, delta);
  }

  /// update_batch on the flat store; the pointwise loop (with the builder's
  /// dead() check) on the node-map store.
  void update_batch(const std::vector<Coord>& pts, const std::vector<std::int64_t>& deltas) {
    const std::size_t n = deltas.size();
    std::vector<std::int32_t> idx(pts.size());
    grid_->cell_index_of_batch(pts.data(), n, level_, idx.data());
    const std::vector<std::uint64_t> h(n, 0);
    flat.update_batch(pts.data(), idx.data(), h.data(), deltas.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      touched.insert({idx[2 * i], idx[2 * i + 1]});
      if (nodes.dead()) break;
      nodes.update(std::span<const Coord>(pts.data() + 2 * i, 2), deltas[i]);
    }
  }

  void merge(const StorePair& other) {
    touched.insert(other.touched.begin(), other.touched.end());
    flat.merge(other.flat);
    nodes.merge(other.nodes);
  }

  /// Each store reloads from the OTHER one's blob, carried across the record
  /// layouts by StoreBlob: the two writers must stay interchangeable in both
  /// directions.
  void swap_blobs(const PointStoreConfig& cfg) {
    const std::string from_flat = StoreBlob::parse(saved(flat)).node_map_str();
    const std::string from_nodes = StoreBlob::parse_node_map(saved(nodes)).str();
    CellPointStore flat2 = one_class(*grid_, level_, cfg);
    oracle::NodeMapPointStore nodes2(*grid_, level_, cfg);
    ASSERT_TRUE(loads(flat2, from_nodes));
    ASSERT_TRUE(loads(nodes2, from_flat));
    flat = std::move(flat2);
    nodes = std::move(nodes2);
  }

  void expect_same(const std::string& where) const {
    SCOPED_TRACE(where);
    ASSERT_EQ(flat.dead(0), nodes.dead());
    EXPECT_EQ(flat.events(0), nodes.events());
    for (const auto& row : touched) {
      const CellKey key{level_, row};
      const auto got = flat.cell(0, key);
      const auto want = nodes.cell(key);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (!got) continue;
      EXPECT_EQ(view(*got), view(*want));
      // The flat store's order is the canonical one.
      EXPECT_EQ(coords_of(got->points), testutil::canonical_multiset(got->points));
    }
    EXPECT_EQ(all_cells_of(flat), all_cells_of(nodes));
  }

  CellPointStore flat;
  oracle::NodeMapPointStore nodes;
  std::set<std::vector<std::int32_t>> touched;  ///< cells any operation hit

 private:
  const HierarchicalGrid* grid_;
  int level_;
};

TEST(CellPointStore, MatchesTheNodeMapStoreOnRandomOperations) {
  std::vector<DiffCase> cases;
  {
    PointStoreConfig exact;
    exact.exact = true;
    exact.watermark = 3;  // ignored in exact mode
    exact.max_live_points = 10;
    cases.push_back({"exact", exact, false, false});
    PointStoreConfig tombstones;
    tombstones.watermark = 5;  // small: cells tombstone
    tombstones.max_live_points = 1 << 20;
    cases.push_back({"sketch, small watermark", tombstones, true, false});
    PointStoreConfig dies;
    dies.watermark = 12;
    dies.max_live_points = 40;  // small: stores die mid-stream
    cases.push_back({"sketch, small live cap", dies, true, true});
  }
  for (const DiffCase& dc : cases) {
    bool saw_tombstone = false, saw_dead = false;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << dc.name << ", seed " << seed);
      Rng rng(seed * 7919);
      HierarchicalGrid grid(2, 7, rng);
      const int level = 3;  // 16 x 16 cells over the 128 x 128 domain
      StorePair a(grid, level, dc.config);
      // Points from a 48 x 48 corner: repeats (multiplicity > 1) are common.
      std::vector<std::vector<Coord>> live;  // inserted and not yet deleted
      auto draw = [&rng] {
        return std::vector<Coord>{static_cast<Coord>(rng.uniform_int(1, 48)),
                                  static_cast<Coord>(rng.uniform_int(1, 48))};
      };
      auto churn = [&](StorePair& s, std::vector<std::vector<Coord>>& pool, int steps) {
        for (int i = 0; i < steps; ++i) {
          if (!pool.empty() && rng.uniform() < 0.4) {
            const auto at = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
            s.update(pool[at], -1);
            pool[at] = pool.back();
            pool.pop_back();
          } else {
            pool.push_back(draw());
            s.update(pool.back(), +1);
          }
        }
      };
      for (int step = 0; step < 150; ++step) {
        const double op = rng.uniform();
        const std::string where = "step " + std::to_string(step);
        if (op < 0.45) {
          churn(a, live, 1);
        } else if (op < 0.6) {
          // A batch of inserts and deletes of live points.
          std::vector<Coord> pts;
          std::vector<std::int64_t> deltas;
          const auto n = rng.uniform_int(1, 24);
          for (std::int64_t i = 0; i < n; ++i) {
            if (!live.empty() && rng.uniform() < 0.35) {
              pts.insert(pts.end(), live.back().begin(), live.back().end());
              live.pop_back();
              deltas.push_back(-1);
            } else {
              live.push_back(draw());
              pts.insert(pts.end(), live.back().begin(), live.back().end());
              deltas.push_back(+1);
            }
          }
          a.update_batch(pts, deltas);
        } else if (op < 0.7) {
          // Delete-after-peak: a burst in one cell, then its removal.
          std::vector<std::vector<Coord>> burst;
          const std::vector<Coord> anchor = draw();
          for (int i = 0; i < 6; ++i) {
            burst.push_back({anchor[0], static_cast<Coord>(anchor[1] + i % 2)});
            a.update(burst.back(), +1);
          }
          for (const auto& p : burst) a.update(p, -1);
        } else if (op < 0.75) {
          a.update(draw(), -1);  // an untracked deletion (ill-formed stream)
        } else if (op < 0.88) {
          StorePair b(grid, level, dc.config);
          std::vector<std::vector<Coord>> pool;
          churn(b, pool, static_cast<int>(rng.uniform_int(1, 60)));
          b.expect_same(where + ", merge operand");
          if (rng.uniform() < 0.5) {
            a.merge(b);
          } else {
            // The export fold's shape: an empty store takes a, then b.
            StorePair fold(grid, level, dc.config);
            fold.merge(a);
            fold.merge(b);
            a = std::move(fold);
          }
          live.insert(live.end(), pool.begin(), pool.end());
        } else {
          a.swap_blobs(dc.config);
        }
        a.expect_same(where);
        if (::testing::Test::HasFatalFailure()) return;
        saw_dead = saw_dead || a.flat.dead(0);
        for (const auto& [key, cp] : a.flat.all_cells(0)) {
          saw_tombstone = saw_tombstone || !cp.complete;
        }
      }
    }
    EXPECT_EQ(saw_tombstone, dc.tombstones) << dc.name;
    EXPECT_EQ(saw_dead, dc.dies) << dc.name;
  }
}

// load() bounds counts by events() because every event moves one point's
// multiplicity by one; update_batch enforces that in all builds.
TEST(CellPointStoreDeathTest, AnEventOfAnotherMultiplicityAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const HierarchicalGrid grid = pin_grid();
  CellPointStore store = one_class(grid, 2, pin_config());
  EXPECT_DEATH(add(store, grid, std::vector<Coord>{5, 6}, 2),
               "a point store event inserts or deletes one point");
}

}  // namespace
}  // namespace skc
