// PointStoreOracle: one rate-class CellPointStore against one node-map store
// per class (the per-(level, phi) pool the builder kept before, each store
// fed the events its own keep bound keeps).  For every live class j, every
// read of the store's view j must equal what the class-j oracle reports,
// after every step of seeded sequences of inserts, deletes of present and
// absent points, merges of independently fed stores, save -> load and
// trims, in exact mode, in sketch mode with a small watermark and with a
// small live cap.  The summed reads over 1-4 parts must equal the oracles'
// fold.  Two counterexamples to "eviction and death are monotone in the
// class" are pinned, and so are the load rules of the class records and the
// builder's guess -> class maps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "node_map_point_store.h"
#include "skc/common/random.h"
#include "skc/common/serial.h"
#include "skc/coreset/streaming.h"
#include "skc/hash/field61.h"
#include "skc/sketch/point_store.h"
#include "test_util.h"

namespace skc {
namespace {

constexpr std::uint64_t kP = (std::uint64_t{1} << 61) - 1;
constexpr std::uint64_t kAll = ~std::uint64_t{0};

/// Seven guesses over five classes: guesses 0-1 keep every event, 3-4 share
/// a bound, and each class keeps about half of the one below.
std::vector<std::uint64_t> keep_bounds() {
  return {kAll, kAll, kP / 2, kP / 4, kP / 4, kP / 8, kP / 16};
}

/// A point's coreset hash: a fixed function of its coordinates, as the
/// builder's level hash is, so every event of a point has one class.
std::uint64_t hash_of(std::span<const Coord> p) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (const Coord c : p) {
    h = (h ^ static_cast<std::uint32_t>(c)) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  return h % kP;
}

using CellView = std::tuple<std::int64_t, bool, std::vector<std::vector<Coord>>>;

CellView view_of(const CellPointStore::CellPoints& cp) {
  return {cp.net_count, cp.complete, testutil::canonical_multiset(cp.points)};
}

std::string saved(const CellPointStore& store) {
  serial::Writer out;
  store.save(out);
  return out.take();
}

/// The store and one oracle per class, fed and merged alike.  Oracles of
/// released classes (below the store's first_class()) are no longer fed.
class Harness {
 public:
  Harness(const HierarchicalGrid& grid, int level, const PointStoreConfig& cfg)
      : store(grid, level, cfg, keep_bounds()), grid_(&grid), level_(level), cfg_(cfg) {
    for (int j = 0; j < store.classes(); ++j) oracles.emplace_back(grid, level, cfg);
  }

  /// One batch: update_batch on the store; each event, in order, to the
  /// oracle of every class at or below its own that is alive (the builder
  /// skipped dead stores).
  void update_batch(const std::vector<Coord>& pts, const std::vector<std::int64_t>& deltas) {
    const std::size_t n = deltas.size();
    std::vector<std::int32_t> idx(pts.size());
    std::vector<std::uint64_t> h(n);
    grid_->cell_index_of_batch(pts.data(), n, level_, idx.data());
    for (std::size_t i = 0; i < n; ++i) h[i] = hash_of({pts.data() + 2 * i, 2});
    store.update_batch(pts.data(), idx.data(), h.data(), deltas.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const int k = store.kept_class(h[i]);
      if (k >= 0) touched.insert({idx[2 * i], idx[2 * i + 1]});
      for (int j = store.first_class(); j <= k; ++j) {
        if (oracles[static_cast<std::size_t>(j)].dead()) continue;
        oracles[static_cast<std::size_t>(j)].update({pts.data() + 2 * i, 2}, deltas[i]);
      }
    }
  }

  void update(const std::vector<Coord>& p, std::int64_t delta) { update_batch(p, {delta}); }

  /// Merges both sides into this one: the store, and each live class's
  /// oracle with the other side's (both trimmed to the longer prefix).
  void merge(const Harness& other) {
    touched.insert(other.touched.begin(), other.touched.end());
    store.merge(other.store);
    for (int j = store.first_class(); j < store.classes(); ++j) {
      oracles[static_cast<std::size_t>(j)].merge(other.oracles[static_cast<std::size_t>(j)]);
    }
  }

  void trim(int lo) { store.trim(lo); }

  /// save -> load on both sides.
  void reload() {
    const std::string blob = saved(store);
    CellPointStore thawed(*grid_, level_, cfg_, keep_bounds());
    serial::Reader in(blob);
    ASSERT_TRUE(thawed.load(in, store.lo()) && in.done());
    EXPECT_EQ(saved(thawed), blob) << "save -> load -> save";
    store = std::move(thawed);
    for (int j = store.first_class(); j < store.classes(); ++j) {
      oracle::NodeMapPointStore& o = oracles[static_cast<std::size_t>(j)];
      serial::Writer out;
      o.save(out);
      const std::string bytes = out.take();
      oracle::NodeMapPointStore again(*grid_, level_, cfg_);
      serial::Reader oin(bytes);
      ASSERT_TRUE(again.load(oin));
      o = std::move(again);
    }
  }

  /// Every live class's view against its oracle: dead(), events(), every
  /// touched cell, every listed cell, and the live points.
  void expect_same(const std::string& where) const {
    SCOPED_TRACE(where);
    for (int j = store.first_class(); j < store.classes(); ++j) {
      SCOPED_TRACE(testing::Message() << "class " << j);
      const oracle::NodeMapPointStore& o = oracles[static_cast<std::size_t>(j)];
      ASSERT_EQ(store.dead(j), o.dead());
      EXPECT_EQ(store.events(j), o.events());
      std::int64_t live = 0;
      for (const auto& row : touched) {
        const CellKey key{level_, row};
        const auto got = store.cell(j, key);
        const auto want = o.cell(key);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (!got) continue;
        EXPECT_EQ(view_of(*got), view_of(*want));
        if (want->complete) {
          const auto points = testutil::canonical_multiset(want->points);
          live += static_cast<std::int64_t>(std::set(points.begin(), points.end()).size());
        }
      }
      EXPECT_EQ(store.live_points(j), live);
      std::map<std::vector<std::int32_t>, CellView> got_cells, want_cells;
      for (const auto& [key, cp] : store.all_cells(j)) got_cells.emplace(key.index, view_of(cp));
      for (const auto& [key, cp] : o.all_cells()) want_cells.emplace(key.index, view_of(cp));
      EXPECT_EQ(got_cells, want_cells);
    }
  }

  CellPointStore store;
  std::vector<oracle::NodeMapPointStore> oracles;
  std::set<std::vector<std::int32_t>> touched;  ///< cells any kept event hit

 private:
  const HierarchicalGrid* grid_;
  int level_;
  PointStoreConfig cfg_;
};

struct Mode {
  const char* name;
  PointStoreConfig config;
  bool tombstones;  ///< some view must tombstone a cell in some run
  bool dies;        ///< some view must die in some run
};

std::vector<Mode> modes() {
  PointStoreConfig exact;
  exact.exact = true;
  exact.watermark = 4;  // ignored in exact mode
  exact.max_live_points = 8;
  PointStoreConfig watermark;
  watermark.watermark = 4;
  watermark.max_live_points = 1 << 20;
  PointStoreConfig cap;
  cap.watermark = 4;
  cap.max_live_points = 8;
  return {{"exact", exact, false, false},
          {"sketch, watermark 4", watermark, true, false},
          {"sketch, live cap 8", cap, true, true}};
}

/// Random operations over a 48 x 48 corner of a 2^7 grid at level 3
/// (cells of side 16): repeated points and crowded cells.
class RandomOps {
 public:
  explicit RandomOps(std::uint64_t seed) : rng(seed) {}

  std::vector<Coord> draw() {
    return {static_cast<Coord>(rng.uniform_int(1, 48)), static_cast<Coord>(rng.uniform_int(1, 48))};
  }

  /// A batch of 1-24 events: inserts, deletes of live points, and now and
  /// then a delete of a point that is not there.
  void batch(Harness& h, std::vector<std::vector<Coord>>& live) {
    std::vector<Coord> pts;
    std::vector<std::int64_t> deltas;
    const auto n = rng.uniform_int(1, 24);
    for (std::int64_t i = 0; i < n; ++i) {
      std::vector<Coord> p;
      std::int64_t delta = +1;
      const double op = rng.uniform();
      if (!live.empty() && op < 0.35) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        p = live[at];
        live[at] = live.back();
        live.pop_back();
        delta = -1;
      } else if (op < 0.42) {
        p = draw();  // absent (or, rarely, live: a second copy's delete)
        delta = -1;
      } else {
        p = draw();
        live.push_back(p);
      }
      pts.insert(pts.end(), p.begin(), p.end());
      deltas.push_back(delta);
    }
    h.update_batch(pts, deltas);
  }

  Rng rng;
};

constexpr int kLevel = 3;

TEST(PointStoreOracle, MatchesOneNodeMapStorePerClassOnRandomOperations) {
  for (const Mode& mode : modes()) {
    bool saw_tombstone = false, saw_dead = false, saw_trim = false;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << mode.name << ", seed " << seed);
      RandomOps d(seed * 104729);
      HierarchicalGrid grid(2, 7, d.rng);
      Harness a(grid, kLevel, mode.config);
      std::vector<std::vector<Coord>> live;
      for (int step = 0; step < 160; ++step) {
        const double op = d.rng.uniform();
        const std::string where = "step " + std::to_string(step);
        if (op < 0.5) {
          d.batch(a, live);
        } else if (op < 0.6) {
          // Delete-after-peak: a burst in one cell, then its removal.
          std::vector<std::vector<Coord>> burst;
          const std::vector<Coord> anchor = d.draw();
          for (int i = 0; i < 7; ++i) {
            burst.push_back({anchor[0], static_cast<Coord>(anchor[1] + i % 3)});
            a.update(burst.back(), +1);
          }
          for (const auto& p : burst) a.update(p, -1);
        } else if (op < 0.78) {
          Harness b(grid, kLevel, mode.config);
          std::vector<std::vector<Coord>> pool;
          const auto batches = d.rng.uniform_int(1, 4);
          for (std::int64_t i = 0; i < batches; ++i) d.batch(b, pool);
          if (d.rng.uniform() < 0.3) b.trim(static_cast<int>(d.rng.uniform_int(0, 4)));
          b.expect_same(where + ", merge operand");
          if (d.rng.uniform() < 0.5) {
            a.merge(b);
          } else {
            // The export fold's shape: an empty store takes a, then b.
            Harness fold(grid, kLevel, mode.config);
            fold.merge(a);
            fold.merge(b);
            a = std::move(fold);
          }
          live.insert(live.end(), pool.begin(), pool.end());
        } else if (op < 0.9) {
          a.reload();
        } else if (a.store.lo() < 5) {
          a.trim(a.store.lo() + static_cast<int>(d.rng.uniform_int(1, 2)));
          saw_trim = saw_trim || a.store.first_class() > 0;
        }
        a.expect_same(where);
        if (::testing::Test::HasFatalFailure()) return;
        for (int j = a.store.first_class(); j < a.store.classes(); ++j) {
          saw_dead = saw_dead || a.store.dead(j);
          for (const auto& [key, cp] : a.store.all_cells(j)) {
            saw_tombstone = saw_tombstone || !cp.complete;
          }
        }
      }
    }
    EXPECT_EQ(saw_tombstone, mode.tombstones) << mode.name;
    EXPECT_EQ(saw_dead, mode.dies) << mode.name;
    EXPECT_TRUE(saw_trim) << mode.name;
  }
}

TEST(PointStoreOracle, SummedReadsMatchTheFoldOfThePerClassStores) {
  for (const Mode& mode : modes()) {
    for (int nparts = 1; nparts <= 4; ++nparts) {
      for (const std::uint64_t seed : {5u, 6u, 7u}) {
        SCOPED_TRACE(testing::Message() << mode.name << ", " << nparts << " parts, seed "
                                        << seed);
        RandomOps d(seed * 7919 + static_cast<std::uint64_t>(nparts));
        HierarchicalGrid grid(2, 7, d.rng);
        std::vector<Harness> parts;
        for (int p = 0; p < nparts; ++p) {
          parts.emplace_back(grid, kLevel, mode.config);
          std::vector<std::vector<Coord>> live;
          const auto batches = d.rng.uniform_int(1, 6);
          for (std::int64_t i = 0; i < batches; ++i) d.batch(parts.back(), live);
          if (d.rng.uniform() < 0.3) parts.back().trim(static_cast<int>(d.rng.uniform_int(0, 3)));
        }
        Harness fold(grid, kLevel, mode.config);
        std::vector<const CellPointStore*> refs;
        for (const Harness& part : parts) {
          fold.merge(part);
          refs.push_back(&part.store);
        }
        fold.expect_same("the fold");
        for (int j = fold.store.first_class(); j < fold.store.classes(); ++j) {
          SCOPED_TRACE(testing::Message() << "class " << j);
          const oracle::NodeMapPointStore& want = fold.oracles[static_cast<std::size_t>(j)];
          ASSERT_EQ(CellPointStore::summed_dead(refs, j), want.dead());
          if (want.dead()) continue;
          for (const auto& row : fold.touched) {
            const CellKey key{kLevel, row};
            const auto got = CellPointStore::summed_cell(refs, j, key);
            const auto expected = want.cell(key);
            ASSERT_EQ(got.has_value(), expected.has_value());
            if (got) {
              EXPECT_EQ(view_of(*got), view_of(*expected));
            }
          }
        }
      }
    }
  }
}

// --- Pinned counterexamples, on an unshifted 2^6 grid at level 2 (cells of
// side 16), watermark 4, live cap 4, and two classes: class 0 keeps every
// event, class 1 the half with a hash below P / 2.

PointStoreConfig pin_config() {
  PointStoreConfig cfg;
  cfg.watermark = 4;
  cfg.max_live_points = 4;
  return cfg;
}

constexpr std::uint64_t kClass0 = kP - 1;  // only class 0 keeps it
constexpr std::uint64_t kClass1 = 0;       // both classes keep it

struct PinEvent {
  Coord x, y;
  std::uint64_t h;
  std::int64_t delta;
};

/// Feeds `events` to a two-class store and to one oracle per class.
void feed(CellPointStore& store, std::vector<oracle::NodeMapPointStore>& oracles,
          const HierarchicalGrid& grid, const std::vector<PinEvent>& events) {
  for (const PinEvent& e : events) {
    const std::vector<Coord> p = {e.x, e.y};
    const CellKey cell = grid.cell_of(p, 2);
    store.update_batch(p.data(), cell.index.data(), &e.h, &e.delta, 1);
    for (int j = 0; j <= store.kept_class(e.h); ++j) {
      if (!oracles[static_cast<std::size_t>(j)].dead()) {
        oracles[static_cast<std::size_t>(j)].update(p, e.delta);
      }
    }
  }
}

// Class 0 sees 5 points of cell X and tombstones it (peak 5 > 4); class 1
// sees only the 4 points of X that class 1 keeps (peak 4), so it holds them
// all, and one more point in cell Y takes class 1 past the cap of 4 while
// class 0 holds 1.  The higher class dies; the lower lives.
TEST(PointStoreOracle, AHigherClassDiesWhileALowerOneLives) {
  const HierarchicalGrid grid(2, 6, std::vector<Coord>{0, 0});
  CellPointStore store(grid, 2, pin_config(), {kAll, kP / 2});
  std::vector<oracle::NodeMapPointStore> oracles(2, {grid, 2, pin_config()});
  std::vector<PinEvent> events;
  for (Coord x = 1; x <= 5; ++x) events.push_back({x, 1, kClass0, +1});
  for (Coord x = 1; x <= 4; ++x) events.push_back({x, 2, kClass1, +1});
  events.push_back({40, 40, kClass1, +1});  // cell Y
  feed(store, oracles, grid, events);

  ASSERT_FALSE(oracles[0].dead());
  ASSERT_TRUE(oracles[1].dead());
  EXPECT_FALSE(store.dead(0));
  EXPECT_TRUE(store.dead(1));
  EXPECT_EQ(store.live_points(0), 1);
  const CellKey x{2, {0, 0}}, y{2, {2, 2}};
  EXPECT_FALSE(store.cell(0, x)->complete);
  EXPECT_EQ(store.cell(0, x)->net_count, 9);
  EXPECT_EQ(testutil::canonical_multiset(store.cell(0, y)->points),
            testutil::canonical_multiset(oracles[0].cell(y)->points));
  EXPECT_FALSE(store.cell(1, x).has_value());
  EXPECT_EQ(store.events(0), oracles[0].events());
  EXPECT_EQ(store.events(1), oracles[1].events());

  // Class 0 goes on counting; the dead class 1 stays frozen, and its
  // class's points live on in class 0's view.
  feed(store, oracles, grid,
       {{41, 40, kClass1, +1}, {42, 41, kClass0, +1}, {40, 40, kClass1, -1}});
  EXPECT_TRUE(store.dead(1));
  EXPECT_EQ(store.events(0), oracles[0].events());
  EXPECT_EQ(store.events(1), oracles[1].events());
  EXPECT_EQ(store.live_points(0), 2);
  EXPECT_EQ(view_of(*store.cell(0, y)), view_of(*oracles[0].cell(y)));
}

// Deletes of absent points lower a class's net: class 0 sees 3 of them in
// cell Z first, so the 5 inserts both classes keep peak at 2 there and at 5
// in class 1.  Class 1 tombstones Z, class 0 holds its 5 points; in cell X
// (above) class 0 tombstones while class 1 holds.  No order of the classes
// nests the tombstones.
TEST(PointStoreOracle, TombstonesAreNotNestedAcrossClasses) {
  const HierarchicalGrid grid(2, 6, std::vector<Coord>{0, 0});
  PointStoreConfig cfg = pin_config();
  cfg.max_live_points = 1 << 10;
  CellPointStore store(grid, 2, cfg, {kAll, kP / 2});
  std::vector<oracle::NodeMapPointStore> oracles(2, {grid, 2, cfg});
  std::vector<PinEvent> events;
  for (Coord x = 1; x <= 5; ++x) events.push_back({x, 1, kClass0, +1});  // cell X
  for (Coord x = 1; x <= 4; ++x) events.push_back({x, 2, kClass1, +1});
  for (Coord x = 33; x <= 35; ++x) events.push_back({x, 33, kClass0, -1});  // cell Z
  for (Coord x = 33; x <= 37; ++x) events.push_back({x, 34, kClass1, +1});
  feed(store, oracles, grid, events);

  const CellKey x{2, {0, 0}}, z{2, {2, 2}};
  EXPECT_FALSE(store.cell(0, x)->complete);
  EXPECT_TRUE(store.cell(1, x)->complete);
  EXPECT_EQ(store.cell(1, x)->points.size(), 4);
  EXPECT_TRUE(store.cell(0, z)->complete);
  EXPECT_EQ(store.cell(0, z)->net_count, 2);
  EXPECT_EQ(store.cell(0, z)->points.size(), 5);
  EXPECT_FALSE(store.cell(1, z)->complete);
  for (int j = 0; j < 2; ++j) {
    for (const CellKey& key : {x, z}) {
      EXPECT_EQ(view_of(*store.cell(j, key)),
                view_of(*oracles[static_cast<std::size_t>(j)].cell(key)));
    }
  }
  // Both states survive save -> load and a merge into an empty store.
  const std::string blob = saved(store);
  CellPointStore thawed(grid, 2, cfg, {kAll, kP / 2});
  serial::Reader in(blob);
  ASSERT_TRUE(thawed.load(in, 0));
  CellPointStore folded(grid, 2, cfg, {kAll, kP / 2});
  folded.merge(thawed);
  for (int j = 0; j < 2; ++j) {
    for (const CellKey& key : {x, z}) {
      EXPECT_EQ(view_of(*folded.cell(j, key)), view_of(*store.cell(j, key)));
    }
  }
}

// --- The class records load() reads: a two-class store (bounds P and P/2)
// on the pinned grid, one cell at (0, 0) with a view per class, and one
// class-1 point (3, 4) that both views hold.

struct ClassRec {
  std::uint8_t dead = 0;
  std::int64_t events = 0;
  std::int64_t live = 0;
};
struct ViewRec {
  std::int64_t net = 0;
  std::int64_t peak = 0;
  std::uint8_t tombstoned = 0;
  std::vector<std::pair<std::vector<Coord>, std::int64_t>> points;
};
struct TwoClassBlob {
  std::uint32_t classes = 2;
  ClassRec cls[2] = {{0, 3, 1}, {0, 2, 1}};
  std::vector<ViewRec> views = {{1, 1, 0, {}}, {1, 1, 0, {{{3, 4}, 1}}}};

  std::string str() const {
    serial::Writer out;
    out.put(classes);
    for (const ClassRec& c : cls) {
      out.put(c.dead);
      out.put(c.events);
      out.put(c.live);
    }
    out.put<std::uint64_t>(1);  // one cell
    out.put_vector(std::vector<std::int32_t>{0, 0});
    out.put<std::uint64_t>(views.size());
    for (const ViewRec& v : views) {
      out.put(v.net);
      out.put(v.peak);
      out.put(v.tombstoned);
      out.put<std::uint64_t>(v.points.size());
      for (const auto& [p, count] : v.points) {
        out.put_string(std::string(reinterpret_cast<const char*>(p.data()),
                                   p.size() * sizeof(Coord)));
        out.put(count);
      }
    }
    return out.take();
  }
};

bool loads(const TwoClassBlob& blob) {
  const HierarchicalGrid grid(2, 6, std::vector<Coord>{0, 0});
  CellPointStore store(grid, 2, pin_config(), {kAll, kP / 2});
  const std::string bytes = blob.str();
  serial::Reader in(bytes);
  const bool ok = store.load(in, 0) && in.done();
  if (!ok) {
    EXPECT_EQ(store.memory_bytes(), 0u) << "a refused load leaves the store empty";
  }
  return ok;
}

TEST(PointStoreOracle, LoadRefusesClassRecordsNoHistoryWrites) {
  EXPECT_TRUE(loads(TwoClassBlob{}));
  {
    TwoClassBlob b;
    b.classes = 1;
    EXPECT_FALSE(loads(b)) << "a class count other than the construction's";
  }
  {
    TwoClassBlob b;
    b.views.pop_back();
    b.views.pop_back();
    b.cls[0].live = b.cls[1].live = 0;
    EXPECT_FALSE(loads(b)) << "a cell with no view record";
  }
  {
    TwoClassBlob b;
    b.views.push_back({});
    EXPECT_FALSE(loads(b)) << "more view records than live classes";
  }
  {  // a dead class 1: its view record must be zero, and the point class 0
     // still holds stays
    TwoClassBlob b;
    b.cls[1] = {1, 2, 0};
    b.views[1].net = b.views[1].peak = 0;
    EXPECT_TRUE(loads(b));
    b.views[1].net = 1;
    EXPECT_FALSE(loads(b)) << "a dead class with a view record other than zero";
    b.views[1].net = 0;
    b.cls[1].live = 1;
    EXPECT_FALSE(loads(b)) << "a dead class with live points";
  }
  {  // the point's cell tombstoned in both views
    TwoClassBlob b;
    b.views[0].tombstoned = b.views[1].tombstoned = 1;
    b.cls[0].live = b.cls[1].live = 0;
    EXPECT_FALSE(loads(b)) << "a point no live view holds";
  }
  {  // a class-0 point in a cell class 0 tombstoned: only class 0 holds it
    TwoClassBlob b;
    b.views[0].tombstoned = 1;
    b.views[0].points.push_back({{5, 6}, 1});
    b.cls[0].live = 0;
    EXPECT_FALSE(loads(b)) << "a point no live view holds";
  }
  {  // every live view's counts sum to at most its events
    TwoClassBlob b;
    b.views[1].points[0].second = 2;
    EXPECT_TRUE(loads(b));
    b.cls[1].events = 1;
    b.views[1].net = b.views[1].peak = 1;
    EXPECT_FALSE(loads(b)) << "counts past class 1's events";
  }
  {
    TwoClassBlob b;
    b.cls[0].live = 2;
    EXPECT_FALSE(loads(b)) << "a live-point total that disagrees with the records";
  }
  {  // a point listed in two classes
    TwoClassBlob b;
    b.views[0].points.push_back({{3, 4}, 1});
    b.cls[0].live = 2;
    EXPECT_FALSE(loads(b)) << "a duplicate point";
  }
  {  // both classes dead: no cell may remain
    TwoClassBlob b;
    b.cls[0] = {1, 3, 0};
    b.cls[1] = {1, 2, 0};
    b.views = {{}, {}};
    EXPECT_FALSE(loads(b)) << "a cell no live view holds";
  }
}

// A trim releases the classes of the pruned guesses with the records only
// they held, and frees everything once no guess is live.
TEST(PointStoreOracle, TrimReleasesTheClassesNoLiveGuessReads) {
  const HierarchicalGrid grid(2, 6, std::vector<Coord>{0, 0});
  PointStoreConfig cfg;
  cfg.exact = true;
  CellPointStore store(grid, 2, cfg, keep_bounds());
  ASSERT_EQ(store.classes(), 5);
  EXPECT_EQ(store.rate_class(1), 0);
  EXPECT_EQ(store.rate_class(4), 2);
  EXPECT_EQ(store.rate_class(5), 3);
  Rng rng(11);
  std::vector<Coord> pts;
  std::vector<std::int32_t> idx;
  std::vector<std::uint64_t> h;
  std::vector<std::int64_t> deltas;
  for (int i = 0; i < 400; ++i) {
    const std::vector<Coord> p = {static_cast<Coord>(rng.uniform_int(1, 64)),
                                  static_cast<Coord>(rng.uniform_int(1, 64))};
    const CellKey cell = grid.cell_of(p, 2);
    pts.insert(pts.end(), p.begin(), p.end());
    idx.insert(idx.end(), cell.index.begin(), cell.index.end());
    h.push_back(hash_of(p));
    deltas.push_back(+1);
  }
  store.update_batch(pts.data(), idx.data(), h.data(), deltas.data(), deltas.size());
  const std::size_t full = store.memory_bytes();
  const std::int64_t class3 = store.live_points(3);
  store.trim(1);  // guess 1 still reads class 0
  EXPECT_EQ(store.first_class(), 0);
  EXPECT_EQ(store.memory_bytes(), full);
  store.trim(5);
  EXPECT_EQ(store.first_class(), 3);
  EXPECT_TRUE(store.dead(2));
  EXPECT_EQ(store.live_points(3), class3);
  EXPECT_LT(store.memory_bytes(), full / 2);
  store.trim(7);
  EXPECT_EQ(store.memory_bytes(), 0u);
}

// The builder's point stores: at every level of every configuration, a
// guess's rate class keeps exactly the hashes its own phi keeps, so the
// view it reads is the substream its own store was fed.
TEST(PointStoreOracle, GuessesReadTheClassOfTheirOwnKeepBound) {
  Rng rng(9);
  for (int log_delta = 4; log_delta <= 14; log_delta += 2) {
    for (const PointIndex max_points : {PointIndex{1} << 10, PointIndex{1} << 20}) {
      for (const bool hinted : {false, true}) {
        for (const double r : {1.0, 2.0}) {
          StreamingOptions opt;
          opt.log_delta = log_delta;
          opt.max_points = max_points;
          if (hinted) {
            opt.o_min = 50.0;
            opt.o_max = 5e6;
          }
          opt.countmin_width = 8;
          opt.countmin_depth = 1;
          const StreamingCoresetBuilder builder(
              2, CoresetParams::practical(3, LrOrder{r}, 0.2, 0.2), opt);
          SCOPED_TRACE(testing::Message() << "log_delta " << log_delta << ", max_points "
                                          << max_points << ", hinted " << hinted << ", r "
                                          << r);
          for (int level = 0; level <= log_delta; ++level) {
            const CellPointStore& store = builder.level_samples(level);
            ASSERT_EQ(store.guesses(), builder.num_guesses());
            std::vector<std::uint64_t> probes = {0, 1, f61::kP - 1};
            for (int g = 0; g < builder.num_guesses(); ++g) {
              const SamplingRate& rate = builder.sampling_rate(g, level);
              if (!rate.always()) {
                probes.push_back(rate.keep_below() - 1);
                probes.push_back(rate.keep_below());
              }
            }
            for (int i = 0; i < 32; ++i) probes.push_back(rng.next() % f61::kP);
            for (const std::uint64_t h : probes) {
              const int k = store.kept_class(h);
              for (int g = 0; g < builder.num_guesses(); ++g) {
                const SamplingRate& rate = builder.sampling_rate(g, level);
                ASSERT_EQ(h < rate.keep_below(), store.rate_class(g) <= k)
                    << "level " << level << ", guess " << g << ", h " << h;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace skc
