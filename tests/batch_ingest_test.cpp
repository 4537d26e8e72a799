// Determinism of the batched ingest path, the builder's only one.
//
// The hash and grid kernels are pinned against their scalar forms.  Above
// them there is nothing pointwise left to compare with, so each structure
// is pinned three ways: its update_batch must reproduce, at every batch
// size, the frozen digest of the bytes the deleted pointwise path wrote
// (IngestDigest); the flat point store must report what the node-map oracle
// fed one event at a time reports (BatchSketch, and CellPointStore's
// differential test); and the per-level CountMin must match the per-guess
// oracle (countmin_oracle_test).  Exact mode is also pinned against the
// offline construction (streaming_test, differential_test).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "skc/common/crc64.h"
#include "skc/common/serial.h"
#include "skc/coreset/sampling.h"
#include "skc/coreset/streaming.h"
#include "skc/engine/engine.h"
#include "skc/grid/hierarchical_grid.h"
#include "skc/hash/kwise_hash.h"
#include "skc/sketch/distinct.h"
#include "skc/sketch/point_store.h"
#include "node_map_point_store.h"
#include "skc/stream/generators.h"
#include "skc/tenant/registry.h"
#include "test_util.h"

namespace skc {
namespace {

// ---------------------------------------------------------------------------
// Hash kernels: batch forms are bit-identical to the scalar loops, on every
// lane kernel the CPU runs (the AVX2 case skips itself without AVX2).
// ---------------------------------------------------------------------------

std::vector<f61::Kernel> kernels_here() {
  std::vector<f61::Kernel> out{f61::Kernel::kPortable};
  if (f61::kernel_supported(f61::Kernel::kAvx2)) out.push_back(f61::Kernel::kAvx2);
  return out;
}

const char* kernel_name(f61::Kernel kernel) {
  return kernel == f61::Kernel::kAvx2 ? "avx2 kernel" : "portable kernel";
}

TEST(BatchHash, FoldBatchMatchesScalar) {
  for (const f61::Kernel kernel : kernels_here()) {
    SCOPED_TRACE(kernel_name(kernel));
    Rng rng(11);
    VectorFold fold(rng);
    const std::size_t len = 5, n = 67;  // non-multiple of the batch tile
    std::vector<Coord> keys(n * len);
    for (auto& c : keys) c = static_cast<Coord>(rng.uniform_int(-1000, 1000));
    std::vector<std::uint64_t> batch(n);
    fold.fold_batch(keys.data(), len, n, batch.data(), kernel);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch[i], fold(std::span<const Coord>(keys.data() + i * len, len)))
          << "lane " << i;
    }
  }
}

TEST(BatchHash, FoldCellsBatchMatchesInt64Overload) {
  for (const f61::Kernel kernel : kernels_here()) {
    SCOPED_TRACE(kernel_name(kernel));
    Rng rng(12);
    VectorFold fold(rng);
    const std::size_t len = 3, n = 40;
    std::vector<std::int32_t> keys(n * len);
    for (auto& c : keys) c = static_cast<std::int32_t>(rng.uniform_int(-512, 512));
    std::vector<std::uint64_t> batch(n);
    fold.fold_cells_batch(keys.data(), len, n, batch.data(), kernel);
    std::vector<std::int64_t> wide(len);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < len; ++j) wide[j] = keys[i * len + j];
      EXPECT_EQ(batch[i], fold(std::span<const std::int64_t>(wide))) << "lane " << i;
    }
  }
}

TEST(BatchHash, EvalBatchMatchesScalar) {
  for (const f61::Kernel kernel : kernels_here()) {
    SCOPED_TRACE(kernel_name(kernel));
    Rng rng(14);
    KWiseHash hash(8, rng);
    const std::size_t n = 100;
    std::vector<std::uint64_t> xs(n), expect(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = rng.next() % f61::kP;
      expect[i] = hash.eval(xs[i]);
    }
    hash.eval_batch(xs.data(), n, kernel);
    EXPECT_EQ(xs, expect);
  }
}

TEST(BatchHash, HashBatchMatchesScalar) {
  for (const f61::Kernel kernel : kernels_here()) {
    SCOPED_TRACE(kernel_name(kernel));
    Rng rng(15);
    KWiseHash hash(6, rng);
    const std::size_t len = 2, n = 51;
    std::vector<Coord> keys(n * len);
    for (auto& c : keys) c = static_cast<Coord>(rng.uniform_int(1, 1 << 14));
    std::vector<std::uint64_t> batch(n);
    hash.hash_batch(keys.data(), len, n, batch.data(), kernel);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch[i], hash(std::span<const Coord>(keys.data() + i * len, len)))
          << "lane " << i;
    }
  }
}

TEST(BatchGrid, CellIndexBatchMatchesPointwise) {
  const HierarchicalGrid grid = make_grid(3, 10, 77);
  Rng rng(16);
  const std::size_t n = 45;
  std::vector<Coord> pts(n * 3);
  for (auto& c : pts) c = static_cast<Coord>(rng.uniform_int(1, 1 << 10));
  std::vector<std::int32_t> batch(n * 3), one(3);
  for (int level = 0; level <= 10; level += 5) {
    grid.cell_index_of_batch(pts.data(), n, level, batch.data());
    for (std::size_t i = 0; i < n; ++i) {
      grid.cell_index_of(std::span<const Coord>(pts.data() + i * 3, 3), level,
                         one);
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(batch[i * 3 + j], one[j]) << "point " << i << " level " << level;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sketch structures: batch update == pointwise update, serialized bytes.
// ---------------------------------------------------------------------------

template <typename S>
std::string serialized(const S& s) {
  serial::Writer out;
  s.save(out);
  return out.take();
}

struct CellEventBatch {
  std::vector<Coord> pts;          // n * dim
  std::vector<std::int32_t> idx;   // n * dim
  std::vector<std::int64_t> delta; // n
  std::size_t n = 0;
};

// Churny cell-event workload: random points, ~1/3 deletions of earlier points.
CellEventBatch make_cell_events(const HierarchicalGrid& grid, int level,
                                std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CellEventBatch out;
  const auto dim = static_cast<std::size_t>(grid.dim());
  out.n = n;
  out.pts.resize(n * dim);
  out.idx.resize(n * dim);
  out.delta.resize(n);
  std::vector<Coord> p(dim);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 4 && rng.uniform_int(0, 2) == 0) {
      // Delete a previously inserted point (keeps net counts >= 0 per point
      // in expectation; the structures tolerate any signed multiset anyway).
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::copy(out.pts.begin() + static_cast<std::ptrdiff_t>(j * dim),
                out.pts.begin() + static_cast<std::ptrdiff_t>((j + 1) * dim),
                out.pts.begin() + static_cast<std::ptrdiff_t>(i * dim));
      out.delta[i] = -1;
    } else {
      for (std::size_t d = 0; d < dim; ++d) {
        out.pts[i * dim + d] =
            static_cast<Coord>(rng.uniform_int(1, grid.delta()));
      }
      out.delta[i] = +1;
    }
  }
  grid.cell_index_of_batch(out.pts.data(), n, level, out.idx.data());
  return out;
}

/// Feeds the oracle one event at a time while it is alive, as the builder
/// feeds a store.
void feed_pointwise(oracle::NodeMapPointStore& store, const CellEventBatch& ev) {
  const auto dim = ev.pts.size() / ev.n;
  for (std::size_t i = 0; i < ev.n && !store.dead(); ++i) {
    store.update(std::span<const Coord>(ev.pts.data() + i * dim, dim), ev.delta[i]);
  }
}

/// A store with one rate class that keeps every event, read as class 0.
CellPointStore one_class(const HierarchicalGrid& grid, int level, const PointStoreConfig& cfg) {
  return CellPointStore(grid, level, cfg, {~std::uint64_t{0}});
}

/// update_batch on a one-class store: every event's coreset hash is kept.
void feed_batch(CellPointStore& store, const CellEventBatch& ev, std::size_t begin,
                std::size_t n) {
  const std::vector<std::uint64_t> h(n, 0);
  store.update_batch(ev.pts.data() + begin * 2, ev.idx.data() + begin * 2, h.data(),
                     ev.delta.data() + begin, n);
}

/// The flat store reports what the node-map oracle reports, cell by cell.
void expect_matches_oracle(const CellPointStore& flat,
                           const oracle::NodeMapPointStore& nodes) {
  ASSERT_EQ(flat.dead(0), nodes.dead());
  EXPECT_EQ(flat.events(0), nodes.events());
  const auto want = nodes.all_cells();
  EXPECT_EQ(flat.all_cells(0).size(), want.size());
  for (const auto& [key, cp] : want) {
    const auto got = flat.cell(0, key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->net_count, cp.net_count);
    EXPECT_EQ(got->complete, cp.complete);
    EXPECT_EQ(testutil::canonical_multiset(got->points),
              testutil::canonical_multiset(cp.points));
  }
}

TEST(BatchSketch, PointStoreUpdateBatchMatchesPointwiseIncludingEviction) {
  const HierarchicalGrid grid = make_grid(2, 8, 6);
  PointStoreConfig cfg;
  cfg.watermark = 4;
  cfg.max_live_points = 1 << 12;
  // At level 5 no cell reaches the watermark; at level 4 cells tombstone
  // mid-stream.
  for (const int level : {5, 4}) {
    const CellEventBatch ev = make_cell_events(grid, level, 900, 22);
    for (const bool exact : {false, true}) {
      SCOPED_TRACE(testing::Message() << "level " << level
                                      << (exact ? ", exact" : ", sketch") << " mode");
      PointStoreConfig c = cfg;
      c.exact = exact;
      oracle::NodeMapPointStore pointwise(grid, level, c);
      CellPointStore batched = one_class(grid, level, c);
      feed_pointwise(pointwise, ev);
      feed_batch(batched, ev, 0, ev.n);
      expect_matches_oracle(batched, pointwise);
      const auto cells = batched.all_cells(0);
      const bool tombstoned = std::any_of(cells.begin(), cells.end(),
                                          [](const auto& kv) { return !kv.second.complete; });
      EXPECT_EQ(tombstoned, level == 4 && !exact);
    }
  }
}

TEST(BatchSketch, PointStoreBatchStopsCountingWhenDeadMidBatch) {
  const HierarchicalGrid grid = make_grid(2, 8, 7);
  const int level = 0;  // one coarse level: few cells, dies fast
  PointStoreConfig cfg;
  cfg.watermark = 1 << 20;
  cfg.max_live_points = 8;  // death after 8 live points
  const CellEventBatch ev = make_cell_events(grid, level, 64, 23);
  oracle::NodeMapPointStore pointwise(grid, level, cfg);
  CellPointStore batched = one_class(grid, level, cfg);
  feed_pointwise(pointwise, ev);
  feed_batch(batched, ev, 0, ev.n);
  ASSERT_TRUE(pointwise.dead());
  EXPECT_TRUE(batched.dead(0));
  EXPECT_LT(batched.events(0), static_cast<std::int64_t>(ev.n));
  expect_matches_oracle(batched, pointwise);
}

// ---------------------------------------------------------------------------
// Builder + engine determinism on a 10k-event churn stream.
// ---------------------------------------------------------------------------

Stream churn_10k(std::uint64_t seed) {
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 9;
  cfg.clusters = 3;
  cfg.n = 6000;
  cfg.spread = 0.02;
  cfg.skew = 1.0;
  Rng rng(seed);
  PointSet base = gaussian_mixture(cfg, rng);
  cfg.n = 2000;
  PointSet extra = gaussian_mixture(cfg, rng);
  Rng srng(seed + 1);
  return churn_stream(base, extra, ChurnConfig{}, srng);  // 10k events
}

StreamingOptions exact_options(PointIndex n) {
  StreamingOptions opt;
  opt.log_delta = 9;
  opt.max_points = n;
  opt.counting_samples = 1e18;
  opt.exact_storing = true;
  return opt;
}

StreamingOptions sketch_options(PointIndex n) {
  StreamingOptions opt;
  opt.log_delta = 9;
  opt.max_points = n;
  opt.prune_interval = 0;  // pruning fires at batch boundaries
  return opt;
}

/// Feeds `stream` through update_batch in batches of `size` events.
void feed(StreamingCoresetBuilder& builder, const Stream& stream, std::size_t size) {
  for (std::size_t base = 0; base < stream.size(); base += size) {
    const std::size_t n = std::min(size, stream.size() - base);
    builder.update_batch(std::span<const StreamEvent>(stream.data() + base, n));
  }
}

// The builder's Stream entry checks every point's length in all builds, so
// a longer point can never be read past its batch's coordinates.
TEST(BatchIngestDeathTest, StreamPointOfTheWrongLengthAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  StreamingCoresetBuilder builder(
      2, CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3), sketch_options(100));
  const Stream stream = {{StreamOp::kInsert, Point{1, 1}},
                         {StreamOp::kInsert, Point(8, 5)}};
  EXPECT_DEATH(builder.update_batch(stream),
               "point length does not match the batch dimension");
}

TEST(BatchIngest, EngineCoresetIdenticalToPointwiseBuilderEveryShardCount) {
  const Stream stream = churn_10k(32);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  const StreamingOptions opt = exact_options(PointIndex(stream.size()));

  StreamingCoresetBuilder reference(2, params, opt);
  feed(reference, stream, 1);
  const StreamingResult want = reference.finalize();
  ASSERT_TRUE(want.ok);

  for (const int shards : {1, 2, 4, 8}) {
    EngineOptions eopt;
    eopt.num_shards = shards;
    eopt.worker_threads = 0;  // inline drains: deterministic
    eopt.streaming = opt;
    ClusteringEngine engine(2, params, eopt);
    engine.submit(stream);
    EngineQuery q;
    q.summary_only = true;
    const EngineQueryResult got = engine.query(q);
    ASSERT_TRUE(got.ok) << got.error << " (shards " << shards << ")";
    EXPECT_DOUBLE_EQ(got.summary.o, want.coreset.o) << "shards " << shards;
    EXPECT_EQ(testutil::sequence(got.summary.points),
              testutil::sequence(want.coreset.points))
        << "shards " << shards;
  }
}

// ---------------------------------------------------------------------------
// Frozen digests: the crc64 and byte length of what each ingest structure's
// save() writes after a fixed stream.  They were generated on commit 92e8877
// ("Write builder blobs in cell-index order and freeze ingest digests"),
// the first tree that wrote canonical blobs (map entries in cell-index
// order, see BuilderBlobsAreCanonical) and the last whose builder, point
// store and distinct counter still had a pointwise update(), which fed
// them one event at a time.  The five that hold CountMin counters (the
// three builder digests, EngineState and TenantSpill) were regenerated once,
// when a level's CountMin came to keep one counter column per distinct keep
// bound instead of one per live guess (the STRM4 blob): the counters' layout
// changed, not what any guess reads, which IngestDigest.Answers, frozen
// before that change, pins.  Those five and PointStore were regenerated once
// more when a level's guesses came to share one point store that keeps each
// point once, tagged with its rate class (the STRM5 blob): the store
// record's layout changed (a live class count, then per cell a view record
// per class), and IngestDigest.Answers still pins every read across it.
// The three builder digests, EngineState and TenantSpill were regenerated
// once more when a level's counter block came to be written as zero runs
// and literal runs (the STRM6 blob; the new magic changes even the exact
// blob, which has no block): only the bytes changed, not one counter.
// Never regenerate a digest to make a failing run pass: a mismatch means
// update_batch no longer writes what the pointwise path wrote.
// ---------------------------------------------------------------------------

struct Digest {
  std::uint64_t crc = 0;
  std::size_t bytes = 0;
  bool operator==(const Digest&) const = default;
};

void PrintTo(const Digest& d, std::ostream* os) {
  *os << "{0x" << std::hex << d.crc << std::dec << ", " << d.bytes << "}";
}

Digest digest_of(const std::string& bytes) { return {crc64(bytes), bytes.size()}; }

template <typename S>
Digest digest(const S& s) {
  return digest_of(serialized(s));
}

StreamingOptions pruning_options(PointIndex n) {
  StreamingOptions opt = sketch_options(n);
  opt.prune_interval = 4096;
  return opt;
}

struct BuilderCase {
  const char* name;
  StreamingOptions options;
  Digest want;
  /// Pruning fires at the end of the batch that crosses an interval
  /// multiple, so only sizes that divide the interval reproduce the digest.
  std::vector<std::size_t> batch_sizes;
};

TEST(IngestDigest, BuilderBlobsAreCanonical) {
  const Stream stream = churn_10k(31);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  for (const bool exact : {true, false}) {
    SCOPED_TRACE(exact ? "exact mode" : "sketch mode");
    const StreamingOptions opt = exact ? exact_options(PointIndex(stream.size()))
                                       : sketch_options(PointIndex(stream.size()));
    StreamingCoresetBuilder builder(2, params, opt);
    builder.consume(EventBatch(stream, 2));
    const std::string bytes = serialized(builder);
    StreamingCoresetBuilder thawed(2, params, opt);
    std::istringstream in(bytes);
    ASSERT_TRUE(thawed.load(in));
    EXPECT_TRUE(serialized(thawed) == bytes) << "save -> load -> save";
    StreamingCoresetBuilder folded(2, params, opt);
    folded.merge_from(builder);
    EXPECT_TRUE(serialized(folded) == bytes) << "fold into an empty builder";
  }
}

TEST(IngestDigest, Builder) {
  const Stream stream = churn_10k(31);
  const auto n = PointIndex(stream.size());
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  const std::vector<std::size_t> every = {1, 7, 64, 256, 1024, 10000};
  const BuilderCase cases[] = {
      {"exact", exact_options(n), {0x134b36dfcfd636c6, 1736942}, every},
      {"sketch, pruning off", sketch_options(n), {0x4bbb268f5531031e, 1296086}, every},
      {"sketch, pruning at 4096", pruning_options(n), {0x4776d229d107e2c, 1296086},
       {1, 64, 256, 1024, 4096}},
  };
  for (const BuilderCase& c : cases) {
    for (const std::size_t size : c.batch_sizes) {
      StreamingCoresetBuilder builder(2, params, c.options);
      feed(builder, stream, size);
      EXPECT_EQ(digest(builder), c.want) << c.name << ", batch size " << size;
      EXPECT_EQ(builder.events(), 10000);
    }
  }
}

/// The point-store streams of BatchSketch: churn under a watermark of 4 at
/// level 5 (no cell reaches it, so both modes write the same bytes) and at
/// level 4 (cells tombstone mid-stream), and a live cap of 8 (the store
/// dies in sketch mode).
struct StoreCase {
  const char* name;
  std::uint64_t grid_seed;
  int level;
  std::size_t events;
  std::uint64_t event_seed;
  PointStoreConfig config;
  Digest want[2];  ///< sketch mode, exact mode
};

std::vector<StoreCase> store_cases() {
  PointStoreConfig watermark;
  watermark.watermark = 4;
  watermark.max_live_points = 1 << 12;
  PointStoreConfig cap;
  cap.watermark = 1 << 20;
  cap.max_live_points = 8;
  return {
      {"watermark 4", 6, 5, 900, 22, watermark,
       {{0x716d14993d807675, 32686}, {0x716d14993d807675, 32686}}},
      {"watermark 4, level 4", 6, 4, 900, 22, watermark,
       {{0xdc847ca2f14d653a, 21368}, {0x800a91c683d4759c, 22592}}},
      {"live cap 8", 7, 0, 64, 23, cap,
       {{0xd22d25e2ec42bd41, 29}, {0x1fff6ae12801028c, 969}}},
  };
}

const std::size_t kStoreBatchSizes[] = {1, 7, 64, 256, 1024};

TEST(IngestDigest, PointStore) {
  for (const StoreCase& c : store_cases()) {
    const HierarchicalGrid grid = make_grid(2, 8, c.grid_seed);
    const CellEventBatch ev = make_cell_events(grid, c.level, c.events, c.event_seed);
    for (const bool exact : {false, true}) {
      PointStoreConfig cfg = c.config;
      cfg.exact = exact;
      for (const std::size_t size : kStoreBatchSizes) {
        CellPointStore store = one_class(grid, c.level, cfg);
        for (std::size_t base = 0; base < ev.n && !store.dead(0); base += size) {
          feed_batch(store, ev, base, std::min(size, ev.n - base));
        }
        EXPECT_EQ(digest(store), c.want[exact ? 1 : 0])
            << c.name << (exact ? ", exact mode" : ", sketch mode") << ", batch size "
            << size;
      }
    }
  }
}

TEST(IngestDigest, DistinctCells) {
  const HierarchicalGrid grid = make_grid(2, 8, 8);
  const CellEventBatch ev = make_cell_events(grid, 6, 800, 24);
  // Budget 8, so shrink_to_budget fires repeatedly mid-batch.
  for (const std::size_t size : kStoreBatchSizes) {
    DistinctCells dc(grid, 6, 8, 55);
    for (std::size_t base = 0; base < ev.n; base += size) {
      dc.update_batch(ev.idx.data() + base * 2, ev.delta.data() + base,
                      std::min(size, ev.n - base));
    }
    EXPECT_EQ(digest(dc), (Digest{0x7f519c35f8f851de, 156})) << "batch size " << size;
  }
}


std::string engine_state(ClusteringEngine& engine) {
  serial::Writer out;
  engine.save_state(out);
  return out.take();
}

TEST(IngestDigest, EngineState) {
  const Stream stream = churn_10k(33);
  EngineOptions eopt;
  eopt.num_shards = 2;
  eopt.worker_threads = 0;  // inline drains: deterministic
  eopt.streaming = sketch_options(PointIndex(stream.size()));
  eopt.streaming.prune_interval = 1024;
  ClusteringEngine engine(2, CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3), eopt);
  for (std::size_t base = 0; base < stream.size(); base += 1000) {
    engine.submit(Stream(stream.begin() + static_cast<std::ptrdiff_t>(base),
                         stream.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(base + 1000, stream.size()))));
  }
  const std::string bytes = engine_state(engine);
  engine.shutdown();
  // Frame (28 bytes) and body header (21), then shard 0's builder: its
  // first guess flag follows 48 bytes of builder header.
  ASSERT_GT(bytes.size(), 97u);
  EXPECT_EQ(bytes[97], 1) << "pruning must have fired";
  EXPECT_EQ(digest_of(bytes), (Digest{0xd67567d8f44c1df2, 1593098}));
}

TEST(IngestDigest, TenantSpill) {
  tenant::TenantRegistryOptions o;
  o.dim = 2;
  o.params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  o.engine.num_shards = 1;
  o.engine.streaming = sketch_options(1 << 14);
  o.pool_threads = 0;
  o.num_rungs = 3;
  o.rung_scale = 4;
  o.min_rung_points = 256;
  o.max_resident = 1;
  o.spill_dir = testutil::temp_path("ingest-digest");
  std::filesystem::create_directories(o.spill_dir);
  const Stream stream = churn_10k(34);
  tenant::TenantRegistry reg(o);
  ASSERT_EQ(reg.submit("ingest-digest", Stream(stream.begin(), stream.begin() + 700)),
            tenant::Admit::kOk);
  ASSERT_EQ(reg.submit("ingest-digest-other", Stream(stream.begin(), stream.begin() + 5)),
            tenant::Admit::kOk);  // the LRU tenant spills
  const std::string path = o.spill_dir + "/ingest-digest.tnt";
  std::string bytes;
  ASSERT_TRUE(serial::read_file(path, bytes)) << "expected a spill at " << path;
  std::filesystem::remove_all(o.spill_dir);
  for (const tenant::TenantStats& t : reg.stats().per_tenant) {
    if (t.id == "ingest-digest") {
      EXPECT_LT(t.rung, 2) << "below the top rung";
    }
  }
  // Magic (8), rung (4), sealed (1), then the replay event count.
  ASSERT_GT(bytes.size(), 21u);
  std::uint64_t replay = 0;
  std::memcpy(&replay, bytes.data() + 13, sizeof replay);
  EXPECT_EQ(replay, 700u);
  EXPECT_EQ(digest_of(bytes), (Digest{0xebe83946646c939c, 333805}));
}

// ---------------------------------------------------------------------------
// Frozen answers: what a builder reports, not the bytes it writes.  Every
// live guess's CountMin estimate of a fixed set of probe cells at every
// level, then the whole finalize outcome, digested.  They were generated on
// commit 4050d7d, the last tree with one CountMin column per live guess, and
// pin the reads across changes of the counter layout; like the digests
// above, they are never regenerated to make a failing run pass.
// ---------------------------------------------------------------------------

/// Every 97th event's point of `stream`, then 24 uniform points of the
/// [1, 2^9]^2 domain: cells with data, and cells only collisions reach.
std::vector<Point> probe_points(const Stream& stream) {
  std::vector<Point> probes;
  for (std::size_t e = 0; e < stream.size(); e += 97) probes.push_back(stream[e].point);
  Rng rng(35);
  for (int i = 0; i < 24; ++i) {
    probes.push_back(Point{static_cast<Coord>(rng.uniform_int(1, 1 << 9)),
                           static_cast<Coord>(rng.uniform_int(1, 1 << 9))});
  }
  return probes;
}

/// The digest of the estimates of every live guess (at and above the longest
/// pruned prefix of `parts`) for every probe's cell at every level, read
/// through query() on one part and summed_query() on several, followed by
/// finalize over `parts`: ok, the OPT lower bound, every guess tried with
/// its outcome, the accepted o, and the coreset's points, weights and
/// levels.
Digest answers(std::span<const StreamingCoresetBuilder* const> parts,
               const std::vector<Point>& probes) {
  const StreamingCoresetBuilder& first = *parts.front();
  serial::Writer out;
  for (int level = 0; level <= first.grid().log_delta(); ++level) {
    std::vector<const CellCountMin*> counts;
    int lo = 0;
    for (const StreamingCoresetBuilder* part : parts) {
      counts.push_back(&part->level_counts(level));
      lo = std::max(lo, counts.back()->lo());
    }
    out.put<std::int32_t>(lo);
    for (int g = lo; g < first.num_guesses(); ++g) {
      for (const Point& p : probes) {
        const CellKey cell = first.grid().cell_of(p, level);
        out.put<double>(counts.size() == 1 ? counts[0]->query(g, cell)
                                           : CellCountMin::summed_query(counts, g, cell));
      }
    }
  }
  const StreamingResult result = StreamingCoresetBuilder::finalize(parts);
  out.put<std::uint8_t>(result.ok ? 1 : 0);
  out.put<double>(result.opt_lower_bound);
  out.put<std::uint64_t>(result.diagnostics.guess_outcomes.size());
  for (std::size_t g = 0; g < result.diagnostics.guess_outcomes.size(); ++g) {
    out.put<double>(result.diagnostics.guesses_tried[g]);
    out.put_string(result.diagnostics.guess_outcomes[g]);
  }
  const Coreset& coreset = result.coreset;
  out.put<double>(coreset.o);
  out.put<std::uint64_t>(static_cast<std::uint64_t>(coreset.points.size()));
  for (PointIndex i = 0; i < coreset.points.size(); ++i) {
    for (const Coord c : coreset.points.point(i)) out.put<Coord>(c);
    out.put<double>(coreset.points.weight(i));
    out.put<std::int32_t>(coreset.levels[static_cast<std::size_t>(i)]);
  }
  return digest_of(out.take());
}

TEST(IngestDigest, Answers) {
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  {  // the three IngestDigest.Builder configurations
    const Stream stream = churn_10k(31);
    const auto n = PointIndex(stream.size());
    const std::vector<Point> probes = probe_points(stream);
    const std::pair<const char*, StreamingOptions> configs[] = {
        {"exact", exact_options(n)},
        {"sketch, pruning off", sketch_options(n)},
        {"sketch, pruning at 4096", pruning_options(n)},
    };
    const Digest want[] = {{0x7b38f524c808af21, 373751},
                           {0xc64d87d8fa260a4e, 373491},
                           {0x0a866ca548374e37, 312117}};
    for (std::size_t c = 0; c < std::size(configs); ++c) {
      StreamingCoresetBuilder builder(2, params, configs[c].second);
      feed(builder, stream, 256);
      const StreamingCoresetBuilder* part = &builder;
      EXPECT_EQ(answers({&part, 1}, probes), want[c]) << configs[c].first;
    }
  }
  {  // the IngestDigest.EngineState engine: one finalize over both shards
    const Stream stream = churn_10k(33);
    EngineOptions eopt;
    eopt.num_shards = 2;
    eopt.worker_threads = 0;
    eopt.streaming = sketch_options(PointIndex(stream.size()));
    eopt.streaming.prune_interval = 1024;
    ClusteringEngine engine(2, params, eopt);
    for (std::size_t base = 0; base < stream.size(); base += 1000) {
      engine.submit(Stream(stream.begin() + static_cast<std::ptrdiff_t>(base),
                           stream.begin() + static_cast<std::ptrdiff_t>(
                                                std::min(base + 1000, stream.size()))));
    }
    const std::string bytes = engine_state(engine);
    engine.shutdown();
    // The shards' builders, read back from the state: past the frame (28
    // bytes) and the body header (21), the two blobs follow each other.
    serial::Reader in(std::string_view(bytes).substr(28 + 21));
    StreamingCoresetBuilder shard0(2, params, eopt.streaming);
    StreamingCoresetBuilder shard1(2, params, eopt.streaming);
    ASSERT_TRUE(shard0.load(in));
    ASSERT_TRUE(shard1.load(in));
    ASSERT_EQ(in.left(), 8u) << "the footer follows the last shard";
    EXPECT_GT(shard0.level_counts(0).lo(), 0) << "pruning must have fired";
    const StreamingCoresetBuilder* parts[] = {&shard0, &shard1};
    EXPECT_EQ(answers(parts, probe_points(stream)), (Digest{0xa675e075beef98ec, 315617}));
  }
}

}  // namespace
}  // namespace skc
