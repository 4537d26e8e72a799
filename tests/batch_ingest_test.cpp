// Batch-vs-pointwise determinism for the batched ingest hot path.
//
// The batch APIs (hash_batch / cell_index_of_batch / update_batch, and
// StreamingCoresetBuilder::update_batch above them) claim to be pure
// reorganizations of the pointwise field operations: in exact mode AND in
// sketch mode, feeding the same events through the batch path must leave
// every structure in a byte-identical serialized state.  These tests pin
// that claim at every layer.  CellCountMin has a single ingest path; its
// batches are pinned against the per-guess oracle in countmin_oracle_test.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "skc/coreset/sampling.h"
#include "skc/coreset/streaming.h"
#include "skc/engine/engine.h"
#include "skc/grid/hierarchical_grid.h"
#include "skc/hash/kwise_hash.h"
#include "skc/sketch/distinct.h"
#include "skc/sketch/point_store.h"
#include "skc/stream/generators.h"
#include "test_util.h"

namespace skc {
namespace {

// ---------------------------------------------------------------------------
// Hash kernels: batch forms are bit-identical to the scalar loops.
// ---------------------------------------------------------------------------

TEST(BatchHash, FoldBatchMatchesScalar) {
  Rng rng(11);
  VectorFold fold(rng);
  const std::size_t len = 5, n = 67;  // non-multiple of the batch tile
  std::vector<Coord> keys(n * len);
  for (auto& c : keys) c = static_cast<Coord>(rng.uniform_int(-1000, 1000));
  std::vector<std::uint64_t> batch(n);
  fold.fold_batch(keys.data(), len, n, batch.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(batch[i], fold(std::span<const Coord>(keys.data() + i * len, len)))
        << "lane " << i;
  }
}

TEST(BatchHash, FoldCellsBatchMatchesInt64Overload) {
  Rng rng(12);
  VectorFold fold(rng);
  const std::size_t len = 3, n = 40;
  std::vector<std::int32_t> keys(n * len);
  for (auto& c : keys) c = static_cast<std::int32_t>(rng.uniform_int(-512, 512));
  std::vector<std::uint64_t> batch(n);
  fold.fold_cells_batch(keys.data(), len, n, batch.data());
  std::vector<std::int64_t> wide(len);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < len; ++j) wide[j] = keys[i * len + j];
    EXPECT_EQ(batch[i], fold(std::span<const std::int64_t>(wide))) << "lane " << i;
  }
}

TEST(BatchHash, EvalBatchMatchesScalar) {
  Rng rng(14);
  KWiseHash hash(8, rng);
  const std::size_t n = 100;
  std::vector<std::uint64_t> xs(n), expect(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.next() % f61::kP;
    expect[i] = hash.eval(xs[i]);
  }
  hash.eval_batch(xs.data(), n);
  EXPECT_EQ(xs, expect);
}

TEST(BatchHash, HashBatchMatchesScalar) {
  Rng rng(15);
  KWiseHash hash(6, rng);
  const std::size_t len = 2, n = 51;
  std::vector<Coord> keys(n * len);
  for (auto& c : keys) c = static_cast<Coord>(rng.uniform_int(1, 1 << 14));
  std::vector<std::uint64_t> batch(n);
  hash.hash_batch(keys.data(), len, n, batch.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(batch[i], hash(std::span<const Coord>(keys.data() + i * len, len)))
        << "lane " << i;
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
  std::ostringstream out(std::ios::binary);
  s.save(out);
  return std::move(out).str();
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

TEST(BatchSketch, PointStoreUpdateBatchMatchesPointwiseIncludingEviction) {
  const HierarchicalGrid grid = make_grid(2, 8, 6);
  const int level = 5;
  const CellEventBatch ev = make_cell_events(grid, level, 900, 22);
  PointStoreConfig cfg;
  cfg.watermark = 4;  // force tombstoning mid-stream
  cfg.max_live_points = 1 << 12;
  for (const bool exact : {false, true}) {
    PointStoreConfig c = cfg;
    c.exact = exact;
    CellPointStore pointwise(grid, level, c);
    CellPointStore batched(grid, level, c);
    for (std::size_t i = 0; i < ev.n; ++i) {
      if (pointwise.dead()) break;
      pointwise.update(std::span<const Coord>(ev.pts.data() + i * 2, 2),
                       ev.delta[i]);
    }
    batched.update_batch(ev.pts.data(), ev.idx.data(), ev.delta.data(), ev.n);
    EXPECT_EQ(serialized(batched), serialized(pointwise))
        << (exact ? "exact" : "sketch") << " mode";
    EXPECT_EQ(batched.events(), pointwise.events());
    EXPECT_EQ(batched.dead(), pointwise.dead());
  }
}

TEST(BatchSketch, PointStoreBatchStopsCountingWhenDeadMidBatch) {
  const HierarchicalGrid grid = make_grid(2, 8, 7);
  const int level = 0;  // one coarse level: few cells, dies fast
  PointStoreConfig cfg;
  cfg.watermark = 1 << 20;
  cfg.max_live_points = 8;  // death after 8 live points
  const CellEventBatch ev = make_cell_events(grid, level, 64, 23);
  CellPointStore pointwise(grid, level, cfg);
  CellPointStore batched(grid, level, cfg);
  for (std::size_t i = 0; i < ev.n; ++i) {
    if (pointwise.dead()) break;  // the builder's caller-side check
    pointwise.update(std::span<const Coord>(ev.pts.data() + i * 2, 2),
                     ev.delta[i]);
  }
  batched.update_batch(ev.pts.data(), ev.idx.data(), ev.delta.data(), ev.n);
  ASSERT_TRUE(pointwise.dead());
  EXPECT_TRUE(batched.dead());
  EXPECT_EQ(batched.events(), pointwise.events());
  EXPECT_EQ(serialized(batched), serialized(pointwise));
}

TEST(BatchSketch, DistinctCellsUpdateBatchMatchesPointwise) {
  const HierarchicalGrid grid = make_grid(2, 8, 8);
  const int level = 6;
  const CellEventBatch ev = make_cell_events(grid, level, 800, 24);
  // Tiny budget so shrink_to_budget fires repeatedly mid-batch.
  DistinctCells pointwise(grid, level, 8, 55);
  DistinctCells batched(grid, level, 8, 55);
  for (std::size_t i = 0; i < ev.n; ++i) {
    pointwise.update(std::span<const Coord>(ev.pts.data() + i * 2, 2),
                     ev.delta[i]);
  }
  batched.update_batch(ev.idx.data(), ev.delta.data(), ev.n);
  EXPECT_EQ(serialized(batched), serialized(pointwise));
  EXPECT_DOUBLE_EQ(batched.estimate(), pointwise.estimate());
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
  opt.prune_interval = 0;  // pruning fires at batch boundaries, so disable it
                           // for the strict byte-equality claim
  return opt;
}

TEST(BatchIngest, BuilderBatchBytesIdenticalToPointwiseEveryBatchSize) {
  const Stream stream = churn_10k(31);
  ASSERT_EQ(stream.size(), 10000u);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  for (const bool exact : {true, false}) {
    const StreamingOptions opt = exact
                                     ? exact_options(PointIndex(stream.size()))
                                     : sketch_options(PointIndex(stream.size()));
    StreamingCoresetBuilder pointwise(2, params, opt);
    for (const StreamEvent& e : stream) {
      pointwise.update(e.point, e.op == StreamOp::kInsert ? +1 : -1);
    }
    const std::string want = serialized(pointwise);
    for (const std::size_t bsz : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{256},
                                  std::size_t{1024}, stream.size()}) {
      StreamingCoresetBuilder batched(2, params, opt);
      for (std::size_t base = 0; base < stream.size(); base += bsz) {
        const std::size_t n = std::min(bsz, stream.size() - base);
        batched.update_batch(
            std::span<const StreamEvent>(stream.data() + base, n));
      }
      EXPECT_EQ(serialized(batched), want)
          << (exact ? "exact" : "sketch") << " mode, batch size " << bsz;
      EXPECT_EQ(batched.events(), pointwise.events());
      EXPECT_EQ(batched.net_count(), pointwise.net_count());
    }
  }
}

TEST(BatchIngest, EngineCoresetIdenticalToPointwiseBuilderEveryShardCount) {
  const Stream stream = churn_10k(32);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  const StreamingOptions opt = exact_options(PointIndex(stream.size()));

  StreamingCoresetBuilder reference(2, params, opt);
  for (const StreamEvent& e : stream) {
    reference.update(e.point, e.op == StreamOp::kInsert ? +1 : -1);
  }
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

}  // namespace
}  // namespace skc
