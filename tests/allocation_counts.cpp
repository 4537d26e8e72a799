// Heap allocations per event on the ingest path, counted by the
// replacement operator new of the skc_alloc_tests executable
// (allocation_probe.h).
//
// The reference is the builder itself: the same batches, split by the
// engine's router and fed to one builder per shard in the slices an engine
// drain uses.  Whatever the engine adds on top — the shard split, the shard
// queues, the drains — must be a small constant per submitted batch and
// shard, independent of the batch size: nothing may be allocated per event.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "skc/common/random.h"
#include "skc/common/serial.h"
#include "skc/coreset/streaming.h"
#include "skc/engine/engine.h"
#include "skc/parallel/thread_pool.h"
#include "skc/stream/generators.h"
#include "skc/tenant/registry.h"
#include "allocation_probe.h"
#include "test_util.h"

namespace skc {
namespace {

constexpr int kDim = 2;
constexpr int kLogDelta = 12;

/// Allocations made (on any thread) while `fn` runs.
template <typename Fn>
std::int64_t allocations_during(Fn&& fn) {
  const std::int64_t before = testutil::allocation_count();
  fn();
  return testutil::allocation_count() - before;
}

CoresetParams params() { return CoresetParams::practical(4, LrOrder{2.0}, 0.2, 0.2); }

StreamingOptions streaming() {
  StreamingOptions opt;
  opt.log_delta = kLogDelta;
  opt.max_points = 1 << 16;
  return opt;
}

/// A churn stream of a 6-cluster mixture (inserts, then deletes of part of
/// them), flattened and cut into batches of `batch_size` events.
std::vector<EventBatch> churn_batches(std::size_t batch_size) {
  MixtureConfig cfg;
  cfg.dim = kDim;
  cfg.log_delta = kLogDelta;
  cfg.clusters = 6;
  cfg.n = 6000;
  cfg.spread = 0.02;
  cfg.skew = 1.0;
  Rng rng(5);
  const PointSet base = gaussian_mixture(cfg, rng);
  cfg.n = 2000;
  const PointSet extra = gaussian_mixture(cfg, rng);
  const EventBatch all(churn_stream(base, extra, ChurnConfig{}, rng), kDim);
  std::vector<EventBatch> out;
  for (std::size_t at = 0; at < all.size(); at += batch_size) {
    out.emplace_back(kDim);
    out.back().append(all, at, std::min(all.size(), at + batch_size));
  }
  return out;
}

/// ClusteringEngine's point-hash router (shard_of in engine.cpp), so each
/// directly fed builder sees exactly its engine shard's events.  The test
/// cross-checks the copy against the engine's per-shard event counts.
std::size_t shard_of(std::span<const Coord> p, std::size_t shards) {
  std::uint64_t state = params().seed ^ 0x73686172645f6b31ULL;
  std::uint64_t h = splitmix64(state);
  for (const Coord c : p) {
    std::uint64_t s = h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(c));
    h = splitmix64(s);
  }
  return static_cast<std::size_t>(h % shards);
}

// Per submitted batch, the engine may allocate the split's bookkeeping, and
// per shard its part's two arrays plus queue and pool nodes.
constexpr std::int64_t kPerBatch = 4;
constexpr std::int64_t kPerBatchAndShard = 4;

TEST(Allocations, EngineAddsAConstantPerBatchAndShard) {
  for (const std::size_t batch_size : {128u, 512u, 2048u}) {
    const std::vector<EventBatch> batches = churn_batches(batch_size);
    for (const int shards : {1, 2}) {
      for (const int workers : {-1, 0}) {
        SCOPED_TRACE(testing::Message()
                     << batch_size << "-event batches, " << shards << " shard(s), "
                     << (workers == 0 ? "inline drains" : "worker threads"));
        const auto n = static_cast<std::size_t>(shards);

        // (a) The builders alone, fed each batch's shard parts in drain
        //     slices.
        std::vector<std::vector<EventBatch>> parts;
        for (const EventBatch& b : batches) {
          parts.push_back(
              b.split(n, [n](std::span<const Coord> p) { return shard_of(p, n); }));
        }
        std::vector<std::unique_ptr<StreamingCoresetBuilder>> builders;
        for (std::size_t s = 0; s < n; ++s) {
          builders.push_back(
              std::make_unique<StreamingCoresetBuilder>(kDim, params(), streaming()));
        }
        const std::int64_t direct = allocations_during([&] {
          for (const std::vector<EventBatch>& split : parts) {
            for (std::size_t s = 0; s < n; ++s) {
              for (std::size_t at = 0; at < split[s].size();
                   at += StreamingCoresetBuilder::kMaxBatch) {
                builders[s]->update_batch(
                    split[s], at,
                    std::min(StreamingCoresetBuilder::kMaxBatch, split[s].size() - at));
              }
            }
          }
        });

        // (b) The same batches through the engine.
        EngineOptions opt;
        opt.num_shards = shards;
        opt.worker_threads = workers;
        opt.streaming = streaming();
        ClusteringEngine engine(kDim, params(), opt);
        const std::int64_t served = allocations_during([&] {
          for (const EventBatch& b : batches) engine.submit(b);
          engine.flush();
        });

        const EngineMetrics m = engine.metrics();
        for (std::size_t s = 0; s < n; ++s) {
          ASSERT_EQ(m.shard_events_applied[s], builders[s]->events())
              << "the test's router copy disagrees with the engine's";
        }
        const auto events = static_cast<double>(m.events_applied);
        const auto nb = static_cast<std::int64_t>(batches.size());
        EXPECT_LE(served - direct, nb * (kPerBatch + kPerBatchAndShard * shards))
            << "engine " << served << " vs builders " << direct << " allocations: "
            << static_cast<double>(served - direct) / events << " per event over "
            << nb << " batches";
      }
    }
  }
}

// One-event submits that queue up behind a busy drain are merged in the
// shard queue, so they reach the builders kMaxBatch events per call.  The
// drains run on a gated pool that stays shut while the events are
// submitted; the reference feeds each shard's events to its builder in
// kMaxBatch slices, and the engine may add only its per-submit constant,
// nothing per builder call.
TEST(Allocations, QueuedOneEventSubmitsReachTheBuildersMerged) {
  const EventBatch all = churn_batches(2048).front();
  std::vector<EventBatch> singles;
  for (std::size_t i = 0; i < all.size(); ++i) {
    singles.emplace_back(kDim);
    singles.back().append(all, i, i + 1);
  }
  for (const int shards : {1, 2}) {
    SCOPED_TRACE(testing::Message() << shards << " shard(s)");
    const auto n = static_cast<std::size_t>(shards);

    // (a) The builders alone, fed each shard's events in kMaxBatch slices.
    const std::vector<EventBatch> parts =
        all.split(n, [n](std::span<const Coord> p) { return shard_of(p, n); });
    std::vector<std::unique_ptr<StreamingCoresetBuilder>> builders;
    for (std::size_t s = 0; s < n; ++s) {
      builders.push_back(
          std::make_unique<StreamingCoresetBuilder>(kDim, params(), streaming()));
    }
    const std::int64_t direct = allocations_during([&] {
      for (std::size_t s = 0; s < n; ++s) builders[s]->consume(parts[s]);
    });

    // (b) One submit per event through an engine whose drains wait.
    testutil::GatedPool gate;
    EngineOptions opt;
    opt.num_shards = shards;
    opt.shared_pool = gate.pool();
    opt.queue_capacity = all.size();
    opt.streaming = streaming();
    ClusteringEngine engine(kDim, params(), opt);
    const std::int64_t served = allocations_during([&] {
      for (const EventBatch& b : singles) engine.submit(b);
      gate.open();
      engine.flush();
    });

    const EngineMetrics m = engine.metrics();
    for (std::size_t s = 0; s < n; ++s) {
      ASSERT_EQ(m.shard_events_applied[s], builders[s]->events())
          << "the test's router copy disagrees with the engine's";
    }
    // A one-event submit has one non-empty part.
    const auto nb = static_cast<std::int64_t>(singles.size());
    EXPECT_LE(served - direct, nb * (kPerBatch + kPerBatchAndShard))
        << "engine " << served << " vs builders " << direct << " allocations: "
        << static_cast<double>(served - direct) / static_cast<double>(nb)
        << " per one-event submit";
  }
}

// The tenant replay buffer appends each admitted batch flat: the same
// registry with the buffer on (a two-rung ladder, promotion threshold far
// above this stream's distinct points) and off (sealed from the first
// batch) differ by amortized growth only.
TEST(Allocations, TenantReplayAppendIsAmortized) {
  // One 512-event batch and its exact inverse (reversed, ops swapped), fed
  // in turn: the HLL estimate stays near 512 distinct points, far below
  // the 2,048-point promotion threshold, so no promotion replays.
  const EventBatch forward = churn_batches(512).front();
  EventBatch inverse(kDim);
  for (std::size_t i = forward.size(); i-- > 0;) {
    inverse.push_back(forward.op(i) == StreamOp::kInsert ? StreamOp::kDelete
                                                         : StreamOp::kInsert,
                      forward.point(i));
  }
  constexpr int kPairs = 8;
  auto replay_allocations = [&](std::size_t replay_capacity) {
    tenant::TenantRegistryOptions o;
    o.dim = kDim;
    o.params = params();
    o.engine.num_shards = 1;
    o.engine.streaming = streaming();
    o.pool_threads = 0;
    o.num_rungs = 2;
    o.min_rung_points = 4096;
    o.replay_capacity = replay_capacity;
    tenant::TenantRegistry reg(o);
    // The first pair creates the engine (and, with no room, seals the
    // tenant); the counted pairs then run in steady state.
    EXPECT_EQ(reg.submit("t", forward), tenant::Admit::kOk);
    EXPECT_EQ(reg.submit("t", inverse), tenant::Admit::kOk);
    const std::int64_t n = allocations_during([&] {
      for (int r = 0; r < kPairs; ++r) {
        EXPECT_EQ(reg.submit("t", forward), tenant::Admit::kOk);
        EXPECT_EQ(reg.submit("t", inverse), tenant::Admit::kOk);
      }
    });
    EXPECT_EQ(reg.stats().promotions, 0);
    return n;
  };
  const std::int64_t sealed = replay_allocations(0);
  const std::int64_t buffered = replay_allocations(std::size_t{1} << 20);
  // Doubling growth of two arrays: at most two reallocations per batch,
  // and far fewer once the buffer has grown.
  EXPECT_LE(buffered - sealed, 2 * 2 * kPairs)
      << "replay on " << buffered << " vs off " << sealed << " allocations over "
      << 2 * kPairs << " 512-event batches";
}

// A tenant restore builds its engine once and parses each shard's builder
// blob into the builder that engine made: it allocates no more than
// building that engine and loading the blobs into ready builders, plus the
// spill file, its replay section and the spill of the tenant it evicts.  A
// restore that parsed into a second builder per shard pays every shard
// builder's construction twice.
TEST(Allocations, TenantRestoreBuildsEachShardBuilderOnce) {
  tenant::TenantRegistryOptions o;
  o.dim = kDim;
  o.params = params();
  o.engine.num_shards = 2;
  o.engine.streaming = streaming();
  o.pool_threads = 0;
  o.num_rungs = 1;
  o.max_resident = 1;
  o.spill_dir = testutil::temp_dir() + "/restore_allocations";
  std::filesystem::create_directories(o.spill_dir);
  tenant::TenantRegistry reg(o);
  for (const EventBatch& batch : churn_batches(512)) {
    ASSERT_EQ(reg.submit("cold", batch), tenant::Admit::kOk);
  }
  // The state the spill will hold, as a checkpoint frame.
  const std::string checkpoint = o.spill_dir + "/cold.ckpt";
  ASSERT_EQ(reg.checkpoint("cold", checkpoint), tenant::Admit::kOk);
  // One event for a second tenant: "cold" spills.
  EventBatch one(kDim);
  one.push_back(StreamOp::kInsert, std::vector<Coord>{7, 7});
  ASSERT_EQ(reg.submit("tiny", one), tenant::Admit::kOk);
  ASSERT_EQ(reg.resident_count(), 1);

  EngineQuery q;
  q.summary_only = true;
  EngineQueryResult result;
  // Restores "cold" and spills "tiny"; then the same query with "cold"
  // resident and nothing to spill.
  const std::int64_t restored = allocations_during(
      [&] { ASSERT_EQ(reg.query("cold", q, result), tenant::Admit::kOk); });
  const std::int64_t resident = allocations_during(
      [&] { ASSERT_EQ(reg.query("cold", q, result), tenant::Admit::kOk); });
  ASSERT_EQ(reg.stats().restores, 1);

  // The reference: the tenant's engine built once (its seed read from the
  // frame's body header), and the shard blobs loaded into ready builders.
  std::string frame;
  ASSERT_TRUE(serial::read_file(checkpoint, frame));
  serial::Reader in(frame);
  std::uint64_t magic = 0, size = 0, crc = 0, seed = 0;
  std::uint32_t version = 0;
  std::int32_t dim = 0, log_delta = 0, shards = 0;
  std::uint8_t exact = 0;
  ASSERT_TRUE(in.get(magic) && in.get(version) && in.get(size) && in.get(crc) &&
              in.get(dim) && in.get(log_delta) && in.get(seed) && in.get(shards) &&
              in.get(exact));
  ASSERT_EQ(shards, o.engine.num_shards);
  CoresetParams tenant_params = o.params;
  tenant_params.seed = seed;
  EngineOptions eo = o.engine;
  eo.streaming = reg.rungs().front();
  ThreadPool pool(0);
  eo.shared_pool = &pool;
  const std::int64_t build =
      allocations_during([&] { ClusteringEngine engine(kDim, tenant_params, eo); });
  std::vector<std::unique_ptr<StreamingCoresetBuilder>> builders;
  for (int s = 0; s < shards; ++s) {
    builders.push_back(
        std::make_unique<StreamingCoresetBuilder>(kDim, tenant_params, eo.streaming));
  }
  const std::int64_t parse = allocations_during([&] {
    for (auto& builder : builders) ASSERT_TRUE(builder->load(in));
  });
  // The spill file and its replay section, and the one-event tenant's
  // spill: a few dozen allocations, against a few hundred per builder.
  constexpr std::int64_t kSlack = 96;
  EXPECT_LE(restored - resident, build + parse + kSlack)
      << "restore " << restored - resident << ", engine build " << build
      << ", shard blob loads " << parse;
}

}  // namespace
}  // namespace skc
