// ClusteringEngine: sharded ingest must be a semantics-free optimization —
// the merged sketch equals a single-shard run on the same stream — and the
// serving-layer features (epoch queries, checkpoint/restore, backpressure,
// concurrent ingest) must hold up under threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "skc/coreset/streaming.h"
#include "skc/engine/engine.h"
#include "skc/obs/trace.h"
#include "skc/parallel/thread_pool.h"
#include "skc/stream/generators.h"
#include "test_util.h"

namespace skc {
namespace {

constexpr int kDim = 2;
constexpr int kLogDelta = 9;

MixtureConfig mixture(int n) {
  MixtureConfig cfg;
  cfg.dim = kDim;
  cfg.log_delta = kLogDelta;
  cfg.clusters = 3;
  cfg.n = n;
  cfg.spread = 0.02;
  cfg.skew = 1.0;
  return cfg;
}

CoresetParams test_params() {
  return CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
}

StreamingOptions streaming_options(bool exact) {
  StreamingOptions opt;
  opt.log_delta = kLogDelta;
  opt.max_points = 4000;
  opt.exact_storing = exact;
  // A budget the distinct estimators never outgrow at this workload size:
  // keeps them fully linear, so the sharded merge is bit-exact.
  opt.distinct_budget = 1 << 20;
  opt.prune_interval = 0;
  return opt;
}

EngineOptions engine_options(int shards, bool exact, int workers = 2) {
  EngineOptions opt;
  opt.num_shards = shards;
  opt.worker_threads = workers;
  opt.streaming = streaming_options(exact);
  return opt;
}

Stream churn_workload(int base_n, int extra_n, std::uint64_t seed) {
  Rng rng(seed);
  PointSet base = gaussian_mixture(mixture(base_n), rng);
  PointSet extra = gaussian_mixture(mixture(extra_n), rng);
  Rng srng(seed + 1);
  return churn_stream(base, extra, ChurnConfig{}, srng);
}

// The headline property: a 4-shard engine (events hash-routed, applied by
// concurrent workers, sketches merged at query time) produces EXACTLY the
// coreset of one StreamingCoresetBuilder fed the stream serially.  Exact
// mode makes every structure a plain linear map, so equality is bit-level.
TEST(Engine, ShardedMergeMatchesSingleShardReference) {
  const Stream stream = churn_workload(1200, 600, 11);
  const CoresetParams params = test_params();

  StreamingCoresetBuilder reference(kDim, params, streaming_options(true));
  reference.consume(EventBatch(stream, kDim));
  const StreamingResult want = reference.finalize();
  ASSERT_TRUE(want.ok);

  ClusteringEngine engine(kDim, params, engine_options(4, /*exact=*/true));
  engine.submit(stream);
  EngineQuery q;
  q.summary_only = true;
  const EngineQueryResult got = engine.query(q);
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_EQ(got.net_points, reference.net_count());
  EXPECT_DOUBLE_EQ(got.summary.o, want.coreset.o);
  // Point stores report each cell's samples in coordinate order, so the
  // fold reproduces the reference as a sequence, not only as a multiset.
  EXPECT_EQ(testutil::sequence(got.summary.points),
            testutil::sequence(want.coreset.points));
  EXPECT_EQ(got.summary.levels, want.coreset.levels);
}

// Same property for the practical (sketch-mode) structures on an
// insertion-only stream: CountMin counters add, point-store evictions are
// threshold checks on linear totals, so the merge is still order-free.
TEST(Engine, ShardedMergeMatchesReferenceInSketchMode) {
  Rng rng(21);
  const PointSet pts = gaussian_mixture(mixture(1500), rng);
  const Stream stream = insertion_stream(pts);
  const CoresetParams params = test_params();

  StreamingCoresetBuilder reference(kDim, params, streaming_options(false));
  reference.consume(EventBatch(stream, kDim));
  const StreamingResult want = reference.finalize();
  ASSERT_TRUE(want.ok);

  ClusteringEngine engine(kDim, params, engine_options(4, /*exact=*/false));
  engine.submit(stream);
  EngineQuery q;
  q.summary_only = true;
  const EngineQueryResult got = engine.query(q);
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_DOUBLE_EQ(got.summary.o, want.coreset.o);
  EXPECT_EQ(testutil::canonical_multiset(got.summary.points),
            testutil::canonical_multiset(want.coreset.points));
}

// Shard count must not matter either: 1-shard and 8-shard engines agree.
TEST(Engine, ShardCountInvariance) {
  const Stream stream = churn_workload(800, 400, 31);
  const CoresetParams params = test_params();

  ClusteringEngine one(kDim, params, engine_options(1, /*exact=*/true));
  ClusteringEngine eight(kDim, params, engine_options(8, /*exact=*/true));
  one.submit(stream);
  eight.submit(stream);
  EngineQuery q;
  q.summary_only = true;
  const EngineQueryResult a = one.query(q);
  const EngineQueryResult b = eight.query(q);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(testutil::sequence(a.summary.points),
            testutil::sequence(b.summary.points));
}

// Sequence-equal summaries make the whole query shard-count invariant: the
// solver sees the same input in the same order, so exact-mode engines at 1,
// 2, 4 and 8 shards answer with identical centers and cost.
TEST(Engine, FullQueryIsIdenticalAtEveryShardCount) {
  const Stream stream = churn_workload(1500, 700, 37);
  const CoresetParams params = test_params();
  EngineQuery q;
  q.capacity_slack = 1.2;
  std::vector<EngineQueryResult> results;
  for (const int shards : {1, 2, 4, 8}) {
    ClusteringEngine engine(kDim, params, engine_options(shards, /*exact=*/true));
    engine.submit(stream);
    results.push_back(engine.query(q));
    ASSERT_TRUE(results.back().ok) << results.back().error;
    ASSERT_TRUE(results.back().solution.feasible) << shards << " shards";
  }
  const auto raw = [](const PointSet& s) {
    return std::vector<Coord>(s.raw().begin(), s.raw().end());
  };
  for (std::size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "engine " << i << " vs the 1-shard engine");
    EXPECT_EQ(raw(results[i].solution.centers), raw(results[0].solution.centers));
    EXPECT_EQ(results[i].solution.cost, results[0].solution.cost);
    EXPECT_EQ(results[i].solution.assignment, results[0].solution.assignment);
  }
}

// Full query path: merged summary + capacitated solve under concurrent use.
TEST(Engine, QuerySolvesBalancedClustering) {
  const Stream stream = churn_workload(1200, 400, 41);
  ClusteringEngine engine(kDim, test_params(), engine_options(4, /*exact=*/true));
  engine.submit(stream);
  EngineQuery q;
  q.capacity_slack = 1.3;
  const EngineQueryResult result = engine.query(q);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.solution.feasible);
  EXPECT_EQ(result.solution.centers.size(), 3);
  EXPECT_GT(result.capacity, 0.0);
  EXPECT_GT(result.summary.points.size(), 0);
}

// Options for the fold tests: mid-stream pruning on and the default
// distinct budget, so shards prune different guesses (releasing their
// stores) and the fold has to propagate that.  Exact mode never prunes.
StreamingOptions pruning_options(bool exact) {
  StreamingOptions opt;
  opt.log_delta = kLogDelta;
  opt.max_points = 4000;
  opt.exact_storing = exact;
  opt.prune_interval = 128;
  return opt;
}

/// Splits a stream into `shards` builders by point hash (an insert and its
/// delete land together, as in the engine).
std::vector<std::unique_ptr<StreamingCoresetBuilder>> shard_builders(
    const Stream& stream, int shards, const CoresetParams& params,
    const StreamingOptions& opt) {
  std::vector<Stream> split(static_cast<std::size_t>(shards));
  for (const StreamEvent& e : stream) {
    std::uint64_t h = 0x5eed;
    for (const Coord c : e.point) {
      std::uint64_t state = h ^ static_cast<std::uint64_t>(c);
      h = splitmix64(state);
    }
    split[h % split.size()].push_back(e);
  }
  std::vector<std::unique_ptr<StreamingCoresetBuilder>> out;
  for (const Stream& part : split) {
    out.push_back(std::make_unique<StreamingCoresetBuilder>(kDim, params, opt));
    out.back()->consume(EventBatch(part, kDim));
  }
  return out;
}

std::string saved(const StreamingCoresetBuilder& b) {
  std::ostringstream out(std::ios::binary);
  b.save(out);
  return std::move(out).str();
}

// The query fold (a fresh builder merge_from-ing each live shard) must give
// the same coreset as summing serialized snapshots (load(save(shard)), then
// merge_from) — at every shard count, in both modes, with pruned guesses in
// play.  The coreset is compared as a sequence: point stores report each
// cell's samples in coordinate order, whatever order they were merged in.
TEST(Engine, LiveShardFoldMatchesSnapshotMerge) {
  const Stream stream = churn_workload(1200, 600, 101);
  const CoresetParams params = test_params();
  for (const bool exact : {true, false}) {
    const StreamingOptions opt = pruning_options(exact);
    for (const int shards : {1, 2, 4, 8}) {
      SCOPED_TRACE(testing::Message() << (exact ? "exact" : "sketch")
                                      << " mode, " << shards << " shards");
      const auto live = shard_builders(stream, shards, params, opt);

      StreamingCoresetBuilder folded(kDim, params, opt);
      for (const auto& shard : live) folded.merge_from(*shard);

      StreamingCoresetBuilder thawed(kDim, params, opt);
      StreamingCoresetBuilder scratch(kDim, params, opt);
      for (std::size_t s = 0; s < live.size(); ++s) {
        std::istringstream in(saved(*live[s]));
        ASSERT_TRUE((s == 0 ? thawed : scratch).load(in));
        if (s > 0) thawed.merge_from(scratch);
      }

      const StreamingResult got = folded.finalize();
      const StreamingResult want = thawed.finalize();
      ASSERT_TRUE(want.ok);
      ASSERT_TRUE(got.ok);
      EXPECT_EQ(folded.net_count(), thawed.net_count());
      EXPECT_EQ(folded.events(), static_cast<std::int64_t>(stream.size()));
      EXPECT_DOUBLE_EQ(got.coreset.o, want.coreset.o);
      EXPECT_EQ(got.diagnostics.guess_outcomes, want.diagnostics.guess_outcomes);
      EXPECT_EQ(testutil::sequence(got.coreset.points),
                testutil::sequence(want.coreset.points));
      if (!exact) {
        const auto& outcomes = got.diagnostics.guess_outcomes;
        EXPECT_NE(std::find(outcomes.begin(), outcomes.end(),
                            "pruned mid-stream (below OPT lower bound)"),
                  outcomes.end())
            << "the stream must prune guesses for this test to bite";
      }
    }
  }
}

// export_sketch() runs the same fold and saves it once: the blob must load
// and finalize to the summary a query answers with.
TEST(Engine, ExportSketchFinalizesToTheQuerySummary) {
  const Stream stream = churn_workload(1200, 600, 103);
  const CoresetParams params = test_params();
  for (const bool exact : {true, false}) {
    for (const int shards : {1, 2, 4, 8}) {
      SCOPED_TRACE(testing::Message() << (exact ? "exact" : "sketch")
                                      << " mode, " << shards << " shards");
      EngineOptions eopt = engine_options(shards, exact);
      eopt.streaming = pruning_options(exact);
      ClusteringEngine engine(kDim, params, eopt);
      engine.submit(stream);
      EngineQuery q;
      q.summary_only = true;
      const EngineQueryResult got = engine.query(q);
      ASSERT_TRUE(got.ok) << got.error;

      const EngineSketchExport exported = engine.export_sketch();
      EXPECT_EQ(exported.net_points, got.net_points);
      EXPECT_EQ(exported.events_applied, static_cast<std::int64_t>(stream.size()));
      StreamingCoresetBuilder loaded(kDim, params, eopt.streaming);
      std::istringstream in(exported.blob);
      ASSERT_TRUE(loaded.load(in));
      const StreamingResult want = loaded.finalize();
      ASSERT_TRUE(want.ok);
      EXPECT_DOUBLE_EQ(got.summary.o, want.coreset.o);
      EXPECT_EQ(testutil::sequence(got.summary.points),
                testutil::sequence(want.coreset.points));
    }
  }
}

/// Rewrites every point-store point record of a serialized builder (STRM6)
/// to carry `extra` bytes after its coordinates; `rewritten` counts them.
/// Walks the layout: header, the per-guess pruned flags, L+1 level
/// CountMins, L+1 level point stores, then the distinct-cell estimators
/// copied verbatim.
std::string widen_point_records(const std::string& blob, std::size_t extra,
                                std::size_t& rewritten) {
  std::size_t pos = 0;
  std::string out;
  const auto copy = [&](std::uint64_t n) {
    out.append(blob, pos, static_cast<std::size_t>(n));
    pos += static_cast<std::size_t>(n);
  };
  const auto peek = [&] {
    std::uint64_t v = 0;
    if (pos + sizeof v > blob.size()) throw std::out_of_range("truncated blob");
    std::memcpy(&v, blob.data() + pos, sizeof v);
    return v;
  };
  copy(8 + 4 + 4 + 8);  // magic, dim, log_delta, seed
  const std::uint64_t guesses = peek();
  copy(8 + 8 + 8);  // guess count, net count, events
  copy(guesses);     // pruned flags
  for (int level = 0; level <= kLogDelta; ++level) {
    copy(8);  // lo
    const std::uint64_t runs = peek();
    copy(8);
    for (std::uint64_t r = 0; r < runs; ++r) {
      copy(8 + (peek() >> 32) * 8);  // u32 zeros, u32 literals, the literals
    }
    const std::uint64_t entries = peek();
    copy(8);
    for (std::uint64_t e = 0; e < entries; ++e) {
      copy(8 + peek() * 4);  // cell index
      copy(8 + peek() * 8);  // per-guess counts
    }
  }
  for (int level = 0; level <= kLogDelta; ++level) {
    std::uint32_t classes = 0;
    if (pos + sizeof classes > blob.size()) throw std::out_of_range("truncated blob");
    std::memcpy(&classes, blob.data() + pos, sizeof classes);
    copy(4 + std::uint64_t{classes} * (1 + 8 + 8));  // per class: dead, events, live
    const std::uint64_t cells = peek();
    copy(8);
    for (std::uint64_t c = 0; c < cells; ++c) {
      copy(8 + peek() * 4);  // row
      const std::uint64_t views = peek();
      copy(8);
      for (std::uint64_t v = 0; v < views; ++v) {
        copy(8 + 8 + 1);  // net, peak, tombstone
        const std::uint64_t points = peek();
        copy(8);
        for (std::uint64_t p = 0; p < points; ++p) {
          const std::uint64_t bytes = peek() + extra;
          pos += 8;
          out.append(reinterpret_cast<const char*>(&bytes), sizeof bytes);
          copy(bytes - extra);
          out.append(extra, '\0');
          copy(8);  // count
          ++rewritten;
        }
      }
    }
  }
  copy(blob.size() - pos);
  return out;
}

// A peer's blob whose point records are 12 bytes long (2-D points are 8)
// must be refused at import, and the engine must go on answering.  Before
// the point store checked record lengths, import_sketch accepted it and the
// next query aborted the process.
TEST(Engine, ImportRefusesMalformedPointRecordsAndKeepsServing) {
  const Stream stream = churn_workload(1200, 600, 107);
  const CoresetParams params = test_params();
  ClusteringEngine peer(kDim, params, engine_options(2, /*exact=*/false));
  peer.submit(stream);
  const std::string blob = peer.export_sketch().blob;
  std::size_t rewritten = 0;
  ASSERT_EQ(widen_point_records(blob, 0, rewritten), blob);
  ASSERT_GT(rewritten, 0u);
  const std::string bad = widen_point_records(blob, 4, rewritten);

  ClusteringEngine engine(kDim, params, engine_options(2, /*exact=*/false));
  engine.submit(stream);
  EngineQuery summary;
  summary.summary_only = true;
  const EngineQueryResult before = engine.query(summary);
  ASSERT_TRUE(before.ok) << before.error;

  EXPECT_FALSE(engine.import_sketch(bad));
  EXPECT_EQ(engine.net_count(), before.net_points);
  const EngineQueryResult after = engine.query(summary);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(testutil::sequence(after.summary.points),
            testutil::sequence(before.summary.points));
  EXPECT_TRUE(engine.query(EngineQuery{}).ok);

  EXPECT_TRUE(engine.import_sketch(blob));  // the intact blob still folds in
  EXPECT_EQ(engine.net_count(), 2 * before.net_points);
}

// A k above the summary size: the solvers require k <= n, so the query
// must answer with an error naming both numbers instead of aborting.
TEST(Engine, QueryWithKAboveTheSummaryIsAnErrorNotAnAbort) {
  ClusteringEngine engine(kDim, test_params(),
                          engine_options(2, /*exact=*/true, /*workers=*/0));
  for (const Coord c : {5, 90, 300}) {
    engine.submit(Stream{StreamEvent{StreamOp::kInsert, Point{c, c}}});
  }
  EngineQuery summary;
  summary.summary_only = true;
  const EngineQueryResult merged = engine.query(summary);
  ASSERT_TRUE(merged.ok) << merged.error;
  const PointIndex n = merged.summary.points.size();
  ASSERT_GE(n, 1);

  EngineQuery q;
  q.k = static_cast<int>(n) + 1;
  const EngineQueryResult result = engine.query(q);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "k = " + std::to_string(n + 1) + " exceeds the " +
                              std::to_string(n) + "-point merged summary");
  EXPECT_EQ(result.net_points, 3);

  q.k = static_cast<int>(n);  // k == n still solves
  const EngineQueryResult solved = engine.query(q);
  ASSERT_TRUE(solved.ok) << solved.error;
  EXPECT_EQ(solved.solution.centers.size(), n);
}

TEST(Engine, CheckpointRestoreRoundTrip) {
  const Stream stream = churn_workload(1000, 500, 61);
  const CoresetParams params = test_params();
  const std::string path = testutil::temp_path("engine_ckpt.bin");

  // Uninterrupted run.
  ClusteringEngine full(kDim, params, engine_options(4, /*exact=*/true));
  full.submit(stream);
  EngineQuery q;
  q.summary_only = true;
  const EngineQueryResult want = full.query(q);
  ASSERT_TRUE(want.ok) << want.error;

  // First half -> checkpoint.
  ClusteringEngine first(kDim, params, engine_options(4, /*exact=*/true));
  const std::size_t half = stream.size() / 2;
  Stream head(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(half));
  first.submit(head);
  ASSERT_TRUE(first.checkpoint(path));
  EXPECT_GT(first.metrics().last_checkpoint_bytes, 0);

  // Restore into a fresh engine, feed the rest.
  ClusteringEngine second(kDim, params, engine_options(4, /*exact=*/true));
  ASSERT_TRUE(second.restore(path));
  EXPECT_EQ(second.net_count(), first.net_count());
  Stream tail(stream.begin() + static_cast<std::ptrdiff_t>(half), stream.end());
  second.submit(tail);
  const EngineQueryResult got = second.query(q);
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_DOUBLE_EQ(got.summary.o, want.summary.o);
  EXPECT_EQ(testutil::canonical_multiset(got.summary.points),
            testutil::canonical_multiset(want.summary.points));
  std::remove(path.c_str());
}

TEST(Engine, RestoreRejectsTruncationWithoutCrashing) {
  const Stream stream = churn_workload(600, 300, 71);
  const CoresetParams params = test_params();
  const std::string path = testutil::temp_path("engine_trunc.bin");

  ClusteringEngine engine(kDim, params, engine_options(2, /*exact=*/true));
  engine.submit(stream);
  ASSERT_TRUE(engine.checkpoint(path));

  // Truncate the file at 60%.
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(blob.size(), 16u);
  blob.resize(blob.size() * 3 / 5);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }

  ClusteringEngine fresh(kDim, params, engine_options(2, /*exact=*/true));
  EXPECT_FALSE(fresh.restore(path));
  // The failed restore leaves the engine fully usable.
  fresh.submit(stream);
  EngineQuery q;
  q.summary_only = true;
  EXPECT_TRUE(fresh.query(q).ok);
  std::remove(path.c_str());
}

TEST(Engine, RestoreRejectsMismatchedConfiguration) {
  const Stream stream = churn_workload(600, 300, 81);
  const CoresetParams params = test_params();
  const std::string path = testutil::temp_path("engine_mismatch.bin");

  ClusteringEngine engine(kDim, params, engine_options(2, /*exact=*/true));
  engine.submit(stream);
  ASSERT_TRUE(engine.checkpoint(path));

  // Different shard count.
  ClusteringEngine other_shards(kDim, params, engine_options(4, /*exact=*/true));
  EXPECT_FALSE(other_shards.restore(path));

  // Different seed.
  CoresetParams other_params = params;
  other_params.seed = params.seed + 1;
  ClusteringEngine other_seed(kDim, other_params, engine_options(2, /*exact=*/true));
  EXPECT_FALSE(other_seed.restore(path));

  // Garbage header.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "definitely not a checkpoint";
  }
  ClusteringEngine garbage(kDim, params, engine_options(2, /*exact=*/true));
  EXPECT_FALSE(garbage.restore(path));
  EXPECT_FALSE(garbage.restore(testutil::temp_path("engine_no_such_file.bin")));
  std::remove(path.c_str());
}

// Many producers, small queues (forcing backpressure), queries racing the
// ingest: nothing deadlocks, every event lands, the barrier is exact.
TEST(Engine, ConcurrentIngestStress) {
  const CoresetParams params = test_params();
  EngineOptions opt = engine_options(4, /*exact=*/false, /*workers=*/3);
  opt.queue_capacity = 64;  // exercise producer blocking
  ClusteringEngine engine(kDim, params, opt);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2500;
  std::atomic<int> ready{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&engine, &ready, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      const PointSet pts =
          testutil::random_points(kDim, Coord{1} << kLogDelta, kPerProducer, rng);
      ready.fetch_add(1);
      for (PointIndex i = 0; i < pts.size(); ++i) {
        const auto p = pts[i];
        engine.submit(
            Stream{StreamEvent{StreamOp::kInsert, Point(p.begin(), p.end())}});
      }
    });
  }
  // Queries concurrent with ingest (no barrier: snapshot whatever applied).
  std::thread querier([&engine] {
    EngineQuery q;
    q.summary_only = true;
    q.barrier = false;
    for (int i = 0; i < 3; ++i) {
      engine.query(q);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (auto& t : producers) t.join();
  querier.join();
  engine.flush();

  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.events_submitted, kProducers * kPerProducer);
  EXPECT_EQ(m.events_applied, kProducers * kPerProducer);
  EXPECT_EQ(m.inserts, kProducers * kPerProducer);
  EXPECT_EQ(m.deletes, 0);
  EXPECT_EQ(m.net_points, kProducers * kPerProducer);
  std::int64_t per_shard = 0;
  for (std::int64_t applied : m.shard_events_applied) per_shard += applied;
  EXPECT_EQ(per_shard, kProducers * kPerProducer);
  EXPECT_EQ(engine.net_count(), kProducers * kPerProducer);
  // Every event was its own one-event batch, and each batch was timed.
  EXPECT_EQ(m.batches, kProducers * kPerProducer);
  EXPECT_EQ(m.submit_latency.count, m.batches);
}

// A query holds every shard lock at once, taken in index order, while it
// finalizes; exports, saves and metrics() take the locks one at a time and
// a drain takes its own.  Two queriers (with and without the barrier), two
// producers and a thread cycling export_sketch, save_state and metrics()
// must all finish.  A lock-order cycle would hang them, so the run is
// bounded: past the timeout the test fails and ends the process.
TEST(Engine, ConcurrentQueriesExportsAndIngestNeverDeadlock) {
  EngineOptions opt = engine_options(4, /*exact=*/false, /*workers=*/3);
  opt.queue_capacity = 256;
  ClusteringEngine engine(kDim, test_params(), opt);
  const Stream initial = churn_workload(400, 100, 57);
  engine.submit(initial);

  constexpr int kBatches = 30;
  constexpr int kPerBatch = 32;
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread runner([&] {
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&engine, t] {
        Rng rng(500 + static_cast<std::uint64_t>(t));
        for (int b = 0; b < kBatches; ++b) {
          const PointSet pts =
              testutil::random_points(kDim, Coord{1} << kLogDelta, kPerBatch, rng);
          engine.submit(insertion_stream(pts));
        }
      });
    }
    for (const bool barrier : {true, false}) {
      threads.emplace_back([&engine, barrier] {
        EngineQuery q;
        q.barrier = barrier;
        q.summary_only = true;
        for (int i = 0; i < 6; ++i) {
          const EngineQueryResult res = engine.query(q);
          EXPECT_TRUE(res.ok) << res.error;
        }
      });
    }
    threads.emplace_back([&engine] {
      for (int i = 0; i < 4; ++i) {
        EXPECT_FALSE(engine.export_sketch().blob.empty());
        serial::Writer state;
        engine.save_state(state);
        EXPECT_GT(state.size(), 0u);
        EXPECT_GE(engine.metrics().events_applied, 0);
      }
    });
    for (std::thread& t : threads) t.join();
    done.set_value();
  });
  if (finished.wait_for(std::chrono::seconds(120)) != std::future_status::ready) {
    ADD_FAILURE() << "queries, exports and ingest still running after 120 s: deadlock";
    std::fflush(stdout);
    std::_Exit(1);
  }
  runner.join();
  engine.flush();
  const std::int64_t total =
      static_cast<std::int64_t>(initial.size()) + 2 * kBatches * kPerBatch;
  EXPECT_EQ(engine.metrics().events_applied, total);
  EXPECT_EQ(engine.metrics().queries, 12);
}

/// `n` distinct points of the [1, 512]^2 grid starting at index `offset`,
/// all carrying `op`.
EventBatch grid_batch(int n, int offset, StreamOp op = StreamOp::kInsert) {
  EventBatch batch(kDim);
  for (int i = offset; i < offset + n; ++i) {
    const Coord p[] = {static_cast<Coord>(i % 511 + 1),
                       static_cast<Coord>(i / 511 + 1)};
    batch.push_back(op, p);
  }
  return batch;
}

// A producer blocked at queue_capacity resumes as drains run.  The drains
// run on a gated pool, so the queue cannot move until the gate opens.
TEST(Engine, ProducerBlockedAtCapacityResumesAsDrainsRun) {
  for (const int per_batch : {48, 1}) {
    SCOPED_TRACE(testing::Message() << per_batch << "-event submits");
    testutil::GatedPool gate;
    EngineOptions opt = engine_options(1, /*exact=*/false);
    opt.shared_pool = gate.pool();
    opt.queue_capacity = 64;
    ClusteringEngine engine(kDim, test_params(), opt);

    // Submits are admitted while the backlog stays within 64 events: one
    // 48-event batch (a second would take it to 96), or 64 one-event ones.
    const int fit = 64 / per_batch;
    constexpr int kEvents = 192;
    std::atomic<int> submitted{0};
    std::thread producer([&] {
      for (int at = 0; at < kEvents; at += per_batch) {
        engine.submit(grid_batch(per_batch, at));
        submitted.fetch_add(1);
      }
    });
    while (submitted.load() < fit) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(submitted.load(), fit) << "the next batch must wait for room";
    EXPECT_EQ(engine.queue_backlog(), fit * per_batch);

    gate.open();
    producer.join();
    engine.flush();
    const EngineMetrics m = engine.metrics();
    EXPECT_EQ(m.events_applied, kEvents);
    EXPECT_EQ(m.net_points, kEvents);
    EXPECT_EQ(m.batches, kEvents / per_batch);
    EXPECT_EQ(engine.queue_backlog(), 0);
  }
}

// The same in inline mode, where a producer's own submit drains: a second
// producer blocked behind a large batch resumes only once that producer's
// drain has taken all but what fits, so it finds nearly the whole batch
// applied when its submit returns.
TEST(Engine, InlineProducerBlockedAtCapacityResumesAsDrainsRun) {
  for (const int per_batch : {48, 1}) {
    SCOPED_TRACE(testing::Message() << per_batch << "-event submit");
    EngineOptions opt = engine_options(1, /*exact=*/false, /*workers=*/0);
    opt.queue_capacity = 64;
    ClusteringEngine engine(kDim, test_params(), opt);
    constexpr int kBig = 10000;
    std::atomic<bool> big_done{false};
    std::thread big([&] {
      engine.submit(grid_batch(kBig, 0));
      big_done.store(true);
    });
    while (engine.queue_backlog() == 0 && !big_done.load()) std::this_thread::yield();
    engine.submit(grid_batch(per_batch, kBig));
    // Admitted with at most 64 - per_batch events of the big batch untaken,
    // and at most one slice of the taken ones still being applied.
    EXPECT_GE(engine.metrics().events_applied,
              kBig - (64 - per_batch) -
                  static_cast<std::int64_t>(StreamingCoresetBuilder::kMaxBatch));
    big.join();
    engine.flush();
    EXPECT_EQ(engine.metrics().events_applied, kBig + per_batch);
    EXPECT_EQ(engine.net_count(), kBig + per_batch);
  }
}

// Small submits that queue up behind a busy drain are merged: the drain
// applies them kMaxBatch events per builder call, not one call per submit.
// Each builder call is one "drain" trace span.
TEST(Engine, QueuedSmallSubmitsReachTheBuilderInFullSlices) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  testutil::GatedPool gate;
  EngineOptions opt = engine_options(1, /*exact=*/false);
  opt.shared_pool = gate.pool();
  ClusteringEngine engine(kDim, test_params(), opt);
  constexpr int kEvents = 600;
  for (int i = 0; i < kEvents; ++i) engine.submit(grid_batch(1, i));
  EXPECT_EQ(engine.queue_backlog(), kEvents);
  gate.open();
  engine.flush();
  tracer.set_enabled(false);
  int drains = 0;
  for (const obs::TaggedTraceEvent& e : tracer.events()) {
    if (std::string(e.event.name) == "drain") ++drains;
  }
  tracer.clear();
  constexpr int kSlice = static_cast<int>(StreamingCoresetBuilder::kMaxBatch);
  EXPECT_EQ(drains, (kEvents + kSlice - 1) / kSlice);
  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.events_applied, kEvents);
  EXPECT_EQ(m.batches, kEvents);
}

// A barrier-less query under a busy drain waits for the slice being
// applied, not for the queue to run dry: the drain lets a waiting fold take
// the builder before its next slice.  Without that, the drain re-locks the
// builder sooner than the woken fold can, slice after slice.
TEST(Engine, FoldUnderABusyDrainWaitsForOneSliceNotTheQueue) {
  testutil::GatedPool gate;
  EngineOptions opt = engine_options(1, /*exact=*/false);
  opt.shared_pool = gate.pool();
  constexpr int kEvents = 40000;
  opt.queue_capacity = kEvents;
  opt.streaming.max_points = kEvents;
  ClusteringEngine engine(kDim, test_params(), opt);
  engine.submit(grid_batch(kEvents, 0));
  gate.open();
  while (engine.metrics().events_applied == 0) std::this_thread::yield();
  EngineQuery q;
  q.barrier = false;
  q.summary_only = true;
  const EngineQueryResult res = engine.query(q);
  EXPECT_LT(res.net_points, kEvents) << "the fold waited for the whole queue";
  EXPECT_LT(engine.metrics().events_applied, kEvents);
  engine.flush();
  EXPECT_EQ(engine.net_count(), kEvents);
}

// A single batch larger than queue_capacity is admitted into an empty
// queue rather than waiting forever for room it can never have.
TEST(Engine, BatchLargerThanQueueCapacityIsAccepted) {
  for (const int workers : {2, 0}) {
    SCOPED_TRACE(workers == 0 ? "inline drains" : "worker threads");
    EngineOptions opt = engine_options(2, /*exact=*/false, workers);
    opt.queue_capacity = 64;
    ClusteringEngine engine(kDim, test_params(), opt);
    engine.submit(grid_batch(10000, 0));
    engine.submit(grid_batch(10000, 0, StreamOp::kDelete));
    engine.submit(grid_batch(5000, 0));
    engine.flush();
    const EngineMetrics m = engine.metrics();
    EXPECT_EQ(m.events_applied, 25000);
    EXPECT_EQ(m.inserts, 15000);
    EXPECT_EQ(m.deletes, 10000);
    EXPECT_EQ(m.net_points, 5000);
    EXPECT_EQ(m.batches, 3);
  }
}

// Concurrent producers against small queues, in batches and one event at a
// time: every event is applied exactly once, to one shard, and the op
// counters add up.
TEST(Engine, ConcurrentProducersHaveEveryEventApplied) {
  for (const int workers : {3, 0}) {
    for (const int per_batch : {40, 1}) {
      SCOPED_TRACE(testing::Message()
                   << (workers == 0 ? "inline drains, " : "worker threads, ")
                   << per_batch << "-event submits");
      EngineOptions opt = engine_options(4, /*exact=*/false, workers);
      opt.queue_capacity = 64;
      ClusteringEngine engine(kDim, test_params(), opt);
      constexpr int kProducers = 4;
      constexpr int kBatches = 50;
      std::vector<std::thread> producers;
      for (int t = 0; t < kProducers; ++t) {
        producers.emplace_back([&engine, t, per_batch] {
          const int base = t * kBatches * per_batch;
          for (int b = 0; b < kBatches; ++b) {
            engine.submit(grid_batch(per_batch, base + b * per_batch));
            // Delete every other batch once it is in.
            if (b % 2 == 1) {
              engine.submit(grid_batch(per_batch, base + b * per_batch,
                                       StreamOp::kDelete));
            }
          }
        });
      }
      for (auto& p : producers) p.join();
      engine.flush();
      const EngineMetrics m = engine.metrics();
      const std::int64_t inserts = kProducers * kBatches * per_batch;
      EXPECT_EQ(m.events_submitted, inserts + inserts / 2);
      EXPECT_EQ(m.events_applied, inserts + inserts / 2);
      EXPECT_EQ(m.inserts, inserts);
      EXPECT_EQ(m.net_points, inserts / 2);
      std::int64_t per_shard = 0;
      for (const std::int64_t applied : m.shard_events_applied) per_shard += applied;
      EXPECT_EQ(per_shard, m.events_applied);
      EXPECT_EQ(engine.queue_backlog(), 0);
    }
  }
}

// The engine's Stream entry checks every point's length in all builds, so
// a longer point can never be read past its batch's coordinates.
TEST(EngineDeathTest, StreamPointOfTheWrongLengthAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ClusteringEngine engine(kDim, test_params(),
                                engine_options(1, /*exact=*/false, /*workers=*/0));
        engine.submit(Stream{StreamEvent{StreamOp::kInsert, Point(8, 5)}});
      },
      "point length does not match the batch dimension");
}

// worker_threads = 0 degrades to inline draining (deterministic, no
// threads), matching the thread pool's inline mode.
TEST(Engine, InlineModeWorks) {
  const Stream stream = churn_workload(600, 200, 91);
  ClusteringEngine engine(kDim, test_params(),
                          engine_options(2, /*exact=*/true, /*workers=*/0));
  engine.submit(stream);
  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.events_applied, static_cast<std::int64_t>(stream.size()));
  EngineQuery q;
  q.summary_only = true;
  EXPECT_TRUE(engine.query(q).ok);
}

TEST(Engine, MetricsJsonIsWellFormed) {
  ClusteringEngine engine(kDim, test_params(),
                          engine_options(2, /*exact=*/true, /*workers=*/0));
  Rng rng(7);
  const PointSet pts = gaussian_mixture(mixture(200), rng);
  engine.submit(insertion_stream(pts));
  EngineQuery q;
  q.summary_only = true;
  engine.query(q);

  const std::string json = metrics_json(engine.metrics());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"events_submitted\":", "\"events_applied\":", "\"queries\":",
        "\"ingest_events_per_second\":", "\"shard_queue_depth\":[",
        "\"last_query_millis\":", "\"total_query_millis\":",
        "\"query_latency_p50_ms\":", "\"query_latency_p99_ms\":",
        "\"query_latency_p999_ms\":", "\"query_latency_count\":",
        "\"submit_latency_p50_ms\":", "\"checkpoint_latency_count\":",
        "\"net_request_latency_count\":", "\"sketch_bytes\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing in " << json;
  }
  EXPECT_NE(json.find("\"events_submitted\":200"), std::string::npos) << json;
}

// Per-op latency histograms: counts mirror the op counters, the derived
// legacy keys come from the same buckets, and percentiles respect the
// recorded range — the race-prone scalar query timers are gone.
TEST(Engine, LatencyHistogramsTrackOperations) {
  ClusteringEngine engine(kDim, test_params(),
                          engine_options(2, /*exact=*/true, /*workers=*/0));
  Rng rng(13);
  const PointSet pts = gaussian_mixture(mixture(300), rng);
  engine.submit(insertion_stream(pts));  // one batch
  EngineQuery q;
  q.summary_only = true;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(engine.query(q).ok);
  const std::string snap =
      testutil::temp_path("engine_latency_hist_ckpt.bin");
  ASSERT_TRUE(engine.checkpoint(snap));

  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.submit_latency.count, m.batches);
  EXPECT_EQ(m.query_latency.count, m.queries);
  EXPECT_EQ(m.checkpoint_latency.count, m.checkpoints);
  EXPECT_EQ(m.query_latency.count, 3);

  // The histogram carries what the legacy scalars reported (last/sum).
  EXPECT_GT(m.query_latency.sum_micros, 0);
  EXPECT_GE(m.query_latency.last_micros, m.query_latency.min_micros);
  EXPECT_LE(m.query_latency.last_micros, m.query_latency.max_micros);
  EXPECT_GE(m.query_latency.sum_micros, m.query_latency.max_micros);

  // Percentiles are ordered and live inside the observed range.
  const double p50 = m.query_latency.p50_millis();
  const double p99 = m.query_latency.p99_millis();
  const double p999 = m.query_latency.p999_millis();
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  EXPECT_GE(p50, static_cast<double>(m.query_latency.min_micros) / 1e3);
  EXPECT_LE(p999, static_cast<double>(m.query_latency.max_micros) / 1e3);
}

// metrics() may race arbitrarily with live queries; every snapshot must be
// internally sane (this is the regression test for the old torn scalar
// last/total query timers — run under TSan in CI).
TEST(Engine, MetricsSnapshotsRaceCleanlyWithQueries) {
  ClusteringEngine engine(kDim, test_params(),
                          engine_options(2, /*exact=*/true, /*workers=*/2));
  Rng rng(17);
  const PointSet pts = gaussian_mixture(mixture(400), rng);
  engine.submit(insertion_stream(pts));

  std::thread querier([&engine] {
    EngineQuery q;
    q.summary_only = true;
    q.barrier = false;
    for (int i = 0; i < 8; ++i) engine.query(q);
  });
  for (int i = 0; i < 50; ++i) {
    const EngineMetrics m = engine.metrics();
    EXPECT_GE(m.query_latency.count, 0);
    EXPECT_LE(m.query_latency.count, 8);
    EXPECT_GE(m.query_latency.sum_micros, 0);
    const std::string json = metrics_json(m);
    EXPECT_NE(json.find("\"query_latency_count\":"), std::string::npos);
  }
  querier.join();
  EXPECT_EQ(engine.metrics().query_latency.count, 8);
}

}  // namespace
}  // namespace skc
