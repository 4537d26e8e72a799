#include "skc/coreset/streaming.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "skc/coreset/offline.h"
#include "skc/obs/trace.h"
#include "skc/stream/generators.h"
#include "test_util.h"

namespace skc {
namespace {

MixtureConfig mixture(int n, int log_delta = 9) {
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = log_delta;
  cfg.clusters = 3;
  cfg.n = n;
  cfg.spread = 0.02;
  cfg.skew = 1.0;
  return cfg;
}

/// Options that make the streaming path information-lossless: sampling
/// rates psi/psi' forced to 1 and sketch capacities large enough to decode
/// everything, so streamed estimates equal exact counts.
StreamingOptions lossless_options(int log_delta, PointIndex n) {
  StreamingOptions opt;
  opt.log_delta = log_delta;
  opt.max_points = n;
  opt.counting_samples = 1e18;  // psi = psi' = 1
  opt.exact_storing = true;     // plain-map reference structures
  return opt;
}

TEST(StreamingCoreset, InsertionOnlyEqualsOffline) {
  Rng rng(1);
  PointSet pts = gaussian_mixture(mixture(700), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);

  const OfflineBuildResult offline = build_offline_coreset(pts, params, 9);
  ASSERT_TRUE(offline.ok);

  StreamingCoresetBuilder builder(2, params, lossless_options(9, pts.size()));
  builder.consume(EventBatch(insertion_stream(pts), 2));
  const StreamingResult streamed = builder.finalize();
  ASSERT_TRUE(streamed.ok);

  EXPECT_DOUBLE_EQ(streamed.coreset.o, offline.coreset.o);
  EXPECT_EQ(testutil::canonical_multiset(streamed.coreset.points),
            testutil::canonical_multiset(offline.coreset.points));
}

TEST(StreamingCoreset, DynamicStreamEqualsOfflineOnSurvivors) {
  Rng rng(2);
  PointSet base = gaussian_mixture(mixture(500), rng);
  PointSet extra = gaussian_mixture(mixture(400), rng);
  Rng srng(3);
  const Stream stream = churn_stream(base, extra, ChurnConfig{}, srng);
  const PointSet survivors = surviving_points(stream, 2);
  ASSERT_EQ(testutil::canonical_multiset(survivors), testutil::canonical_multiset(base));

  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  const OfflineBuildResult offline = build_offline_coreset(base, params, 9);
  ASSERT_TRUE(offline.ok);

  StreamingCoresetBuilder builder(2, params, lossless_options(9, base.size() + extra.size()));
  builder.consume(EventBatch(stream, 2));
  EXPECT_EQ(builder.net_count(), base.size());
  const StreamingResult streamed = builder.finalize();
  ASSERT_TRUE(streamed.ok);
  EXPECT_DOUBLE_EQ(streamed.coreset.o, offline.coreset.o);
  EXPECT_EQ(testutil::canonical_multiset(streamed.coreset.points),
            testutil::canonical_multiset(offline.coreset.points));
}

TEST(StreamingCoreset, AdversarialChurnStillMatchesOffline) {
  Rng rng(4);
  PointSet base = gaussian_mixture(mixture(400), rng);
  PointSet extra = gaussian_mixture(mixture(400), rng);
  ChurnConfig churn;
  churn.adversarial = true;
  Rng srng(5);
  const Stream stream = churn_stream(base, extra, churn, srng);

  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  const OfflineBuildResult offline = build_offline_coreset(base, params, 9);
  ASSERT_TRUE(offline.ok);

  StreamingCoresetBuilder builder(2, params, lossless_options(9, 800));
  builder.consume(EventBatch(stream, 2));
  const StreamingResult streamed = builder.finalize();
  ASSERT_TRUE(streamed.ok);
  EXPECT_EQ(testutil::canonical_multiset(streamed.coreset.points),
            testutil::canonical_multiset(offline.coreset.points));
}

TEST(StreamingCoreset, SampledRatesStillProduceUsableCoreset) {
  // Realistic (sampled, small-sketch) configuration: the result will not be
  // identical to offline, but must build and approximate the total weight.
  Rng rng(6);
  PointSet pts = gaussian_mixture(mixture(4000, 10), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);

  StreamingOptions opt;
  opt.log_delta = 10;
  opt.max_points = pts.size();
  StreamingCoresetBuilder builder(2, params, opt);
  builder.consume(EventBatch(insertion_stream(pts), 2));
  const StreamingResult streamed = builder.finalize();
  ASSERT_TRUE(streamed.ok);
  EXPECT_GT(streamed.coreset.points.size(), 50);
  EXPECT_NEAR(streamed.coreset.total_weight(), 4000.0, 2000.0);
  EXPECT_TRUE(streamed.coreset.points.integral_weights());
}

TEST(StreamingCoreset, MemorySublinearInStreamLength) {
  // E5's claim: sketch state is bounded by configuration caps, not by n.
  // Feed 4x the data and require far less than 4x the memory (point buckets
  // allocate lazily, so some growth up to the caps is expected).
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  StreamingOptions opt;
  opt.log_delta = 10;
  opt.max_points = 1 << 20;

  auto run = [&](int n, std::uint64_t seed) {
    StreamingCoresetBuilder builder(2, params, opt);
    Rng rng(seed);
    builder.consume(
        EventBatch(insertion_stream(gaussian_mixture(mixture(n, 10), rng)), 2));
    return builder.memory_bytes();
  };
  const std::size_t small = run(3000, 7);
  const std::size_t large = run(12000, 7);
  EXPECT_LT(static_cast<double>(large), 2.0 * static_cast<double>(small));

  StreamingCoresetBuilder builder(2, params, opt);
  EXPECT_GT(builder.memory_bytes_per_guess(), 0u);
  EXPECT_LT(builder.memory_bytes_per_guess(), builder.memory_bytes());
}

TEST(StreamingCoreset, ORangeHintShrinksGuessCount) {
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  StreamingOptions full;
  full.log_delta = 10;
  full.max_points = 1 << 16;
  StreamingOptions hinted = full;
  hinted.o_min = 1e5;
  hinted.o_max = 1e7;
  StreamingCoresetBuilder a(2, params, full);
  StreamingCoresetBuilder b(2, params, hinted);
  EXPECT_GT(a.num_guesses(), b.num_guesses());
  EXPECT_LT(b.memory_bytes(), a.memory_bytes());
}

TEST(StreamingCoreset, NetCountTracksInsertMinusDelete) {
  const CoresetParams params = CoresetParams::practical(2, LrOrder{2.0}, 0.3, 0.3);
  StreamingOptions opt;
  opt.log_delta = 6;
  opt.max_points = 100;
  StreamingCoresetBuilder builder(2, params, opt);
  const Point p = {5, 5};
  const Stream stream = {
      {StreamOp::kInsert, p}, {StreamOp::kInsert, p}, {StreamOp::kDelete, p}};
  builder.consume(EventBatch(stream, 2));
  EXPECT_EQ(builder.net_count(), 1);
  EXPECT_EQ(builder.events(), 3);
}

TEST(StreamingCoreset, DiagnosticsExplainEveryGuess) {
  Rng rng(8);
  PointSet pts = gaussian_mixture(mixture(600), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  StreamingCoresetBuilder builder(2, params, lossless_options(9, pts.size()));
  builder.consume(EventBatch(insertion_stream(pts), 2));
  const StreamingResult result = builder.finalize();
  ASSERT_TRUE(result.ok);
  // Outcomes are recorded up to and including the accepted guess.
  EXPECT_EQ(result.diagnostics.guess_outcomes.back(), "ok");
  EXPECT_EQ(result.diagnostics.guesses_tried.size(),
            result.diagnostics.guess_outcomes.size());
}

TEST(StreamingCoreset, BuildStreamingConvenienceWrapper) {
  Rng rng(9);
  PointSet pts = gaussian_mixture(mixture(500), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  const StreamingResult result = build_streaming_coreset(
      insertion_stream(pts), 2, params, lossless_options(9, pts.size()));
  EXPECT_TRUE(result.ok);
}

// Ingest is traced by stage (DESIGN.md §10): "grid" for the substream
// hashing, then one span per structure family it feeds, for a whole batch
// and for a one-event batch alike.
TEST(StreamingCoreset, UpdatePathsRecordOneSpanPerStage) {
  Rng rng(9);
  const Stream stream = shuffled_insertions(gaussian_mixture(mixture(64), rng), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  obs::Tracer& tracer = obs::Tracer::instance();
  const auto traced_spans = [&](const auto& feed) {
    tracer.set_enabled(false);
    tracer.clear();
    tracer.set_enabled(true);
    feed();
    tracer.set_enabled(false);
    std::set<std::string> names;
    for (const obs::TaggedTraceEvent& e : tracer.events()) names.insert(e.event.name);
    tracer.clear();
    return names;
  };
  const std::set<std::string> stages = {"grid", "countmin", "point_store", "distinct"};
  StreamingCoresetBuilder batched(2, params, StreamingOptions{});
  EXPECT_EQ(traced_spans([&] { batched.update_batch(stream); }), stages);
  StreamingCoresetBuilder one(2, params, StreamingOptions{});
  EXPECT_EQ(traced_spans([&] { one.update_batch(std::span(stream).first(1)); }), stages);
}

// The structures of a builder point at its grid, which lives on the heap, so
// builders that a growing vector (no reserve) moved finalize exactly like
// twins that never moved.  While the grid was a member, the moved builders'
// structures kept reading the grid inside the vector's freed buffer.
TEST(StreamingCoreset, BuildersMovedByAGrowingVectorFinalizeLikeUnmovedTwins) {
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  StreamingOptions opt;
  opt.log_delta = 9;
  opt.max_points = 4000;
  std::vector<EventBatch> streams;
  std::vector<StreamingCoresetBuilder> moved;
  for (int b = 0; b < 5; ++b) {
    Rng rng(static_cast<std::uint64_t>(40 + b));
    streams.emplace_back(insertion_stream(gaussian_mixture(mixture(600), rng)), 2);
    moved.emplace_back(2, params, opt);  // may move every earlier builder
  }
  for (std::size_t b = 0; b < moved.size(); ++b) {
    moved[b].consume(streams[b]);
    StreamingCoresetBuilder twin(2, params, opt);
    twin.consume(streams[b]);
    const StreamingResult got = moved[b].finalize();
    const StreamingResult want = twin.finalize();
    ASSERT_TRUE(want.ok) << "builder " << b;
    ASSERT_TRUE(got.ok) << "builder " << b;
    EXPECT_EQ(got.coreset.o, want.coreset.o) << "builder " << b;
    EXPECT_EQ(testutil::canonical_multiset(got.coreset.points),
              testutil::canonical_multiset(want.coreset.points))
        << "builder " << b;
  }
}

// The finalize walk enumerates the 2^d children of heavy cells, so a builder
// refuses a dimension above the walk's limit when it is made, not in the
// middle of a query.
TEST(StreamingCoresetDeathTest, DimensionAboveTheWalkLimitAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  StreamingOptions opt;
  opt.log_delta = 6;
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  StreamingCoresetBuilder at_limit(HierarchicalGrid::kMaxWalkDim, params, opt);
  EXPECT_EQ(at_limit.grid().dim(), HierarchicalGrid::kMaxWalkDim);
  EXPECT_DEATH(StreamingCoresetBuilder(HierarchicalGrid::kMaxWalkDim + 1, params, opt),
               "dimension too large");
}

}  // namespace
}  // namespace skc
