// ShardFinalize: finalizing N builders in place must equal finalizing their
// fold — an empty builder that merge_from()s every part in order, the sum
// export_sketch builds.  Queries finalize the live shards this way.  The
// parts are point-hash splits of a churn stream (an insert and its delete
// land on the same part, as in the engine), fed to 1, 2, 3, 4 and 8 builders
// in exact and sketch mode.  Each case targets one rule of the in-place read:
//   * default options;
//   * a small live-point cap: a store of the sum can die although no part's
//     store did, and the cap is checked after every part of the merge, so a
//     prefix that crosses it kills the sum for good;
//   * different pruned prefixes per part: the sum prunes the longest one;
//   * a part that also absorbed another builder's state, so two parts hold
//     equal coordinates (their counts add) and the summed peaks of a cell
//     can pass the watermark no single part passed.
// The store-level cases run the same rules on CellPointStore with a small
// watermark, which the builder fixes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "skc/coreset/streaming.h"
#include "skc/sketch/point_store.h"
#include "skc/stream/generators.h"
#include "test_util.h"

namespace skc {
namespace {

constexpr int kDim = 2;
constexpr int kLogDelta = 9;

CoresetParams test_params() { return CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3); }

Stream churn_workload(int base_n, int extra_n, double spread, std::uint64_t seed) {
  MixtureConfig cfg;
  cfg.dim = kDim;
  cfg.log_delta = kLogDelta;
  cfg.clusters = 3;
  cfg.n = base_n;
  cfg.spread = spread;
  cfg.skew = 1.0;
  Rng rng(seed);
  const PointSet base = gaussian_mixture(cfg, rng);
  cfg.n = extra_n;
  const PointSet extra = gaussian_mixture(cfg, rng);
  Rng order(seed + 1);
  return churn_stream(base, extra, ChurnConfig{}, order);
}

std::uint64_t point_hash(std::span<const Coord> p) {
  std::uint64_t h = 0x5eed;
  for (const Coord c : p) {
    std::uint64_t state = h ^ static_cast<std::uint64_t>(c);
    h = splitmix64(state);
  }
  return h;
}

/// Splits a stream into `parts` sub-streams by point hash over parts + skew
/// buckets, the `skew` extra buckets going to the last part.
std::vector<Stream> split_stream(const Stream& stream, int parts, int skew = 0) {
  std::vector<Stream> out(static_cast<std::size_t>(parts));
  const auto buckets = static_cast<std::uint64_t>(parts + skew);
  for (const StreamEvent& e : stream) {
    const std::uint64_t b = point_hash(e.point) % buckets;
    out[std::min<std::uint64_t>(b, out.size() - 1)].push_back(e);
  }
  return out;
}

using Builders = std::vector<std::unique_ptr<StreamingCoresetBuilder>>;

Builders feed(const std::vector<Stream>& streams, const CoresetParams& params,
              const StreamingOptions& opt) {
  Builders out;
  for (const Stream& s : streams) {
    out.push_back(std::make_unique<StreamingCoresetBuilder>(kDim, params, opt));
    out.back()->consume(EventBatch(s, kDim));
  }
  return out;
}

std::vector<const StreamingCoresetBuilder*> view(const Builders& parts) {
  std::vector<const StreamingCoresetBuilder*> out;
  for (const auto& p : parts) out.push_back(p.get());
  return out;
}

/// Checks finalize over `parts` against finalize of their fold and returns
/// the fold's result.
StreamingResult expect_matches_fold(const Builders& parts, const CoresetParams& params,
                                    const StreamingOptions& opt) {
  StreamingCoresetBuilder fold(kDim, params, opt);
  for (const auto& part : parts) fold.merge_from(*part);
  const StreamingResult want = fold.finalize();
  const StreamingResult got = StreamingCoresetBuilder::finalize(view(parts));
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.coreset.o, want.coreset.o);
  EXPECT_EQ(got.diagnostics.guesses_tried, want.diagnostics.guesses_tried);
  EXPECT_EQ(got.diagnostics.guess_outcomes, want.diagnostics.guess_outcomes);
  EXPECT_EQ(got.opt_lower_bound, want.opt_lower_bound);
  EXPECT_EQ(testutil::sequence(got.coreset.points), testutil::sequence(want.coreset.points));
  EXPECT_EQ(got.coreset.levels, want.coreset.levels);
  return want;
}

std::size_t count_outcome(const StreamingResult& r, const std::string& outcome) {
  const auto& v = r.diagnostics.guess_outcomes;
  return static_cast<std::size_t>(std::count(v.begin(), v.end(), outcome));
}

const std::string kSaturated = "sample store saturated";
const std::string kPrunedMidStream = "pruned mid-stream (below OPT lower bound)";

StreamingOptions base_options(bool exact) {
  StreamingOptions opt;
  opt.log_delta = kLogDelta;
  opt.max_points = 4000;
  opt.exact_storing = exact;
  return opt;
}

constexpr int kPartCounts[] = {1, 2, 3, 4, 8};

TEST(ShardFinalize, DefaultOptionsMatchTheFold) {
  const Stream stream = churn_workload(1500, 700, 0.02, 201);
  const CoresetParams params = test_params();
  for (const bool exact : {true, false}) {
    const StreamingOptions opt = base_options(exact);
    for (const int n : kPartCounts) {
      SCOPED_TRACE(testing::Message() << (exact ? "exact" : "sketch") << " mode, " << n
                                      << " parts");
      const StreamingResult want =
          expect_matches_fold(feed(split_stream(stream, n), params, opt), params, opt);
      EXPECT_TRUE(want.ok);
    }
  }
}

// A cap small enough that the sum's stores die where the parts' do not.
TEST(ShardFinalize, SmallLiveCapMatchesTheFold) {
  const Stream stream = churn_workload(1500, 700, 0.02, 203);
  const CoresetParams params = test_params();
  for (const bool exact : {true, false}) {
    StreamingOptions opt = base_options(exact);
    opt.max_live_points = 400;
    std::size_t summed_deaths = 0;
    for (const int n : kPartCounts) {
      SCOPED_TRACE(testing::Message() << (exact ? "exact" : "sketch") << " mode, " << n
                                      << " parts");
      const Builders parts = feed(split_stream(stream, n), params, opt);
      const StreamingResult want = expect_matches_fold(parts, params, opt);
      std::size_t part_max = 0;
      for (const auto& part : parts) {
        part_max = std::max(part_max, count_outcome(part->finalize(), kSaturated));
      }
      if (count_outcome(want, kSaturated) > part_max) ++summed_deaths;
    }
    if (!exact) {
      EXPECT_GT(summed_deaths, 0u) << "no sum died where its parts lived";
    }
  }
}

// A skewed split and a short prune interval: the parts prune different
// prefixes, the last part (the largest) the longest, and the sum prunes
// that one.
TEST(ShardFinalize, DifferentPrunedPrefixesMatchTheFold) {
  const Stream stream = churn_workload(1500, 700, 0.05, 205);
  const CoresetParams params = test_params();
  for (const bool exact : {true, false}) {
    StreamingOptions opt = base_options(exact);
    opt.prune_interval = 64;
    std::size_t differing = 0;
    for (const int n : kPartCounts) {
      SCOPED_TRACE(testing::Message() << (exact ? "exact" : "sketch") << " mode, " << n
                                      << " parts");
      const Builders parts = feed(split_stream(stream, n, /*skew=*/2 * n), params, opt);
      const StreamingResult want = expect_matches_fold(parts, params, opt);
      std::set<std::size_t> prefixes;
      for (const auto& part : parts) {
        prefixes.insert(count_outcome(part->finalize(), kPrunedMidStream));
      }
      if (prefixes.size() > 1) ++differing;
      EXPECT_EQ(count_outcome(want, kPrunedMidStream), *prefixes.rbegin());
    }
    if (!exact) {
      EXPECT_GT(differing, 0u) << "every split pruned one prefix";
    }
  }
}

// Part 0 also absorbs a builder fed the last part's events: the two hold
// equal coordinates, whose counts add in the sum, and the summed peaks of a
// shared cell pass the watermark where neither part's do.
TEST(ShardFinalize, PartThatAbsorbedAnotherBuilderMatchesTheFold) {
  const Stream stream = churn_workload(2400, 600, 0.01, 207);
  const CoresetParams params = test_params();
  for (const bool exact : {true, false}) {
    const StreamingOptions opt = base_options(exact);
    for (const int n : kPartCounts) {
      SCOPED_TRACE(testing::Message() << (exact ? "exact" : "sketch") << " mode, " << n
                                      << " parts");
      const std::vector<Stream> streams = split_stream(stream, n);
      Builders parts = feed(streams, params, opt);
      StreamingCoresetBuilder copy(kDim, params, opt);
      copy.consume(EventBatch(streams.back(), kDim));
      parts.front()->merge_from(copy);
      const StreamingResult want = expect_matches_fold(parts, params, opt);
      EXPECT_TRUE(want.ok);
    }
  }
}

// --- The store reads, with a watermark the builder does not let a test set.

constexpr int kStoreLevel = 6;

/// A store with one rate class that keeps every event, read as class 0.
CellPointStore one_class(const HierarchicalGrid& grid, const PointStoreConfig& config) {
  return CellPointStore(grid, kStoreLevel, config, {~std::uint64_t{0}});
}

/// Every cell key a store of the parts touched, from a full scan.
std::vector<CellKey> touched_cells(const std::vector<CellPointStore>& parts) {
  std::set<std::vector<std::int32_t>> seen;
  std::vector<CellKey> out;
  for (const CellPointStore& part : parts) {
    for (const auto& [key, cp] : part.all_cells(0)) {
      if (seen.insert(key.index).second) out.push_back(key);
    }
  }
  return out;
}

/// Compares summed_cell for every touched cell and summed_dead against a
/// merge of the parts into an empty store.
void expect_store_reads_match_merge(const std::vector<CellPointStore>& parts,
                                    const HierarchicalGrid& grid,
                                    const PointStoreConfig& config) {
  CellPointStore merged = one_class(grid, config);
  std::vector<const CellPointStore*> refs;
  for (const CellPointStore& part : parts) {
    merged.merge(part);
    refs.push_back(&part);
  }
  ASSERT_EQ(CellPointStore::summed_dead(refs, 0), merged.dead(0));
  if (merged.dead(0)) return;
  for (const CellKey& key : touched_cells(parts)) {
    const auto got = CellPointStore::summed_cell(refs, 0, key);
    const auto want = merged.cell(0, key);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!want) continue;
    EXPECT_EQ(got->complete, want->complete);
    EXPECT_EQ(got->net_count, want->net_count);
    ASSERT_EQ(testutil::canonical_multiset(got->points),
              testutil::canonical_multiset(want->points));
    for (PointIndex i = 0; i < got->points.size(); ++i) {
      const auto a = got->points[i];
      const auto b = want->points[i];
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "cell points differ in order at " << i;
    }
  }
}

void apply(CellPointStore& store, const HierarchicalGrid& grid, std::span<const Coord> p,
           std::int64_t delta) {
  std::vector<std::int32_t> idx(static_cast<std::size_t>(kDim));
  grid.cell_index_of(p, kStoreLevel, idx);
  const std::uint64_t h = 0;  // the one class keeps every event
  store.update_batch(p.data(), idx.data(), &h, &delta, 1);
}

// Random churn over a coarse grid, split by point hash, with a copy of one
// part's inserts in another part: summed peaks and tombstones, equal
// coordinates across parts, and caps on both sides of the crossing.
TEST(ShardFinalize, StoreReadsMatchTheMergedStore) {
  const HierarchicalGrid grid = make_grid(kDim, kLogDelta, 9);
  for (const bool exact : {true, false}) {
    for (const std::int64_t cap : {std::int64_t{1} << 20, std::int64_t{120}, std::int64_t{60}}) {
      for (const int n : kPartCounts) {
        SCOPED_TRACE(testing::Message() << (exact ? "exact" : "sketch") << ", cap " << cap
                                        << ", " << n << " parts");
        PointStoreConfig config;
        config.watermark = 6;
        config.max_live_points = cap;
        config.exact = exact;
        std::vector<CellPointStore> parts;
        for (int p = 0; p < n; ++p) parts.push_back(one_class(grid, config));
        Rng rng(300 + static_cast<std::uint64_t>(n));
        const PointSet points = testutil::random_points(kDim, Coord{64}, 400, rng);
        for (PointIndex i = 0; i < points.size(); ++i) {
          const auto p = points[i];
          const std::size_t part = point_hash(p) % static_cast<std::size_t>(n);
          apply(parts[part], grid, p, +1);
          // The same point once more in the next part: equal coordinates in
          // two parts.
          if (i % 5 == 0) apply(parts[(part + 1) % parts.size()], grid, p, +1);
          if (i % 3 == 0) apply(parts[part], grid, p, -1);
        }
        expect_store_reads_match_merge(parts, grid, config);
      }
    }
  }
}

// The fold checks the cap after each part: parts 0 and 1 hold 3 live points
// each, 6 past a cap of 5, and part 2 then tombstones part 0's cell (summed
// peaks 3 + 2 past a watermark of 4), which brings the final count to 3.
// The sum is dead anyway.  In the order (2, 0, 1) the tombstone comes first
// and the sum lives.
TEST(ShardFinalize, EarlyPrefixPastTheCapKillsTheSumForGood) {
  const HierarchicalGrid grid(kDim, kLogDelta, std::vector<Coord>{0, 0});
  PointStoreConfig config;
  config.watermark = 4;
  config.max_live_points = 5;
  std::vector<CellPointStore> parts;
  for (int p = 0; p < 3; ++p) parts.push_back(one_class(grid, config));
  const auto at = [](Coord x, Coord y) { return std::vector<Coord>{x, y}; };
  // Level-6 cells of an unshifted 2^9 grid are 8 wide: cell A holds (1..7,
  // 1..7), cell B (200..207, 200..207).
  for (const auto& p : {at(1, 1), at(2, 1), at(3, 1)}) apply(parts[0], grid, p, +1);
  for (const auto& p : {at(201, 201), at(202, 201), at(203, 201)}) {
    apply(parts[1], grid, p, +1);
  }
  for (const auto& p : {at(1, 2), at(2, 2)}) apply(parts[2], grid, p, +1);
  for (const CellPointStore& part : parts) ASSERT_FALSE(part.dead(0));

  std::vector<const CellPointStore*> in_order = {&parts[0], &parts[1], &parts[2]};
  EXPECT_TRUE(CellPointStore::summed_dead(in_order, 0));
  expect_store_reads_match_merge(parts, grid, config);

  std::vector<CellPointStore> reordered;
  for (const int p : {2, 0, 1}) reordered.push_back(parts[static_cast<std::size_t>(p)]);
  std::vector<const CellPointStore*> tombstone_first = {&reordered[0], &reordered[1],
                                                        &reordered[2]};
  EXPECT_FALSE(CellPointStore::summed_dead(tombstone_first, 0));
  expect_store_reads_match_merge(reordered, grid, config);
}

}  // namespace
}  // namespace skc
