// The per-level CellCountMin against the per-guess CountMins it replaced
// (tests/per_guess_countmin.h), plus the prefix property it relies on.
//
// Every guess's oracle is built with the level seed and fed, pointwise,
// only the events its own rate keeps; the per-level structure is fed the
// same events in batches with their kept prefix.  Pruning, merging
// independently fed structures (with different pruned prefixes) and
// save/load round trips are interleaved at random; after every step every
// guess must report exactly what its oracle reports on every touched cell.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "per_guess_countmin.h"
#include "skc/common/random.h"
#include "skc/coreset/sampling.h"
#include "skc/coreset/streaming.h"
#include "skc/grid/hierarchical_grid.h"
#include "skc/hash/field61.h"
#include "skc/sketch/countmin.h"

namespace skc {
namespace {

/// The keep predicate a per-guess CountMin's substream used, written out
/// independently of SamplingRate::keep_below.
bool keeps(std::uint64_t h, const SamplingRate& rate) {
  return rate.always() || h < f61::kP / rate.m;
}

constexpr int kLevel = 3;  // 16 x 16 cells over the 128 x 128 domain
constexpr std::uint64_t kSeed = 0x5EED0C0047ULL;

/// Guess rates, non-increasing as o grows; two of them always keep.
std::vector<SamplingRate> guess_rates() {
  std::vector<SamplingRate> rates;
  for (const double p : {1.0, 1.0, 0.5, 0.5, 1.0 / 3, 0.25, 0.125, 0.125, 1.0 / 16}) {
    rates.push_back(SamplingRate::from_probability(p));
  }
  return rates;
}

std::vector<std::uint64_t> keep_bounds(const std::vector<SamplingRate>& rates) {
  std::vector<std::uint64_t> out;
  for (const SamplingRate& r : rates) out.push_back(r.keep_below());
  return out;
}

struct Event {
  std::vector<Coord> point;
  std::uint64_t h = 0;  // the level's counting hash of the point
};

/// One per-level structure, the G oracles of the guesses it replaces, and
/// the events still live in it.
struct Side {
  Side(const HierarchicalGrid& grid, const CellCountMinConfig& cfg,
       const std::vector<SamplingRate>& rates)
      : cm(grid, kLevel, cfg, kSeed, keep_bounds(rates)) {
    for (std::size_t g = 0; g < rates.size(); ++g) {
      oracles.emplace_back(grid, kLevel, cfg, kSeed);
    }
  }
  CellCountMin cm;
  std::vector<oracle::PerGuessCountMin> oracles;
  std::vector<Event> live;
};

class CountMinOracleRun {
 public:
  CountMinOracleRun(bool exact, std::uint64_t seed)
      : rng_(seed), grid_(2, 7, rng_), rates_(guess_rates()) {
    cfg_.width = 16;  // narrow: collisions are common, so column mix-ups show
    cfg_.depth = 3;
    cfg_.exact = exact;
    a_ = std::make_unique<Side>(grid_, cfg_, rates_);
    b_ = std::make_unique<Side>(grid_, cfg_, rates_);
  }

  void run(int steps) {
    const std::size_t batch_sizes[] = {1, 7, 16, 17, 40};
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      const std::int64_t action = rng_.uniform_int(0, 99);
      Side& side = action % 2 == 0 ? *a_ : *b_;
      if (action < 80) {
        feed(side, batch_sizes[rng_.uniform_int(0, 4)]);
      } else if (action < 88) {
        prune(side);
      } else if (action < 94) {
        merge_b_into_a();
      } else {
        round_trip(side);
      }
      compare(*a_);
      compare(*b_);
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(a_->cm.lo(), 0) << "the run must prune for the trim paths to bite";
    EXPECT_GT(merges_with_different_lo_, 0);
  }

 private:
  /// One batch of random inserts and deletes of live points.
  void feed(Side& side, std::size_t n) {
    std::vector<std::int32_t> cells;
    std::vector<std::int64_t> deltas;
    std::vector<int> his;
    for (std::size_t i = 0; i < n; ++i) {
      Event ev;
      std::int64_t delta = +1;
      if (!side.live.empty() && rng_.uniform_int(0, 2) == 0) {
        const auto at = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(side.live.size()) - 1));
        ev = side.live[at];
        side.live[at] = side.live.back();
        side.live.pop_back();
        delta = -1;
      } else {
        // A 100 x 100 corner: many cells, and repeated points.
        ev.point = {static_cast<Coord>(rng_.uniform_int(1, 100)),
                    static_cast<Coord>(rng_.uniform_int(1, 100))};
        ev.h = rng_.next() % f61::kP;
        side.live.push_back(ev);
        touch(ev.point);
      }
      for (std::size_t g = 0; g < rates_.size(); ++g) {
        if (keeps(ev.h, rates_[g])) side.oracles[g].update(ev.point, delta);
      }
      const int hi = side.cm.kept_prefix(ev.h);
      if (hi <= side.cm.lo()) continue;
      cells.resize(cells.size() + 2);
      grid_.cell_index_of(ev.point, kLevel,
                          std::span<std::int32_t>(cells.data() + cells.size() - 2, 2));
      deltas.push_back(delta);
      his.push_back(hi);
    }
    side.cm.update(cells.data(), deltas.data(), his.data(), deltas.size());
  }

  void prune(Side& side) {
    const int lo = std::min<int>(side.cm.guesses(),
                                 side.cm.lo() + static_cast<int>(rng_.uniform_int(1, 2)));
    side.cm.trim(lo);
    for (int g = 0; g < lo; ++g) side.oracles[static_cast<std::size_t>(g)].release();
  }

  /// Folds b into a, then starts b afresh.  Half the time a is first
  /// folded into a fresh structure, as an export folds its first shard (the
  /// merge then copies).
  void merge_b_into_a() {
    if (rng_.uniform_int(0, 1) == 0) {
      auto folded = std::make_unique<Side>(grid_, cfg_, rates_);
      folded->cm.merge(a_->cm);
      for (std::size_t g = 0; g < rates_.size(); ++g) folded->oracles[g].merge(a_->oracles[g]);
      folded->live = a_->live;
      a_ = std::move(folded);
    }
    if (a_->cm.lo() != b_->cm.lo()) ++merges_with_different_lo_;
    a_->cm.merge(b_->cm);
    for (std::size_t g = 0; g < rates_.size(); ++g) a_->oracles[g].merge(b_->oracles[g]);
    a_->live.insert(a_->live.end(), b_->live.begin(), b_->live.end());
    b_ = std::make_unique<Side>(grid_, cfg_, rates_);
  }

  void round_trip(Side& side) {
    serial::Writer bytes;
    side.cm.save(bytes);
    CellCountMin thawed(grid_, kLevel, cfg_, kSeed, keep_bounds(rates_));
    serial::Reader in(bytes.view());
    ASSERT_TRUE(thawed.load(in));
    EXPECT_TRUE(in.done());
    if (!cfg_.exact) {  // exact rows are saved in hash-map order
      serial::Writer again;
      thawed.save(again);
      EXPECT_EQ(again.view(), bytes.view());
    }
    side.cm = std::move(thawed);
  }

  void touch(const std::vector<Coord>& p) {
    CellKey cell = grid_.cell_of(p, kLevel);
    for (const CellKey& seen : touched_) {
      if (seen == cell) return;
    }
    touched_.push_back(std::move(cell));
  }

  void compare(const Side& side) {
    for (const CellKey& cell : touched_) {
      for (int g = 0; g < side.cm.guesses(); ++g) {
        ASSERT_EQ(side.cm.query(g, cell),
                  side.oracles[static_cast<std::size_t>(g)].query(cell))
            << "guess " << g << " (lo " << side.cm.lo() << ")";
      }
    }
  }

  Rng rng_;
  HierarchicalGrid grid_;
  std::vector<SamplingRate> rates_;
  CellCountMinConfig cfg_;
  std::unique_ptr<Side> a_, b_;
  std::vector<CellKey> touched_;
  int merges_with_different_lo_ = 0;
};

TEST(CountMinOracle, MatchesThePerGuessCountMinsOnRandomChurn) {
  for (const bool exact : {false, true}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << (exact ? "exact" : "sketch") << " mode, seed "
                                      << seed);
      CountMinOracleRun(exact, seed).run(500);
    }
  }
}

// Pruning frees memory: trimming reallocates the counter block at the
// smaller size once no live guess reads a column, and a fully pruned level
// holds no counters.
TEST(CountMinOracle, TrimShrinksTheCounterBlock) {
  Rng rng(4);
  HierarchicalGrid grid(2, 7, rng);
  CellCountMinConfig cfg;
  cfg.width = 64;
  cfg.depth = 2;
  const std::vector<SamplingRate> rates = guess_rates();
  CellCountMin cm(grid, kLevel, cfg, kSeed, keep_bounds(rates));
  // One column per distinct rate: 1, 1/2, 1/3, 1/4, 1/8 and 1/16.
  const std::size_t hashes = cm.memory_bytes() - 2 * 64 * 6 * 8;
  cm.trim(1);  // guess 1 still reads guess 0's column
  EXPECT_EQ(cm.memory_bytes(), hashes + 2 * 64 * 6 * 8);
  cm.trim(4);  // guesses 4..8 read the columns of 1/3 .. 1/16
  EXPECT_EQ(cm.memory_bytes(), hashes + 2 * 64 * 4 * 8);
  EXPECT_EQ(cm.memory_bytes_per_guess(), hashes + 2 * 64 * 8);
  cm.trim(static_cast<int>(rates.size()));
  EXPECT_EQ(cm.memory_bytes(), hashes);
  EXPECT_EQ(cm.memory_bytes_per_guess(), 0u);
}

// The builder's per-level keep bounds fall along the o-ascending guesses, so
// the guesses keeping an event are a prefix, and kept_prefix() counts
// exactly the guesses whose own rate keeps it — over the option space.
TEST(CountMinOracle, GuessesKeepingAnEventArePrefixesAcrossOptions) {
  Rng rng(5);
  int configs = 0;
  for (int log_delta = 4; log_delta <= 14; ++log_delta) {
    for (const double samples : {16.0, 64.0, 1e18}) {
      for (const PointIndex max_points : {PointIndex{1} << 10, PointIndex{1} << 20}) {
        for (const bool hinted : {false, true}) {
          for (const double r : {1.0, 2.0}) {
            StreamingOptions opt;
            opt.log_delta = log_delta;
            opt.counting_samples = samples;
            opt.max_points = max_points;
            if (hinted) {
              opt.o_min = 50.0;
              opt.o_max = 5e6;
            }
            opt.countmin_width = 8;  // the bounds do not depend on the size
            opt.countmin_depth = 1;
            const CoresetParams params = CoresetParams::practical(3, LrOrder{r}, 0.2, 0.2);
            const StreamingCoresetBuilder builder(2, params, opt);
            SCOPED_TRACE(testing::Message() << "log_delta " << log_delta << ", samples "
                                            << samples << ", max_points " << max_points
                                            << ", hinted " << hinted << ", r " << r);
            const int guesses = builder.num_guesses();
            for (int level = 0; level <= log_delta; ++level) {
              const CellCountMin& cm = builder.level_counts(level);
              ASSERT_EQ(cm.guesses(), guesses);
              std::vector<std::uint64_t> probes = {0, 1, f61::kP - 1};
              for (int g = 0; g < guesses; ++g) {
                const SamplingRate& rate = builder.counting_rate(g, level);
                if (g > 0) {
                  ASSERT_GE(rate.m, builder.counting_rate(g - 1, level).m) << "guess " << g;
                }
                if (!rate.always()) {
                  probes.push_back(f61::kP / rate.m - 1);
                  probes.push_back(f61::kP / rate.m);
                }
              }
              for (int i = 0; i < 64; ++i) probes.push_back(rng.next() % f61::kP);
              for (const std::uint64_t h : probes) {
                const int hi = cm.kept_prefix(h);
                for (int g = 0; g < guesses; ++g) {
                  ASSERT_EQ(keeps(h, builder.counting_rate(g, level)), g < hi)
                      << "level " << level << ", guess " << g << ", h " << h;
                }
              }
            }
            ++configs;
          }
        }
      }
    }
  }
  EXPECT_EQ(configs, 11 * 3 * 2 * 2 * 2);
}

}  // namespace
}  // namespace skc
