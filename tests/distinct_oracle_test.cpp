// Differential tests: the flat DistinctCells against the node-map estimator
// it replaced (node_map_distinct.h).  Both are fed the same seeded
// insert/delete streams, cut into random batches, at budgets from heavy
// subsampling (8) to none (2^20) and on several grid levels; after every
// batch they must report the same estimate and save the same bytes.  Merges
// of split halves, in either order, and loads of mutated blobs must agree
// too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "skc/common/random.h"
#include "skc/common/serial.h"
#include "skc/grid/hierarchical_grid.h"
#include "skc/sketch/distinct.h"
#include "node_map_distinct.h"

namespace skc {
namespace {

constexpr int kDim = 2;
constexpr int kLogDelta = 12;

/// Per event: its level-`level` cell index row and its delta.
struct CellStream {
  std::vector<std::int32_t> rows;
  std::vector<std::int64_t> deltas;
  std::size_t size() const { return deltas.size(); }
};

/// Inserts over a few clusters, deletes of earlier inserts (so cells empty
/// out), deletes of points never inserted, and a few multi-unit deltas.
CellStream churn(const HierarchicalGrid& grid, int level, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Coord>> live;
  CellStream out;
  const auto row_of = [&](const std::vector<Coord>& p, std::int64_t delta) {
    const CellKey cell = grid.cell_of(p, level);
    out.rows.insert(out.rows.end(), cell.index.begin(), cell.index.end());
    out.deltas.push_back(delta);
  };
  const Coord side = Coord{1} << kLogDelta;
  for (std::size_t i = 0; i < n; ++i) {
    const auto roll = rng.uniform_int(0, 99);
    if (roll < 30 && !live.empty()) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      row_of(live[at], -1);
      live[at] = live.back();
      live.pop_back();
      continue;
    }
    std::vector<Coord> p(kDim);
    const Coord center = static_cast<Coord>(rng.uniform_int(0, 3)) * (side / 4) + side / 8;
    for (Coord& c : p) {
      c = std::clamp<Coord>(center + static_cast<Coord>(rng.uniform_int(-300, 300)), 1, side);
    }
    if (roll < 34) {
      row_of(p, -1);  // never inserted
    } else if (roll < 37) {
      row_of(p, 3);
    } else {
      row_of(p, +1);
      live.push_back(std::move(p));
    }
  }
  return out;
}

template <typename Estimator>
std::string bytes_of(const Estimator& e) {
  serial::Writer out;
  e.save(out);
  return out.take();
}

/// Feeds events [from, to) of `s` to both estimators in random batches,
/// checking them after every batch.
void feed(DistinctCells& flat, oracle::NodeMapDistinct& node, const CellStream& s,
          std::size_t from, std::size_t to, Rng& rng) {
  for (std::size_t at = from; at < to;) {
    const std::size_t n = std::min<std::size_t>(
        to - at, static_cast<std::size_t>(rng.uniform_int(1, 300)));
    flat.update_batch(s.rows.data() + at * kDim, s.deltas.data() + at, n);
    node.update_batch(s.rows.data() + at * kDim, s.deltas.data() + at, n);
    at += n;
    ASSERT_EQ(flat.estimate(), node.estimate()) << "after event " << at;
    ASSERT_EQ(bytes_of(flat), bytes_of(node)) << "after event " << at;
  }
}

const std::size_t kBudgets[] = {8, 64, 256, std::size_t{1} << 20};
const int kLevels[] = {4, 8, 12};

TEST(DistinctCellsOracle, MatchesTheNodeMapAfterEveryBatch) {
  Rng grid_rng(1);
  const HierarchicalGrid grid(kDim, kLogDelta, grid_rng);
  for (const std::size_t budget : kBudgets) {
    for (const int level : kLevels) {
      SCOPED_TRACE("budget " + std::to_string(budget) + ", level " + std::to_string(level));
      const CellStream s = churn(grid, level, 6000, 100 + static_cast<std::uint64_t>(level));
      DistinctCells flat(grid, level, budget, 77);
      oracle::NodeMapDistinct node(grid, level, budget, 77);
      Rng rng(budget + static_cast<std::uint64_t>(level));
      feed(flat, node, s, 0, s.size(), rng);
    }
  }
}

TEST(DistinctCellsOracle, MergesOfSplitHalvesMatchInEitherOrder) {
  Rng grid_rng(2);
  const HierarchicalGrid grid(kDim, kLogDelta, grid_rng);
  for (const std::size_t budget : kBudgets) {
    for (const int level : kLevels) {
      SCOPED_TRACE("budget " + std::to_string(budget) + ", level " + std::to_string(level));
      const CellStream s = churn(grid, level, 5000, 200 + static_cast<std::uint64_t>(level));
      Rng rng(7 * budget + static_cast<std::uint64_t>(level));
      const std::size_t half = s.size() / 2;
      DistinctCells flat_a(grid, level, budget, 91), flat_b(grid, level, budget, 91);
      oracle::NodeMapDistinct node_a(grid, level, budget, 91), node_b(grid, level, budget, 91);
      feed(flat_a, node_a, s, 0, half, rng);
      feed(flat_b, node_b, s, half, s.size(), rng);
      for (const bool a_first : {true, false}) {
        SCOPED_TRACE(a_first ? "first half + second" : "second half + first");
        DistinctCells flat = a_first ? flat_a : flat_b;
        oracle::NodeMapDistinct node = a_first ? node_a : node_b;
        flat.merge(a_first ? flat_b : flat_a);
        node.merge(a_first ? node_b : node_a);
        EXPECT_EQ(flat.estimate(), node.estimate());
        EXPECT_EQ(bytes_of(flat), bytes_of(node));
      }
    }
  }
}

TEST(DistinctCellsOracle, AcceptAndRefuseTheSameMutatedBlobs) {
  Rng grid_rng(3);
  const HierarchicalGrid grid(kDim, kLogDelta, grid_rng);
  constexpr int kLevel = 8;
  for (const std::size_t budget : {std::size_t{8}, std::size_t{64}}) {
    const CellStream s = churn(grid, kLevel, 3000, 300 + budget);
    DistinctCells flat(grid, kLevel, budget, 5);
    oracle::NodeMapDistinct node(grid, kLevel, budget, 5);
    Rng rng(budget);
    feed(flat, node, s, 0, s.size(), rng);
    const std::string blob = bytes_of(flat);
    int accepted = 0, refused = 0;
    for (int trial = 0; trial < 3000; ++trial) {
      std::string mutant = blob;
      switch (trial % 4) {
        case 0: {  // one bit flipped
          const auto bit = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(mutant.size() * 8) - 1));
          mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
          break;
        }
        case 1:  // truncated
          mutant.resize(static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(mutant.size()) - 1)));
          break;
        case 2: {  // four bytes anywhere overwritten with a small value
          const auto at = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(mutant.size()) - 4));
          const auto v = static_cast<std::int32_t>(rng.uniform_int(-2, 70));
          std::memcpy(mutant.data() + at, &v, sizeof v);
          break;
        }
        default: {  // one entry's bytes copied over another's (a duplicate)
          const std::size_t head = 4 + 8, entry = 8 + kDim * 4 + 8;
          const std::size_t entries = (mutant.size() - head) / entry;
          if (entries < 2) continue;
          const auto from = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(entries) - 1));
          const auto to = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(entries) - 1));
          std::memcpy(mutant.data() + head + to * entry, blob.data() + head + from * entry,
                      entry);
          break;
        }
      }
      DistinctCells flat_in(grid, kLevel, budget, 5);
      oracle::NodeMapDistinct node_in(grid, kLevel, budget, 5);
      serial::Reader flat_reader(mutant), node_reader(mutant);
      const bool flat_ok = flat_in.load(flat_reader);
      const bool node_ok = node_in.load(node_reader);
      ASSERT_EQ(flat_ok, node_ok) << "trial " << trial;
      ASSERT_EQ(flat_in.estimate(), node_in.estimate()) << "trial " << trial;
      ASSERT_EQ(bytes_of(flat_in), bytes_of(node_in)) << "trial " << trial;
      if (!flat_ok) {
        ++refused;
        EXPECT_EQ(flat_in.memory_bytes(), 0u) << "trial " << trial;
        continue;
      }
      ++accepted;
      EXPECT_EQ(flat_reader.left(), node_reader.left()) << "trial " << trial;
      // A loaded estimator goes on like its twin.
      feed(flat_in, node_in, s, 0, 500, rng);
    }
    EXPECT_GT(accepted, 100);
    EXPECT_GT(refused, 100);
  }
}

}  // namespace
}  // namespace skc
