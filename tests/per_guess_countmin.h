// Test oracle: the per-guess CountMin that the per-level CellCountMin
// replaced.  One structure per (o-guess, level), each with its own fold and
// depth row hashes over a plain counter block, or a cell -> count map in
// exact mode.  Kept verbatim in behaviour (pointwise update, min-over-rows
// query clamped at 0, merge, release) so the differential tests can feed
// every guess its own kept substream and compare what it reports against
// the shared per-level structure; only the pointwise update is kept.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "skc/common/check.h"
#include "skc/common/random.h"
#include "skc/grid/hierarchical_grid.h"
#include "skc/hash/kwise_hash.h"
#include "skc/sketch/countmin.h"

namespace skc::oracle {

class PerGuessCountMin {
 public:
  PerGuessCountMin(const HierarchicalGrid& grid, int level,
                   const CellCountMinConfig& config, std::uint64_t seed)
      : grid_(&grid), level_(level), config_(config), seed_(seed) {
    if (config_.exact) return;
    Rng rng(seed ^ 0xC0047C0047ULL);
    fold_ = VectorFold(rng);
    row_hash_.reserve(static_cast<std::size_t>(config.depth));
    for (int r = 0; r < config.depth; ++r) row_hash_.emplace_back(8, rng);
    counters_.assign(static_cast<std::size_t>(config.depth) *
                         static_cast<std::size_t>(config.width),
                     0);
  }

  void update(std::span<const Coord> p, std::int64_t delta) {
    if (released_) return;
    if (config_.exact) {
      CellKey key = grid_->cell_of(p, level_);
      auto it = exact_.find(key);
      if (it == exact_.end()) {
        if (delta != 0) exact_.emplace(std::move(key), delta);
      } else {
        it->second += delta;
        if (it->second == 0) exact_.erase(it);
      }
      return;
    }
    std::int32_t idx32[64];
    std::int64_t idx64[64];
    SKC_CHECK(p.size() <= 64);
    grid_->cell_index_of(p, level_, std::span<std::int32_t>(idx32, p.size()));
    for (std::size_t j = 0; j < p.size(); ++j) idx64[j] = idx32[j];
    const std::uint64_t folded = fold_(std::span<const std::int64_t>(idx64, p.size()));
    for (int r = 0; r < config_.depth; ++r) counters_[slot(r, folded)] += delta;
  }

  double query(const CellKey& cell) const {
    if (released_) return 0.0;
    if (config_.exact) {
      const auto it = exact_.find(cell);
      return it == exact_.end() ? 0.0 : static_cast<double>(it->second);
    }
    std::int64_t idx64[64];
    SKC_CHECK(cell.index.size() <= 64);
    for (std::size_t j = 0; j < cell.index.size(); ++j) idx64[j] = cell.index[j];
    const std::uint64_t folded =
        fold_(std::span<const std::int64_t>(idx64, cell.index.size()));
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (int r = 0; r < config_.depth; ++r) {
      best = std::min(best, counters_[slot(r, folded)]);
    }
    return static_cast<double>(std::max<std::int64_t>(best, 0));
  }

  void merge(const PerGuessCountMin& other) {
    SKC_CHECK(other.level_ == level_ && other.seed_ == seed_);
    SKC_CHECK(other.config_.exact == config_.exact);
    if (released_) return;
    if (other.released_) {
      release();
      return;
    }
    if (config_.exact) {
      for (const auto& [key, count] : other.exact_) {
        auto it = exact_.find(key);
        if (it == exact_.end()) {
          exact_.emplace(key, count);
        } else {
          it->second += count;
          if (it->second == 0) exact_.erase(it);
        }
      }
      return;
    }
    for (std::size_t i = 0; i < counters_.size(); ++i) counters_[i] += other.counters_[i];
  }

  void release() {
    released_ = true;
    counters_.clear();
    exact_.clear();
  }
  bool released() const { return released_; }

 private:
  std::size_t slot(int row, std::uint64_t fold) const {
    return static_cast<std::size_t>(row) * static_cast<std::size_t>(config_.width) +
           static_cast<std::size_t>(
               row_hash_[static_cast<std::size_t>(row)].eval(fold) %
               static_cast<std::uint64_t>(config_.width));
  }

  const HierarchicalGrid* grid_;
  int level_;
  CellCountMinConfig config_;
  std::uint64_t seed_;
  VectorFold fold_;
  std::vector<KWiseHash> row_hash_;
  std::vector<std::int64_t> counters_;
  std::unordered_map<CellKey, std::int64_t, CellKeyHash> exact_;
  bool released_ = false;
};

}  // namespace skc::oracle
