#include "skc/sketch/countmin.h"

#include <algorithm>

#include "skc/common/check.h"
#include "skc/common/serial.h"
#include "skc/common/random.h"

namespace skc {

CellCountMin::CellCountMin(const HierarchicalGrid& grid, int level,
                           const CellCountMinConfig& config, std::uint64_t seed)
    : grid_(&grid), level_(level), config_(config), seed_(seed) {
  SKC_CHECK(level >= 0 && level <= grid.log_delta());
  SKC_CHECK(config.width >= 8);
  SKC_CHECK(config.depth >= 1 && config.depth <= 8);
  if (config_.exact) return;
  Rng rng(seed ^ 0xC0047C0047ULL);
  fold_ = VectorFold(rng);
  row_hash_.reserve(static_cast<std::size_t>(config.depth));
  for (int r = 0; r < config.depth; ++r) row_hash_.emplace_back(8, rng);
  counters_.assign(static_cast<std::size_t>(config.depth) *
                       static_cast<std::size_t>(config.width),
                   0);
}

void CellCountMin::update(std::span<const Coord> p, std::int64_t delta) {
  SKC_DCHECK(static_cast<int>(p.size()) == grid_->dim());
  ++events_;
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
  std::int64_t idx64[64];
  std::int32_t idx32[64];
  SKC_CHECK(p.size() <= 64);
  grid_->cell_index_of(p, level_, std::span<std::int32_t>(idx32, p.size()));
  for (std::size_t j = 0; j < p.size(); ++j) idx64[j] = idx32[j];
  const std::uint64_t folded = fold_(std::span<const std::int64_t>(idx64, p.size()));
  for (int r = 0; r < config_.depth; ++r) counters_[slot(r, folded)] += delta;
}

void CellCountMin::update_cells(const std::int32_t* cell_idx,
                                const std::int64_t* deltas, std::size_t n) {
  events_ += static_cast<std::int64_t>(n);
  if (released_ || n == 0) return;
  const auto dim = static_cast<std::size_t>(grid_->dim());
  if (config_.exact) {
    CellKey key;
    key.level = level_;
    for (std::size_t i = 0; i < n; ++i) {
      key.index.assign(cell_idx + i * dim, cell_idx + (i + 1) * dim);
      auto it = exact_.find(key);
      if (it == exact_.end()) {
        if (deltas[i] != 0) exact_.emplace(key, deltas[i]);
      } else {
        it->second += deltas[i];
        if (it->second == 0) exact_.erase(it);
      }
    }
    return;
  }
  const auto width = static_cast<std::uint64_t>(config_.width);
  std::uint64_t folds[f61::kBatchTile];
  std::uint64_t h[f61::kBatchTile];
  for (std::size_t base = 0; base < n; base += f61::kBatchTile) {
    const std::size_t tn = std::min(f61::kBatchTile, n - base);
    fold_.fold_cells_batch(cell_idx + base * dim, dim, tn, folds);
    for (int r = 0; r < config_.depth; ++r) {
      for (std::size_t b = 0; b < tn; ++b) h[b] = folds[b];
      row_hash_[static_cast<std::size_t>(r)].eval_batch(h, tn);
      std::int64_t* row_counters =
          counters_.data() + static_cast<std::size_t>(r) * width;
      // Counter writes for one row land together — the contiguous-row layout
      // the batched drain exists to exploit.
      for (std::size_t b = 0; b < tn; ++b) {
        row_counters[h[b] % width] += deltas[base + b];
      }
    }
  }
}

double CellCountMin::query(const CellKey& cell) const {
  SKC_DCHECK(cell.level == level_);
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
  // Deletions can drive collided counters slightly negative relative to the
  // queried cell; clamp (true counts are nonnegative).
  return static_cast<double>(std::max<std::int64_t>(best, 0));
}

void CellCountMin::release() {
  released_ = true;
  counters_.clear();
  counters_.shrink_to_fit();
  exact_.clear();
}

void CellCountMin::merge(const CellCountMin& other) {
  SKC_CHECK(other.level_ == level_);
  SKC_CHECK(other.seed_ == seed_);
  SKC_CHECK(other.config_.exact == config_.exact);
  SKC_CHECK(other.config_.width == config_.width);
  SKC_CHECK(other.config_.depth == config_.depth);
  events_ += other.events_;
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

void CellCountMin::save(std::ostream& out) const {
  serial::put<std::uint8_t>(out, released_ ? 1 : 0);
  serial::put<std::int64_t>(out, events_);
  serial::put_vector(out, counters_);
  serial::put<std::uint64_t>(out, exact_.size());
  for (const auto& [key, count] : exact_) {
    serial::put_vector(out, key.index);
    serial::put<std::int64_t>(out, count);
  }
}

bool CellCountMin::load(std::istream& in) {
  std::uint8_t released = 0;
  if (!serial::get(in, released)) return false;
  released_ = released != 0;
  if (!serial::get(in, events_)) return false;
  if (!serial::get_vector(in, counters_)) return false;
  if (!config_.exact && !released_ &&
      counters_.size() != static_cast<std::size_t>(config_.depth) *
                              static_cast<std::size_t>(config_.width)) {
    return false;
  }
  std::uint64_t entries = 0;
  if (!serial::get(in, entries)) return false;
  exact_.clear();
  for (std::uint64_t e = 0; e < entries; ++e) {
    CellKey key;
    key.level = level_;
    if (!serial::get_vector(in, key.index)) return false;
    std::int64_t count = 0;
    if (!serial::get(in, count)) return false;
    exact_.emplace(std::move(key), count);
  }
  return true;
}

std::size_t CellCountMin::memory_bytes() const {
  if (config_.exact) {
    return exact_.size() *
           (sizeof(CellKey) + static_cast<std::size_t>(grid_->dim()) * 4 + 24);
  }
  return counters_.size() * sizeof(std::int64_t) +
         row_hash_.size() * 8 * sizeof(std::uint64_t);
}

}  // namespace skc
