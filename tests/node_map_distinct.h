// Test oracle: the node-map DistinctCells that the flat kept-cell arrays
// replaced.  One unordered_map from cell key to its net count, pruned by
// erase_if when the threshold rises.  Kept verbatim in behaviour (the kept
// set, estimate, merge, save order and load refusals) so the differential
// tests can feed both estimators the same batches and compare their
// estimates and bytes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <unordered_map>

#include "skc/common/check.h"
#include "skc/common/random.h"
#include "skc/common/serial.h"
#include "skc/common/types.h"
#include "skc/grid/hierarchical_grid.h"
#include "skc/hash/kwise_hash.h"

namespace skc::oracle {

class NodeMapDistinct {
 public:
  NodeMapDistinct(const HierarchicalGrid& grid, int level, std::size_t budget,
                  std::uint64_t seed)
      : grid_(&grid), level_(level), budget_(std::max<std::size_t>(budget, 8)), seed_(seed) {
    SKC_CHECK(level >= 0 && level <= grid.log_delta());
    Rng rng(seed);
    hash_ = KWiseHash(8, rng);
  }

  void update_batch(const std::int32_t* cell_idx, const std::int64_t* deltas,
                    std::size_t n) {
    const auto dim = static_cast<std::size_t>(grid_->dim());
    static_assert(std::is_same_v<Coord, std::int32_t>);
    std::uint64_t hashes[f61::kBatchTile];
    CellKey key;
    key.level = level_;
    for (std::size_t base = 0; base < n; base += f61::kBatchTile) {
      const std::size_t tn = std::min(f61::kBatchTile, n - base);
      hash_.hash_batch(cell_idx + base * dim, dim, tn, hashes);
      for (std::size_t b = 0; b < tn; ++b) {
        if (hashes[b] >= threshold()) continue;
        const std::size_t i = base + b;
        key.index.assign(cell_idx + i * dim, cell_idx + (i + 1) * dim);
        auto it = kept_.find(key);
        if (it == kept_.end()) {
          if (deltas[i] <= 0) continue;
          kept_.emplace(key, deltas[i]);
        } else {
          it->second += deltas[i];
          if (it->second <= 0) kept_.erase(it);
        }
        shrink_to_budget();
      }
    }
  }

  double estimate() const {
    return static_cast<double>(kept_.size()) * std::pow(2.0, shift_);
  }

  void merge(const NodeMapDistinct& other) {
    SKC_CHECK(other.level_ == level_);
    SKC_CHECK(other.budget_ == budget_);
    SKC_CHECK(other.seed_ == seed_);
    if (other.shift_ > shift_) raise_shift(other.shift_);
    for (const auto& [key, count] : other.kept_) {
      if (cell_hash(key) >= threshold()) continue;
      auto it = kept_.find(key);
      if (it == kept_.end()) {
        if (count > 0) kept_.emplace(key, count);
      } else {
        it->second += count;
        if (it->second <= 0) kept_.erase(it);
      }
    }
    shrink_to_budget();
  }

  void save(serial::Writer& out) const {
    out.put<std::int32_t>(shift_);
    out.put<std::uint64_t>(kept_.size());
    for (const auto* entry : in_cell_order(kept_)) {
      out.put_vector(entry->first.index);
      out.put<std::int64_t>(entry->second);
    }
  }

  bool load(serial::Reader& in) {
    const auto fail = [this] {
      shift_ = 0;
      kept_.clear();
      return false;
    };
    kept_.clear();
    std::int32_t shift = 0;
    std::uint64_t entries = 0;
    if (!in.get(shift) || shift < 0 || shift > 61) return fail();
    if (!in.get(entries) || entries > budget_) return fail();
    shift_ = shift;
    for (std::uint64_t e = 0; e < entries; ++e) {
      CellKey key;
      key.level = level_;
      std::int64_t count = 0;
      if (!in.get_vector(key.index) ||
          key.index.size() != static_cast<std::size_t>(grid_->dim()) ||
          !in.get(count) || count <= 0 || count > kMaxEvents ||
          !kept_.emplace(std::move(key), count).second) {
        return fail();
      }
    }
    return true;
  }

 private:
  std::uint64_t threshold() const { return f61::kP >> shift_; }
  std::uint64_t cell_hash(const CellKey& key) const {
    return hash_(std::span<const Coord>(key.index.data(), key.index.size()));
  }
  void raise_shift(int shift) {
    shift_ = shift;
    std::erase_if(kept_, [this](const auto& entry) {
      return cell_hash(entry.first) >= threshold();
    });
  }
  void shrink_to_budget() {
    while (kept_.size() > budget_) raise_shift(shift_ + 1);
  }

  const HierarchicalGrid* grid_;
  int level_;
  std::size_t budget_;
  std::uint64_t seed_ = 0;
  int shift_ = 0;
  KWiseHash hash_;
  std::unordered_map<CellKey, std::int64_t, CellKeyHash> kept_;
};

}  // namespace skc::oracle
