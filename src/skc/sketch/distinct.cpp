#include "skc/sketch/distinct.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "skc/common/check.h"
#include "skc/common/random.h"
#include "skc/common/serial.h"

namespace skc {

DistinctCells::DistinctCells(const HierarchicalGrid& grid, int level,
                             std::size_t budget, std::uint64_t seed)
    : grid_(&grid),
      level_(level),
      budget_(std::max<std::size_t>(budget, 8)),
      seed_(seed) {
  SKC_CHECK(level >= 0 && level <= grid.log_delta());
  Rng rng(seed);
  hash_ = KWiseHash(8, rng);
}

void DistinctCells::update_batch(const std::int32_t* cell_idx,
                                 const std::int64_t* deltas, std::size_t n) {
  const auto dim = static_cast<std::size_t>(grid_->dim());
  static_assert(std::is_same_v<Coord, std::int32_t>,
                "cell index rows are hashed as coordinate vectors");
  std::uint64_t hashes[f61::kBatchTile];
  CellKey key;
  key.level = level_;
  for (std::size_t base = 0; base < n; base += f61::kBatchTile) {
    const std::size_t tn = std::min(f61::kBatchTile, n - base);
    hash_.hash_batch(cell_idx + base * dim, dim, tn, hashes);
    for (std::size_t b = 0; b < tn; ++b) {
      // The kept threshold can shrink mid-batch (shrink_to_budget), so it is
      // re-read per event.
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

std::uint64_t DistinctCells::cell_hash(const CellKey& key) const {
  return hash_(std::span<const Coord>(key.index.data(), key.index.size()));
}

void DistinctCells::raise_shift(int shift) {
  shift_ = shift;
  std::erase_if(kept_, [this](const auto& entry) {
    return cell_hash(entry.first) >= threshold();
  });
}

void DistinctCells::shrink_to_budget() {
  while (kept_.size() > budget_) raise_shift(shift_ + 1);
}

void DistinctCells::merge(const DistinctCells& other) {
  SKC_CHECK(other.level_ == level_);
  SKC_CHECK(other.budget_ == budget_);
  SKC_CHECK(other.seed_ == seed_);
  // Align both sides to the coarser threshold, then union-sum the survivors.
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

double DistinctCells::estimate() const {
  return static_cast<double>(kept_.size()) * std::pow(2.0, shift_);
}

std::size_t DistinctCells::memory_bytes() const {
  return kept_.size() * (sizeof(CellKey) + sizeof(std::int64_t) +
                         static_cast<std::size_t>(grid_->dim()) * sizeof(std::int32_t));
}

void DistinctCells::save(serial::Writer& out) const {
  out.put<std::int32_t>(shift_);
  out.put<std::uint64_t>(kept_.size());
  for (const auto* entry : in_cell_order(kept_)) {
    out.put_vector(entry->first.index);
    out.put<std::int64_t>(entry->second);
  }
}

bool DistinctCells::load(serial::Reader& in) {
  // Any refusal leaves the estimator empty.
  const auto fail = [this] {
    shift_ = 0;
    kept_.clear();
    return false;
  };
  kept_.clear();
  std::int32_t shift = 0;
  std::uint64_t entries = 0;
  // Past shift 61 the threshold is 0 and nothing is kept, so no history goes
  // beyond it; from shift 64 on, kP >> shift would be undefined.
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

double opt_lower_bound_from_cells(const HierarchicalGrid& grid, int k, LrOrder r,
                                  std::span<const double> estimates) {
  // Lemma 3.2's constant: ~e^2 center cells per center per level; use 8 k
  // plus slack for estimate noise.
  double best = 0.0;
  for (int i = 0; i < static_cast<int>(estimates.size()); ++i) {
    const double spare = estimates[static_cast<std::size_t>(i)] - 8.0 * k - 8.0;
    if (spare <= 0.0) continue;
    const double radius =
        static_cast<double>(grid.side(i)) / static_cast<double>(grid.dim());
    best = std::max(best, spare * std::pow(radius, r.r));
  }
  return best;
}

}  // namespace skc
