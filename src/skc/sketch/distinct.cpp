#include "skc/sketch/distinct.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string_view>
#include <type_traits>

#include "skc/common/check.h"
#include "skc/common/random.h"
#include "skc/common/serial.h"

namespace skc {

DistinctCells::DistinctCells(const HierarchicalGrid& grid, int level,
                             std::size_t budget, std::uint64_t seed)
    : level_(level),
      dim_(static_cast<std::size_t>(grid.dim())),
      budget_(std::max<std::size_t>(budget, 8)),
      seed_(seed) {
  SKC_CHECK(level >= 0 && level <= grid.log_delta());
  Rng rng(seed);
  hash_ = KWiseHash(8, rng);
}

void DistinctCells::update_batch(const std::int32_t* cell_idx,
                                 const std::int64_t* deltas, std::size_t n) {
  static_assert(std::is_same_v<Coord, std::int32_t>,
                "cell index rows are hashed as coordinate vectors");
  std::uint64_t hashes[f61::kBatchTile];
  for (std::size_t base = 0; base < n; base += f61::kBatchTile) {
    const std::size_t tn = std::min(f61::kBatchTile, n - base);
    hash_.hash_batch(cell_idx + base * dim_, dim_, tn, hashes);
    for (std::size_t b = 0; b < tn; ++b) {
      // The kept threshold can shrink mid-batch (shrink_to_budget), so it is
      // re-read per event.
      if (hashes[b] >= threshold()) continue;
      const std::size_t i = base + b;
      add(cell_idx + i * dim_, hashes[b], deltas[i]);
      shrink_to_budget();
    }
  }
}

void DistinctCells::add(const std::int32_t* cell, std::uint64_t hash, std::int64_t delta) {
  const std::uint32_t slot_hash = slot_table::hash_row(cell, dim_);
  slot_table::grow(slots_, kept());
  const std::size_t slot = slot_table::probe(slots_, rows_.data(), dim_, cell, slot_hash);
  const std::uint32_t id = slots_[slot].id;
  if (id == slot_table::kNone) {
    if (delta <= 0) return;
    SKC_CHECK(kept() < slot_table::kNone);
    slots_[slot] = slot_table::Slot{static_cast<std::uint32_t>(kept()), slot_hash};
    rows_.insert(rows_.end(), cell, cell + dim_);
    counts_.push_back(delta);
    hashes_.push_back(hash);
    return;
  }
  counts_[id] += delta;
  if (counts_[id] <= 0) erase_at(slot);
}

void DistinctCells::erase_at(std::size_t slot) {
  const std::uint32_t id = slots_[slot].id;
  slot_table::erase(slots_, slot);
  const auto last = static_cast<std::uint32_t>(kept() - 1);
  if (id != last) {
    const std::int32_t* moved = row(last);
    slots_[slot_table::find_id(slots_, last, slot_table::hash_row(moved, dim_))].id = id;
    std::copy_n(moved, dim_, rows_.begin() + static_cast<std::ptrdiff_t>(id * dim_));
    counts_[id] = counts_[last];
    hashes_[id] = hashes_[last];
  }
  rows_.resize(std::size_t{last} * dim_);
  counts_.pop_back();
  hashes_.pop_back();
}

void DistinctCells::raise_shift(int shift) {
  shift_ = shift;
  // Compact the records in place, then re-seat the survivors' slots.
  const std::uint64_t below = threshold();
  std::size_t out = 0;
  for (std::size_t id = 0; id < kept(); ++id) {
    if (hashes_[id] >= below) continue;
    if (out != id) {
      std::copy_n(row(id), dim_, rows_.begin() + static_cast<std::ptrdiff_t>(out * dim_));
      counts_[out] = counts_[id];
      hashes_[out] = hashes_[id];
    }
    ++out;
  }
  if (out == kept()) return;
  rows_.resize(out * dim_);
  counts_.resize(out);
  hashes_.resize(out);
  std::fill(slots_.begin(), slots_.end(), slot_table::Slot{});
  for (std::size_t id = 0; id < out; ++id) {
    slot_table::place(slots_, slot_table::Slot{static_cast<std::uint32_t>(id),
                                               slot_table::hash_row(row(id), dim_)});
  }
}

void DistinctCells::shrink_to_budget() {
  while (kept() > budget_) raise_shift(shift_ + 1);
}

void DistinctCells::clear() {
  shift_ = 0;
  std::vector<std::int32_t>().swap(rows_);
  std::vector<std::int64_t>().swap(counts_);
  std::vector<std::uint64_t>().swap(hashes_);
  slot_table::Slots().swap(slots_);
}

void DistinctCells::merge(const DistinctCells& other) {
  SKC_CHECK(other.level_ == level_);
  SKC_CHECK(other.budget_ == budget_);
  SKC_CHECK(other.seed_ == seed_);
  // Align both sides to the coarser threshold, then union-sum the survivors
  // (the seeds agree, so other's cached hashes are this hash's).
  if (other.shift_ > shift_) raise_shift(other.shift_);
  for (std::size_t id = 0; id < other.kept(); ++id) {
    if (other.hashes_[id] >= threshold()) continue;
    add(other.row(id), other.hashes_[id], other.counts_[id]);
  }
  shrink_to_budget();
}

double DistinctCells::estimate() const {
  return static_cast<double>(kept()) * std::pow(2.0, shift_);
}

std::size_t DistinctCells::memory_bytes() const {
  return rows_.capacity() * sizeof(std::int32_t) + counts_.capacity() * sizeof(std::int64_t) +
         hashes_.capacity() * sizeof(std::uint64_t) +
         slots_.capacity() * sizeof(slot_table::Slot);
}

void DistinctCells::save(serial::Writer& out) const {
  out.put<std::int32_t>(shift_);
  out.put<std::uint64_t>(kept());
  std::vector<std::uint32_t> order(kept());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
    return std::lexicographical_compare(row(a), row(a) + dim_, row(b), row(b) + dim_);
  });
  for (const std::uint32_t id : order) {
    // Each row as put_vector writes it: its length, then its entries.
    out.put<std::uint64_t>(dim_);
    out.put_array(row(id), dim_);
    out.put<std::int64_t>(counts_[id]);
  }
}

bool DistinctCells::load(serial::Reader& in) {
  // Any refusal leaves the estimator empty.
  const auto fail = [this] {
    clear();
    return false;
  };
  clear();
  std::int32_t shift = 0;
  std::uint64_t entries = 0;
  // Past shift 61 the threshold is 0 and nothing is kept, so no history goes
  // beyond it; from shift 64 on, kP >> shift would be undefined.
  if (!in.get(shift) || shift < 0 || shift > 61) return fail();
  if (!in.get(entries) || entries > budget_) return fail();
  shift_ = shift;
  // Reserve no more records than the bytes left can hold.
  const std::size_t entry_bytes = 8 + dim_ * sizeof(std::int32_t) + 8;
  const auto fit = static_cast<std::size_t>(
      std::min<std::uint64_t>(entries, in.left() / entry_bytes));
  rows_.reserve(fit * dim_);
  counts_.reserve(fit);
  for (std::uint64_t e = 0; e < entries; ++e) {
    std::uint64_t len = 0;
    std::string_view cell;
    std::int64_t count = 0;
    if (!in.get(len) || len != dim_ || !in.get_view(dim_ * sizeof(std::int32_t), cell) ||
        !in.get(count) || count <= 0 || count > kMaxEvents) {
      return fail();
    }
    const std::size_t at = rows_.size();
    rows_.resize(at + dim_);
    std::memcpy(rows_.data() + at, cell.data(), cell.size());
    const std::int32_t* key = rows_.data() + at;
    const std::uint32_t slot_hash = slot_table::hash_row(key, dim_);
    slot_table::grow(slots_, kept());
    const std::size_t slot = slot_table::probe(slots_, rows_.data(), dim_, key, slot_hash);
    if (slots_[slot].id != slot_table::kNone) return fail();  // duplicate cell
    slots_[slot] = slot_table::Slot{static_cast<std::uint32_t>(kept()), slot_hash};
    counts_.push_back(count);
  }
  hashes_.resize(kept());
  if (kept() > 0) hash_.hash_batch(rows_.data(), dim_, kept(), hashes_.data());
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
