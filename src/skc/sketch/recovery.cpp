#include "skc/sketch/recovery.h"

#include <algorithm>
#include <cmath>

#include "skc/common/check.h"

namespace skc {

namespace {
// count as a field element (handles negative counts).
inline std::uint64_t count_to_field(std::int64_t c) {
  if (c >= 0) return f61::reduce(static_cast<std::uint64_t>(c));
  return f61::sub(0, f61::reduce(static_cast<std::uint64_t>(-c)));
}
}  // namespace

SparseRecovery::SparseRecovery(const Config& config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  SKC_CHECK(config.item_len >= 1);
  SKC_CHECK(config.capacity >= 1);
  SKC_CHECK(config.reps >= 1);
  buckets_per_rep_ = static_cast<int>(
      std::ceil(config.bucket_factor * static_cast<double>(config.capacity))) + 8;
  Rng rng(seed);
  fold_ = VectorFold(rng);
  fp_ = Fingerprinter(rng);
  rep_hash_.reserve(static_cast<std::size_t>(config.reps));
  for (int r = 0; r < config.reps; ++r) {
    rep_hash_.emplace_back(config.hash_independence, rng);
  }
  cells_.assign(static_cast<std::size_t>(config.reps) *
                    static_cast<std::size_t>(buckets_per_rep_),
                Cell{});
  sums_.assign(cells_.size() * static_cast<std::size_t>(config.item_len), 0);
}

std::size_t SparseRecovery::bucket_of(int rep, std::uint64_t fold) const {
  const std::uint64_t h = rep_hash_[static_cast<std::size_t>(rep)].eval(fold);
  return static_cast<std::size_t>(rep) * static_cast<std::size_t>(buckets_per_rep_) +
         static_cast<std::size_t>(h % static_cast<std::uint64_t>(buckets_per_rep_));
}

void SparseRecovery::apply(std::span<const std::int64_t> item, std::int64_t delta,
                           std::vector<Cell>& cells,
                           std::vector<std::int64_t>& sums) const {
  const std::uint64_t folded = fold_(item);
  const std::uint64_t item_fp = fp_(item);
  const std::uint64_t delta_fp = f61::mul(count_to_field(delta), item_fp);
  for (int r = 0; r < config_.reps; ++r) {
    const std::size_t b = bucket_of(r, folded);
    Cell& cell = cells[b];
    cell.count += delta;
    cell.fp = f61::add(cell.fp, delta_fp);
    std::int64_t* s = sums.data() + b * static_cast<std::size_t>(config_.item_len);
    for (std::size_t j = 0; j < static_cast<std::size_t>(config_.item_len); ++j) {
      s[j] += delta * item[j];
    }
  }
}

void SparseRecovery::update(std::span<const std::int64_t> item, std::int64_t delta) {
  SKC_DCHECK(static_cast<int>(item.size()) == config_.item_len);
  if (delta == 0) return;
  apply(item, delta, cells_, sums_);
}

void SparseRecovery::update(std::span<const Coord> item, std::int64_t delta) {
  // Widen to int64 on a small stack buffer (item_len is d, typically <= 16).
  std::int64_t buf[64];
  SKC_CHECK(item.size() <= 64);
  for (std::size_t j = 0; j < item.size(); ++j) buf[j] = item[j];
  update(std::span<const std::int64_t>(buf, item.size()), delta);
}

bool SparseRecovery::drained() const {
  return std::all_of(cells_.begin(), cells_.end(), [](const Cell& c) {
    return c.count == 0 && c.fp == 0;
  });
}

std::optional<std::vector<RecoveredItem>> SparseRecovery::decode() const {
  // Peel on a scratch copy.
  std::vector<Cell> cells = cells_;
  std::vector<std::int64_t> sums = sums_;
  std::vector<RecoveredItem> out;
  std::vector<std::int64_t> candidate(static_cast<std::size_t>(config_.item_len));

  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t b = 0; b < cells.size(); ++b) {
      const Cell& cell = cells[b];
      if (cell.count == 0) continue;
      const std::int64_t c = cell.count;
      if (c < 0) continue;  // cannot be a pure cell of a nonnegative multiset
      const std::int64_t* s = sums.data() + b * static_cast<std::size_t>(config_.item_len);
      bool divisible = true;
      for (int j = 0; j < config_.item_len; ++j) {
        if (s[j] % c != 0) {
          divisible = false;
          break;
        }
      }
      if (!divisible) continue;
      for (int j = 0; j < config_.item_len; ++j) candidate[static_cast<std::size_t>(j)] = s[j] / c;
      const std::uint64_t expect = f61::mul(count_to_field(c), fp_(candidate));
      if (expect != cell.fp) continue;
      // Verified pure cell: extract and peel from every repetition.
      out.push_back(RecoveredItem{candidate, c});
      apply(candidate, -c, cells, sums);
      progressed = true;
    }
  }

  const bool clean = std::all_of(cells.begin(), cells.end(), [](const Cell& cc) {
    return cc.count == 0 && cc.fp == 0;
  });
  if (!clean) return std::nullopt;
  return out;
}

void SparseRecovery::merge(const SparseRecovery& other) {
  SKC_CHECK(other.seed_ == seed_);
  SKC_CHECK(other.config_.item_len == config_.item_len);
  SKC_CHECK(other.config_.capacity == config_.capacity);
  SKC_CHECK(other.config_.reps == config_.reps);
  SKC_CHECK(other.cells_.size() == cells_.size());
  for (std::size_t b = 0; b < cells_.size(); ++b) {
    cells_[b].count += other.cells_[b].count;
    cells_[b].fp = f61::add(cells_[b].fp, other.cells_[b].fp);
  }
  for (std::size_t j = 0; j < sums_.size(); ++j) sums_[j] += other.sums_[j];
}

std::size_t SparseRecovery::memory_bytes() const {
  return cells_.size() * sizeof(Cell) + sums_.size() * sizeof(std::int64_t) +
         rep_hash_.size() * static_cast<std::size_t>(config_.hash_independence) * 8;
}

}  // namespace skc
