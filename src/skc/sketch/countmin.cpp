#include "skc/sketch/countmin.h"

#include <cstring>
#include <functional>
#include <iterator>
#include <limits>

#include "skc/common/check.h"
#include "skc/common/serial.h"
#include "skc/common/random.h"

namespace skc {

namespace {

bool all_zero(const std::vector<std::int64_t>& counts) {
  return std::all_of(counts.begin(), counts.end(),
                     [](std::int64_t c) { return c == 0; });
}

}  // namespace

CellCountMin::CellCountMin(const HierarchicalGrid& grid, int level,
                           const CellCountMinConfig& config, std::uint64_t seed,
                           std::vector<std::uint64_t> keep_below)
    : grid_(&grid),
      level_(level),
      config_(config),
      seed_(seed),
      keep_below_(std::move(keep_below)) {
  SKC_CHECK(level >= 0 && level <= grid.log_delta());
  SKC_CHECK(config.width >= 8);
  SKC_CHECK(config.depth >= 1 && config.depth <= CellCountMinConfig::kMaxDepth);
  SKC_CHECK(!keep_below_.empty());
  SKC_CHECK(std::is_sorted(keep_below_.begin(), keep_below_.end(),
                           std::greater<>()));
  column_.reserve(keep_below_.size());
  for (std::size_t g = 0; g < keep_below_.size(); ++g) {
    const bool repeat = g > 0 && keep_below_[g] == keep_below_[g - 1];
    column_.push_back(g == 0 ? 0 : column_.back() + (repeat ? 0 : 1));
  }
  if (config_.exact) return;
  Rng rng(seed ^ 0xC0047C0047ULL);
  fold_ = VectorFold(rng);
  row_hash_.reserve(static_cast<std::size_t>(config.depth));
  for (int r = 0; r < config.depth; ++r) row_hash_.emplace_back(8, rng);
  SKC_CHECK(slots() * live() <= std::numeric_limits<std::uint32_t>::max());
  counters_.assign(slots() * live(), 0);
}

void CellCountMin::update(const std::int32_t* cell_idx, const std::int64_t* deltas,
                          const int* hi, std::size_t n) {
  if (n == 0 || live() == 0) return;
  empty_ = false;
  const auto dim = static_cast<std::size_t>(grid_->dim());
  const int first = first_column(lo_);
  if (config_.exact) {
    CellKey key;
    key.level = level_;
    for (std::size_t i = 0; i < n; ++i) {
      SKC_DCHECK(hi[i] <= guesses());
      const int run = column_end(hi[i]) - first;
      if (run <= 0 || deltas[i] == 0) continue;
      key.index.assign(cell_idx + i * dim, cell_idx + (i + 1) * dim);
      auto it = exact_.find(key);
      if (it == exact_.end()) it = exact_.emplace(key, std::vector<std::int64_t>(live(), 0)).first;
      std::vector<std::int64_t>& counts = it->second;
      for (int c = 0; c < run; ++c) counts[static_cast<std::size_t>(c)] += deltas[i];
      if (all_zero(counts)) exact_.erase(it);
    }
    return;
  }
  const std::size_t cols = live();
  const auto width = static_cast<std::uint64_t>(config_.width);
  std::uint64_t folds[f61::kBatchTile];
  std::uint64_t h[f61::kBatchTile];
  int runs[f61::kBatchTile];
  for (std::size_t base = 0; base < n; base += f61::kBatchTile) {
    const std::size_t tn = std::min(f61::kBatchTile, n - base);
    fold_.fold_cells_batch(cell_idx + base * dim, dim, tn, folds);
    // One contiguous run per event: the live columns whose bound is above
    // its hash, i.e. those of the guesses [lo, hi) that kept it.
    for (std::size_t b = 0; b < tn; ++b) {
      SKC_DCHECK(hi[base + b] <= guesses());
      runs[b] = column_end(hi[base + b]) - first;
    }
    for (int r = 0; r < config_.depth; ++r) {
      for (std::size_t b = 0; b < tn; ++b) h[b] = folds[b];
      row_hash_[static_cast<std::size_t>(r)].eval_batch(h, tn);
      std::int64_t* row = counters_.data() + static_cast<std::size_t>(r) * width * cols;
      for (std::size_t b = 0; b < tn; ++b) {
        std::int64_t* c = row + (h[b] % width) * cols;
        const std::int64_t d = deltas[base + b];
        for (int k = 0; k < runs[b]; ++k) c[k] += d;
      }
    }
  }
}

double CellCountMin::query(int guess, const CellKey& cell) const {
  const CellCountMin* self = this;
  return summed_query({&self, 1}, guess, cell);
}

double CellCountMin::summed_query(std::span<const CellCountMin* const> parts, int guess,
                                  const CellKey& cell) {
  SKC_CHECK(!parts.empty());
  const CellCountMin& first = *parts.front();
  SKC_DCHECK(cell.level == first.level_);
  SKC_DCHECK(guess >= 0 && guess < first.guesses());
  for (const CellCountMin* part : parts) {
    if (guess < part->lo_) return 0.0;
  }
  const int column = first.column_[static_cast<std::size_t>(guess)];
  if (first.config_.exact) {
    std::int64_t count = 0;
    for (const CellCountMin* part : parts) {
      const auto it = part->exact_.find(cell);
      if (it != part->exact_.end()) {
        count += it->second[static_cast<std::size_t>(column - part->first_column(part->lo_))];
      }
    }
    return static_cast<double>(count);
  }
  std::int64_t idx64[64];
  SKC_CHECK(cell.index.size() <= 64);
  for (std::size_t j = 0; j < cell.index.size(); ++j) idx64[j] = cell.index[j];
  const std::uint64_t folded =
      first.fold_(std::span<const std::int64_t>(idx64, cell.index.size()));
  // The slots are the same in every part; each part is read at its own
  // column offset and stride (its live columns).
  const int depth = first.config_.depth;
  std::size_t row_slots[CellCountMinConfig::kMaxDepth];
  std::int64_t sums[CellCountMinConfig::kMaxDepth] = {};
  for (int r = 0; r < depth; ++r) row_slots[r] = first.slot(r, folded);
  for (const CellCountMin* part : parts) {
    const std::size_t stride = part->live();
    const std::int64_t* column_base =
        part->counters_.data() + (column - part->first_column(part->lo_));
    for (int r = 0; r < depth; ++r) sums[r] += column_base[row_slots[r] * stride];
  }
  const std::int64_t best = *std::min_element(sums, sums + depth);
  // Deletions can drive collided counters slightly negative relative to the
  // queried cell; clamp (true counts are nonnegative).
  return static_cast<double>(std::max<std::int64_t>(best, 0));
}

void CellCountMin::trim(int new_lo) {
  SKC_CHECK(new_lo <= guesses());
  if (new_lo <= lo_) return;
  const auto drop = static_cast<std::size_t>(first_column(new_lo) - first_column(lo_));
  const std::size_t cols = live();
  const std::size_t keep = cols - drop;
  lo_ = new_lo;
  if (drop == 0) return;  // the pruned guesses share the first live column
  if (config_.exact) {
    for (auto it = exact_.begin(); it != exact_.end();) {
      it->second = std::vector<std::int64_t>(
          it->second.begin() + static_cast<std::ptrdiff_t>(drop), it->second.end());
      it = all_zero(it->second) ? exact_.erase(it) : std::next(it);
    }
    return;
  }
  // A fresh, smaller block: the dropped columns' memory goes back to the
  // allocator instead of staying behind as capacity.
  std::vector<std::int64_t> kept(slots() * keep);
  for (std::size_t rs = 0; rs < slots(); ++rs) {
    std::copy_n(counters_.begin() + static_cast<std::ptrdiff_t>(rs * cols + drop), keep,
                kept.begin() + static_cast<std::ptrdiff_t>(rs * keep));
  }
  counters_.swap(kept);
}

void CellCountMin::merge(const CellCountMin& other) {
  SKC_CHECK(other.level_ == level_);
  SKC_CHECK(other.seed_ == seed_);
  SKC_CHECK(other.config_.exact == config_.exact);
  SKC_CHECK(other.config_.width == config_.width);
  SKC_CHECK(other.config_.depth == config_.depth);
  SKC_CHECK(other.keep_below_ == keep_below_);
  if (empty_ && lo_ <= other.lo_) {
    // A copy sized to other's live columns; the old block is freed.
    lo_ = other.lo_;
    counters_ = std::vector<std::int64_t>(other.counters_);
    exact_ = other.exact_;
    empty_ = other.empty_;
    return;
  }
  empty_ = empty_ && other.empty_;
  trim(std::max(lo_, other.lo_));
  const std::size_t cols = live();
  const auto skip =
      static_cast<std::size_t>(first_column(lo_) - other.first_column(other.lo_));
  if (config_.exact) {
    for (const auto& [key, counts] : other.exact_) {
      auto it = exact_.find(key);
      if (it == exact_.end()) it = exact_.emplace(key, std::vector<std::int64_t>(cols, 0)).first;
      for (std::size_t c = 0; c < cols; ++c) it->second[c] += counts[skip + c];
      if (all_zero(it->second)) exact_.erase(it);
    }
    return;
  }
  if (skip == 0) {
    for (std::size_t i = 0; i < counters_.size(); ++i) counters_[i] += other.counters_[i];
    return;
  }
  const std::size_t other_cols = cols + skip;
  for (std::size_t rs = 0; rs < slots(); ++rs) {
    for (std::size_t c = 0; c < cols; ++c) {
      counters_[rs * cols + c] += other.counters_[rs * other_cols + skip + c];
    }
  }
}

void CellCountMin::save(serial::Writer& out) const {
  out.put<std::uint64_t>(static_cast<std::uint64_t>(lo_));
  // The block as maximal runs: zeros, then the nonzero counters after them.
  const std::size_t runs_at = out.size();
  out.put<std::uint64_t>(0);
  std::uint64_t runs = 0;
  const std::int64_t* c = counters_.data();
  const std::size_t n = counters_.size();
  for (std::size_t at = 0; at < n; ++runs) {
    std::size_t literal = at;
    while (literal < n && c[literal] == 0) ++literal;
    std::size_t end = literal;
    while (end < n && c[end] != 0) ++end;
    out.put(static_cast<std::uint32_t>(literal - at));
    out.put(static_cast<std::uint32_t>(end - literal));
    out.put_array(c + literal, end - literal);
    at = end;
  }
  out.put_at(runs_at, runs);
  out.put<std::uint64_t>(exact_.size());
  for (const auto* entry : in_cell_order(exact_)) {
    out.put_vector(entry->first.index);
    out.put_vector(entry->second);
  }
}

bool CellCountMin::load(serial::Reader& in) {
  // Any refusal leaves every guess pruned: a valid state with no counters.
  const auto fail = [this] {
    lo_ = guesses();
    std::vector<std::int64_t>().swap(counters_);
    exact_.clear();
    return false;
  };
  std::uint64_t lo = 0;
  if (!in.get(lo) || lo > keep_below_.size()) return fail();
  lo_ = static_cast<int>(lo);
  const bool zeroed = empty_;
  empty_ = false;
  const auto bounded = [](std::int64_t c) { return c >= -kMaxEvents && c <= kMaxEvents; };
  // Decode in place, into exactly the block the live columns need: the
  // constructor's when the sizes agree (already zero if nothing has written
  // to it), else one allocated after the old one is freed, so a restore
  // never holds two blocks at once.
  const std::size_t want = config_.exact ? 0 : slots() * live();
  if (counters_.size() == want) {
    if (!zeroed) std::fill(counters_.begin(), counters_.end(), 0);
  } else {
    std::vector<std::int64_t>().swap(counters_);
    counters_.resize(want);
  }
  std::uint64_t runs = 0;
  if (!in.get(runs)) return fail();
  std::size_t at = 0;
  for (std::uint64_t r = 0; r < runs; ++r) {
    std::uint32_t zeros = 0, literals = 0;
    std::string_view bytes;
    if (!in.get(zeros) || !in.get(literals)) return fail();
    const std::uint64_t covers = std::uint64_t{zeros} + literals;
    // A run covers part of what is left of the block, and runs are maximal:
    // only the first starts without zeros, only the last ends without
    // literals.
    if (covers == 0 || covers > want - at) return fail();
    if ((r > 0 && zeros == 0) || (literals == 0 && covers != want - at)) return fail();
    if (!in.get_view(std::uint64_t{literals} * sizeof(std::int64_t), bytes)) return fail();
    std::int64_t* dst = counters_.data() + at + zeros;
    std::memcpy(dst, bytes.data(), bytes.size());
    if (!std::all_of(dst, dst + literals,
                     [&](std::int64_t c) { return c != 0 && bounded(c); })) {
      return fail();
    }
    at += static_cast<std::size_t>(covers);
  }
  if (at != want) return fail();
  std::uint64_t entries = 0;
  if (!in.get(entries) || (!config_.exact && entries != 0)) return fail();
  exact_.clear();
  for (std::uint64_t e = 0; e < entries; ++e) {
    CellKey key;
    key.level = level_;
    std::vector<std::int64_t> counts;
    if (!in.get_vector(key.index) ||
        key.index.size() != static_cast<std::size_t>(grid_->dim()) ||
        !in.get_vector(counts) || counts.size() != live() ||
        !std::all_of(counts.begin(), counts.end(), bounded) ||
        !exact_.emplace(std::move(key), std::move(counts)).second) {
      return fail();
    }
  }
  return true;
}

std::size_t CellCountMin::memory_bytes() const {
  if (config_.exact) {
    // Per row: the key, its index block, node overhead and one count per
    // live column.
    return exact_.size() * (sizeof(CellKey) + static_cast<std::size_t>(grid_->dim()) * 4 +
                            16 + live() * sizeof(std::int64_t));
  }
  return counters_.size() * sizeof(std::int64_t) + hash_bytes();
}

std::size_t CellCountMin::memory_bytes_per_guess() const {
  if (live() == 0) return 0;
  return hash_bytes() + (memory_bytes() - hash_bytes()) / live();
}

}  // namespace skc
