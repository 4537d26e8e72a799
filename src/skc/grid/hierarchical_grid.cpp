#include "skc/grid/hierarchical_grid.h"

#include <cmath>

namespace skc {

HierarchicalGrid::HierarchicalGrid(int dim, int log_delta, Rng& rng)
    : dim_(dim), log_delta_(log_delta) {
  SKC_CHECK(dim >= 1);
  SKC_CHECK(log_delta >= 1 && log_delta <= 30);
  shift_.resize(static_cast<std::size_t>(dim));
  for (auto& v : shift_) v = static_cast<Coord>(rng.next_below(static_cast<std::uint64_t>(delta())));
}

HierarchicalGrid::HierarchicalGrid(int dim, int log_delta, std::vector<Coord> shift)
    : dim_(dim), log_delta_(log_delta), shift_(std::move(shift)) {
  SKC_CHECK(dim >= 1);
  SKC_CHECK(log_delta >= 1 && log_delta <= 30);
  SKC_CHECK(static_cast<int>(shift_.size()) == dim);
  for (Coord v : shift_) SKC_CHECK(v >= 0 && v < delta());
}

double HierarchicalGrid::cell_diameter(int level) const {
  return std::sqrt(static_cast<double>(dim_)) * static_cast<double>(side(level));
}

namespace {
// Floor division for possibly-negative numerators with positive power-of-two
// denominator: arithmetic shift is exact.
inline std::int32_t floor_div_pow2(std::int64_t num, int shift_bits) {
  return static_cast<std::int32_t>(num >> shift_bits);
}
}  // namespace

void HierarchicalGrid::cell_index_of(std::span<const Coord> p, int level,
                                     std::span<std::int32_t> out) const {
  SKC_DCHECK(static_cast<int>(p.size()) == dim_);
  SKC_DCHECK(static_cast<int>(out.size()) == dim_);
  SKC_DCHECK(level >= 0 && level <= log_delta_);
  const int bits = log_delta_ - level;  // g_i = 2^bits
  for (std::size_t j = 0; j < static_cast<std::size_t>(dim_); ++j) {
    out[j] = floor_div_pow2(static_cast<std::int64_t>(p[j]) - shift_[j], bits);
  }
}

void HierarchicalGrid::cell_index_of_batch(const Coord* points, std::size_t n,
                                           int level, std::int32_t* out) const {
  SKC_DCHECK(level >= 0 && level <= log_delta_);
  const int bits = log_delta_ - level;  // g_i = 2^bits
  const auto dim = static_cast<std::size_t>(dim_);
  for (std::size_t i = 0; i < n; ++i) {
    const Coord* p = points + i * dim;
    std::int32_t* o = out + i * dim;
    for (std::size_t j = 0; j < dim; ++j) {
      o[j] = floor_div_pow2(static_cast<std::int64_t>(p[j]) - shift_[j], bits);
    }
  }
}

CellKey HierarchicalGrid::cell_of(std::span<const Coord> p, int level) const {
  if (level < 0) return CellKey{};  // the virtual root
  CellKey key;
  key.level = level;
  key.index.resize(static_cast<std::size_t>(dim_));
  cell_index_of(p, level, key.index);
  return key;
}

CellKey HierarchicalGrid::parent(const CellKey& cell) const {
  SKC_CHECK(!cell.is_root());
  if (cell.level == 0) return CellKey{};
  CellKey up;
  up.level = cell.level - 1;
  up.index.resize(cell.index.size());
  for (std::size_t j = 0; j < cell.index.size(); ++j) {
    // Child index t refines parent index floor(t / 2) because both grids are
    // anchored at the same shift and g_{i-1} = 2 g_i.
    up.index[j] = static_cast<std::int32_t>(
        static_cast<std::int64_t>(cell.index[j]) >> 1);
  }
  return up;
}

std::vector<CellKey> HierarchicalGrid::children(const CellKey& cell) const {
  SKC_CHECK(cell.level < log_delta_);
  SKC_CHECK_MSG(dim_ <= kMaxWalkDim, "child enumeration is 2^d; dimension too large");
  const int child_level = cell.level + 1;
  std::vector<CellKey> out;
  out.reserve(std::size_t{1} << dim_);
  CellKey child;
  child.level = child_level;
  child.index.resize(static_cast<std::size_t>(dim_));
  for (std::uint32_t mask = 0; mask < (std::uint32_t{1} << dim_); ++mask) {
    for (int j = 0; j < dim_; ++j) {
      const std::int32_t bit = (mask >> j) & 1u;
      if (cell.is_root()) {
        // Level-0 candidate cells overlapping [1, Delta]^d have index -1 or 0
        // in each dimension (shift in [0, Delta)).
        child.index[static_cast<std::size_t>(j)] = bit ? 0 : -1;
      } else {
        child.index[static_cast<std::size_t>(j)] =
            2 * cell.index[static_cast<std::size_t>(j)] + bit;
      }
    }
    out.push_back(child);
  }
  return out;
}

bool HierarchicalGrid::contains(const CellKey& cell, std::span<const Coord> p) const {
  if (cell.is_root()) return true;
  std::vector<std::int32_t> idx(static_cast<std::size_t>(dim_));
  cell_index_of(p, cell.level, idx);
  return idx == cell.index;
}

}  // namespace skc
