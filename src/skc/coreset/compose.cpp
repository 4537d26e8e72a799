#include "skc/coreset/compose.h"

#include <algorithm>

#include "skc/common/check.h"
#include "skc/common/random.h"

namespace skc {

CoresetComposer::CoresetComposer(int dim, const CoresetParams& params,
                                 const Options& options)
    : dim_(dim), params_(params), options_(options), buffer_(dim) {
  SKC_CHECK(options.block_size >= 16);
  SKC_CHECK(options.tier_fanout >= 2);
}

void CoresetComposer::insert(std::span<const Coord> p) {
  buffer_.push_back(p);
  ++points_seen_;
  if (buffer_.size() >= options_.block_size) flush_buffer();
}

void CoresetComposer::insert_all(const PointSet& points) {
  for (PointIndex i = 0; i < points.size(); ++i) insert(points[i]);
}

OfflineBuildResult CoresetComposer::reduce(const WeightedPointSet& input) {
  ++reductions_;
  // Each reduction must draw FRESH randomness: reusing the level hashes
  // across tiers correlates the keep decisions (a surviving point has a
  // small hash value and is near-certain to survive again) while the
  // inverse-probability weights multiply as if independent — inflating the
  // total weight tier over tier.
  CoresetParams tier_params = params_;
  std::uint64_t sm =
      params_.seed ^ (std::uint64_t{0x9e3779b97f4a7c15} *
                      static_cast<std::uint64_t>(reductions_));
  tier_params.seed = splitmix64(sm);
  return build_weighted_coreset(input, tier_params, options_.log_delta);
}

void CoresetComposer::flush_buffer() {
  if (buffer_.empty() || failed_) return;
  OfflineBuildResult summary = reduce(WeightedPointSet::unit(buffer_));
  buffer_.clear();
  if (!summary.ok) {
    failed_ = true;
    return;
  }
  if (tiers_.empty()) tiers_.emplace_back();
  tiers_[0].push_back(std::move(summary.coreset.points));
  reduce_tiers();
  note_memory();
}

void CoresetComposer::reduce_tiers() {
  for (std::size_t tier = 0; tier < tiers_.size() && !failed_; ++tier) {
    while (static_cast<int>(tiers_[tier].size()) >= options_.tier_fanout) {
      WeightedPointSet merged(dim_);
      for (int i = 0; i < options_.tier_fanout; ++i) {
        merged.append(tiers_[tier].back());
        tiers_[tier].pop_back();
      }
      OfflineBuildResult summary = reduce(merged);
      if (!summary.ok) {
        failed_ = true;
        return;
      }
      if (tier + 1 >= tiers_.size()) tiers_.emplace_back();
      tiers_[tier + 1].push_back(std::move(summary.coreset.points));
    }
  }
}

void CoresetComposer::note_memory() {
  std::size_t bytes = static_cast<std::size_t>(buffer_.size()) *
                      static_cast<std::size_t>(dim_) * sizeof(Coord);
  for (const auto& tier : tiers_) {
    for (const WeightedPointSet& s : tier) {
      bytes += static_cast<std::size_t>(s.size()) *
               (static_cast<std::size_t>(dim_) * sizeof(Coord) + sizeof(Weight));
    }
  }
  peak_bytes_ = std::max(peak_bytes_, bytes);
}

std::optional<Coreset> CoresetComposer::finalize() {
  flush_buffer();
  if (failed_) return std::nullopt;
  WeightedPointSet merged(dim_);
  for (const auto& tier : tiers_) {
    for (const WeightedPointSet& s : tier) merged.append(s);
  }
  if (merged.empty()) return std::nullopt;
  note_memory();
  // One final reduction so the result is coreset-sized even when many tiers
  // are partially filled.
  OfflineBuildResult built = reduce(merged);
  if (!built.ok) return std::nullopt;
  return std::move(built.coreset);
}

}  // namespace skc
