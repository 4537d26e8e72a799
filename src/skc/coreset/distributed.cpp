#include "skc/coreset/distributed.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "skc/common/check.h"
#include "skc/coreset/assemble.h"
#include "skc/coreset/offline.h"
#include "skc/coreset/sampling.h"
#include "skc/geometry/metric.h"
#include "skc/parallel/parallel_for.h"
#include "skc/sketch/countmin.h"

namespace skc {

namespace {

/// Aligns a value down to the global guess grid {1, f, f^2, ...}.
double align_to_guess_grid(double value, double factor) {
  if (value <= 1.0) return 1.0;
  const double steps = std::floor(std::log(value) / std::log(factor));
  return std::pow(factor, steps);
}

}  // namespace

DistributedResult build_distributed_coreset(const std::vector<PointSet>& machines,
                                            const CoresetParams& params,
                                            const DistributedOptions& options) {
  DistributedResult result;
  const int s = static_cast<int>(machines.size());
  SKC_CHECK(s >= 1);
  const int dim = machines.front().dim();
  SKC_CHECK_MSG(dim <= HierarchicalGrid::kMaxWalkDim,
                "the heavy-cell walk enumerates 2^d children; dimension too large");
  const int L = options.log_delta;
  for (const PointSet& m : machines) {
    SKC_CHECK(m.empty() || m.dim() == dim);
  }

  Network net(s);
  const HierarchicalGrid grid = make_grid(dim, L, params.seed);
  const auto hash_counting = make_level_hashes(params, L, SamplerPurpose::kCounting);
  const auto hash_coreset = make_level_hashes(params, L, SamplerPurpose::kCoreset);

  // --- Seed broadcast: 8-byte seed reconstructs grid and hashes locally. ---
  for (int m = 1; m <= s; ++m) net.send(0, m, 8);

  // --- Round 0: global count, centroid, and the OPT_1 upper bound. ---
  std::int64_t total_count = 0;
  std::vector<double> centroid(static_cast<std::size_t>(dim), 0.0);
  for (int m = 0; m < s; ++m) {
    const PointSet& shard = machines[static_cast<std::size_t>(m)];
    total_count += shard.size();
    for (PointIndex i = 0; i < shard.size(); ++i) {
      const auto p = shard[i];
      for (std::size_t j = 0; j < static_cast<std::size_t>(dim); ++j) {
        centroid[j] += p[j];
      }
    }
    net.send(m + 1, 0, 8 + static_cast<std::uint64_t>(dim) * 8);
  }
  SKC_CHECK(total_count > 0);
  PointSet centroid_pt(dim);
  {
    std::vector<Coord> c(static_cast<std::size_t>(dim));
    for (int j = 0; j < dim; ++j) {
      c[static_cast<std::size_t>(j)] = std::clamp<Coord>(
          static_cast<Coord>(std::llround(centroid[static_cast<std::size_t>(j)] /
                                          static_cast<double>(total_count))),
          1, grid.delta());
    }
    centroid_pt.push_back(c);
  }
  double opt1 = 0.0;
  for (int m = 0; m < s; ++m) {
    net.send(0, m + 1, static_cast<std::uint64_t>(dim) * 4);  // centroid
    const PointSet& shard = machines[static_cast<std::size_t>(m)];
    for (PointIndex i = 0; i < shard.size(); ++i) {
      opt1 += dist_pow(shard[i], centroid_pt[0], params.r);
    }
    net.send(m + 1, 0, 8);  // local cost sum
  }
  result.rounds = 1;

  double o_lo, o_hi;
  if (options.o_min > 0) {
    o_lo = options.o_min;
    o_hi = options.o_max > 0 ? options.o_max
                             : max_opt_guess(total_count, dim, L, params.r);
  } else {
    const double ub = std::max(1.0, opt1);
    o_lo = align_to_guess_grid(
        std::max(1.0, ub / std::pow(2.0, options.range_span)), params.guess_factor);
    o_hi = 2.0 * ub;
  }
  result.diagnostics.o_min = o_lo;
  result.diagnostics.o_max = o_hi;

  // --- Round 1: per-level CountMin summaries at the finest in-range rate. ---
  std::vector<SamplingRate> psi(static_cast<std::size_t>(L + 1));
  std::vector<CellCountMin> merged;
  merged.reserve(static_cast<std::size_t>(L + 1));
  CellCountMinConfig cm_cfg;
  cm_cfg.width = options.countmin_width;
  cm_cfg.depth = options.countmin_depth;
  cm_cfg.exact = options.exact;
  for (int i = 0; i <= L; ++i) {
    const double ti = part_threshold(grid, params.partition(), i, o_lo);
    psi[static_cast<std::size_t>(i)] = SamplingRate::from_probability(
        std::min(1.0, options.counting_samples / std::max(ti, 1.0)));
    merged.emplace_back(grid, i, cm_cfg, sketch_seed(params, SamplerPurpose::kCounting, i),
                        std::vector<std::uint64_t>{psi[static_cast<std::size_t>(i)].keep_below()});
  }
  {
    // Machine-side work is embarrassingly parallel (each shard summarizes
    // independently); the coordinator-side merge is serialized per level.
    // Each summary is a one-guess CellCountMin: the rate is fixed at o_lo.
    std::mutex merge_mu;
    parallel_for(0, s, [&](std::int64_t m) {
      const PointSet& shard = machines[static_cast<std::size_t>(m)];
      const auto d = static_cast<std::size_t>(dim);
      std::vector<std::int32_t> cells;
      for (int i = 0; i <= L; ++i) {
        const std::size_t li = static_cast<std::size_t>(i);
        CellCountMin local(grid, i, cm_cfg, sketch_seed(params, SamplerPurpose::kCounting, i),
                           std::vector<std::uint64_t>{psi[li].keep_below()});
        cells.clear();
        for (PointIndex p = 0; p < shard.size(); ++p) {
          if (!kwise_keep(hash_counting[li], shard[p], psi[li])) continue;
          cells.resize(cells.size() + d);
          grid.cell_index_of(shard[p], i, std::span<std::int32_t>(cells.data() + cells.size() - d, d));
        }
        const std::size_t kept = cells.size() / d;
        local.update(cells.data(), std::vector<std::int64_t>(kept, +1).data(),
                     std::vector<int>(kept, 1).data(), kept);
        net.send(static_cast<int>(m) + 1, 0, local.memory_bytes());
        std::scoped_lock lock(merge_mu);
        merged[li].merge(local);
      }
    }, ThreadPool::global(), /*grain=*/1);
  }
  result.rounds = 2;

  // --- Round 2+: guess loop; the coordinator walks the merged counts, and
  //     machines ship samples for the crucial cells of a guess the walk
  //     passes. ---
  for (double o = o_lo; o <= o_hi * params.guess_factor && !result.ok;
       o *= params.guess_factor) {
    result.diagnostics.guesses_tried.push_back(o);
    HeavyWalk walk = walk_heavy_cells(
        grid, params.partition(), o, static_cast<double>(total_count),
        [&](const CellKey& cell) {
          const auto li = static_cast<std::size_t>(cell.level);
          return merged[li].query(0, cell) * psi[li].weight();
        });
    if (walk.fail) {
      result.diagnostics.guess_outcomes.push_back(walk.fail_reason);
      continue;
    }

    // Broadcast the crucial cells; machines return their phi(o)-sampled
    // points inside them, each filed under its cell.
    ++result.rounds;
    std::uint64_t crucial_bytes = 8;  // the guess o
    std::vector<std::unordered_map<CellKey, CrucialCell*, CellKeyHash>> crucial(
        static_cast<std::size_t>(L + 1));
    for (int i = 0; i <= L; ++i) {
      const auto li = static_cast<std::size_t>(i);
      for (EstimatedPart& part : walk.parts[li]) {
        for (CrucialCell& cell : part.cells) crucial[li].emplace(cell.cell, &cell);
      }
      crucial_bytes += crucial[li].size() * (static_cast<std::uint64_t>(dim) * 4 + 4);
    }
    for (int m = 1; m <= s; ++m) net.send(0, m, crucial_bytes);

    std::vector<SamplingRate> phi(static_cast<std::size_t>(L + 1));
    for (int i = 0; i <= L; ++i) {
      phi[static_cast<std::size_t>(i)] =
          SamplingRate::from_probability(params.sampling_probability(grid, i, o));
    }
    bool failed = false;
    for (int m = 0; m < s && !failed; ++m) {
      const PointSet& shard = machines[static_cast<std::size_t>(m)];
      std::int64_t shipped = 0;
      for (int i = 0; i <= L && !failed; ++i) {
        const std::size_t li = static_cast<std::size_t>(i);
        if (crucial[li].empty()) continue;
        for (PointIndex p = 0; p < shard.size(); ++p) {
          if (!kwise_keep(hash_coreset[li], shard[p], phi[li])) continue;
          const auto it = crucial[li].find(grid.cell_of(shard[p], i));
          if (it == crucial[li].end()) continue;
          it->second->samples.push_back(shard[p]);
          if (++shipped > options.machine_sample_cap) {
            failed = true;
            break;
          }
        }
      }
      net.send(m + 1, 0,
               static_cast<std::uint64_t>(std::max<std::int64_t>(shipped, 0)) *
                       static_cast<std::uint64_t>(dim) * 4 +
                   8);
    }
    if (failed) {
      result.diagnostics.guess_outcomes.push_back("machine sample cap exceeded");
      continue;
    }

    BuildAttempt attempt = assemble_coreset(grid, params, o, walk,
                                            static_cast<double>(total_count));
    if (!attempt.ok) {
      result.diagnostics.guess_outcomes.push_back(attempt.fail_reason);
      continue;
    }
    result.diagnostics.guess_outcomes.push_back("ok");
    result.ok = true;
    result.coreset = std::move(attempt.coreset);
  }

  result.communication = net.total();
  result.per_machine_bytes.resize(static_cast<std::size_t>(s) + 1);
  for (int m = 0; m <= s; ++m) {
    result.per_machine_bytes[static_cast<std::size_t>(m)] = net.machine_bytes(m);
  }
  return result;
}

}  // namespace skc
