#include "skc/coreset/offline.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "skc/common/check.h"
#include "skc/common/random.h"
#include "skc/coreset/sampling.h"
#include "skc/parallel/parallel_for.h"
#include "skc/partition/heavy_cells.h"

namespace skc {

double max_opt_guess(PointIndex n, int dim, int log_delta, LrOrder r) {
  const double delta = static_cast<double>(Coord{1} << log_delta);
  const double diam = std::sqrt(static_cast<double>(dim)) * delta;
  return static_cast<double>(n) * std::pow(diam, r.r);
}

namespace {

/// The FAIL screen of one guess (lines 1-6): the Algorithm 1 partition, which
/// FAILs on too many heavy cells, then the per-level part-mass bound.  The
/// per-guess build and the driver's parallel screen both call it.  An empty
/// `weights` means unit weights.
OfflinePartition screen(const PointSet& points, std::span<const Weight> weights,
                        const HierarchicalGrid& grid, const CoresetParams& params,
                        double o) {
  OfflinePartition partition =
      partition_offline(points, grid, params.partition(), o, weights);
  if (partition.fail) return partition;
  const int L = grid.log_delta();
  std::vector<double> level_mass(static_cast<std::size_t>(L + 1), 0.0);
  for (const Part& part : partition.parts) {
    level_mass[static_cast<std::size_t>(part.level)] += part.weight;
  }
  const double mass_bound = params.mass_bound(grid.dim(), L);
  for (int i = 0; i <= L; ++i) {
    const double ti = part_threshold(grid, params.partition(), i, o);
    if (level_mass[static_cast<std::size_t>(i)] > mass_bound * ti) {
      partition.fail = true;
      partition.fail_reason = "per-level part mass exceeds bound (guess o too small)";
      return partition;
    }
  }
  return partition;
}

BuildAttempt build_at(const PointSet& points, std::span<const Weight> weights,
                      const HierarchicalGrid& grid, const CoresetParams& params,
                      double o) {
  BuildAttempt attempt;
  const OfflinePartition partition = screen(points, weights, grid, params, o);
  if (partition.fail) {
    attempt.fail_reason = partition.fail_reason;
    return attempt;
  }

  // Lines 7-12: filter small parts and sample the rest.  The lambda-wise
  // hashes are drawn from the seed exactly as the streaming path draws its
  // coreset samplers (coreset/sampling.h), which is what makes the
  // streaming == offline equivalence tests exact.
  const int L = grid.log_delta();
  const double gamma = params.gamma(grid.dim(), L);
  const std::vector<KWiseHash> hashes =
      make_level_hashes(params, L, SamplerPurpose::kCoreset);
  Rng plain_rng = Rng(params.seed).fork(0xAB1A7E);

  Coreset& coreset = attempt.coreset;
  coreset.o = o;
  coreset.points = WeightedPointSet(grid.dim());
  coreset.level_weights.assign(static_cast<std::size_t>(L + 1), 1.0);
  std::vector<SamplingRate> rate(static_cast<std::size_t>(L + 1));
  for (int i = 0; i <= L; ++i) {
    rate[static_cast<std::size_t>(i)] =
        SamplingRate::from_probability(params.sampling_probability(grid, i, o));
    coreset.level_weights[static_cast<std::size_t>(i)] =
        rate[static_cast<std::size_t>(i)].weight();
  }

  for (const Part& part : partition.parts) {
    const double ti = part_threshold(grid, params.partition(), part.level, o);
    if (part.weight < gamma * ti) continue;  // line 9
    const SamplingRate& lr = rate[static_cast<std::size_t>(part.level)];
    for (PointIndex pi : part.points) {
      const auto p = points[pi];
      // Threshold sampling: keep a point of weight w with probability
      // min(1, w * phi) and reweight it to w / P(keep).  A heavy point
      // (w >= 1/phi) is kept at its own weight, which is what keeps the
      // variance of re-coreset tiers from compounding; w = 1 is the
      // paper's rate phi and weight 1/phi.
      const double w = weights.empty() ? 1.0 : weights[static_cast<std::size_t>(pi)];
      const SamplingRate keep_rate{std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(std::llround(static_cast<double>(lr.m) / w)))};
      const bool keep =
          params.use_kwise_sampling
              ? kwise_keep(hashes[static_cast<std::size_t>(part.level)], p, keep_rate)
              : (keep_rate.always() || plain_rng.uniform() < keep_rate.probability());
      if (!keep) continue;
      coreset.points.push_back(p, w * keep_rate.weight());
      coreset.levels.push_back(part.level);
    }
  }

  attempt.ok = true;
  return attempt;
}

OfflineBuildResult build(const PointSet& points, std::span<const Weight> weights,
                         const CoresetParams& params, int log_delta) {
  OfflineBuildResult result;
  SKC_CHECK(!points.empty());
  if (log_delta == 0) log_delta = grid_log_delta(points.max_coord());
  SKC_CHECK_MSG(points.within_grid(Coord{1} << log_delta),
                "points must lie in [1, 2^log_delta]^d");

  const HierarchicalGrid grid = make_grid(points.dim(), log_delta, params.seed);

  const double n = weights.empty()
                       ? static_cast<double>(points.size())
                       : std::accumulate(weights.begin(), weights.end(), 0.0);
  const double o_max = max_opt_guess(static_cast<PointIndex>(std::llround(n)),
                                     points.dim(), log_delta, params.r);
  result.diagnostics.o_min = 1.0;
  result.diagnostics.o_max = o_max;

  // Guesses are independent: screen every guess in parallel (the partition
  // is the dominant cost), then build only the smallest survivor (the
  // Theorem 3.19 selection rule).
  std::vector<double> guesses;
  for (double o = 1.0; o <= o_max * params.guess_factor; o *= params.guess_factor) {
    guesses.push_back(o);
  }
  std::vector<std::string> outcomes(guesses.size());
  parallel_for(0, static_cast<std::int64_t>(guesses.size()), [&](std::int64_t g) {
    const auto gi = static_cast<std::size_t>(g);
    const OfflinePartition partition = screen(points, weights, grid, params, guesses[gi]);
    outcomes[gi] = partition.fail ? partition.fail_reason : "ok";
  }, ThreadPool::global(), /*grain=*/1);

  const auto accepted = static_cast<std::size_t>(
      std::find(outcomes.begin(), outcomes.end(), "ok") - outcomes.begin());
  result.diagnostics.guesses_tried = guesses;
  result.diagnostics.guess_outcomes = std::move(outcomes);
  if (accepted == guesses.size()) return result;  // every guess failed
  BuildAttempt attempt = build_at(points, weights, grid, params, guesses[accepted]);
  result.ok = attempt.ok;  // true: the same screen passed above
  result.coreset = std::move(attempt.coreset);
  return result;
}

std::span<const Weight> integral(const WeightedPointSet& points) {
  SKC_CHECK_MSG(points.integral_weights(),
                "weighted construction requires integral weights");
  return points.weights();
}

}  // namespace

BuildAttempt build_offline_coreset_at(const PointSet& points,
                                      const HierarchicalGrid& grid,
                                      const CoresetParams& params, double o) {
  return build_at(points, {}, grid, params, o);
}

BuildAttempt build_weighted_coreset_at(const WeightedPointSet& points,
                                       const HierarchicalGrid& grid,
                                       const CoresetParams& params, double o) {
  return build_at(points.points(), integral(points), grid, params, o);
}

OfflineBuildResult build_offline_coreset(const PointSet& points,
                                         const CoresetParams& params,
                                         int log_delta) {
  return build(points, {}, params, log_delta);
}

OfflineBuildResult build_weighted_coreset(const WeightedPointSet& points,
                                          const CoresetParams& params,
                                          int log_delta) {
  return build(points.points(), integral(points), params, log_delta);
}

}  // namespace skc
