#include "skc/coreset/assemble.h"

#include <algorithm>

#include "skc/common/check.h"
#include "skc/hash/kwise_hash.h"

namespace skc {

BuildAttempt assemble_coreset(const HierarchicalGrid& grid, const CoresetParams& params,
                              double o, const HeavyWalk& walk, double total_count) {
  BuildAttempt attempt;
  const int L = grid.log_delta();
  const int dim = grid.dim();
  SKC_CHECK(!walk.fail && static_cast<int>(walk.parts.size()) == L + 1);
  const auto parts_at = [&walk](int i) -> const std::vector<EstimatedPart>& {
    return walk.parts[static_cast<std::size_t>(i)];
  };

  // --- Algorithm 2 line 6: a level's crucial mass, summed cell by cell in
  //     walk order. ---
  const double mass_bound = params.mass_bound(dim, L);
  for (int i = 0; i <= L; ++i) {
    double level_mass = 0.0;
    for (const EstimatedPart& part : parts_at(i)) {
      for (const CrucialCell& cell : part.cells) level_mass += cell.tau;
    }
    if (level_mass > mass_bound * part_threshold(grid, params.partition(), i, o)) {
      attempt.fail_reason = "per-level part mass exceeds bound (guess o too small)";
      return attempt;
    }
  }

  // --- Unrecoverable cells: a crucial cell of an included part whose
  //     sampled points could not be reconstructed (evicted after a transient
  //     population peak, e.g. churn passing through the cell).  Losing its
  //     samples biases the coreset low by at most the cell's mass, so a
  //     small total is absorbed into the eta budget (the same error class
  //     as Lemma 3.4's dropped parts); beyond the budget the guess FAILs. ---
  const double gamma = params.gamma(dim, L);
  const double lost_budget =
      params.eta * total_count / (4.0 * static_cast<double>(params.k));
  double lost_mass = 0.0;
  for (int i = 0; i <= L; ++i) {
    const double ti = part_threshold(grid, params.partition(), i, o);
    for (const EstimatedPart& part : parts_at(i)) {
      if (part.tau < gamma * ti) continue;
      for (const CrucialCell& cell : part.cells) {
        if (!cell.incomplete) continue;
        // The cell's mass is bounded by its part's tau; charge
        // conservatively min(tau_part, T_i).
        lost_mass += std::min(part.tau, ti);
        if (lost_mass > lost_budget) {
          attempt.fail_reason =
              "coreset samples unrecoverable beyond the lost-mass budget";
          return attempt;
        }
      }
    }
  }

  // --- Coreset samples: the crucial cells of parts that pass the
  //     gamma * T_i(o) threshold (Algorithm 2 line 9 + step 6 of
  //     Algorithm 4). ---
  Coreset& coreset = attempt.coreset;
  coreset.o = o;
  coreset.points = WeightedPointSet(dim);
  coreset.level_weights.assign(static_cast<std::size_t>(L + 1), 1.0);
  for (int i = 0; i <= L; ++i) {
    const double ti = part_threshold(grid, params.partition(), i, o);
    const SamplingRate rate =
        SamplingRate::from_probability(params.sampling_probability(grid, i, o));
    coreset.level_weights[static_cast<std::size_t>(i)] = rate.weight();
    for (const EstimatedPart& part : parts_at(i)) {
      if (part.tau < gamma * ti) continue;
      for (const CrucialCell& cell : part.cells) {
        for (PointIndex p = 0; p < cell.samples.size(); ++p) {
          coreset.points.push_back(cell.samples[p], rate.weight());
          coreset.levels.push_back(i);
        }
      }
    }
  }

  attempt.ok = true;
  return attempt;
}

}  // namespace skc
