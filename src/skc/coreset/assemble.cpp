#include "skc/coreset/assemble.h"

#include <algorithm>
#include <unordered_map>

#include "skc/common/check.h"
#include "skc/hash/kwise_hash.h"

namespace skc {

namespace {

/// A cell at grid level `level` is crucial iff it is not heavy itself and its
/// parent chain is entirely heavy (marking stores only chains, so checking
/// the direct parent suffices).
bool is_crucial(const HierarchicalGrid& grid, const CellMarking& marking,
                const CellKey& cell) {
  if (marking.is_heavy(cell)) return false;
  return marking.is_heavy(grid.parent(cell));
}

}  // namespace

BuildAttempt assemble_coreset(const HierarchicalGrid& grid, const CoresetParams& params,
                              double o, const RecoveredLevelData& data,
                              double total_count) {
  BuildAttempt attempt;
  const int L = grid.log_delta();
  const int dim = grid.dim();
  SKC_CHECK(static_cast<int>(data.counting.size()) >= L);
  SKC_CHECK(static_cast<int>(data.part_mass.size()) >= L + 1);
  SKC_CHECK(static_cast<int>(data.sample_points.size()) >= L + 1);

  // --- Algorithm 1 marking from the counting estimates. ---
  const CellMarking marking =
      mark_cells(grid, params.partition(), o, data.counting, total_count);
  if (marking.fail) {
    attempt.fail_reason = marking.fail_reason;
    return attempt;
  }

  // --- Part masses: group crucial cells under their heavy parent. ---
  // part key = (level via map slot, parent cell); value = estimated mass.
  const double gamma = params.gamma(dim, L);
  const double mass_bound = params.mass_bound(dim, L);
  std::vector<std::unordered_map<CellKey, double, CellKeyHash>> part_tau(
      static_cast<std::size_t>(L + 1));
  for (int i = 0; i <= L; ++i) {
    const double ti = part_threshold(grid, params.partition(), i, o);
    double level_mass = 0.0;
    for (const EstimatedCell& cell : data.part_mass[static_cast<std::size_t>(i)]) {
      CellKey key;
      key.level = i;
      key.index = cell.index;
      if (!is_crucial(grid, marking, key)) continue;
      level_mass += cell.estimate;
      part_tau[static_cast<std::size_t>(i)][grid.parent(key)] += cell.estimate;
    }
    // Algorithm 2 line 6.
    if (level_mass > mass_bound * ti) {
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
  if (!data.incomplete_cells.empty()) {
    SKC_CHECK(static_cast<int>(data.incomplete_cells.size()) >= L + 1);
    const double lost_budget =
        params.eta * total_count / (4.0 * static_cast<double>(params.k));
    double lost_mass = 0.0;
    for (int i = 0; i <= L; ++i) {
      const double ti = part_threshold(grid, params.partition(), i, o);
      for (const CellKey& cell : data.incomplete_cells[static_cast<std::size_t>(i)]) {
        if (!is_crucial(grid, marking, cell)) continue;
        const auto it = part_tau[static_cast<std::size_t>(i)].find(grid.parent(cell));
        if (it == part_tau[static_cast<std::size_t>(i)].end()) continue;
        if (it->second < gamma * ti) continue;
        // The cell's own mass is bounded by its part's tau; without a
        // per-cell estimate, charge conservatively min(tau_part, T_i).
        lost_mass += std::min(it->second, ti);
        if (lost_mass > lost_budget) {
          attempt.fail_reason =
              "coreset samples unrecoverable beyond the lost-mass budget";
          return attempt;
        }
      }
    }
  }

  // --- Coreset samples: keep points whose cell is crucial and whose part
  //     passes the gamma * T_i(o) threshold (Algorithm 2 line 9 + step 6 of
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
    const PointSet& pts = data.sample_points[static_cast<std::size_t>(i)];
    const auto& taus = part_tau[static_cast<std::size_t>(i)];
    for (PointIndex p = 0; p < pts.size(); ++p) {
      CellKey cell = grid.cell_of(pts[p], i);
      if (!is_crucial(grid, marking, cell)) continue;
      const auto it = taus.find(grid.parent(cell));
      if (it == taus.end() || it->second < gamma * ti) continue;
      coreset.points.push_back(pts[p], rate.weight());
      coreset.levels.push_back(i);
    }
  }

  attempt.ok = true;
  return attempt;
}

}  // namespace skc
