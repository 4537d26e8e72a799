// E7 + E10 — End-to-end solve-on-coreset (Fact 2.3) and capacity violation.
//
// E7: composing the coreset with an (alpha, beta) capacitated solver yields
//     a ((1 + eps) alpha, (1 + eta) beta) solution on the full data, much
//     faster than solving on the full data.
// E10: the §3.3 assignment construction produces full-data assignments whose
//     max load stays within (1 + O(eta)) of the target capacity.
#include "bench_util.h"

using namespace skc;
using namespace skc::bench;

int main() {
  header("E7: solve on coreset vs solve on full data",
         "((1+eps) alpha, (1+eta) beta) composition, at coreset speed");

  const int dim = 2;
  const int log_delta = 11;
  row("%8s %6s %9s %10s %10s %12s %10s", "n", "k", "coreset", "full_ms",
      "coreset_ms", "cost ratio", "speedup");
  for (const auto& [n, k] : std::vector<std::pair<PointIndex, int>>{
           {1500, 3}, {3000, 4}, {6000, 4}}) {
    const PointSet pts = standard_workload(n, k, dim, log_delta, 1.3, 55);
    const CoresetParams params = CoresetParams::practical(k, LrOrder{2.0}, 0.2, 0.2);
    const OfflineBuildResult built = build_offline_coreset(pts, params, log_delta);
    if (!built.ok) {
      row("%8lld  BUILD FAILED", static_cast<long long>(n));
      continue;
    }
    const double t = tight_capacity(static_cast<double>(n), k) * 1.1;

    CapacitatedSolverOptions sopts;
    sopts.max_iters = 8;
    sopts.restarts = 2;
    sopts.delta = Coord{1} << log_delta;

    Timer full_timer;
    Rng r_full(9);
    const CapacitatedSolution full_sol =
        capacitated_kmeans(WeightedPointSet::unit(pts), k, t, LrOrder{2.0}, sopts, r_full);
    const double full_ms = full_timer.millis();

    Timer coreset_timer;
    Rng r_core(9);
    const double tc = t * built.coreset.total_weight() / static_cast<double>(n);
    const CapacitatedSolution core_sol =
        capacitated_kmeans(built.coreset.points, k, tc, LrOrder{2.0}, sopts, r_core);
    const double coreset_ms = coreset_timer.millis();

    if (!full_sol.feasible || !core_sol.feasible) {
      row("%8lld  SOLVER INFEASIBLE", static_cast<long long>(n));
      continue;
    }
    // Evaluate BOTH center sets on the full data at (1+eta)t.
    const double eval_core = capacitated_cost(pts, core_sol.centers,
                                              t * (1.0 + params.eta), LrOrder{2.0});
    const double eval_full = capacitated_cost(pts, full_sol.centers,
                                              t * (1.0 + params.eta), LrOrder{2.0});
    row("%8lld %6d %9lld %10.2f %10.2f %12.3f %9.1fx", static_cast<long long>(n), k,
        static_cast<long long>(built.coreset.points.size()), full_ms, coreset_ms,
        eval_core / eval_full, full_ms / std::max(coreset_ms, 1e-6));
  }
  row("\nexpected shape: cost ratio ~1 (coreset centers as good as full-data");
  row("centers); both solves are near-linear in their input, so the speedup");
  row("follows n / coreset size, which grows with n.");

  header("E10: capacity violation of the full-data assignment (§3.3)",
         "max load <= (1 + O(eta)) * t via half-space transfer");
  row("%8s %6s %10s %14s %14s %12s", "n", "k", "target t", "transfer load",
      "naive load", "transferred");
  for (const auto& [n, k] : std::vector<std::pair<PointIndex, int>>{
           {2000, 3}, {4000, 4}, {8000, 5}}) {
    const PointSet pts = standard_workload(n, k, dim, log_delta, 1.6, 77);
    const CoresetParams params = CoresetParams::practical(k, LrOrder{2.0}, 0.2, 0.2);
    const OfflineBuildResult built = build_offline_coreset(pts, params, log_delta);
    if (!built.ok) continue;
    const double t = tight_capacity(static_cast<double>(n), k) * 1.05;
    Rng r_solve(13);
    CapacitatedSolverOptions sopts;
    sopts.restarts = 2;
    const CapacitatedSolution sol = capacitated_kmeans(
        built.coreset.points, k, t * built.coreset.total_weight() / static_cast<double>(n),
        LrOrder{2.0}, sopts, r_solve);
    if (!sol.feasible) continue;

    const FullAssignment full =
        assign_via_coreset(pts, params, log_delta, built.coreset, sol.centers, t);
    if (!full.feasible) continue;
    // Naive nearest-center loads for contrast.
    std::vector<double> naive(static_cast<std::size_t>(k), 0.0);
    for (PointIndex i = 0; i < pts.size(); ++i) {
      naive[static_cast<std::size_t>(
          nearest_center(pts[i], sol.centers, LrOrder{2.0}).index)] += 1.0;
    }
    const double naive_max = *std::max_element(naive.begin(), naive.end());
    row("%8lld %6d %10.0f %10.0f (%3.0f%%) %8.0f (%3.0f%%) %11lld",
        static_cast<long long>(n), k, t, full.max_load, 100.0 * full.max_load / t,
        naive_max, 100.0 * naive_max / t,
        static_cast<long long>(full.transferred_points));
  }
  row("\nexpected shape: transfer load stays within ~(1 + eta) of t where the");
  row("naive nearest-center assignment overloads by far more on skewed data.");
  return 0;
}
