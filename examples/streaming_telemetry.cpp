// Streaming scenario: balanced clustering of a live telemetry feed with
// churn (sessions appear and disappear), in one pass and small space.
//
// Models the motivating setting of the paper: the stream contains both
// insertions and deletions, so prior insertion-only multi-pass baselines do
// not apply.  The builder keeps poly(k d log Delta) state while the raw
// stream would need the full point set.
#include <cstdio>

#include "skc/skc.h"

int main() {
  using namespace skc;

  // --- Synthesize the feed: a skewed session mixture plus transient churn.---
  Rng rng(2023);
  MixtureConfig config;
  config.dim = 3;        // e.g. (latency, cpu, queue-depth) buckets
  config.log_delta = 10;
  config.clusters = 4;
  config.n = 12000;      // surviving sessions
  config.spread = 0.02;
  config.skew = 1.4;
  const PointSet survivors = gaussian_mixture(config, rng);

  MixtureConfig churn_cfg = config;
  churn_cfg.n = 8000;  // transient sessions: inserted then deleted
  const PointSet transients = gaussian_mixture(churn_cfg, rng);

  Rng stream_rng(7);
  const Stream stream = churn_stream(survivors, transients, ChurnConfig{}, stream_rng);
  std::printf("stream: %zu events (%lld inserts + %lld deletes), %lld survivors\n",
              stream.size(),
              static_cast<long long>(survivors.size() + transients.size()),
              static_cast<long long>(transients.size()),
              static_cast<long long>(survivors.size()));

  // --- One pass over the stream. ---
  const int k = 4;
  const CoresetParams params = CoresetParams::practical(k, LrOrder{2.0}, 0.2, 0.2);
  StreamingOptions options;
  options.log_delta = config.log_delta;
  options.max_points = survivors.size() + transients.size();

  StreamingCoresetBuilder builder(config.dim, params, options);
  Timer pass_timer;
  builder.consume(EventBatch(stream, config.dim));
  std::printf("one pass: %.0f ms, sketch state %s across %d OPT guesses "
              "(%s per guess)\n",
              pass_timer.millis(), format_bytes(builder.memory_bytes()).c_str(),
              builder.num_guesses(),
              format_bytes(builder.memory_bytes_per_guess()).c_str());
  const std::size_t raw_bytes =
      static_cast<std::size_t>(survivors.size()) *
      static_cast<std::size_t>(config.dim) * sizeof(Coord);
  std::printf("raw surviving data would be %s\n", format_bytes(raw_bytes).c_str());

  const StreamingResult result = builder.finalize();
  if (!result.ok) {
    std::printf("coreset decode failed\n");
    return 1;
  }
  std::printf("coreset: %lld weighted points, accepted o=%.3g, OPT lower bound %.3g\n",
              static_cast<long long>(result.coreset.points.size()), result.coreset.o,
              result.opt_lower_bound);

  // --- Balanced clustering of the live sessions. ---
  const double n = static_cast<double>(builder.net_count());
  const double capacity = tight_capacity(n, k) * 1.1;
  Rng solver_rng(99);
  CapacitatedSolverOptions sopts;
  sopts.restarts = 2;
  const CapacitatedSolution solution = capacitated_kmeans(
      result.coreset.points, k,
      capacity * result.coreset.total_weight() / n, LrOrder{2.0}, sopts, solver_rng);
  if (!solution.feasible) {
    std::printf("no feasible balanced clustering at capacity %.0f\n", capacity);
    return 1;
  }

  // Ground truth (possible here because the example keeps the data around;
  // a real deployment could not, which is the point).
  const double eval = capacitated_cost(survivors, solution.centers,
                                       capacity * (1.0 + params.eta), LrOrder{2.0});
  const double direct = capacitated_cost(
      survivors, kmeanspp_seed(WeightedPointSet::unit(survivors), k, LrOrder{2.0},
                               solver_rng),
      capacity * (1.0 + params.eta), LrOrder{2.0});
  std::printf("balanced cost of streamed centers on true survivors: %.4g\n", eval);
  std::printf("  (k-means++ seeds without the coreset pipeline:     %.4g)\n", direct);
  return 0;
}
