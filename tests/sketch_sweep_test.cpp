// Sketch-mode invariants of the serving engine (ROADMAP robustness (b)).
//
// Exact mode is pinned to the single builder bit for bit elsewhere; sketch
// mode (the serving default) is only approximately shardable: per-shard
// pruning, store eviction and the distinct estimators see different
// substreams.  This sweep pins what must still hold at every shard and
// worker count and under two event orders — random churn, and
// delete-after-peak (every insert first, then the extras' deletes):
//   * the accepted o is within one guess_factor step of a single builder's
//     on the same stream;
//   * at fixed probes (the planted centers and two k-means++ seedings of
//     the survivors, at t = n/k and 1.2 n/k), the strong-coreset ratios of
//     DESIGN.md §1 stay inside [1/(1+eps), 1+eps]:
//       upper = cost_{(1+eta)t}(S) / cost_t(Q),
//       lower = cost_{(1+eta)t}(S) / cost_{(1+eta)^2 t}(Q),
//     with the summary's capacity scaled by its weight, as in E2.
// The mixture is balanced, so the capacity relaxation barely moves the full
// cost and both ratios sit near 1, where the envelope can catch a drift;
// the CountMins are narrow (64 counters a row), so the accepted guess's
// counters collide and the shared per-level hashes are really exercised.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "skc/coreset/streaming.h"
#include "skc/engine/engine.h"
#include "skc/solve/cost.h"
#include "skc/solve/kmeanspp.h"
#include "skc/stream/generators.h"

namespace skc {
namespace {

constexpr int kDim = 2;
constexpr int kLogDelta = 9;
constexpr int kK = 3;

struct Probe {
  PointSet centers;
  double t = 0.0;
  double full_cost = 0.0;          // cost_t(Q)
  double full_relaxed_cost = 0.0;  // cost_{(1+eta)^2 t}(Q)
};

struct Workload {
  PointSet survivors;
  std::vector<Probe> probes;
  Stream random_order, delete_after_peak;
};

Workload make_workload(const CoresetParams& params) {
  MixtureConfig cfg;
  cfg.dim = kDim;
  cfg.log_delta = kLogDelta;
  cfg.clusters = kK;
  cfg.n = 2000;
  cfg.spread = 0.02;
  cfg.skew = 0.0;
  Rng rng(41);
  PlantedMixture planted = planted_gaussian_mixture(cfg, rng);
  MixtureConfig extra_cfg = cfg;
  extra_cfg.n = 700;
  const PointSet extra = gaussian_mixture(extra_cfg, rng);

  Workload w;
  w.survivors = std::move(planted.points);
  Rng order(42);
  w.random_order = churn_stream(w.survivors, extra, ChurnConfig{}, order);
  ChurnConfig peak;
  peak.adversarial = true;  // all inserts, then the extras' deletes
  w.delete_after_peak = churn_stream(w.survivors, extra, peak, order);

  std::vector<PointSet> centers = {planted.centers};
  for (const std::uint64_t seed : {7u, 8u}) {
    Rng seeding(seed);
    centers.push_back(kmeanspp_seed(w.survivors, kK, params.r, seeding));
  }
  const double n = static_cast<double>(w.survivors.size());
  const double relax = 1.0 + params.eta;
  for (const PointSet& z : centers) {
    for (const double slack : {1.0, 1.2}) {
      Probe p;
      p.centers = z;
      p.t = slack * std::ceil(n / kK);
      p.full_cost = capacitated_cost(w.survivors, z, p.t, params.r);
      p.full_relaxed_cost = capacitated_cost(w.survivors, z, p.t * relax * relax, params.r);
      w.probes.push_back(std::move(p));
    }
  }
  return w;
}

StreamingOptions sketch_options() {
  StreamingOptions opt;
  opt.log_delta = kLogDelta;
  opt.max_points = 8000;
  opt.prune_interval = 256;
  opt.countmin_width = 64;
  return opt;
}

/// Checks the two ratios of `summary` at every probe.
void expect_inside_envelope(const Coreset& summary, const Workload& w,
                            const CoresetParams& params) {
  const double n = static_cast<double>(w.survivors.size());
  const double weight = summary.total_weight();
  ASSERT_GT(weight, 0.0);
  for (const Probe& p : w.probes) {
    const double s_cost = capacitated_cost(summary.points, p.centers,
                                           p.t * weight / n * (1.0 + params.eta), params.r);
    ASSERT_LT(s_cost, kInfCost) << "summary infeasible at t = " << p.t;
    const double upper = s_cost / p.full_cost;
    const double lower = s_cost / p.full_relaxed_cost;
    EXPECT_LE(upper, 1.0 + params.epsilon) << "t = " << p.t;
    EXPECT_GE(lower, 1.0 / (1.0 + params.epsilon)) << "t = " << p.t;
  }
}

TEST(SketchSweep, ShardedEngineStaysInsideTheEnvelopeOfOneBuilder) {
  const CoresetParams params = CoresetParams::practical(kK, LrOrder{2.0}, 0.2, 0.2);
  const Workload w = make_workload(params);
  const double step = std::log(params.guess_factor) + 1e-9;
  for (const bool peak_order : {false, true}) {
    const Stream& stream = peak_order ? w.delete_after_peak : w.random_order;
    SCOPED_TRACE(peak_order ? "delete-after-peak order" : "random churn order");
    StreamingCoresetBuilder single(kDim, params, sketch_options());
    single.consume(EventBatch(stream, kDim));
    const StreamingResult reference = single.finalize();
    ASSERT_TRUE(reference.ok);
    ASSERT_EQ(single.net_count(), w.survivors.size());
    expect_inside_envelope(reference.coreset, w, params);

    for (const int shards : {1, 2, 4, 8}) {
      for (const int workers : {1, 2, 3}) {
        SCOPED_TRACE(testing::Message() << shards << " shards, " << workers << " workers");
        EngineOptions eopt;
        eopt.num_shards = shards;
        eopt.worker_threads = workers;
        eopt.streaming = sketch_options();
        ClusteringEngine engine(kDim, params, eopt);
        engine.submit(stream);
        EngineQuery q;
        q.summary_only = true;
        const EngineQueryResult got = engine.query(q);
        engine.shutdown();
        ASSERT_TRUE(got.ok) << got.error;
        ASSERT_EQ(got.net_points, w.survivors.size());
        EXPECT_LE(std::abs(std::log(got.summary.o / reference.coreset.o)), step)
            << "engine o " << got.summary.o << " vs single builder " << reference.coreset.o;
        expect_inside_envelope(got.summary, w, params);
      }
    }
  }
}

}  // namespace
}  // namespace skc
