// E13 — Serving engine (ClusteringEngine): sharded ingest throughput and
// query latency under concurrent load.
//
// Series 1: the same churn stream is pushed by 4 producer threads into
//   engines with 1/2/4/8 shards; throughput = events applied per second
//   from first submit to flush() (the epoch barrier).  The sketch is linear,
//   so more shards = more independent builders absorbing the same stream.
// Series 2: with ingest running, barrier-less clustering queries finalize
//   the live shard sketches in place and solve concurrently; we report
//   per-query merge (lock wait + finalize)/solve/total latency and the
//   ingest throughput sustained while querying.
// E17: the single-shard batched drain's throughput and coreset quality.
#include <algorithm>
#include <thread>

#include "bench_util.h"

using namespace skc;
using namespace skc::bench;

namespace {

Stream make_stream(PointIndex n, int k, int dim, int log_delta) {
  const PointSet survivors = standard_workload(n, k, dim, log_delta, 1.3, 7);
  const PointSet extra =
      standard_workload(n / 4, k, dim, log_delta, 1.3, 8);
  ChurnConfig churn;
  Rng rng(11);
  return churn_stream(survivors, extra, churn, rng);
}

EngineOptions engine_options(int shards, int log_delta, std::size_t events) {
  EngineOptions opt;
  opt.num_shards = shards;
  opt.queue_capacity = 8192;
  opt.streaming.log_delta = log_delta;
  // Bound for the whole stream so every shard count uses the same o-grid.
  opt.streaming.max_points = static_cast<PointIndex>(events);
  return opt;
}

/// Pushes stream[begin..end) slices from `producers` threads and joins.
void multi_producer_submit(ClusteringEngine& engine, const Stream& stream,
                           int producers) {
  std::vector<std::thread> threads;
  const std::size_t np = static_cast<std::size_t>(producers);
  const std::size_t chunk = (stream.size() + np - 1) / np;
  for (int t = 0; t < producers; ++t) {
    const std::size_t begin =
        std::min(stream.size(), static_cast<std::size_t>(t) * chunk);
    const std::size_t end = std::min(stream.size(), begin + chunk);
    threads.emplace_back([&engine, &stream, begin, end] {
      for (std::size_t i = begin; i < end; ++i) {
        engine.submit(Stream{stream[i]});
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace

int main() {
  const int k = 4;
  const int dim = 2;
  const int log_delta = 12;
  const int producers = 4;
  const PointIndex n = 20000;

  const CoresetParams params =
      CoresetParams::practical(k, LrOrder{2.0}, 0.3, 0.3);
  const Stream stream = make_stream(n, k, dim, log_delta);

  header("E13: engine ingest throughput vs. shard count",
         "the Theorem 4.5 sketch is linear, so sharded ingest scales and the "
         "merged coreset still summarizes the union");
  // Shards only pay off with cores to run them: on a 1-core host the sweep
  // measures sharding *overhead*, while the identical coreset column still
  // certifies the linear merge.
  row("host: %u hardware threads, %d producer threads",
      std::thread::hardware_concurrency(), producers);
  row("%-8s %10s %10s %12s %10s %8s", "shards", "events", "ingest_ms",
      "events/s", "net", "coreset");
  JsonReport report("engine");
  for (int shards : {1, 2, 4, 8}) {
    ClusteringEngine engine(dim, params,
                            engine_options(shards, log_delta, stream.size()));
    Timer timer;
    multi_producer_submit(engine, stream, producers);
    engine.flush();
    const double ms = timer.millis();
    EngineQuery q;
    q.summary_only = true;
    const EngineQueryResult res = engine.query(q);
    row("%-8d %10lld %10.0f %12.0f %10lld %8lld", shards,
        static_cast<long long>(stream.size()), ms,
        1e3 * static_cast<double>(stream.size()) / ms,
        static_cast<long long>(res.net_points),
        static_cast<long long>(res.summary.points.size()));
    const EngineMetrics em = engine.metrics();
    report.record()
        .kv("series", "ingest_vs_shards")
        .kv("shards", shards)
        .kv("events", static_cast<std::int64_t>(stream.size()))
        .kv("ingest_ms", ms)
        .kv("events_per_s", 1e3 * static_cast<double>(stream.size()) / ms)
        .kv("net_points", res.net_points)
        .kv("coreset_points",
            static_cast<std::int64_t>(res.summary.points.size()))
        .kv("submit_p50_ms", em.submit_latency.p50_millis())
        .kv("submit_p99_ms", em.submit_latency.p99_millis())
        .kv("submit_p999_ms", em.submit_latency.p999_millis());
  }

  header("E13: query latency under concurrent ingest",
         "barrier-less queries finalize the live shards in place under every "
         "shard lock, then solve unlocked, while producers keep pushing");
  {
    ClusteringEngine engine(dim, params,
                            engine_options(4, log_delta, 2 * stream.size()));
    // Warm the sketch so the first query sees real state.
    multi_producer_submit(engine, stream, producers);
    engine.flush();

    std::thread ingest([&engine, &stream, producers] {
      multi_producer_submit(engine, stream, producers);
    });
    row("%-8s %10s %10s %10s %10s", "query", "merge_ms", "solve_ms",
        "total_ms", "cost");
    Timer load_timer;
    for (int i = 0; i < 4; ++i) {
      EngineQuery q;
      q.barrier = false;
      Timer timer;
      const EngineQueryResult res = engine.query(q);
      row("%-8d %10.0f %10.0f %10.0f %10.4g", i, res.merge_millis,
          res.solve_millis, timer.millis(),
          res.ok ? res.solution.cost : -1.0);
    }
    ingest.join();
    engine.flush();
    const double load_ms = load_timer.millis();
    row("sustained ingest while querying: %.0f events/s",
        1e3 * static_cast<double>(stream.size()) / load_ms);
    // Quantiles straight from the engine's own per-op histogram — the same
    // buckets metrics_json and the Prometheus exposition report.
    const EngineMetrics em = engine.metrics();
    row("query latency (engine histogram, n=%lld): p50=%.1f ms p99=%.1f ms "
        "p999=%.1f ms max=%.1f ms",
        static_cast<long long>(em.query_latency.count),
        em.query_latency.p50_millis(), em.query_latency.p99_millis(),
        em.query_latency.p999_millis(),
        static_cast<double>(em.query_latency.max_micros) / 1e3);
    engine.shutdown();
    row("metrics: %s", metrics_json(engine.metrics()).c_str());
    report.record()
        .kv("series", "query_under_ingest")
        .kv("shards", 4)
        .kv("events", static_cast<std::int64_t>(stream.size()))
        .kv("events_per_s",
            1e3 * static_cast<double>(stream.size()) / load_ms)
        .kv("query_p50_ms", em.query_latency.p50_millis())
        .kv("query_p99_ms", em.query_latency.p99_millis())
        .kv("query_p999_ms", em.query_latency.p999_millis())
        .kv("query_count", em.query_latency.count);
  }
  header("E17: batched ingest — throughput and coreset quality",
         "the single-shard batched drain (the serving default); coreset "
         "quality must stay within the envelope");
  {
    // Quality is evaluated on a dedicated small stream (n small enough for
    // exact capacitated-cost probes, like bench_streaming); throughput is
    // timed on the full-size stream.
    const PointIndex nq = 2000;
    const PointSet q_survivors =
        standard_workload(nq, k, dim, log_delta, 1.3, 7);
    const Stream q_stream = make_stream(nq, k, dim, log_delta);
    row("%-14s %12s %10s %8s %10s %10s", "mode", "events/s", "ingest_ms",
        "coreset", "q_upper", "q_lower");
    ClusteringEngine engine(dim, params,
                            engine_options(1, log_delta, stream.size()));
    Timer timer;
    multi_producer_submit(engine, stream, producers);
    engine.flush();
    const double ms = timer.millis();
    EngineQuery q;
    q.summary_only = true;
    const EngineQueryResult res = engine.query(q);
    ClusteringEngine q_engine(dim, params,
                              engine_options(1, log_delta, q_stream.size()));
    multi_producer_submit(q_engine, q_stream, producers);
    q_engine.flush();
    const EngineQueryResult q_res = q_engine.query(q);
    QualityEnvelope env;
    if (q_res.ok) {
      env = measure_quality(q_survivors, q_res.summary.points, k, LrOrder{2.0},
                            0.3, log_delta);
    }
    row("%-14s %12.0f %10.0f %8lld %10.3f %10.3f", "exact-batched",
        1e3 * static_cast<double>(stream.size()) / ms, ms,
        res.ok ? static_cast<long long>(res.summary.points.size()) : -1,
        env.upper, env.lower);
    report.record()
        .kv("series", "ingest_mode_sweep")
        .kv("mode", "exact_batched")
        .kv("shards", 1)
        .kv("events", static_cast<std::int64_t>(stream.size()))
        .kv("ingest_ms", ms)
        .kv("events_per_s", 1e3 * static_cast<double>(stream.size()) / ms)
        .kv("coreset_points",
            res.ok ? static_cast<std::int64_t>(res.summary.points.size())
                   : std::int64_t{-1})
        .kv("quality_upper", env.upper)
        .kv("quality_lower", env.lower);
  }
  report.write();
  return 0;
}
