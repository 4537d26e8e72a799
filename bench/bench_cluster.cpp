// E16 — Multi-node serving (ClusterCoordinator + worker processes): the
// measured Theorem 4.7 communication law, ingest scaling, and failover
// cost, over real processes and real loopback TCP.
//
// Phase 1 (communication): W=2 workers ingest n and then 10n events; the
//   per-query protocol bytes (kMergeSketch round) must NOT grow with n —
//   the sketches are O~(k/eta + d poly(eps^-1 eta^-1 k log Delta)) each,
//   independent of the stream length.  The phase also cross-checks the two
//   ledgers: real bytes moved by the coordinator's sockets vs. the
//   in-process dist/Network accounting at frame_wire_bytes() granularity —
//   they must agree within 10% per worker, which certifies that the
//   simulated-coordinator numbers reported elsewhere (bench_distributed)
//   describe what a real deployment pays.
// Phase 2 (scaling): wall-clock ingest rate for W=2 vs W=4 workers against
//   a single in-process engine on the same stream (the E13/E14 baseline).
// Phase 3 (failover): SIGKILL one of three workers mid-run; the
//   checkpoint + replay recovery must keep every surviving point and
//   answer the next query within the coreset epsilon of a never-failed
//   cluster run; the query latency is taken over 20 post-failover queries.
//
// Run with `bench_cluster smoke` for the CI-sized variant (same code
// paths, ~1/10 the events); scripts/check.sh uses it as the multi-process
// smoke test.  Results additionally land in BENCH_cluster.json.
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.h"

using namespace skc;
using namespace skc::bench;

namespace {

constexpr int kDim = 2;
constexpr int kK = 4;
constexpr int kLogDelta = 6;
constexpr std::size_t kBatchPoints = 512;
constexpr double kEps = 0.3;
/// Post-failover queries timed for the failover record's percentiles.
constexpr int kFailoverQueries = 20;

// The serving configuration both sides of the handshake must derive the
// same fingerprint from: an o-range hint shrinks the guess grid as in E14,
// but the sketch sizes stay at their defaults — the full-size sweep piles
// ~50 duplicates onto every cell of the 2^6-grid, which saturates the
// small E14 CountMin.
StreamingOptions cluster_streaming() {
  StreamingOptions opt;
  opt.log_delta = kLogDelta;
  opt.o_min = 1e6;
  opt.o_max = 2.56e8;
  return opt;
}

CoresetParams cluster_params() {
  return CoresetParams::practical(kK, LrOrder{2.0}, kEps, kEps);
}

bool spawn_worker(cluster::WorkerProcess& w) {
  cluster::WorkerProcessOptions opt;
  opt.binary = SKC_CLI_BIN;
  opt.args = {"worker", std::to_string(kDim), std::to_string(kK), "2",
              std::to_string(kLogDelta), "--eps", "0.3", "--eta", "0.3",
              "--seed", "20230614", "--queue-capacity", "8192",
              "--o-min", "1e6", "--o-max", "2.56e8"};
  return w.spawn(opt);
}

cluster::CoordinatorOptions coordinator_options(
    const std::vector<cluster::WorkerProcess*>& ws) {
  cluster::CoordinatorOptions copts;
  copts.dim = kDim;
  copts.params = cluster_params();
  copts.streaming = cluster_streaming();
  for (const cluster::WorkerProcess* w : ws) {
    copts.workers.push_back({"127.0.0.1", w->port()});
  }
  return copts;
}

Stream random_stream(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t max_coord = std::uint64_t{1} << kLogDelta;
  Stream s;
  s.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    Point p(kDim);
    for (Coord& x : p) x = static_cast<Coord>(1 + rng.next_below(max_coord));
    s.push_back({StreamOp::kInsert, std::move(p)});
  }
  return s;
}

/// Ingests `stream` through the coordinator in kBatchPoints batches and
/// fences with flush(); returns the wall milliseconds.
double ingest(cluster::ClusterCoordinator& coord, const Stream& stream) {
  Timer timer;
  for (std::size_t at = 0; at < stream.size(); at += kBatchPoints) {
    const std::size_t end = std::min(stream.size(), at + kBatchPoints);
    if (!coord.submit(EventBatch(std::span(stream).subspan(at, end - at), kDim))) {
      std::fprintf(stderr, "FAIL: cluster rejected an ingest batch\n");
      std::exit(1);
    }
  }
  coord.flush();
  return timer.millis();
}

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  } else {
    std::printf("PASS: %s\n", what);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && !std::strcmp(argv[1], "smoke");
  const std::int64_t base_n = smoke ? 2'000 : 20'000;
  JsonReport report("cluster");

  // -------------------------------------------------------------------------
  header("E16: Theorem 4.7 communication — query bytes vs. stream size",
         "one merge round ships W sketches of size independent of n; the "
         "dist/Network accounting matches real bytes on the wire");
  row("%-10s %10s %14s %14s %14s", "stream_n", "workers", "query_bytes",
      "ledger_bytes", "wire_bytes");
  std::int64_t query_bytes_at[2] = {0, 0};
  for (int scale = 0; scale < 2; ++scale) {
    const std::int64_t n = scale == 0 ? base_n : 10 * base_n;
    cluster::WorkerProcess w0, w1;
    if (!spawn_worker(w0) || !spawn_worker(w1)) {
      std::fprintf(stderr, "spawn failed: %s %s\n", w0.error().c_str(),
                   w1.error().c_str());
      return 1;
    }
    cluster::ClusterCoordinator coord(coordinator_options({&w0, &w1}));
    std::string error;
    if (!coord.connect(error)) {
      std::fprintf(stderr, "connect failed: %s\n", error.c_str());
      return 1;
    }
    const Stream stream = random_stream(n, 40 + static_cast<std::uint64_t>(scale));
    const double ingest_ms = ingest(coord, stream);

    const cluster::ClusterMetrics before = coord.metrics();
    const EngineQueryResult res = coord.query({});
    const cluster::ClusterMetrics after = coord.metrics();
    check(res.ok && res.net_points == n, "cluster query covers the stream");
    const std::int64_t query_bytes = after.protocol_bytes - before.protocol_bytes;
    query_bytes_at[scale] = query_bytes;

    // Ledger cross-check, per worker: everything the coordinator's sockets
    // moved must be accounted in protocol_net_ + ingest_net_ within 10%.
    std::int64_t ledger_total = 0, wire_total = 0;
    for (std::size_t wk = 0; wk < after.worker_wire_bytes.size(); ++wk) {
      const std::int64_t ledger = after.worker_protocol_bytes[wk] +
                                  after.worker_ingest_bytes[wk];
      const std::int64_t wire = after.worker_wire_bytes[wk];
      ledger_total += ledger;
      wire_total += wire;
      const double rel =
          std::fabs(static_cast<double>(wire - ledger)) /
          static_cast<double>(std::max<std::int64_t>(wire, 1));
      char what[128];
      std::snprintf(what, sizeof(what),
                    "worker %zu ledger within 10%% of wire (off by %.1f%%)",
                    wk, 100.0 * rel);
      check(rel <= 0.10, what);
    }
    row("%-10lld %10d %14lld %14lld %14lld", static_cast<long long>(n), 2,
        static_cast<long long>(query_bytes),
        static_cast<long long>(ledger_total),
        static_cast<long long>(wire_total));
    report.record()
        .kv("series", "communication")
        .kv("stream_n", n)
        .kv("workers", 2)
        .kv("ingest_ms", ingest_ms)
        .kv("events_per_s", 1e3 * static_cast<double>(n) / ingest_ms)
        .kv("query_protocol_bytes", query_bytes)
        .kv("ledger_bytes", ledger_total)
        .kv("wire_bytes", wire_total)
        .kv("ingest_bytes", after.ingest_bytes);
    coord.shutdown_workers();
  }
  {
    // The headline assertion: 10x the stream, flat merge-round bytes.
    // (Tolerance absorbs heartbeat frames that tick during the query.)
    const double growth = static_cast<double>(query_bytes_at[1]) /
                          static_cast<double>(std::max<std::int64_t>(
                              query_bytes_at[0], 1));
    char what[128];
    std::snprintf(what, sizeof(what),
                  "query bytes independent of n (10x stream -> %.2fx bytes)",
                  growth);
    check(growth <= 1.25, what);
    report.record()
        .kv("series", "communication_flatness")
        .kv("bytes_growth_at_10x_n", growth);
  }

  // -------------------------------------------------------------------------
  header("E16: ingest scaling — W workers vs. one in-process engine",
         "forwarded ingest pays one TCP hop; more workers absorb it in "
         "parallel (compare the E13/E14 single-node baselines)");
  const Stream scale_stream = random_stream(2 * base_n, 99);
  double single_ms = 0.0;
  {
    EngineOptions opts;
    opts.num_shards = 2;
    opts.streaming = cluster_streaming();
    ClusteringEngine engine(kDim, cluster_params(), opts);
    Timer timer;
    engine.submit(scale_stream);
    engine.flush();
    single_ms = timer.millis();
    engine.shutdown();
  }
  row("%-10s %10s %12s %12s %8s", "setup", "events", "wall_ms", "events/s",
      "vs_1node");
  row("%-10s %10lld %12.0f %12.0f %8s", "engine",
      static_cast<long long>(scale_stream.size()), single_ms,
      1e3 * static_cast<double>(scale_stream.size()) / single_ms, "1.00");
  report.record()
      .kv("series", "scaling")
      .kv("setup", "single_engine")
      .kv("events", static_cast<std::int64_t>(scale_stream.size()))
      .kv("wall_ms", single_ms)
      .kv("events_per_s",
          1e3 * static_cast<double>(scale_stream.size()) / single_ms);
  for (const int nworkers : {2, 4}) {
    std::vector<cluster::WorkerProcess> procs(
        static_cast<std::size_t>(nworkers));
    std::vector<cluster::WorkerProcess*> ptrs;
    for (auto& w : procs) {
      if (!spawn_worker(w)) {
        std::fprintf(stderr, "spawn failed: %s\n", w.error().c_str());
        return 1;
      }
      ptrs.push_back(&w);
    }
    cluster::ClusterCoordinator coord(coordinator_options(ptrs));
    std::string error;
    if (!coord.connect(error)) {
      std::fprintf(stderr, "connect failed: %s\n", error.c_str());
      return 1;
    }
    const double ms = ingest(coord, scale_stream);
    const EngineQueryResult res = coord.query({});
    check(res.ok &&
              res.net_points == static_cast<std::int64_t>(scale_stream.size()),
          "scaled cluster answers over the full stream");
    char label[32];
    std::snprintf(label, sizeof(label), "cluster_w%d", nworkers);
    row("%-10s %10lld %12.0f %12.0f %8.2f", label,
        static_cast<long long>(scale_stream.size()), ms,
        1e3 * static_cast<double>(scale_stream.size()) / ms, single_ms / ms);
    report.record()
        .kv("series", "scaling")
        .kv("setup", label)
        .kv("workers", nworkers)
        .kv("events", static_cast<std::int64_t>(scale_stream.size()))
        .kv("wall_ms", ms)
        .kv("events_per_s",
            1e3 * static_cast<double>(scale_stream.size()) / ms)
        .kv("speedup_vs_single", single_ms / ms);
    coord.shutdown_workers();
  }

  // -------------------------------------------------------------------------
  header("E16: failover — SIGKILL one of three workers mid-run",
         "member checkpoint + replay hand the dead worker's slice to a "
         "survivor; the next query stays within the coreset epsilon");
  const Stream fo_stream = random_stream(2 * base_n, 123);
  double cost_clean = 0.0;
  {
    cluster::WorkerProcess w0, w1, w2;
    if (!spawn_worker(w0) || !spawn_worker(w1) || !spawn_worker(w2)) return 1;
    cluster::ClusterCoordinator coord(coordinator_options({&w0, &w1, &w2}));
    std::string error;
    if (!coord.connect(error)) {
      std::fprintf(stderr, "connect failed: %s\n", error.c_str());
      return 1;
    }
    ingest(coord, fo_stream);
    const EngineQueryResult res = coord.query({});
    check(res.ok, "clean three-worker run answers");
    cost_clean = res.solution.cost;
    coord.shutdown_workers();
  }
  {
    cluster::WorkerProcess w0, w1, w2;
    if (!spawn_worker(w0) || !spawn_worker(w1) || !spawn_worker(w2)) return 1;
    cluster::CoordinatorOptions copts = coordinator_options({&w0, &w1, &w2});
    copts.heartbeat_interval_ms = 50;
    copts.heartbeat_miss_limit = 2;
    cluster::ClusterCoordinator coord(copts);
    std::string error;
    if (!coord.connect(error)) {
      std::fprintf(stderr, "connect failed: %s\n", error.c_str());
      return 1;
    }
    const std::size_t half = fo_stream.size() / 2;
    ingest(coord, Stream(fo_stream.begin(),
                         fo_stream.begin() + static_cast<long>(half)));
    check(coord.checkpoint_members(), "member checkpoints taken");
    ingest(coord, Stream(fo_stream.begin() + static_cast<long>(half),
                         fo_stream.end()));

    Timer detect;
    w1.kill_hard();
    bool failed_over = false;
    while (detect.millis() < 10'000.0 && !failed_over) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      failed_over = coord.metrics().failovers >= 1;
    }
    const double detect_ms = detect.millis();
    check(failed_over, "failover detected after SIGKILL");

    // The latency figures read the coordinator's own query histogram, which
    // holds exactly the post-failover queries: one sample is no percentile.
    const EngineQueryResult res = coord.query({});
    bool answered = res.ok;
    for (int q = 1; q < kFailoverQueries; ++q) answered = coord.query({}).ok && answered;
    const cluster::ClusterMetrics m = coord.metrics();
    check(answered, "every post-failover query answers");
    check(m.query_latency.count == kFailoverQueries,
          "the query histogram holds the post-failover queries");
    check(res.ok && res.net_points ==
                        static_cast<std::int64_t>(fo_stream.size()),
          "post-failover query covers every surviving point");
    const double ratio = res.solution.cost / cost_clean;
    char what[128];
    std::snprintf(what, sizeof(what),
                  "post-failover cost within epsilon of clean run "
                  "(ratio %.4f)",
                  ratio);
    check(ratio <= 1.0 + kEps && ratio >= 1.0 / (1.0 + kEps), what);
    row("detect+failover: %.0f ms, replayed %lld events, %lld survivors",
        detect_ms, static_cast<long long>(m.replayed_events),
        static_cast<long long>(m.workers_alive));
    row("post-failover query: p50 %.1f ms, p99 %.1f ms over %lld queries",
        m.query_latency.p50_millis(), m.query_latency.p99_millis(),
        static_cast<long long>(m.query_latency.count));
    report.record()
        .kv("series", "failover")
        .kv("events", static_cast<std::int64_t>(fo_stream.size()))
        .kv("detect_ms", detect_ms)
        .kv("replayed_events", m.replayed_events)
        .kv("cost_clean", cost_clean)
        .kv("cost_after_failover", res.solution.cost)
        .kv("cost_ratio", ratio)
        .kv("query_samples", m.query_latency.count)
        .kv("query_p50_ms", m.query_latency.p50_millis())
        .kv("query_p99_ms", m.query_latency.p99_millis());
    coord.shutdown_workers();
  }

  report.write();
  if (failures) {
    std::printf("\n%d CHECK(S) FAILED\n", failures);
    return 1;
  }
  std::printf("\nall checks passed\n");
  return 0;
}
