// Fleet-wide Prometheus exposition (src/skc/cluster/metrics.h,
// fleet_prometheus_text): the coordinator-side scrape that merges worker
// WORKER_STATS replies bucket-wise.  Structural tests pin the merge math
// (quantiles come from merged buckets, not averaged per-worker quantiles)
// and a byte-for-byte golden comparison pins the skc_cluster_* families —
// set SKC_REGEN_GOLDEN=1 to rewrite tests/golden/cluster_fleet.prom from
// the current renderer after a reviewed format change.
#include "skc/cluster/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "skc/net/frame.h"
#include "skc/obs/histogram.h"

namespace skc::cluster {
namespace {

/// A fully deterministic fleet: two answering workers with distinct
/// latency profiles and tenant rows, one dead one (scrape gap).
FleetStats golden_fleet() {
  FleetStats f;

  obs::LatencyHistogram submit0, query0, net0;
  for (std::int64_t v : {200, 450, 450, 900}) submit0.record_micros(v);
  for (std::int64_t v : {30'000, 75'000}) query0.record_micros(v);
  for (std::int64_t v : {50, 80, 120}) net0.record_micros(v);

  FleetWorker w0;
  w0.id = 0;
  w0.address = "127.0.0.1:7001";
  w0.alive = true;
  w0.clock_offset_micros = -1500;
  w0.best_rtt_micros = 320;
  w0.stats.submit = net::HistogramWire::from(submit0.snapshot());
  w0.stats.query = net::HistogramWire::from(query0.snapshot());
  w0.stats.net_request = net::HistogramWire::from(net0.snapshot());
  w0.stats.trace_dropped_spans = 2;
  w0.stats.tenants.push_back({"", 500});
  w0.stats.tenants.push_back({"acme", 120});
  f.workers.push_back(std::move(w0));

  obs::LatencyHistogram submit1, query1, checkpoint1;
  for (std::int64_t v : {600, 1'200}) submit1.record_micros(v);
  for (std::int64_t v : {220'000}) query1.record_micros(v);
  for (std::int64_t v : {1'500'000}) checkpoint1.record_micros(v);

  FleetWorker w1;
  w1.id = 1;
  w1.address = "127.0.0.1:7002";
  w1.alive = true;
  w1.clock_offset_micros = 4200;
  w1.best_rtt_micros = 510;
  w1.stats.submit = net::HistogramWire::from(submit1.snapshot());
  w1.stats.query = net::HistogramWire::from(query1.snapshot());
  w1.stats.checkpoint = net::HistogramWire::from(checkpoint1.snapshot());
  w1.stats.trace_dropped_spans = 0;
  w1.stats.tenants.push_back({"", 75});
  f.workers.push_back(std::move(w1));

  FleetWorker w2;  // never heartbeated: offsets unset, stats empty
  w2.id = 2;
  w2.address = "127.0.0.1:7003";
  w2.alive = false;
  f.workers.push_back(std::move(w2));

  return f;
}

TEST(FleetMetrics, MatchesGoldenFile) {
  const std::string path =
      std::string(SKC_GOLDEN_DIR) + "/cluster_fleet.prom";
  const std::string rendered = fleet_prometheus_text(golden_fleet());
  if (std::getenv("SKC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (SKC_REGEN_GOLDEN=1 regenerates it)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(rendered, golden.str())
      << "fleet exposition drifted from " << path
      << " — if intentional, rerun with SKC_REGEN_GOLDEN=1 and review";
}

TEST(FleetMetrics, QuantilesComeFromMergedBucketsNotAveragedQuantiles) {
  // Worker 0: nine fast queries.  Worker 1: one slow one.  The fleet p50
  // must sit in the fast bucket (the merged distribution's median), far
  // from the ~mean an average of per-worker medians would produce.
  obs::LatencyHistogram fast, slow;
  for (int i = 0; i < 9; ++i) fast.record_micros(1'000);
  slow.record_micros(1'000'000);

  FleetStats f;
  FleetWorker w0;
  w0.id = 0;
  w0.alive = true;
  w0.stats.query = net::HistogramWire::from(fast.snapshot());
  f.workers.push_back(std::move(w0));
  FleetWorker w1;
  w1.id = 1;
  w1.alive = true;
  w1.stats.query = net::HistogramWire::from(slow.snapshot());
  f.workers.push_back(std::move(w1));

  obs::HistogramSnapshot merged = fast.snapshot();
  merged.merge(slow.snapshot());
  EXPECT_EQ(merged.count, 10);
  EXPECT_LT(merged.p50_millis(), 10.0);
  EXPECT_GT(merged.p999_millis(), 100.0);

  const std::string text = fleet_prometheus_text(f);
  char want[96];
  std::snprintf(want, sizeof(want),
                "skc_cluster_op_latency_quantile_millis{op=\"query\","
                "q=\"0.5\"} %.6g",
                merged.p50_millis());
  EXPECT_NE(text.find(want), std::string::npos) << text;
  // The merged histogram's count is the sum across workers.
  EXPECT_NE(text.find("skc_cluster_op_latency_fleet_seconds_count{"
                      "op=\"query\"} 10"),
            std::string::npos);
}

TEST(FleetMetrics, DeadWorkersScrapeAsDownWithSentinelOffsets) {
  const std::string text = fleet_prometheus_text(golden_fleet());
  EXPECT_NE(text.find("skc_cluster_worker_up{worker=\"0\","
                      "address=\"127.0.0.1:7001\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("skc_cluster_worker_up{worker=\"2\","
                      "address=\"127.0.0.1:7003\"} 0"),
            std::string::npos);
  // -1 RTT = "no timed probe yet" (documented sentinel, scrapers filter it).
  EXPECT_NE(text.find("skc_cluster_worker_heartbeat_rtt_micros{worker=\"2\"}"
                      " -1"),
            std::string::npos);
  EXPECT_NE(text.find("skc_cluster_worker_clock_offset_micros{worker=\"0\"}"
                      " -1500"),
            std::string::npos);
  // Per-worker and per-tenant label sets from the tenant rows.
  EXPECT_NE(text.find("skc_cluster_tenant_events_total{worker=\"0\","
                      "tenant=\"acme\"} 120"),
            std::string::npos);
  EXPECT_NE(text.find("skc_cluster_tenant_events_total{worker=\"1\","
                      "tenant=\"\"} 75"),
            std::string::npos);
}

TEST(FleetMetrics, EveryLineIsCommentOrSample) {
  const std::string text = fleet_prometheus_text(golden_fleet());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    EXPECT_EQ(line.rfind("skc_cluster_", 0), 0u) << line;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
  }
}

// Replies at the HistogramWire decode bounds: 1,023 of them add up in the
// fleet scrape with no int64 overflow (the UBSan build checks every add),
// and a reply one step past any bound is refused at decode, before the
// merge could overflow.
TEST(FleetMetrics, ExtremeAcceptedRepliesMergeCleanlyAndRepliesPastTheBoundAreRefused) {
  constexpr int kReplies = 1023;
  net::WorkerStatsReply extreme;
  for (net::HistogramWire* h : {&extreme.submit, &extreme.query, &extreme.checkpoint,
                                &extreme.net_request}) {
    h->count = kMaxEvents;
    h->sum_micros = net::HistogramWire::kMaxSumMicros;
    h->min_micros = 1;
    h->max_micros = 1'000'000;
    h->last_micros = 5;
    h->bucket_index = {0, 100,
                       static_cast<std::uint32_t>(obs::kHistogramBuckets - 1)};
    h->bucket_value = {kMaxEvents - 2, 1, 1};
  }
  net::WorkerStatsReply accepted;
  ASSERT_TRUE(accepted.decode(extreme.encode()));

  FleetStats fleet;
  for (int w = 0; w < kReplies; ++w) {
    FleetWorker worker;
    worker.id = w;
    worker.address = "10.0.0.1:" + std::to_string(7000 + w);
    worker.alive = true;
    worker.stats = accepted;
    fleet.workers.push_back(std::move(worker));
  }
  const std::string text = fleet_prometheus_text(fleet);
  const std::string total = std::to_string(kReplies * kMaxEvents);
  EXPECT_NE(text.find("skc_cluster_op_latency_fleet_seconds_count{op=\"query\"} " + total),
            std::string::npos);
  EXPECT_NE(text.find("skc_cluster_op_latency_fleet_seconds_bucket{op=\"query\",le=\"+Inf\"} " +
                      total),
            std::string::npos);

  const auto refused = [&extreme](auto edit) {
    net::WorkerStatsReply reply = extreme;
    edit(reply.query);
    net::WorkerStatsReply got;
    return !got.decode(reply.encode());
  };
  using W = net::HistogramWire;
  EXPECT_TRUE(refused([](W& h) { h.count = kMaxEvents + 1; }));
  EXPECT_TRUE(refused([](W& h) { h.count = -1; }));
  EXPECT_TRUE(refused([](W& h) { h.sum_micros = W::kMaxSumMicros + 1; }));
  EXPECT_TRUE(refused([](W& h) { h.sum_micros = -1; }));
  EXPECT_TRUE(refused([](W& h) { h.bucket_value = {kMaxEvents + 1, 0, 0}; }));
  EXPECT_TRUE(refused([](W& h) { h.bucket_value = {kMaxEvents, -1, 1}; }));
  EXPECT_TRUE(refused([](W& h) { h.bucket_value[2] = 2; }));  // total 2^53 + 1
  EXPECT_FALSE(refused([](W& h) { h.bucket_value = {kMaxEvents, 0, 0}; }));
}

}  // namespace
}  // namespace skc::cluster
