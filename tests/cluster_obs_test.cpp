// Cluster observability plane end to end: coordinator + `skc_cli worker`
// processes over loopback TCP, tracing on everywhere.  One query
// must produce ONE merged chrome://tracing timeline with a process lane
// per node and a single trace_id spanning the coordinator's drain and the
// workers' request handling — the PR-10 acceptance scenario — plus the
// fleet stats pull (WORKER_STATS) and the flight recorder capturing a
// cluster query without tracing pre-enabled.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "skc/cluster/coordinator.h"
#include "skc/cluster/metrics.h"
#include "skc/cluster/process.h"
#include "skc/coreset/params.h"
#include "skc/coreset/streaming.h"
#include "skc/net/client.h"
#include "skc/obs/flight_recorder.h"
#include "skc/obs/trace.h"
#include "skc/stream/events.h"

namespace skc::cluster {
namespace {

constexpr int kDim = 2;
constexpr int kK = 4;
constexpr int kLogDelta = 6;

class ClusterObsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().clear();
    obs::FlightRecorder::instance().clear();
    obs::FlightRecorder::instance().set_threshold_millis(
        obs::kDefaultSlowQueryMillis);
  }
};

CoordinatorOptions coordinator_options(
    const std::vector<WorkerProcess*>& ws) {
  CoordinatorOptions copts;
  copts.dim = kDim;
  copts.params = CoresetParams::practical(kK, LrOrder{2.0}, 0.3, 0.3);
  copts.streaming.log_delta = kLogDelta;
  copts.streaming.exact_storing = true;
  for (const WorkerProcess* w : ws) {
    copts.workers.push_back({"127.0.0.1", w->port()});
  }
  return copts;
}

bool spawn_traced_worker(WorkerProcess& w) {
  WorkerProcessOptions opt;
  opt.binary = SKC_CLI_BIN;
  opt.args = {"worker", std::to_string(kDim), std::to_string(kK), "2",
              std::to_string(kLogDelta), "--eps", "0.3", "--eta", "0.3",
              "--seed", "20230614", "--queue-capacity", "8192", "--exact",
              "--trace"};
  return w.spawn(opt);
}

EventBatch tiny_stream(int n) {
  EventBatch s(kDim);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t h =
        (static_cast<std::uint64_t>(i) + 1) * 0x9e3779b97f4a7c15ull;
    const Coord p[] = {static_cast<Coord>(1 + (h & 31)),
                       static_cast<Coord>(1 + (h >> 8 & 31))};
    s.push_back(StreamOp::kInsert, p);
  }
  return s;
}

/// All pids whose chrome event objects contain `needle` (scans backwards
/// from each match to the event's "pid" field — our own emitter's layout).
std::set<int> pids_containing(const std::string& json,
                              const std::string& needle) {
  std::set<int> pids;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    const std::size_t pid_at = json.rfind("\"pid\":", at);
    if (pid_at == std::string::npos) continue;
    pids.insert(std::atoi(json.c_str() + pid_at + 6));
  }
  return pids;
}

TEST_F(ClusterObsTest, OneQueryYieldsOneTimelineWithALanePerNode) {
  WorkerProcess w0, w1;
  ASSERT_TRUE(spawn_traced_worker(w0)) << w0.error();
  ASSERT_TRUE(spawn_traced_worker(w1)) << w1.error();

  obs::Tracer::instance().set_enabled(true);
  ClusterCoordinator coord(coordinator_options({&w0, &w1}));
  std::string error;
  ASSERT_TRUE(coord.connect(error)) << error;

  ASSERT_TRUE(coord.submit(tiny_stream(64)));
  coord.flush();
  const EngineQueryResult result = coord.query({});
  ASSERT_TRUE(result.ok) << result.error;

  const std::string json = coord.cluster_trace_json();
  obs::Tracer::instance().set_enabled(false);

  // One process lane per node: coordinator pid 0, workers pid 1 and 2.
  EXPECT_NE(json.find("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                      "\"tid\":0,\"args\":{\"name\":\"coordinator\"}"),
            std::string::npos)
      << json.substr(0, 400);
  for (int pid : {1, 2}) {
    char lane[96];
    std::snprintf(lane, sizeof(lane),
                  "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,", pid);
    EXPECT_NE(json.find(lane), std::string::npos) << "missing lane " << pid;
  }
  EXPECT_NE(json.find("\"workerClockOffsetsMicros\":["), std::string::npos);
  EXPECT_NE(json.find("\"droppedSpans\":"), std::string::npos);

  // The query's trace crosses every process: find the coordinator's
  // cluster_query span, then demand its trace_id appears in events of all
  // three lanes (the workers' "request" spans inherited it off the wire).
  const std::size_t q = json.find("\"name\":\"cluster_query\"");
  ASSERT_NE(q, std::string::npos) << json;
  const std::size_t id_at = json.find("\"trace_id\":\"", q);
  ASSERT_NE(id_at, std::string::npos);
  const std::string trace_id = json.substr(id_at + 12, 18);  // "0x" + 16 hex
  const std::set<int> pids = pids_containing(json, trace_id);
  EXPECT_TRUE(pids.count(0)) << trace_id;
  EXPECT_TRUE(pids.count(1)) << trace_id << " missing from worker 0's lane";
  EXPECT_TRUE(pids.count(2)) << trace_id << " missing from worker 1's lane";

  // RPC spans carry their wire byte counts (readable against Thm 4.7).
  EXPECT_NE(json.find("\"name\":\"rpc:merge_sketch\""), std::string::npos);
  EXPECT_NE(json.find("\"wire_bytes\":"), std::string::npos);

  coord.shutdown_workers();
  EXPECT_EQ(w0.wait(), 0);
  EXPECT_EQ(w1.wait(), 0);
}

TEST_F(ClusterObsTest, FleetStatsMergeWorkerHistograms) {
  WorkerProcess w0, w1;
  ASSERT_TRUE(spawn_traced_worker(w0)) << w0.error();
  ASSERT_TRUE(spawn_traced_worker(w1)) << w1.error();

  ClusterCoordinator coord(coordinator_options({&w0, &w1}));
  std::string error;
  ASSERT_TRUE(coord.connect(error)) << error;
  ASSERT_TRUE(coord.submit(tiny_stream(64)));
  coord.flush();
  ASSERT_TRUE(coord.query({}).ok);

  const FleetStats f = coord.fleet_stats();
  ASSERT_EQ(f.workers.size(), 2u);
  std::int64_t fleet_requests = 0;
  for (const FleetWorker& w : f.workers) {
    EXPECT_TRUE(w.alive) << "worker " << w.id;
    // Every worker served at least the hello + ingest + merge traffic.
    EXPECT_GT(w.stats.net_request.count, 0) << "worker " << w.id;
    fleet_requests += w.stats.net_request.count;
    ASSERT_EQ(w.stats.tenants.size(), 1u);  // single-tenant engines
    EXPECT_GT(w.stats.tenants[0].events, 0);
  }

  const std::string text = fleet_prometheus_text(f);
  EXPECT_NE(text.find("skc_cluster_worker_up{worker=\"0\""),
            std::string::npos);
  char count_line[96];
  std::snprintf(count_line, sizeof(count_line),
                "skc_cluster_op_latency_fleet_seconds_count{"
                "op=\"net_request\"} %lld",
                static_cast<long long>(fleet_requests));
  EXPECT_NE(text.find(count_line), std::string::npos)
      << "bucket-wise merge must preserve the fleet request count\n" << text;

  // The same families arrive over the front door's PROMETHEUS scrape.
  ASSERT_TRUE(coord.start(error)) << error;
  net::SkcClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", coord.port()));
  std::string prom;
  ASSERT_TRUE(client.prometheus_text(prom));
  EXPECT_NE(prom.find("skc_cluster_worker_up"), std::string::npos);
  EXPECT_NE(prom.find("skc_cluster_op_latency_quantile_millis"),
            std::string::npos);
  EXPECT_NE(prom.find("skc_cluster_trace_dropped_spans_total"),
            std::string::npos);

  // CLUSTER_TRACE_DUMP and FLIGHT_RECORDER are served over the wire too.
  std::string merged;
  ASSERT_TRUE(client.cluster_trace_json(merged));
  EXPECT_NE(merged.find("\"traceEvents\":["), std::string::npos);
  std::string flight;
  ASSERT_TRUE(client.flight_recorder_json(flight));
  EXPECT_NE(flight.find("\"records\":["), std::string::npos);

  client.close();
  coord.stop();
  coord.shutdown_workers();
}

TEST_F(ClusterObsTest, FlightRecorderCapturesAClusterQueryWithTracingOff) {
  WorkerProcess w0;
  ASSERT_TRUE(spawn_traced_worker(w0)) << w0.error();

  ASSERT_FALSE(obs::Tracer::enabled());
  obs::FlightRecorder::instance().set_threshold_millis(0.0);  // keep them all

  ClusterCoordinator coord(coordinator_options({&w0}));
  std::string error;
  ASSERT_TRUE(coord.connect(error)) << error;
  ASSERT_TRUE(coord.submit(tiny_stream(32)));
  coord.flush();
  ASSERT_TRUE(coord.query({}).ok);

  const std::vector<obs::FlightRecord> records =
      obs::FlightRecorder::instance().records();
  ASSERT_FALSE(records.empty());
  const obs::FlightRecord& rec = records.back();
  EXPECT_STREQ(rec.op, "cluster_query");
  EXPECT_NE(rec.detail.find("workers=1"), std::string::npos) << rec.detail;
  EXPECT_NE(rec.trace_id, 0u);
  // The capture holds the drain's RPC spans even though tracing was off.
  bool saw_rpc = false;
  for (const obs::TraceEvent& e : rec.spans) {
    EXPECT_EQ(e.trace_id, rec.trace_id) << e.name;
    if (std::string_view(e.name).rfind("rpc:", 0) == 0) saw_rpc = true;
  }
  EXPECT_TRUE(saw_rpc) << "no rpc:* span captured";

  coord.shutdown_workers();
  EXPECT_EQ(w0.wait(), 0);
}

}  // namespace
}  // namespace skc::cluster
