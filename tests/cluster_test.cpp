// Cluster subsystem (src/skc/cluster/): registry liveness state machine,
// the engine's sketch export/import hooks, and the real thing — coordinator
// + worker processes over loopback TCP, including the kill-a-worker
// failover path the design exists for.
//
// The multi-process tests exec `skc_cli worker` (path injected by CMake as
// SKC_CLI_BIN) and run in exact mode on small streams,
// where the merged cluster state is bit-identical to a single engine fed
// the union — so parity assertions can be tight instead of statistical.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include "skc/cluster/coordinator.h"
#include "skc/cluster/process.h"
#include "skc/cluster/registry.h"
#include "skc/coreset/params.h"
#include "skc/coreset/streaming.h"
#include "skc/engine/engine.h"
#include "skc/net/client.h"
#include "skc/stream/events.h"
#include "wire_util.h"

namespace skc::cluster {
namespace {

constexpr int kDim = 2;
constexpr int kK = 4;
constexpr int kLogDelta = 6;

// The workers' configuration (spawn_worker passes it, plus --exact): both
// sides of the WORKER_HELLO handshake must derive the same fingerprint
// from it.
CoresetParams cluster_params() {
  return CoresetParams::practical(kK, LrOrder{2.0}, 0.3, 0.3);
}

StreamingOptions cluster_streaming(bool exact) {
  StreamingOptions opt;
  opt.log_delta = kLogDelta;
  opt.exact_storing = exact;
  return opt;
}

CoordinatorOptions coordinator_options(const std::vector<WorkerProcess*>& ws,
                                       bool exact) {
  CoordinatorOptions copts;
  copts.dim = kDim;
  copts.params = cluster_params();
  copts.streaming = cluster_streaming(exact);
  for (const WorkerProcess* w : ws) {
    copts.workers.push_back({"127.0.0.1", w->port()});
  }
  return copts;
}

bool spawn_worker(WorkerProcess& w, std::vector<std::string> extra = {}) {
  WorkerProcessOptions opt;
  opt.binary = SKC_CLI_BIN;
  opt.args = {"worker", std::to_string(kDim), std::to_string(kK), "2",
              std::to_string(kLogDelta), "--eps", "0.3", "--eta", "0.3",
              "--seed", "20230614", "--queue-capacity", "8192", "--exact"};
  for (std::string& a : extra) opt.args.push_back(std::move(a));
  return w.spawn(opt);
}

// Deterministic dynamic stream over [1, 2^kLogDelta]^2: `n` inserts around
// four well-separated sites, then every fourth point deleted again.
Stream small_stream(int n, std::uint64_t salt) {
  static const Coord sites[4][2] = {{8, 8}, {8, 56}, {56, 8}, {56, 56}};
  Stream s;
  std::vector<Point> alive;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t h = (static_cast<std::uint64_t>(i) + 1) * 0x9e3779b97f4a7c15ull + salt;
    const auto& site = sites[h % 4];
    Point p = {static_cast<Coord>(site[0] + static_cast<Coord>(h >> 8 & 7)),
               static_cast<Coord>(site[1] + static_cast<Coord>(h >> 16 & 7))};
    s.push_back({StreamOp::kInsert, p});
    alive.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < alive.size(); i += 4) {
    s.push_back({StreamOp::kDelete, alive[i]});
  }
  return s;
}

std::int64_t net_count_of(const Stream& s) {
  std::int64_t n = 0;
  for (const StreamEvent& e : s) n += e.op == StreamOp::kInsert ? 1 : -1;
  return n;
}

// Reference run: one in-process engine, identical configuration, fed the
// same stream.  In exact mode its merged state equals the cluster's.
EngineQueryResult reference_query(const Stream& s) {
  EngineOptions opts;
  opts.num_shards = 2;
  opts.streaming = cluster_streaming(true);
  ClusteringEngine engine(kDim, cluster_params(), opts);
  engine.submit(s);
  const EngineQueryResult r = engine.query({});
  engine.shutdown();
  return r;
}

// ---------------------------------------------------------------------------
// WorkerRegistry

TEST(ClusterRegistry, LifecycleAndLiveness) {
  WorkerRegistry reg;
  reg.add(0, "127.0.0.1:1000");
  reg.add(1, "127.0.0.1:1001");
  EXPECT_EQ(reg.size(), 2);
  EXPECT_EQ(reg.alive_count(), 0);  // kConnecting is not alive
  EXPECT_FALSE(reg.alive(0));

  reg.mark_alive(0, /*backlog=*/3, /*net_points=*/10, /*events_applied=*/12);
  EXPECT_TRUE(reg.alive(0));
  EXPECT_EQ(reg.alive_count(), 1);
  const WorkerStatus st = reg.status(0);
  EXPECT_EQ(st.state, WorkerState::kAlive);
  EXPECT_EQ(st.backlog, 3);
  EXPECT_EQ(st.net_points, 10);
  EXPECT_EQ(st.events_applied, 12);
  EXPECT_EQ(st.heartbeats, 1);
  EXPECT_EQ(st.address, "127.0.0.1:1000");
}

TEST(ClusterRegistry, MissedHeartbeatsCrossTheLimitExactlyOnce) {
  WorkerRegistry reg;
  reg.add(0, "w0");
  reg.mark_alive(0, 0, 0, 0);
  EXPECT_FALSE(reg.mark_missed(0, /*miss_limit=*/3));
  EXPECT_FALSE(reg.mark_missed(0, 3));
  EXPECT_TRUE(reg.mark_missed(0, 3));   // third consecutive miss crosses
  EXPECT_FALSE(reg.mark_missed(0, 3));  // already past: do not re-trigger
  // A successful probe resets the counter.
  reg.mark_alive(0, 0, 0, 0);
  EXPECT_EQ(reg.status(0).consecutive_misses, 0);
  EXPECT_FALSE(reg.mark_missed(0, 3));
}

TEST(ClusterRegistry, FirstFailoverClaimantWinsAndDeadStaysDead) {
  WorkerRegistry reg;
  reg.add(0, "w0");
  reg.mark_alive(0, 0, 0, 0);
  EXPECT_TRUE(reg.mark_dead(0));   // heartbeat thread claims...
  EXPECT_FALSE(reg.mark_dead(0));  // ...the failed-forward path loses
  EXPECT_FALSE(reg.alive(0));
  // A stale probe success must not resurrect a failed-over member.
  reg.mark_alive(0, 0, 99, 99);
  EXPECT_FALSE(reg.alive(0));
  EXPECT_EQ(reg.status(0).state, WorkerState::kDead);
  // Misses on a dead worker never re-trigger failover.
  EXPECT_FALSE(reg.mark_missed(0, 1));
}

TEST(ClusterRegistry, PickSurvivorSkipsDeadAndExcluded) {
  WorkerRegistry reg;
  for (int i = 0; i < 3; ++i) {
    reg.add(i, "w");
    reg.mark_alive(i, 0, 0, 0);
  }
  EXPECT_EQ(reg.pick_survivor(/*excluding=*/0), 1);
  reg.mark_dead(1);
  EXPECT_EQ(reg.pick_survivor(0), 2);
  reg.mark_dead(2);
  EXPECT_EQ(reg.pick_survivor(0), -1);  // nobody left but the excluded one
  EXPECT_EQ(reg.pick_survivor(3), 0);
}

TEST(ClusterRegistry, ProgressCountersAccumulate) {
  WorkerRegistry reg;
  reg.add(0, "w0");
  reg.record_forwarded(0, /*events=*/40, /*replay_depth=*/40);
  reg.record_forwarded(0, 10, 50);
  reg.record_snapshot(0, /*snapshot_events=*/50);
  reg.record_failover_absorbed(0);
  const WorkerStatus st = reg.status(0);
  EXPECT_EQ(st.events_forwarded, 50);
  EXPECT_EQ(st.replay_depth, 0);  // snapshot resets the buffered tail
  EXPECT_EQ(st.snapshots, 1);
  EXPECT_EQ(st.snapshot_events, 50);
  EXPECT_EQ(st.failovers_absorbed, 1);
}

// ---------------------------------------------------------------------------
// Engine sketch export/import (the primitives kMergeSketch/kShipSnapshot
// ride on)

TEST(ClusterSketch, ImportFoldsAPeerEngineState) {
  const Stream a = small_stream(80, 1);
  const Stream b = small_stream(60, 2);

  EngineOptions opts;
  opts.num_shards = 2;
  opts.streaming = cluster_streaming(true);
  ClusteringEngine ea(kDim, cluster_params(), opts);
  ClusteringEngine eb(kDim, cluster_params(), opts);
  ea.submit(a);
  eb.submit(b);
  ea.flush();
  eb.flush();

  EngineSketchExport exp = ea.export_sketch();
  EXPECT_EQ(exp.net_points, net_count_of(a));
  EXPECT_EQ(exp.events_applied, static_cast<std::int64_t>(a.size()));
  ASSERT_TRUE(eb.import_sketch(exp.blob));
  EXPECT_EQ(eb.net_count(), net_count_of(a) + net_count_of(b));

  // The adopted state must be queryable, and equal a single engine fed the
  // concatenation (exact mode: the linear merge is bit-identical).
  const EngineQueryResult got = eb.query({});
  ASSERT_TRUE(got.ok) << got.error;
  Stream both = a;
  both.insert(both.end(), b.begin(), b.end());
  const EngineQueryResult want = reference_query(both);
  ASSERT_TRUE(want.ok) << want.error;
  EXPECT_EQ(got.net_points, want.net_points);
  EXPECT_EQ(got.summary.points.size(), want.summary.points.size());
  EXPECT_DOUBLE_EQ(got.solution.cost, want.solution.cost);
  ea.shutdown();
  eb.shutdown();
}

TEST(ClusterSketch, ImportRejectsMismatchedConfiguration) {
  EngineOptions opts;
  opts.streaming = cluster_streaming(true);
  CoresetParams other = cluster_params();
  other.seed += 1;  // different hash seeds -> incompatible sketches
  ClusteringEngine ea(kDim, other, opts);
  ClusteringEngine eb(kDim, cluster_params(), opts);
  const Stream p = {StreamEvent{StreamOp::kInsert, Point{5, 5}}};
  ea.submit(p);
  eb.submit(p);
  ea.flush();
  eb.flush();
  EXPECT_FALSE(eb.import_sketch(ea.export_sketch().blob));
  EXPECT_EQ(eb.net_count(), 1) << "a refused import must leave state intact";
  ea.shutdown();
  eb.shutdown();
}

TEST(ClusterSketch, FingerprintPinsEverySketchShapingKnob) {
  const CoresetParams params = cluster_params();
  const StreamingOptions streaming = cluster_streaming(false);
  const std::uint64_t base =
      engine_config_fingerprint(kDim, params, streaming);
  EXPECT_EQ(base, engine_config_fingerprint(kDim, params, streaming));

  EXPECT_NE(base, engine_config_fingerprint(kDim + 1, params, streaming));
  CoresetParams p2 = params;
  p2.seed += 1;
  EXPECT_NE(base, engine_config_fingerprint(kDim, p2, streaming));
  StreamingOptions s2 = streaming;
  s2.log_delta += 1;
  EXPECT_NE(base, engine_config_fingerprint(kDim, params, s2));
  s2 = streaming;
  s2.exact_storing = true;
  EXPECT_NE(base, engine_config_fingerprint(kDim, params, s2));
}

// ---------------------------------------------------------------------------
// Multi-process: coordinator + `skc_cli worker` processes over loopback TCP

TEST(Cluster, TwoWorkerIngestAndQueryMatchSingleEngine) {
  WorkerProcess w0, w1;
  ASSERT_TRUE(spawn_worker(w0)) << w0.error();
  ASSERT_TRUE(spawn_worker(w1)) << w1.error();

  ClusterCoordinator coord(coordinator_options({&w0, &w1}, /*exact=*/true));
  std::string error;
  ASSERT_TRUE(coord.connect(error)) << error;
  EXPECT_EQ(coord.workers(), 2);

  const Stream stream = small_stream(160, 7);
  ASSERT_TRUE(coord.submit(EventBatch(stream, kDim)));
  coord.flush();

  const EngineQueryResult got = coord.query({});
  ASSERT_TRUE(got.ok) << got.error;
  const EngineQueryResult want = reference_query(stream);
  ASSERT_TRUE(want.ok) << want.error;
  EXPECT_EQ(got.net_points, net_count_of(stream));
  EXPECT_EQ(got.net_points, want.net_points);
  EXPECT_EQ(got.summary.points.size(), want.summary.points.size());
  EXPECT_DOUBLE_EQ(got.solution.cost, want.solution.cost);
  EXPECT_EQ(got.solution.centers.size(),
            static_cast<std::size_t>(want.solution.centers.size()));

  const ClusterMetrics m = coord.metrics();
  EXPECT_EQ(m.workers, 2);
  EXPECT_EQ(m.workers_alive, 2);
  EXPECT_EQ(m.events_forwarded, static_cast<std::int64_t>(stream.size()));
  EXPECT_EQ(m.queries, 1);
  EXPECT_GT(m.ingest_bytes, 0);
  EXPECT_GT(m.protocol_bytes, 0);
  // Both workers saw traffic (the router spreads four well-separated sites).
  ASSERT_EQ(m.worker_ingest_bytes.size(), 2u);
  EXPECT_GT(m.worker_ingest_bytes[0], 0);
  EXPECT_GT(m.worker_ingest_bytes[1], 0);

  coord.shutdown_workers();
  EXPECT_EQ(w0.wait(), 0);
  EXPECT_EQ(w1.wait(), 0);
}

// The coordinator shares the engine's query tail and the reserved type 12:
// a type-12 frame is answered kUnsupported, a query with k above the
// merged summary gets a typed error, and the same front-door connection
// keeps serving.
TEST(Cluster, FrontDoorAnswersReservedTypeAndTinyQueriesOnALiveConnection) {
  WorkerProcess w0;
  ASSERT_TRUE(spawn_worker(w0)) << w0.error();
  ClusterCoordinator coord(coordinator_options({&w0}, /*exact=*/true));
  std::string error;
  ASSERT_TRUE(coord.connect(error)) << error;
  ASSERT_TRUE(coord.start(error)) << error;

  testutil::RawConnection conn(coord.port());
  net::Status status = net::Status::kOk;
  std::string payload;
  ASSERT_TRUE(conn.exchange(
      net::encode_frame(net::MsgType::kReserved12, net::Status::kOk, ""),
      status, payload));
  EXPECT_EQ(status, net::Status::kUnsupported);
  EXPECT_TRUE(conn.ping_echoes());

  net::PointBatch batch;
  batch.dim = kDim;
  batch.coords = {8, 8, 56, 56};
  ASSERT_TRUE(conn.exchange(net::encode_frame(net::MsgType::kInsertBatch,
                                              net::Status::kOk, batch.encode()),
                            status, payload));
  ASSERT_EQ(status, net::Status::kOk);
  ASSERT_TRUE(conn.exchange(net::encode_frame(net::MsgType::kQuery,
                                              net::Status::kOk,
                                              net::QueryRequest{}.encode()),
                            status, payload));
  EXPECT_EQ(status, net::Status::kOk);
  net::QueryReply reply;
  ASSERT_TRUE(reply.decode(payload));
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("k = 4 exceeds"), std::string::npos) << reply.error;
  EXPECT_EQ(reply.net_points, 2);
  EXPECT_TRUE(conn.ping_echoes());

  coord.stop();
  coord.shutdown_workers();
  EXPECT_EQ(w0.wait(), 0);
}

TEST(Cluster, HandshakeRefusesAMisconfiguredWorker) {
  WorkerProcess good, bad;
  ASSERT_TRUE(spawn_worker(good)) << good.error();
  // Different hash seed -> different fingerprint -> must be refused before
  // any sketch crosses the wire.
  ASSERT_TRUE(spawn_worker(bad, {"--seed", "999"})) << bad.error();

  ClusterCoordinator coord(coordinator_options({&good, &bad}, /*exact=*/true));
  std::string error;
  EXPECT_FALSE(coord.connect(error));
  EXPECT_NE(error.find("refused"), std::string::npos) << error;
  good.kill_hard();
  bad.kill_hard();
}

TEST(Cluster, FrontDoorServesTheEngineWireProtocol) {
  WorkerProcess w0, w1;
  ASSERT_TRUE(spawn_worker(w0)) << w0.error();
  ASSERT_TRUE(spawn_worker(w1)) << w1.error();

  ClusterCoordinator coord(coordinator_options({&w0, &w1}, /*exact=*/true));
  std::string error;
  ASSERT_TRUE(coord.connect(error)) << error;
  ASSERT_TRUE(coord.start(error)) << error;

  net::SkcClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", coord.port()));
  EXPECT_TRUE(client.ping());

  const Stream stream = small_stream(100, 3);
  std::vector<Coord> inserts, deletes;
  for (const StreamEvent& e : stream) {
    auto& dst = e.op == StreamOp::kInsert ? inserts : deletes;
    dst.insert(dst.end(), e.point.begin(), e.point.end());
  }
  net::BatchReply ack;
  ASSERT_TRUE(client.insert_batch(kDim, inserts, &ack));
  EXPECT_EQ(ack.accepted, inserts.size() / kDim);
  ASSERT_TRUE(client.delete_batch(kDim, deletes, &ack));

  net::QueryRequest qreq;
  net::QueryReply qrep;
  ASSERT_TRUE(client.query(qreq, qrep));
  ASSERT_TRUE(qrep.ok) << qrep.error;
  EXPECT_EQ(qrep.net_points, net_count_of(stream));
  EXPECT_EQ(qrep.dim, kDim);
  EXPECT_FALSE(qrep.center_coords.empty());

  std::string json;
  ASSERT_TRUE(client.metrics_json(json));
  EXPECT_NE(json.find("\"workers\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"events_forwarded\""), std::string::npos);

  std::string prom;
  ASSERT_TRUE(client.prometheus_text(prom));
  EXPECT_NE(prom.find("skc_cluster_workers 2"), std::string::npos);
  EXPECT_NE(prom.find("worker=\"1\""), std::string::npos);
  EXPECT_NE(prom.find("ledger=\"ingest\""), std::string::npos);

  client.close();
  coord.stop();
  coord.shutdown_workers();
}

// The satellite: SIGKILL a worker mid-stream; the coordinator must detect
// the missed heartbeats, ship the member checkpoint + replay tail to a
// survivor, and keep answering queries over the full dataset.
TEST(Cluster, KillOneWorkerFailsOverWithoutLosingState) {
  WorkerProcess w0, w1, w2;
  ASSERT_TRUE(spawn_worker(w0)) << w0.error();
  ASSERT_TRUE(spawn_worker(w1)) << w1.error();
  ASSERT_TRUE(spawn_worker(w2)) << w2.error();

  CoordinatorOptions copts =
      coordinator_options({&w0, &w1, &w2}, /*exact=*/true);
  copts.heartbeat_interval_ms = 50;
  copts.heartbeat_miss_limit = 2;
  ClusterCoordinator coord(copts);
  std::string error;
  ASSERT_TRUE(coord.connect(error)) << error;

  const Stream stream = small_stream(180, 13);
  const std::size_t half = stream.size() / 2;
  ASSERT_TRUE(coord.submit(EventBatch(std::span(stream).first(half), kDim)));
  coord.flush();
  // Member checkpoints cover the first half; the second half lands in the
  // replay buffers until the next refresh.
  ASSERT_TRUE(coord.checkpoint_members());
  ASSERT_TRUE(coord.submit(EventBatch(std::span(stream).subspan(half), kDim)));
  coord.flush();

  w1.kill_hard();
  // Wait for heartbeat-driven detection + failover (50ms probes, 2 misses).
  bool failed_over = false;
  for (int i = 0; i < 200 && !failed_over; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    failed_over = coord.metrics().failovers >= 1;
  }
  ASSERT_TRUE(failed_over) << "failover not detected within 5s";

  const ClusterMetrics m = coord.metrics();
  EXPECT_EQ(m.workers_alive, 2);
  EXPECT_GT(m.replayed_events, 0) << "the post-checkpoint tail must replay";

  // The cluster keeps ingesting and still owns every surviving point.
  const Coord extra[] = {30, 30};
  EventBatch one(kDim);
  one.push_back(StreamOp::kInsert, extra);
  ASSERT_TRUE(coord.submit(one));
  coord.flush();
  const EngineQueryResult got = coord.query({});
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_EQ(got.net_points, net_count_of(stream) + 1);

  // Cost parity with a never-failed run: exact mode makes snapshot+replay
  // reconstruction lossless, so the merged coreset — and the seeded solver
  // on it — must match a single engine fed the same stream.
  Stream full = stream;
  full.push_back({StreamOp::kInsert, {30, 30}});
  const EngineQueryResult want = reference_query(full);
  ASSERT_TRUE(want.ok) << want.error;
  EXPECT_EQ(got.net_points, want.net_points);
  EXPECT_EQ(got.summary.points.size(), want.summary.points.size());
  EXPECT_NEAR(got.solution.cost, want.solution.cost,
              1e-9 * (1.0 + want.solution.cost));

  coord.shutdown_workers();
}

TEST(ClusterProcess, SpawnReportsPortAndKillIsObservable) {
  WorkerProcess w;
  ASSERT_TRUE(spawn_worker(w)) << w.error();
  EXPECT_GT(w.port(), 0);
  EXPECT_TRUE(w.running());
  w.kill_hard();
  EXPECT_NE(w.wait(), 0);  // died by signal, not a clean exit
  EXPECT_FALSE(w.running());
}

TEST(ClusterProcess, SpawnFailsCleanlyOnABadBinary) {
  WorkerProcess w;
  WorkerProcessOptions opt;
  opt.binary = "/nonexistent/skc-no-such-binary";
  opt.args = {"worker"};
  opt.start_timeout_ms = 2000;
  EXPECT_FALSE(w.spawn(opt));
  EXPECT_FALSE(w.error().empty());
}

// A query finalizes the workers' sketches at the coordinator, so it refuses
// a dimension above the finalize walk's limit when it is made, before it
// dials any worker.
TEST(ClusterDeathTest, DimensionAboveTheWalkLimitAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  CoordinatorOptions copts = coordinator_options({}, /*exact=*/true);
  copts.dim = HierarchicalGrid::kMaxWalkDim + 1;
  copts.workers.push_back({"127.0.0.1", 1});
  EXPECT_DEATH(ClusterCoordinator coordinator(copts), "dimension too large");
}

}  // namespace
}  // namespace skc::cluster
