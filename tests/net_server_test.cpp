// EngineServer + SkcClient over loopback: the network round trip must be a
// semantics-free transport — a stream shipped through TCP frames produces
// exactly the state of an identical in-process engine — and the server must
// survive arbitrarily hostile bytes (truncated headers, bad magic,
// over-limit lengths, mid-frame disconnects) and keep serving.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "skc/engine/engine.h"
#include "skc/net/client.h"
#include "skc/net/frame.h"
#include "skc/net/server.h"
#include "skc/net/socket.h"
#include "skc/obs/trace.h"
#include "skc/stream/generators.h"
#include "test_util.h"
#include "wire_util.h"

namespace skc {
namespace {

constexpr int kDim = 2;
constexpr int kLogDelta = 9;

CoresetParams test_params() {
  return CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
}

EngineOptions engine_options() {
  // Exact mode: every structure is a plain linear map, so a network-fed
  // engine and an in-process twin must agree bit-for-bit.
  EngineOptions opt;
  opt.num_shards = 2;
  opt.worker_threads = 2;
  opt.streaming.log_delta = kLogDelta;
  opt.streaming.max_points = 4000;
  opt.streaming.exact_storing = true;
  opt.streaming.distinct_budget = 1 << 20;
  opt.streaming.prune_interval = 0;
  return opt;
}

Stream churn_workload(int base_n, int extra_n, std::uint64_t seed) {
  MixtureConfig cfg;
  cfg.dim = kDim;
  cfg.log_delta = kLogDelta;
  cfg.clusters = 3;
  cfg.n = base_n;
  cfg.spread = 0.02;
  cfg.skew = 1.0;
  Rng rng(seed);
  PointSet base = gaussian_mixture(cfg, rng);
  cfg.n = extra_n;
  PointSet extra = gaussian_mixture(cfg, rng);
  Rng srng(seed + 1);
  return churn_stream(base, extra, ChurnConfig{}, srng);
}

/// Ships a stream through the client as insert/delete batches of at most
/// `chunk` points (the sketch is linear, so op grouping preserves state).
void ship_stream(net::SkcClient& client, const Stream& stream,
                 std::size_t chunk) {
  std::vector<Coord> ins, del;
  const auto flush = [&](std::vector<Coord>& coords, bool insert) {
    if (coords.empty()) return;
    const bool ok = insert ? client.insert_batch(kDim, coords)
                           : client.delete_batch(kDim, coords);
    ASSERT_TRUE(ok) << client.last_error();
    coords.clear();
  };
  for (const StreamEvent& ev : stream) {
    std::vector<Coord>& coords = ev.op == StreamOp::kInsert ? ins : del;
    coords.insert(coords.end(), ev.point.begin(), ev.point.end());
    if (coords.size() >= chunk * static_cast<std::size_t>(kDim)) {
      flush(coords, ev.op == StreamOp::kInsert);
    }
  }
  flush(ins, true);
  flush(del, false);
}

struct ServerFixture {
  ClusteringEngine engine;
  net::EngineServer server;

  explicit ServerFixture(const net::ServerOptions& opts = {})
      : engine(kDim, test_params(), engine_options()), server(engine, opts) {
    std::string error;
    started = server.start(error);
    EXPECT_TRUE(started) << error;
  }
  bool started = false;
};

// --------------------------------------------------------------------------
// The headline integration property.

TEST(NetServer, LoopbackRoundTripMatchesInProcessEngine) {
  const Stream stream = churn_workload(900, 400, 21);

  ClusteringEngine reference(kDim, test_params(), engine_options());
  for (const StreamEvent& ev : stream) reference.submit(Stream{ev});
  reference.flush();

  ServerFixture fx;
  ASSERT_TRUE(fx.started);
  net::SkcClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fx.server.port()))
      << client.last_error();
  ASSERT_TRUE(client.ping()) << client.last_error();
  ship_stream(client, stream, 256);

  // Same epoch, same sketch: the wire query (barrier) must agree with the
  // in-process query on the surviving count, the summary size, and the
  // solved centers.
  EngineQuery q;
  const EngineQueryResult want = reference.query(q);
  ASSERT_TRUE(want.ok) << want.error;

  net::QueryRequest request;
  net::QueryReply got;
  ASSERT_TRUE(client.query(request, got)) << client.last_error();
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_EQ(got.net_points, want.net_points);
  EXPECT_EQ(got.summary_points,
            static_cast<std::uint64_t>(want.summary.points.size()));
  EXPECT_DOUBLE_EQ(got.capacity, want.capacity);
  EXPECT_EQ(got.feasible, want.solution.feasible);
  EXPECT_EQ(got.dim, kDim);
  PointSet got_centers(kDim);
  for (std::size_t c = 0; c + kDim <= got.center_coords.size(); c += kDim) {
    got_centers.push_back(
        std::span<const Coord>(got.center_coords.data() + c, kDim));
  }
  EXPECT_EQ(testutil::canonical_multiset(got_centers),
            testutil::canonical_multiset(want.solution.centers));

  // Checkpoint RPC: the server-side snapshot restores into a fresh engine
  // whose merged summary is bit-identical to the in-process reference.
  const std::string snap = testutil::temp_path("net_server_ckpt.bin");
  ASSERT_TRUE(client.checkpoint(snap)) << client.last_error();
  ClusteringEngine restored(kDim, test_params(), engine_options());
  ASSERT_TRUE(restored.restore(snap));
  EngineQuery summary;
  summary.summary_only = true;
  const EngineQueryResult a = restored.query(summary);
  const EngineQueryResult b = reference.query(summary);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(testutil::canonical_multiset(a.summary.points),
            testutil::canonical_multiset(b.summary.points));

  // Transport metrics saw this session.
  const EngineMetrics m = fx.server.metrics();
  EXPECT_GE(m.net_connections_total, 1);
  EXPECT_GT(m.net_bytes_in, 0);
  EXPECT_GT(m.net_bytes_out, 0);
  const auto by_type = [&m](net::MsgType t) {
    return m.net_requests_by_type[static_cast<std::size_t>(t)];
  };
  EXPECT_EQ(by_type(net::MsgType::kPing), 1);
  EXPECT_EQ(by_type(net::MsgType::kQuery), 1);
  EXPECT_EQ(by_type(net::MsgType::kCheckpoint), 1);
  std::string json;
  ASSERT_TRUE(client.metrics_json(json)) << client.last_error();
  EXPECT_NE(json.find("\"net_connections_total\""), std::string::npos);
  EXPECT_NE(json.find("\"net_requests_by_type\""), std::string::npos);

  reference.shutdown();
  restored.shutdown();
}

// --------------------------------------------------------------------------
// Hostile peers.

/// Opens a raw loopback connection, writes `bytes` verbatim, optionally
/// reads one reply header, and closes.  Uses the library's own Socket
/// helpers, so no raw socket API leaks into the test.
net::Status inject(std::uint16_t port, std::string_view bytes,
                   bool read_reply) {
  std::string error;
  net::Socket s = net::connect_to("127.0.0.1", port, 2000, error);
  EXPECT_TRUE(s.valid()) << error;
  if (!s.valid()) return net::Status::kOk;
  if (!bytes.empty()) {
    EXPECT_EQ(net::send_exact(s, bytes.data(), bytes.size(), 2000),
              net::IoResult::kOk);
  }
  if (!read_reply) return net::Status::kOk;  // slam the connection shut
  char header[net::kFrameHeaderBytes];
  EXPECT_EQ(net::recv_exact(s, header, sizeof(header), 5000),
            net::IoResult::kOk);
  net::FrameHeader h;
  EXPECT_EQ(net::decode_header(std::string_view(header, sizeof(header)), h),
            net::Status::kOk);
  return h.status;
}

// A CHECKPOINT without a path is a request the engine cannot serve, not a
// broken peer: it gets a typed engine error on a live connection and does
// not count as a malformed frame.
TEST(NetServer, BareCheckpointIsAnEngineErrorNotAMalformedFrame) {
  ServerFixture fx;
  ASSERT_TRUE(fx.started);
  net::SkcClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fx.server.port())) << client.last_error();
  EXPECT_FALSE(client.checkpoint(""));
  EXPECT_EQ(client.last_status(), net::Status::kEngineError);
  EXPECT_NE(client.last_error().find("checkpoint needs a path"), std::string::npos)
      << client.last_error();
  EXPECT_TRUE(client.ping()) << client.last_error();
  EXPECT_EQ(fx.server.metrics().net_malformed_frames, 0);
}

TEST(NetServer, MalformedFramesNeverKillTheServer) {
  ServerFixture fx;
  ASSERT_TRUE(fx.started);
  const std::uint16_t port = fx.server.port();
  const std::string valid =
      net::encode_frame(net::MsgType::kPing, net::Status::kOk, "x");

  // Truncated header, then disconnect.
  inject(port, valid.substr(0, 5), false);
  // Bad magic: diagnostic reply, then the server closes the connection.
  {
    std::string bad = valid;
    bad[0] = 'X';
    EXPECT_EQ(inject(port, bad, true), net::Status::kMalformed);
  }
  // Unknown version.
  {
    std::string bad = valid;
    bad[4] = 9;
    EXPECT_EQ(inject(port, bad, true), net::Status::kUnsupported);
  }
  // Over-limit announced length.
  {
    std::string bad = valid.substr(0, net::kFrameHeaderBytes);
    const std::uint32_t huge = net::kMaxPayloadBytes + 1;
    std::memcpy(bad.data() + 8, &huge, sizeof(huge));
    EXPECT_EQ(inject(port, bad, true), net::Status::kTooLarge);
  }
  // Mid-frame disconnect: header announces 64 payload bytes, 3 arrive.
  {
    std::string partial =
        net::encode_frame(net::MsgType::kQuery, net::Status::kOk,
                          std::string(64, 'z'))
            .substr(0, net::kFrameHeaderBytes + 3);
    inject(port, partial, false);
  }
  // Well-framed garbage: the header is fine, the QUERY body is not.
  {
    const std::string garbage = net::encode_frame(
        net::MsgType::kQuery, net::Status::kOk, "not a query");
    EXPECT_EQ(inject(port, garbage, true), net::Status::kMalformed);
  }
  // Instant disconnect without a single byte.
  inject(port, "", false);

  // After all of that the server still serves a well-behaved client.
  net::SkcClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", port)) << client.last_error();
  EXPECT_TRUE(client.ping()) << client.last_error();
  const std::vector<Coord> p = {5, 7};
  EXPECT_TRUE(client.insert(p)) << client.last_error();
  net::QueryRequest qr;
  qr.summary_only = true;
  net::QueryReply reply;
  ASSERT_TRUE(client.query(qr, reply)) << client.last_error();
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.net_points, 1);

  const EngineMetrics m = fx.server.metrics();
  EXPECT_GE(m.net_malformed_frames, 4);
}

/// A full QUERY frame (solve on, the engine's k) with `restarts` restarts.
std::string query_frame(std::int32_t restarts, double slack = 1.1) {
  net::QueryRequest q;
  q.solver_restarts = restarts;
  q.capacity_slack = slack;
  return net::encode_frame(net::MsgType::kQuery, net::Status::kOk, q.encode());
}

std::string insert_frame(const std::vector<Coord>& coords) {
  net::PointBatch batch;
  batch.dim = kDim;
  batch.coords = coords;
  return net::encode_frame(net::MsgType::kInsertBatch, net::Status::kOk,
                           batch.encode());
}

// Requests no solver may see: a full query at the default k against fewer
// than k points (the solvers check k <= n) and one asking for INT32_MAX
// solver restarts (the k-means solver allocates one solution per restart).
// Each, like the reserved type 12, gets a typed reply, and the same
// connection keeps serving.
TEST(NetServer, OutOfRangeQueriesGetTypedRepliesOnALiveConnection) {
  ServerFixture fx;
  ASSERT_TRUE(fx.started);
  testutil::RawConnection conn(fx.server.port());
  net::Status status = net::Status::kOk;
  std::string payload;

  ASSERT_TRUE(conn.exchange(insert_frame({5, 5, 400, 400}), status, payload));
  ASSERT_EQ(status, net::Status::kOk);
  ASSERT_TRUE(conn.exchange(query_frame(1), status, payload));
  EXPECT_EQ(status, net::Status::kOk);
  net::QueryReply reply;
  ASSERT_TRUE(reply.decode(payload));
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("k = 3 exceeds"), std::string::npos) << reply.error;
  EXPECT_EQ(reply.net_points, 2);
  EXPECT_TRUE(conn.ping_echoes());

  ASSERT_TRUE(conn.exchange(insert_frame({9, 9, 200, 30, 30, 200, 350, 90}),
                            status, payload));
  ASSERT_EQ(status, net::Status::kOk);
  ASSERT_TRUE(conn.exchange(
      query_frame(std::numeric_limits<std::int32_t>::max()), status, payload));
  EXPECT_EQ(status, net::Status::kMalformed);
  EXPECT_TRUE(conn.ping_echoes());

  ASSERT_TRUE(conn.exchange(
      query_frame(1, std::numeric_limits<double>::quiet_NaN()), status, payload));
  EXPECT_EQ(status, net::Status::kMalformed);
  EXPECT_TRUE(conn.ping_echoes());

  ASSERT_TRUE(conn.exchange(
      net::encode_frame(net::MsgType::kReserved12, net::Status::kOk, ""),
      status, payload));
  EXPECT_EQ(status, net::Status::kUnsupported);
  EXPECT_TRUE(conn.ping_echoes());

  // An ordinary full query still solves on the same connection.
  ASSERT_TRUE(conn.exchange(query_frame(1), status, payload));
  ASSERT_EQ(status, net::Status::kOk);
  ASSERT_TRUE(reply.decode(payload));
  EXPECT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.net_points, 6);
}

// --------------------------------------------------------------------------
// Admission control.

TEST(NetServer, ConnectionLimitAnswersBusyAndCloses) {
  net::ServerOptions opts;
  opts.max_connections = 1;
  ServerFixture fx(opts);
  ASSERT_TRUE(fx.started);

  net::SkcClient first;
  ASSERT_TRUE(first.connect("127.0.0.1", fx.server.port()));
  ASSERT_TRUE(first.ping());  // guarantees the slot is held before we probe

  // The second connection gets exactly one BUSY frame, then EOF.
  std::string error;
  net::Socket probe = net::connect_to("127.0.0.1", fx.server.port(), 2000, error);
  ASSERT_TRUE(probe.valid()) << error;
  char header[net::kFrameHeaderBytes];
  ASSERT_EQ(net::recv_exact(probe, header, sizeof(header), 5000),
            net::IoResult::kOk);
  net::FrameHeader h;
  ASSERT_EQ(net::decode_header(std::string_view(header, sizeof(header)), h),
            net::Status::kOk);
  EXPECT_EQ(h.status, net::Status::kBusy);
  EXPECT_EQ(h.payload_bytes, 0u);
  char eof_probe = 0;
  EXPECT_EQ(net::recv_exact(probe, &eof_probe, 1, 5000), net::IoResult::kClosed);

  // The admitted client is unaffected.
  EXPECT_TRUE(first.ping()) << first.last_error();
  EXPECT_GE(fx.server.metrics().net_busy_rejections, 1);
}

TEST(NetServer, EngineBacklogShedsIngestWithBusy) {
  net::ServerOptions opts;
  opts.busy_backlog = 16;
  ClusteringEngine engine(kDim, test_params(), [] {
    EngineOptions opt = engine_options();
    opt.num_shards = 1;
    opt.worker_threads = 1;
    opt.queue_capacity = 1 << 15;
    opt.streaming.max_points = 8192;  // the big batch exceeds the default
    return opt;
  }());
  net::EngineServer server(engine, opts);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  // No automatic retries: the BUSY reply must surface directly.
  net::ClientOptions copts;
  copts.max_retries = 0;
  net::SkcClient client(copts);
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  // One big batch swamps the single drain worker...
  Rng rng(3);
  std::vector<Coord> big;
  for (int i = 0; i < 4096 * kDim; ++i) {
    big.push_back(static_cast<Coord>(1 + rng.next_below(512)));
  }
  net::BatchReply ack;
  ASSERT_TRUE(client.insert_batch(kDim, big, &ack)) << client.last_error();
  EXPECT_EQ(ack.accepted, 4096u);

  // ...so the immediate follow-up is shed, not buffered.
  const std::vector<Coord> small = {1, 1};
  EXPECT_FALSE(client.insert_batch(kDim, small));
  EXPECT_EQ(client.last_status(), net::Status::kBusy);
  EXPECT_GE(server.metrics().net_busy_rejections, 1);

  // A barrier query drains the backlog; afterwards ingest is admitted again.
  net::QueryRequest qr;
  qr.summary_only = true;
  net::QueryReply reply;
  ASSERT_TRUE(client.query(qr, reply)) << client.last_error();
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.net_points, 4096);
  EXPECT_TRUE(client.insert_batch(kDim, small)) << client.last_error();

  server.stop();
  engine.shutdown();
}

// --------------------------------------------------------------------------
// Graceful drain.

TEST(NetServer, ObservabilityRpcsServeTraceAndPrometheus) {
  obs::Tracer::instance().clear();
  obs::Tracer::instance().set_enabled(true);
  ServerFixture fx;
  ASSERT_TRUE(fx.started);
  net::SkcClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fx.server.port()))
      << client.last_error();

  // Generate some traced, histogrammed work: a batch, a query, a ping.
  std::vector<Coord> coords;
  Rng rng(11);
  for (int i = 0; i < 200 * kDim; ++i) {
    coords.push_back(static_cast<Coord>(1 + rng.next_below(512)));
  }
  ASSERT_TRUE(client.insert_batch(kDim, coords)) << client.last_error();
  net::QueryRequest request;
  net::QueryReply reply;
  ASSERT_TRUE(client.query(request, reply)) << client.last_error();
  ASSERT_TRUE(client.ping()) << client.last_error();

  // TRACE_DUMP: connection threads ran under SKC_TRACE_SPAN("request"), so
  // the chrome JSON must carry request spans (and the engine's query span).
  std::string trace;
  ASSERT_TRUE(client.trace_json(trace)) << client.last_error();
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"query\""), std::string::npos);
  obs::Tracer::instance().set_enabled(false);

  // PROMETHEUS: the exposition reports the same requests the JSON metrics
  // count, and the request histogram saw every RPC answered so far.
  std::string prom;
  ASSERT_TRUE(client.prometheus_text(prom)) << client.last_error();
  EXPECT_NE(prom.find("# TYPE skc_op_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("skc_net_requests_total{type=\"trace_dump\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("skc_net_requests_total{type=\"query\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("skc_op_latency_seconds_count{op=\"query\"} 1"),
            std::string::npos);

  const EngineMetrics m = fx.server.metrics();
  // insert_batch + query + ping + trace_dump + prometheus, at least.
  EXPECT_GE(m.net_request_latency.count, 5);
  EXPECT_EQ(m.query_latency.count, 1);
  EXPECT_EQ(m.submit_latency.count, 1);
  // Both formats derive from the same histogram: JSON agrees with the
  // exposition on the query count.
  const std::string json = metrics_json(m);
  EXPECT_NE(json.find("\"query_latency_count\":1"), std::string::npos) << json;
  obs::Tracer::instance().clear();
}

TEST(NetServer, ShutdownDrainsFlushesAndCheckpoints) {
  const std::string snap = testutil::temp_path("net_server_drain_ckpt.bin");
  net::ServerOptions opts;
  opts.drain_checkpoint_path = snap;
  ServerFixture fx(opts);
  ASSERT_TRUE(fx.started);

  net::SkcClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fx.server.port()));
  std::vector<Coord> coords;
  Rng rng(5);
  for (int i = 0; i < 300 * kDim; ++i) {
    coords.push_back(static_cast<Coord>(1 + rng.next_below(512)));
  }
  ASSERT_TRUE(client.insert_batch(kDim, coords)) << client.last_error();
  ASSERT_TRUE(client.shutdown_server()) << client.last_error();

  fx.server.wait();  // returns because the SHUTDOWN frame requested drain
  fx.server.stop();
  EXPECT_FALSE(fx.server.running());

  // Every accepted event was applied before the drain checkpoint.
  EXPECT_EQ(fx.engine.metrics().events_applied, 300);
  ClusteringEngine restored(kDim, test_params(), engine_options());
  ASSERT_TRUE(restored.restore(snap));
  EngineQuery q;
  q.summary_only = true;
  const EngineQueryResult res = restored.query(q);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.net_points, 300);
  restored.shutdown();

  // A drained server accepts no new connections.
  std::string error;
  net::Socket late = net::connect_to("127.0.0.1", fx.server.port(), 500, error);
  char byte = 0;
  EXPECT_TRUE(!late.valid() ||
              net::recv_exact(late, &byte, 1, 2000) != net::IoResult::kOk);

  // New ingest after drain is refused at the engine level, not crashed on:
  // stop() is idempotent.
  fx.server.stop();
}

}  // namespace
}  // namespace skc
