// TenantServer over loopback: version-1 frames from a pre-tenant client must
// keep working unchanged against a multi-tenant server (the wire
// compatibility pin), version-2 frames must namespace every RPC by stream
// id, and every tenant-level refusal — unknown id, malformed prefix, quota —
// must be a typed error frame on a connection that KEEPS serving.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "skc/net/client.h"
#include "skc/net/frame.h"
#include "skc/net/socket.h"
#include "skc/tenant/registry.h"
#include "skc/tenant/server.h"
#include "test_util.h"
#include "wire_util.h"

namespace skc {
namespace {

using tenant::TenantRegistry;
using tenant::TenantRegistryOptions;
using tenant::TenantServer;

constexpr int kDim = 2;
constexpr int kLogDelta = 9;

TenantRegistryOptions registry_options() {
  TenantRegistryOptions o;
  o.dim = kDim;
  o.params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  o.engine.num_shards = 1;
  o.engine.streaming.log_delta = kLogDelta;
  o.engine.streaming.max_points = 1024;
  o.engine.streaming.exact_storing = true;
  o.engine.streaming.distinct_budget = 1 << 20;
  o.engine.streaming.prune_interval = 0;
  o.pool_threads = 0;
  o.num_rungs = 2;
  o.rung_scale = 4;
  o.min_rung_points = 64;
  return o;
}

struct TenantServerFixture {
  TenantRegistry registry;
  TenantServer server;
  bool started = false;

  explicit TenantServerFixture(
      const TenantRegistryOptions& ropts = registry_options(),
      const net::ServerOptions& sopts = {})
      : registry(ropts), server(registry, sopts) {
    std::string error;
    started = server.start(error);
    EXPECT_TRUE(started) << error;
  }
};

std::vector<Coord> grid_coords(int n, int offset) {
  std::vector<Coord> coords;
  coords.reserve(static_cast<std::size_t>(n) * kDim);
  for (int i = 0; i < n; ++i) {
    const int v = offset + i;
    coords.push_back(static_cast<Coord>(v % 511 + 1));
    coords.push_back(static_cast<Coord>(v / 511 + 1));
  }
  return coords;
}

std::int64_t queried_net_points(net::SkcClient& client) {
  net::QueryRequest req;
  req.summary_only = true;
  net::QueryReply reply;
  EXPECT_TRUE(client.query(req, reply)) << client.last_error();
  EXPECT_TRUE(reply.ok) << reply.error;
  return reply.net_points;
}

// --------------------------------------------------------------------------
// Version-1 compatibility: the PR-6 client, byte for byte.

TEST(TenantServer, Version1ClientServesTheDefaultTenantUnchanged) {
  TenantServerFixture fx;
  ASSERT_TRUE(fx.started);

  // A client that never calls set_tenant emits version-1 frames (pinned
  // byte-stable in frame_test); every pre-tenant RPC must behave as it did
  // against the single-tenant EngineServer.
  net::SkcClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fx.server.port()))
      << client.last_error();
  ASSERT_TRUE(client.ping()) << client.last_error();
  ASSERT_TRUE(client.insert_batch(kDim, grid_coords(30, 0)))
      << client.last_error();
  EXPECT_EQ(queried_net_points(client), 30);

  std::string json;
  ASSERT_TRUE(client.metrics_json(json)) << client.last_error();
  EXPECT_NE(json.find("\"transport\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tenants\":{"), std::string::npos) << json;

  // The traffic landed in the default namespace, nowhere else.
  EXPECT_TRUE(fx.registry.exists(""));
  EXPECT_EQ(fx.registry.tenant_count(), 1);
}

// --------------------------------------------------------------------------
// Version-2 namespacing.

TEST(TenantServer, TenantsAreIsolatedOverTheWire) {
  TenantServerFixture fx;
  ASSERT_TRUE(fx.started);

  net::SkcClient alice, bob;
  alice.set_tenant("alice");
  bob.set_tenant("bob");
  ASSERT_TRUE(alice.connect("127.0.0.1", fx.server.port()));
  ASSERT_TRUE(bob.connect("127.0.0.1", fx.server.port()));

  ASSERT_TRUE(alice.insert_batch(kDim, grid_coords(40, 0)))
      << alice.last_error();
  ASSERT_TRUE(bob.insert_batch(kDim, grid_coords(7, 1000)))
      << bob.last_error();
  // Deletions are namespaced too: bob removes points alice keeps.
  ASSERT_TRUE(bob.delete_batch(kDim, grid_coords(2, 1000)))
      << bob.last_error();

  EXPECT_EQ(queried_net_points(alice), 40);
  EXPECT_EQ(queried_net_points(bob), 5);

  // Per-tenant stats: a namespaced TENANT_STATS reads one tenant, the
  // default address reads the whole registry.
  std::string one;
  ASSERT_TRUE(alice.tenant_stats(one)) << alice.last_error();
  EXPECT_NE(one.find("\"id\":\"alice\""), std::string::npos) << one;
  EXPECT_EQ(one.find("\"per_tenant\""), std::string::npos) << one;

  net::SkcClient admin;
  ASSERT_TRUE(admin.connect("127.0.0.1", fx.server.port()));
  std::string all;
  ASSERT_TRUE(admin.tenant_stats(all)) << admin.last_error();
  EXPECT_NE(all.find("\"per_tenant\""), std::string::npos) << all;
  EXPECT_NE(all.find("\"id\":\"alice\""), std::string::npos) << all;
  EXPECT_NE(all.find("\"id\":\"bob\""), std::string::npos) << all;

  // The Prometheus exposition labels the same traffic per tenant.
  std::string prom;
  ASSERT_TRUE(admin.prometheus_text(prom)) << admin.last_error();
  EXPECT_NE(prom.find("skc_tenant_events_total{tenant=\"alice\"} 40"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("skc_tenant_events_total{tenant=\"bob\"} 9"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find(
                "skc_tenant_op_latency_seconds_count{tenant=\"alice\","
                "op=\"ingest\"} 1"),
            std::string::npos)
      << prom;
}

// --------------------------------------------------------------------------
// Typed refusals keep the connection.

TEST(TenantServer, UnknownTenantIsATypedReplyNotADrop) {
  TenantServerFixture fx;
  ASSERT_TRUE(fx.started);

  net::SkcClient ghost;
  ghost.set_tenant("ghost");
  ASSERT_TRUE(ghost.connect("127.0.0.1", fx.server.port()));

  // Queries never create tenants, so "ghost" is unknown: a typed error.
  net::QueryRequest req;
  net::QueryReply reply;
  EXPECT_FALSE(ghost.query(req, reply));
  EXPECT_EQ(ghost.last_status(), net::Status::kUnknownTenant);

  // The SAME connection keeps serving: ping echoes, and ingest (which
  // auto-creates the namespace) is admitted.
  EXPECT_TRUE(ghost.ping()) << ghost.last_error();
  EXPECT_TRUE(ghost.insert_batch(kDim, grid_coords(3, 0)))
      << ghost.last_error();
  EXPECT_EQ(queried_net_points(ghost), 3);
}

TEST(TenantServer, MalformedTenantPrefixAnswersTypedAndKeepsServing) {
  TenantServerFixture fx;
  ASSERT_TRUE(fx.started);

  std::string error;
  net::Socket sock =
      net::connect_to("127.0.0.1", fx.server.port(), 2000, error);
  ASSERT_TRUE(sock.valid()) << error;

  const auto exchange = [&](const std::string& frame, std::string& payload) {
    EXPECT_EQ(net::send_exact(sock, frame.data(), frame.size(), 2000),
              net::IoResult::kOk);
    char header_buf[net::kFrameHeaderBytes];
    EXPECT_EQ(net::recv_exact(sock, header_buf, sizeof(header_buf), 5000),
              net::IoResult::kOk);
    net::FrameHeader h;
    EXPECT_EQ(net::decode_header(
                  std::string_view(header_buf, sizeof(header_buf)), h),
              net::Status::kOk);
    payload.assign(h.payload_bytes, '\0');
    if (h.payload_bytes > 0) {
      EXPECT_EQ(net::recv_exact(sock, payload.data(), payload.size(), 5000),
                net::IoResult::kOk);
    }
    return h.status;
  };

  // A version-2 frame whose prefix announces more id bytes than the payload
  // holds: structurally unparseable, answered kUnknownTenant — NOT dropped.
  std::string bad =
      net::encode_tenant_frame(net::MsgType::kPing, net::Status::kOk, "", "");
  bad.resize(net::kFrameHeaderBytes + 1);
  bad[net::kFrameHeaderBytes] = static_cast<char>(10);  // 10 id bytes, 0 present
  {
    const std::uint32_t payload_bytes = 1;
    std::memcpy(bad.data() + 8, &payload_bytes, sizeof(payload_bytes));
  }
  std::string payload;
  EXPECT_EQ(exchange(bad, payload), net::Status::kUnknownTenant);

  // An illegal charset in the id: same typed answer, same live connection.
  std::string illegal = net::encode_tenant_frame(
      net::MsgType::kPing, net::Status::kOk, "ab", "x");
  illegal[net::kFrameHeaderBytes + 1] = '/';
  EXPECT_EQ(exchange(illegal, payload), net::Status::kUnknownTenant);

  // The connection survived both: a well-formed v2 ping round-trips.
  const std::string good = net::encode_tenant_frame(
      net::MsgType::kPing, net::Status::kOk, "ok-tenant", "probe");
  EXPECT_EQ(exchange(good, payload), net::Status::kOk);
  EXPECT_EQ(payload, "probe");
}

// The tenant host forwards queries to per-tenant engines, so a k above the
// summary, INT32_MAX solver restarts and the reserved type 12 must each get
// a typed reply there too, on a connection that keeps serving.
TEST(TenantServer, OutOfRangeQueriesGetTypedRepliesOnALiveConnection) {
  TenantServerFixture fx;
  ASSERT_TRUE(fx.started);
  testutil::RawConnection conn(fx.server.port());
  net::Status status = net::Status::kOk;
  std::string payload;
  const auto frame = [](net::MsgType type, const std::string& body) {
    return net::encode_tenant_frame(type, net::Status::kOk, "small-7", body);
  };
  const auto insert = [&](int n, int offset) {
    net::PointBatch batch;
    batch.dim = kDim;
    batch.coords = grid_coords(n, offset);
    ASSERT_TRUE(conn.exchange(frame(net::MsgType::kInsertBatch, batch.encode()),
                              status, payload));
    ASSERT_EQ(status, net::Status::kOk);
  };
  const auto query = [&](std::int32_t restarts, double slack = 1.1) {
    net::QueryRequest q;
    q.solver_restarts = restarts;
    q.capacity_slack = slack;
    return frame(net::MsgType::kQuery, q.encode());
  };

  insert(2, 0);
  ASSERT_TRUE(conn.exchange(query(1), status, payload));
  EXPECT_EQ(status, net::Status::kOk);
  net::QueryReply reply;
  ASSERT_TRUE(reply.decode(payload));
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("k = 3 exceeds"), std::string::npos) << reply.error;
  EXPECT_TRUE(conn.ping_echoes());

  insert(40, 100);
  ASSERT_TRUE(conn.exchange(query(std::numeric_limits<std::int32_t>::max()),
                            status, payload));
  EXPECT_EQ(status, net::Status::kMalformed);
  EXPECT_TRUE(conn.ping_echoes());

  ASSERT_TRUE(conn.exchange(query(1, std::numeric_limits<double>::quiet_NaN()),
                            status, payload));
  EXPECT_EQ(status, net::Status::kMalformed);
  EXPECT_TRUE(conn.ping_echoes());

  ASSERT_TRUE(conn.exchange(frame(net::MsgType::kReserved12, ""), status,
                            payload));
  EXPECT_EQ(status, net::Status::kUnsupported);
  EXPECT_TRUE(conn.ping_echoes());

  ASSERT_TRUE(conn.exchange(query(1), status, payload));
  ASSERT_EQ(status, net::Status::kOk);
  ASSERT_TRUE(reply.decode(payload));
  EXPECT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.net_points, 42);
}

TEST(TenantServer, QuotaExceededIsTypedAndDoesNotStallNeighbors) {
  TenantRegistryOptions ropts = registry_options();
  ropts.quotas.max_events_per_second = 200.0;
  ropts.quotas.burst_events = 50.0;
  TenantServerFixture fx(ropts);
  ASSERT_TRUE(fx.started);

  net::SkcClient noisy;
  noisy.set_tenant("noisy");
  ASSERT_TRUE(noisy.connect("127.0.0.1", fx.server.port()));

  // The first batch spends the whole burst; the immediate second one is
  // refused with the typed wire error and nothing enqueued.
  ASSERT_TRUE(noisy.insert_batch(kDim, grid_coords(50, 0)))
      << noisy.last_error();
  EXPECT_FALSE(noisy.insert_batch(kDim, grid_coords(50, 50)));
  EXPECT_EQ(noisy.last_status(), net::Status::kQuotaExceeded);

  // The throttled CONNECTION is fine (only the tenant is limited)...
  EXPECT_TRUE(noisy.ping()) << noisy.last_error();
  EXPECT_EQ(queried_net_points(noisy), 50);

  // ...and a neighbor tenant ingests at full speed meanwhile.
  net::SkcClient quiet;
  quiet.set_tenant("quiet");
  ASSERT_TRUE(quiet.connect("127.0.0.1", fx.server.port()));
  ASSERT_TRUE(quiet.insert_batch(kDim, grid_coords(50, 500)))
      << quiet.last_error();
  EXPECT_EQ(queried_net_points(quiet), 50);

  std::string prom;
  ASSERT_TRUE(quiet.prometheus_text(prom)) << quiet.last_error();
  EXPECT_NE(
      prom.find("skc_tenant_quota_rejections_total{tenant=\"noisy\"} 1"),
      std::string::npos)
      << prom;
}

// --------------------------------------------------------------------------
// Namespaced checkpoints and drain.

TEST(TenantServer, CheckpointAndShutdownAreNamespaced) {
  TenantServerFixture fx;
  ASSERT_TRUE(fx.started);

  net::SkcClient alice;
  alice.set_tenant("alice");
  ASSERT_TRUE(alice.connect("127.0.0.1", fx.server.port()));
  ASSERT_TRUE(alice.insert_batch(kDim, grid_coords(25, 0)))
      << alice.last_error();

  const std::string snap =
      testutil::temp_path("tenant_server_alice.ckpt");
  ASSERT_TRUE(alice.checkpoint(snap)) << alice.last_error();

  // Checkpointing an unknown namespace is the typed error, not a file.
  net::SkcClient ghost;
  ghost.set_tenant("ghost");
  ASSERT_TRUE(ghost.connect("127.0.0.1", fx.server.port()));
  EXPECT_FALSE(ghost.checkpoint(snap + ".ghost"));
  EXPECT_EQ(ghost.last_status(), net::Status::kUnknownTenant);

  // Drain flushes every resident tenant.
  ASSERT_TRUE(alice.shutdown_server()) << alice.last_error();
  fx.server.wait();
  fx.server.stop();
  EXPECT_EQ(fx.registry.stats().per_tenant.at(0).events, 25);
}

// A CHECKPOINT without a path gets a typed engine error, as on an engine
// server, and does not count as a malformed frame.
TEST(TenantServer, BareCheckpointIsAnEngineErrorNotAMalformedFrame) {
  TenantServerFixture fx;
  ASSERT_TRUE(fx.started);
  net::SkcClient alice;
  alice.set_tenant("alice");
  ASSERT_TRUE(alice.connect("127.0.0.1", fx.server.port()));
  ASSERT_TRUE(alice.insert_batch(kDim, grid_coords(5, 0))) << alice.last_error();
  EXPECT_FALSE(alice.checkpoint(""));
  EXPECT_EQ(alice.last_status(), net::Status::kEngineError);
  EXPECT_NE(alice.last_error().find("checkpoint needs a path"), std::string::npos)
      << alice.last_error();
  EXPECT_TRUE(alice.ping()) << alice.last_error();
  EXPECT_EQ(fx.server.transport_metrics().net_malformed_frames, 0);
}

// --------------------------------------------------------------------------
// Observability: a tenant host has no engine of its own, so it must not
// export engine-level families (they could only ever read 0).

/// True iff the exposition declares or samples the metric family `name`.
bool has_family(const std::string& text, const std::string& name) {
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t end = std::min(text.find('\n', at), text.size());
    const std::string_view line(text.data() + at, end - at);
    if (line.starts_with("# TYPE " + name + " ") ||
        line.starts_with(name + " ") || line.starts_with(name + "{")) {
      return true;
    }
    at = end + 1;
  }
  return false;
}

TEST(TenantServer, ScrapeExportsTransportAndTenantFamiliesOnly) {
  TenantServerFixture fx;
  ASSERT_TRUE(fx.started);
  net::SkcClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fx.server.port()));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.insert_batch(kDim, grid_coords(5, 10 * i)))
        << client.last_error();
  }

  std::string prom;
  ASSERT_TRUE(client.prometheus_text(prom)) << client.last_error();
  for (const char* engine_family :
       {"skc_events_submitted_total", "skc_batches_total", "skc_net_points",
        "skc_sketch_bytes", "skc_uptime_seconds"}) {
    EXPECT_FALSE(has_family(prom, engine_family)) << engine_family;
  }
  EXPECT_NE(prom.find("skc_net_requests_total{type=\"insert_batch\"} 4"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("skc_op_latency_seconds_count{op=\"net_request\"}"),
            std::string::npos);
  EXPECT_TRUE(has_family(prom, "skc_net_bytes_in_total"));
  EXPECT_TRUE(has_family(prom, "skc_trace_dropped_spans_total"));
  EXPECT_NE(prom.find("skc_tenant_events_total{tenant=\"\"} 20"),
            std::string::npos)
      << prom;

  // METRICS: the "transport" object carries transport keys only.
  std::string json;
  ASSERT_TRUE(client.metrics_json(json)) << client.last_error();
  const std::string open = "{\"transport\":";
  const std::size_t close = json.find(",\"tenants\":");
  ASSERT_EQ(json.rfind(open, 0), 0u) << json;
  ASSERT_NE(close, std::string::npos) << json;
  const std::string transport = json.substr(open.size(), close - open.size());
  EXPECT_NE(transport.find("\"net_requests_by_type\""), std::string::npos);
  EXPECT_NE(transport.find("\"net_request_latency_count\""),
            std::string::npos);
  for (const char* engine_key :
       {"\"events_submitted\"", "\"batches\"", "\"net_points\"",
        "\"sketch_bytes\"", "\"uptime_seconds\""}) {
    EXPECT_EQ(transport.find(engine_key), std::string::npos) << engine_key;
  }
}

}  // namespace
}  // namespace skc
