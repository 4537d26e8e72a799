// Front-door conformance: the protocol-generic requests must get the same
// typed answers from every server that speaks the frame protocol — a
// single-engine EngineServer, a multi-tenant TenantServer, and a
// ClusterCoordinator in front of one spawned worker process.  One test body
// runs against all three over raw frames, and after every step a ping on
// the same connection must still echo: no generic request may cost the
// client its connection.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "skc/cluster/coordinator.h"
#include "skc/cluster/process.h"
#include "skc/engine/engine.h"
#include "skc/net/frame.h"
#include "skc/net/server.h"
#include "skc/tenant/registry.h"
#include "skc/tenant/server.h"
#include "wire_util.h"

namespace skc {
namespace {

constexpr int kDim = 2;
constexpr int kK = 4;
constexpr int kLogDelta = 6;

// The cluster worker's configuration (Door::start passes it, plus --exact):
// the coordinator's WORKER_HELLO fingerprint must match it, and the other
// two servers use the same shape so one body fits all three.
CoresetParams door_params() {
  return CoresetParams::practical(kK, LrOrder{2.0}, 0.3, 0.3);
}

StreamingOptions door_streaming() {
  StreamingOptions s;
  s.log_delta = kLogDelta;
  s.exact_storing = true;
  return s;
}

enum class Kind { kEngine, kTenant, kCluster };

/// One server of the given kind; port() is its front door once start()
/// succeeded.
class Door {
 public:
  /// Builds and starts the server (spawning and dialing the worker for the
  /// coordinator).  False with `error` set on failure.
  bool start(Kind kind, std::string& error) {
    switch (kind) {
      case Kind::kEngine: {
        EngineOptions opts;
        opts.num_shards = 2;
        opts.worker_threads = 1;
        opts.streaming = door_streaming();
        engine_ = std::make_unique<ClusteringEngine>(kDim, door_params(), opts);
        server_ = std::make_unique<net::EngineServer>(*engine_,
                                                      net::ServerOptions{});
        break;
      }
      case Kind::kTenant: {
        tenant::TenantRegistryOptions opts;
        opts.dim = kDim;
        opts.params = door_params();
        opts.engine.num_shards = 1;
        opts.engine.streaming = door_streaming();
        opts.pool_threads = 0;
        registry_ = std::make_unique<tenant::TenantRegistry>(opts);
        server_ = std::make_unique<tenant::TenantServer>(*registry_,
                                                         net::ServerOptions{});
        break;
      }
      case Kind::kCluster: {
        cluster::WorkerProcessOptions wopts;
        wopts.binary = SKC_CLI_BIN;
        wopts.args = {"worker", std::to_string(kDim), std::to_string(kK), "2",
                      std::to_string(kLogDelta), "--eps", "0.3", "--eta", "0.3",
                      "--seed", "20230614", "--queue-capacity", "8192", "--exact"};
        worker_ = std::make_unique<cluster::WorkerProcess>();
        if (!worker_->spawn(wopts)) {
          error = worker_->error();
          return false;
        }
        cluster::CoordinatorOptions copts;
        copts.dim = kDim;
        copts.params = door_params();
        copts.streaming = door_streaming();
        copts.workers.push_back({"127.0.0.1", worker_->port()});
        auto coordinator = std::make_unique<cluster::ClusterCoordinator>(copts);
        if (!coordinator->connect(error)) return false;
        coordinator_ = coordinator.get();
        server_ = std::move(coordinator);
        break;
      }
    }
    return server_->start(error);
  }

  ~Door() {
    if (server_) server_->stop();
    if (coordinator_ != nullptr) {
      coordinator_->shutdown_workers();
      EXPECT_EQ(worker_->wait(), 0);
    }
  }

  std::uint16_t port() const { return server_->port(); }

 private:
  // Declared before server_ so the server drains first.
  std::unique_ptr<ClusteringEngine> engine_;
  std::unique_ptr<tenant::TenantRegistry> registry_;
  std::unique_ptr<cluster::WorkerProcess> worker_;
  cluster::ClusterCoordinator* coordinator_ = nullptr;
  std::unique_ptr<net::FrameServer> server_;
};

std::string batch_body(int dim, const std::vector<Coord>& coords) {
  net::PointBatch batch;
  batch.dim = dim;
  batch.coords = coords;
  return batch.encode();
}

std::string frame(net::MsgType type, const std::string& body) {
  return net::encode_frame(type, net::Status::kOk, body);
}

class FrontDoorConformance : public ::testing::TestWithParam<Kind> {};

TEST_P(FrontDoorConformance, AnswersEveryGenericRequestTypedOnALiveConnection) {
  Door door;
  std::string error;
  ASSERT_TRUE(door.start(GetParam(), error)) << error;
  testutil::RawConnection conn(door.port());
  net::Status status = net::Status::kOk;
  std::string payload;

  // PING echoes its body.
  ASSERT_TRUE(conn.exchange(frame(net::MsgType::kPing, "echo me"), status,
                            payload));
  EXPECT_EQ(status, net::Status::kOk);
  EXPECT_EQ(payload, "echo me");

  // An undecodable batch body is malformed, not a dropped connection.
  ASSERT_TRUE(conn.exchange(frame(net::MsgType::kInsertBatch, "xyz"), status,
                            payload));
  EXPECT_EQ(status, net::Status::kMalformed);
  EXPECT_TRUE(conn.ping_echoes());

  // A batch of the wrong dimension, and coordinates just outside [1, Delta].
  ASSERT_TRUE(conn.exchange(
      frame(net::MsgType::kInsertBatch, batch_body(kDim + 1, {5, 5, 5})),
      status, payload));
  EXPECT_EQ(status, net::Status::kEngineError);
  EXPECT_TRUE(conn.ping_echoes());
  const Coord delta = Coord{1} << kLogDelta;
  for (const Coord bad : {Coord{0}, delta + 1}) {
    ASSERT_TRUE(conn.exchange(
        frame(net::MsgType::kDeleteBatch, batch_body(kDim, {5, 5, bad, 7})),
        status, payload));
    EXPECT_EQ(status, net::Status::kEngineError) << "coordinate " << bad;
    EXPECT_TRUE(conn.ping_echoes());
  }

  // A version-2 frame naming a tenant: refused typed by the single-tenant
  // servers, served by the tenant host (into its own namespace).
  ASSERT_TRUE(conn.exchange(
      net::encode_tenant_frame(net::MsgType::kInsertBatch, net::Status::kOk,
                               "acme", batch_body(kDim, {9, 9})),
      status, payload));
  if (GetParam() == Kind::kTenant) {
    EXPECT_EQ(status, net::Status::kOk);
  } else {
    EXPECT_EQ(status, net::Status::kUnknownTenant);
  }
  EXPECT_TRUE(conn.ping_echoes());

  // The reserved type 12.
  ASSERT_TRUE(conn.exchange(frame(net::MsgType::kReserved12, ""), status,
                            payload));
  EXPECT_EQ(status, net::Status::kUnsupported);
  EXPECT_TRUE(conn.ping_echoes());

  // The local diagnostics come back as JSON text.
  for (const net::MsgType type :
       {net::MsgType::kTraceDump, net::MsgType::kFlightRecorder}) {
    ASSERT_TRUE(conn.exchange(frame(type, ""), status, payload));
    EXPECT_EQ(status, net::Status::kOk);
    std::string json;
    ASSERT_TRUE(net::decode_text(payload, json));
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{') << json.substr(0, 80);
    EXPECT_EQ(json.back(), '}');
    EXPECT_TRUE(conn.ping_echoes());
  }

  // A valid default-tenant batch, then a summary query that sees exactly it
  // (none of the refused batches above landed).
  ASSERT_TRUE(conn.exchange(
      frame(net::MsgType::kInsertBatch,
            batch_body(kDim, {4, 4, 30, 30, 60, 10})),
      status, payload));
  ASSERT_EQ(status, net::Status::kOk);
  net::BatchReply ack;
  ASSERT_TRUE(ack.decode(payload));
  EXPECT_EQ(ack.accepted, 3u);
  EXPECT_TRUE(conn.ping_echoes());

  net::QueryRequest request;
  request.summary_only = true;
  ASSERT_TRUE(conn.exchange(frame(net::MsgType::kQuery, request.encode()),
                            status, payload));
  ASSERT_EQ(status, net::Status::kOk);
  net::QueryReply reply;
  ASSERT_TRUE(reply.decode(payload));
  EXPECT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.net_points, 3);
  EXPECT_TRUE(conn.ping_echoes());
}

std::string kind_name(const ::testing::TestParamInfo<Kind>& param) {
  switch (param.param) {
    case Kind::kEngine:
      return "EngineServer";
    case Kind::kTenant:
      return "TenantServer";
    case Kind::kCluster:
      return "ClusterCoordinator";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(Servers, FrontDoorConformance,
                         ::testing::Values(Kind::kEngine, Kind::kTenant,
                                           Kind::kCluster),
                         kind_name);

}  // namespace
}  // namespace skc
