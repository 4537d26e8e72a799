// SkcClient — blocking client for the EngineServer wire protocol.
//
// One request in flight per client; every call sends one frame and waits
// for the matching reply under the configured timeouts.  Retry policy is
// deliberately narrow: the client retries (with doubling backoff) only the
// two failures the server guarantees are side-effect free — a refused /
// timed-out connect, and an explicit BUSY reply (load shed before anything
// was enqueued).  A transport error mid-request is NOT retried
// automatically: the server may or may not have applied the request, and
// only the caller knows whether its operation is idempotent.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "skc/common/types.h"
#include "skc/net/frame.h"
#include "skc/net/socket.h"

namespace skc::net {

struct ClientOptions {
  int connect_timeout_ms = 5'000;
  /// Per-direction deadline for one request/reply exchange.  Queries can
  /// legitimately run long (barrier + merge + solve), hence the margin.
  int io_timeout_ms = 60'000;
  /// Bounded retry for connect failures and BUSY replies.
  int max_retries = 5;
  /// First backoff; doubles per consecutive retry.
  int retry_backoff_ms = 20;
};

class SkcClient {
 public:
  explicit SkcClient(const ClientOptions& options = {});
  ~SkcClient();

  SkcClient(const SkcClient&) = delete;
  SkcClient& operator=(const SkcClient&) = delete;

  /// Connects (with bounded retry) to a listening EngineServer.
  // skc-lint: allow(skc-socket) wrapper API surface, not a raw syscall
  bool connect(const std::string& host, std::uint16_t port);
  void close();
  bool connected() const { return sock_.valid(); }

  /// Addresses every subsequent request to this stream id on a
  /// multi-tenant server.  The empty id (the default) keeps requests as
  /// version-1 frames, byte-identical to a pre-tenant client — a non-empty
  /// id switches to version-2 frames with the tenant prefix.  The id must
  /// satisfy valid_tenant_id().
  void set_tenant(std::string_view id);
  const std::string& tenant() const { return tenant_; }

  /// Diagnostics for the last failed call.
  const std::string& last_error() const { return last_error_; }
  /// Status of the last reply (kOk after successful calls).
  Status last_status() const { return last_status_; }
  /// BUSY replies absorbed by retries since connect (back-pressure signal).
  std::int64_t busy_retries() const { return busy_retries_; }

  /// Real wire traffic this client has moved (frame headers included,
  /// retries included) — what bench_cluster compares against the logical
  /// dist/Network accounting to validate the Lemma 4.6 message structure.
  std::int64_t wire_bytes_sent() const { return wire_bytes_sent_; }
  std::int64_t wire_bytes_received() const { return wire_bytes_received_; }
  /// Payload sizes of the most recent successful exchange (one logical
  /// message each way; excludes frame headers and BUSY retries).
  std::size_t last_request_payload() const { return last_request_payload_; }
  std::size_t last_reply_payload() const { return last_reply_payload_; }

  /// Round-trips an opaque payload (returns false on echo mismatch).
  bool ping();
  /// Ships `count = coords.size() / dim` points as one batch.
  bool insert_batch(int dim, std::span<const Coord> coords,
                    BatchReply* ack = nullptr);
  bool delete_batch(int dim, std::span<const Coord> coords,
                    BatchReply* ack = nullptr);
  bool insert(std::span<const Coord> point);
  bool erase(std::span<const Coord> point);
  /// Remote clustering query.
  bool query(const QueryRequest& request, QueryReply& reply);
  /// Engine + transport metrics as one JSON object.
  bool metrics_json(std::string& json);
  /// Server-side trace buffers as chrome://tracing JSON.
  bool trace_json(std::string& json);
  /// Full metrics in Prometheus text exposition format.
  bool prometheus_text(std::string& text);
  /// Asks the server to checkpoint to a server-side path.
  bool checkpoint(const std::string& server_path);
  /// Requests graceful drain; the server replies before stopping.
  bool shutdown_server();

  // Cluster protocol RPCs (coordinator -> worker; src/skc/cluster/).
  /// Configuration handshake; returns false on transport failure — a
  /// fingerprint refusal travels in reply.ok/message.
  bool worker_hello(const WorkerHello& hello, WorkerHelloReply& reply);
  /// Liveness + load probe.
  bool heartbeat(HeartbeatReply& reply);
  /// Fetches the worker's full engine state as one serialized sketch.
  bool merge_sketch(SketchSnapshot& snapshot);
  /// Ships a snapshot for the worker to adopt (failover restore).
  bool ship_snapshot(const SketchSnapshot& snapshot);

  /// Per-tenant stats JSON from a multi-tenant server: the client's tenant
  /// when one is set, the whole registry otherwise.
  bool tenant_stats(std::string& json);

  // Observability RPCs (src/skc/obs/).
  /// Fleet-merged chrome://tracing JSON from a coordinator (one process
  /// lane per node); against a plain server, its local dump.
  bool cluster_trace_json(std::string& json);
  /// Latency histograms + trace-drop counters for fleet-metric merging.
  bool worker_stats(WorkerStatsReply& reply);
  /// Slow-query flight-recorder ring as JSON.
  bool flight_recorder_json(std::string& json);

 private:
  bool batch(MsgType type, int dim, std::span<const Coord> coords,
             BatchReply* ack);
  /// One request/reply exchange with BUSY retry; fills reply body on kOk.
  bool request(MsgType type, std::string_view body, std::string& reply_body);
  bool fail(const std::string& message);

  ClientOptions options_;
  Socket sock_;
  std::string tenant_;
  std::string host_;
  std::uint16_t port_ = 0;
  std::string last_error_;
  Status last_status_ = Status::kOk;
  std::int64_t busy_retries_ = 0;
  std::int64_t wire_bytes_sent_ = 0;
  std::int64_t wire_bytes_received_ = 0;
  std::size_t last_request_payload_ = 0;
  std::size_t last_reply_payload_ = 0;
};

}  // namespace skc::net
