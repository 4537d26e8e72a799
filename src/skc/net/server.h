// Frame transport servers — FrameServer (the one front door every server
// derives from) and EngineServer (hosts one ClusteringEngine on a TCP
// socket).
//
// Topology: one listener thread accepts loopback connections and hands each
// to its own connection thread (frames are small and the real work is
// serialized behind the engine's shard queues or the coordinator's worker
// links, so thread-per-connection is the right amount of machinery — the
// fan-in bottleneck is the sketch update, not the transport).  Every read
// and write runs under a per-connection deadline, and every blocking wait
// tests the server's stop flag each poll tick, so a draining server never
// waits out a silent peer.
//
// FrameServer is the one front door.  It owns the accept loop, admission
// control over `max_connections`, frame read/decode/reply with the
// malformed-peer policy below, per-request latency + per-type counters, the
// transport snapshot, and the graceful drain.  It also decodes, validates
// and answers every protocol-generic request itself, once for all servers:
//   * the version-2 tenant prefix, and the default-tenant gate of a
//     single-tenant server (FrontDoor::default_tenant_only);
//   * INSERT/DELETE_BATCH: the PointBatch decode, the dimension and
//     [1, Delta] coordinate checks, draining and BUSY shedding, the events
//     handed to ingest(), and the BatchReply;
//   * QUERY: QueryRequest -> EngineQuery, answer_query(), and
//     EngineQueryResult -> QueryReply;
//   * PING, SHUTDOWN, TRACE_DUMP, FLIGHT_RECORDER, the reserved type 12,
//     and CLUSTER_TRACE_DUMP via cluster_trace_json() (a single node
//     answers with its local rings).
// A subclass supplies only what differs: where a batch goes (ingest()),
// who answers a query (answer_query()), every other message type
// (serve(): METRICS, PROMETHEUS, CHECKPOINT, WORKER_STATS and its own
// RPCs), optionally its queue depth (ingest_backlog()) and on_drain().
// EngineServer hosts one engine; tenant::TenantServer and
// cluster::ClusterCoordinator derive the same way, so no request decoding
// is duplicated across the serving, tenant and cluster layers.
//
// Admission control is explicit, never buffering:
//   * over `max_connections`, a fresh connection gets one BUSY frame and is
//     closed;
//   * while ingest_backlog() exceeds `busy_backlog`, ingest batches are
//     answered BUSY *without* being enqueued — the client retries with
//     backoff instead of the server absorbing unbounded state (the engine's
//     submit() would otherwise block the connection thread on backpressure,
//     which is the hidden-buffer failure mode);
//   * malformed, truncated, or oversized frames produce a diagnostic error
//     reply (when the transport still works) and a closed connection —
//     never a crash; the server keeps serving other clients.
//
// Shutdown (stop(), the destructor, or a SHUTDOWN frame) drains gracefully:
// stop accepting, let in-flight requests finish, then run the subclass
// on_drain() hook (EngineServer: flush the engine to a clean epoch, then
// optionally checkpoint via `drain_checkpoint_path`).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "skc/engine/engine.h"
#include "skc/net/frame.h"
#include "skc/net/socket.h"
#include "skc/obs/histogram.h"

namespace skc::net {

struct ServerOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral; see FrameServer::port()
  int backlog = 64;
  int max_connections = 64;
  /// Deadline for reading one frame (header or payload) once it starts.
  int read_timeout_ms = 30'000;
  /// Deadline for writing one reply frame.
  int write_timeout_ms = 10'000;
  /// How long a connection may sit idle between requests.
  int idle_timeout_ms = 300'000;
  /// Load shedding: ingest batches get BUSY while the server's ingest
  /// backlog (the engine's queue backlog) exceeds this many events.  <= 0
  /// disables (connection threads then block on engine backpressure).
  std::int64_t busy_backlog = 1 << 15;
  /// Graceful drain writes a checkpoint here after the final flush
  /// (EngineServer only; empty = skip).
  std::string drain_checkpoint_path;
};

/// What a FrameServer subclass tells the front door at construction.  The
/// two texts are string literals: the server keeps the views.
struct FrontDoor {
  int dim = 0;        ///< every ingest batch must carry this dimension...
  int log_delta = 0;  ///< ...and coordinates in [1, 2^log_delta]
  /// Empty for a multi-tenant host.  Otherwise only the default tenant has
  /// storage behind the server, and a frame naming another stream id is
  /// answered kUnknownTenant with this text.
  std::string_view default_tenant_only;
  /// Reply text for a message type the server does not serve.
  std::string_view unsupported;
};

namespace detail {

/// Transport counter block (relaxed atomics, advisory only — same contract
/// as the engine's MetricCounters).
struct NetCounters {
  std::atomic<std::int64_t> connections_active{0};
  std::atomic<std::int64_t> connections_total{0};
  std::atomic<std::int64_t> bytes_in{0};
  std::atomic<std::int64_t> bytes_out{0};
  std::atomic<std::int64_t> busy_rejections{0};
  std::atomic<std::int64_t> malformed_frames{0};
  std::atomic<std::int64_t> requests_by_type[kNumMsgTypes] = {};
  /// Wall time per request, read-to-reply
  /// (TransportMetrics::net_request_latency).
  obs::LatencyHistogram request_latency;
};

}  // namespace detail

/// The framed TCP front door; see the file comment for what a subclass
/// supplies.
class FrameServer {
 public:
  FrameServer(const ServerOptions& options, const FrontDoor& door);
  virtual ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds, listens, and starts the acceptor.  False (with `error` set) on
  /// bind failure; the server object is then inert.
  bool start(std::string& error);

  /// Bound port (resolves option port 0 after start()).
  std::uint16_t port() const { return port_; }

  bool running() const { return started_ && !stopping_.load(); }

  /// Blocks until shutdown is requested (SHUTDOWN frame or stop()).
  void wait();

  /// Graceful drain: stop accepting, finish in-flight requests, join all
  /// threads, then run on_drain().  Idempotent; the destructor calls it
  /// (subclasses whose hooks touch subclass state MUST also call it from
  /// their own destructor, before that state is destroyed).  Must not be
  /// called from a connection thread (the SHUTDOWN handler only *requests*
  /// shutdown for this reason).
  void stop();

  /// The one transport snapshot: connections, bytes, frames, per-type
  /// requests, request latency and dropped trace spans.
  TransportMetrics transport_metrics() const;

  /// The CLUSTER_TRACE_DUMP reply: a single node is a cluster of one and
  /// answers with its local trace rings; the coordinator merges its fleet.
  virtual std::string cluster_trace_json();

 protected:
  /// Where a validated INSERT/DELETE_BATCH goes: `events` (the frame's
  /// coordinates, adopted flat, one op for all) passed the decode,
  /// dimension, coordinate, draining and BUSY checks.  kOk acknowledges the
  /// whole batch; anything else is the typed refusal, with its text in
  /// `reply`.
  virtual Status ingest(std::string_view tenant, const EventBatch& events,
                        std::string& reply) = 0;

  /// Who answers a decoded QUERY.  kOk sends `result` back as a QueryReply
  /// (a miss travels in result.ok/error); anything else is the typed
  /// refusal, with its text in `reply`.
  virtual Status answer_query(std::string_view tenant, const EngineQuery& q,
                              EngineQueryResult& result,
                              std::string& reply) = 0;

  /// Every message type the front door does not answer itself.  Runs on a
  /// connection thread with the tenant prefix already split off `body`;
  /// returns the reply status and sets the reply body.  A type the server
  /// does not serve is answered with unsupported(reply).
  virtual Status serve(MsgType type, std::string_view tenant,
                       std::string_view body, std::string& reply) = 0;

  /// Events accepted but not yet applied: ingest batches are answered BUSY
  /// while it exceeds ServerOptions::busy_backlog, and every BatchReply
  /// carries it.  A server that forwards or applies before acknowledging
  /// has none.
  virtual std::int64_t ingest_backlog() const { return 0; }

  /// Runs once inside stop(), after every connection thread has joined.
  virtual void on_drain() {}

  /// True once a drain has been requested.
  bool draining() const { return stopping_.load(std::memory_order_acquire); }

  const ServerOptions& server_options() const { return options_; }

  /// Answers an undecodable request body: counts a malformed frame and
  /// returns kMalformed with `what` as the reply text.
  Status malformed(std::string_view what, std::string& reply) const;

  /// kUnsupported with FrontDoor::unsupported as the reply text.
  Status unsupported(std::string& reply) const;

 private:
  struct Conn {
    Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(Conn& conn);
  /// Decoded-request dispatch: the generic requests above, then serve().
  /// kShutdown (answered kOk) triggers the drain after the reply is
  /// written; replies are always written as version-1 frames.
  Status dispatch(const FrameHeader& header, std::string_view body,
                  std::string& reply);
  Status ingest_request(MsgType type, std::string_view tenant,
                        std::string_view body, std::string& reply);
  Status query_request(std::string_view tenant, std::string_view body,
                       std::string& reply);
  bool send_reply(Conn& conn, MsgType type, Status status,
                  std::string_view body);
  void request_shutdown();
  void reap_finished_conns();

  ServerOptions options_;
  FrontDoor door_;
  mutable detail::NetCounters counters_;
  Socket listener_;
  std::uint16_t port_ = 0;
  bool started_ = false;
  std::thread acceptor_;

  std::atomic<bool> stopping_{false};
  bool drained_ = false;  // guarded by stop_mu_
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

class EngineServer : public FrameServer {
 public:
  /// The engine must outlive the server; the server never owns it (the
  /// embedder may keep querying in-process after the server drains).
  EngineServer(ClusteringEngine& engine, const ServerOptions& options);
  ~EngineServer() override;

  /// Engine snapshot with the transport counters filled in — what the
  /// METRICS RPC returns as JSON.
  EngineMetrics metrics() const;

 protected:
  Status ingest(std::string_view tenant, const EventBatch& events,
                std::string& reply) override;
  Status answer_query(std::string_view tenant, const EngineQuery& q,
                      EngineQueryResult& result, std::string& reply) override;
  Status serve(MsgType type, std::string_view tenant, std::string_view body,
               std::string& reply) override;
  std::int64_t ingest_backlog() const override;
  void on_drain() override;

 private:
  ClusteringEngine& engine_;
};

}  // namespace skc::net
