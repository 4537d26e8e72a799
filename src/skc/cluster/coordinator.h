// ClusterCoordinator — the multi-node serving layer (§4.3, Theorem 4.7).
//
// Real processes over real TCP: each worker is a ClusteringEngine behind an
// EngineServer; the coordinator owns the topology and implements the paper's
// constant-round protocol over the net/frame.h wire format.
//
//   ingest    submit() hashes each point to one of W slots (same point-hash
//             discipline as the engine's shards, so an insert and its later
//             delete land on the same worker) and forwards per-worker
//             batches over kInsertBatch/kDeleteBatch.  Forwarded-ingest
//             bytes are linear in n by design and ledgered separately.
//
//   query     one merge round, as in Lemma 4.6: every live worker returns
//             its whole engine state as one linear sketch (kMergeSketch);
//             the coordinator loads each into its own builder, finalizes
//             their sum once in place, and solves capacitated
//             k-median/k-means on the merged coreset exactly like a single
//             engine would.  The per-round communication is W sketches,
//             each O~(d poly(eps^-1 eta^-1 k log Delta)) in sketch mode —
//             independent of n, which bench_cluster measures.  The two
//             steps are finalize_merged() and solve_merged() (engine.h), the
//             functions ClusteringEngine::query runs over its shards.
//
//   failover  every fetched sketch doubles as that worker's member
//             checkpoint: the coordinator keeps the blob plus a replay
//             buffer of events forwarded past the blob's watermark.  When a
//             worker misses `heartbeat_miss_limit` probes (or an RPC to it
//             fails), the first detector claims the failure in the
//             WorkerRegistry, ships the checkpoint to a survivor
//             (kShipSnapshot — the linear merge makes adoption a sketch
//             add), replays the buffered tail, and re-points the dead
//             worker's slots.  Queries retry once after a failover, so a
//             kill between rounds costs one extra round, not an error.
//
// Communication is double-ledgered: every logical protocol message is
// accounted in a dist/Network at frame_wire_bytes(payload) — the in-process
// instrument the Theorem 4.7 simulation uses — while the SkcClient sockets
// count real bytes moved.  bench_cluster asserts the ledgers agree per
// worker within ±10%.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "skc/cluster/metrics.h"
#include "skc/cluster/registry.h"
#include "skc/coreset/params.h"
#include "skc/coreset/streaming.h"
#include "skc/dist/network.h"
#include "skc/engine/engine.h"
#include "skc/net/client.h"
#include "skc/net/server.h"
#include "skc/obs/histogram.h"
#include "skc/stream/events.h"

namespace skc::cluster {

struct WorkerAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct CoordinatorOptions {
  /// Front-door transport (the coordinator speaks the same wire protocol
  /// as an EngineServer, so SkcClient works unchanged against it).
  net::ServerOptions server;
  std::vector<WorkerAddress> workers;

  /// Sketch configuration — must match every worker's engine exactly; the
  /// WORKER_HELLO handshake refuses a mismatched worker by fingerprint.
  int dim = 2;
  CoresetParams params;
  StreamingOptions streaming;

  net::ClientOptions client;
  int heartbeat_interval_ms = 250;
  int heartbeat_miss_limit = 3;
  /// Replay-buffer bound per worker: once this many events sit past the
  /// member checkpoint's watermark, the coordinator refreshes the
  /// checkpoint (one kMergeSketch) instead of buffering without bound.
  std::size_t replay_capacity = 1 << 16;
};

class ClusterCoordinator : public net::FrameServer {
 public:
  explicit ClusterCoordinator(const CoordinatorOptions& options);
  ~ClusterCoordinator() override;

  /// Dials every configured worker (data + heartbeat connections), runs the
  /// fingerprint handshake, and starts the heartbeat prober.  False (with
  /// `error` set) if any worker is unreachable or refuses the handshake.
  /// Call before start()/submit()/query().
  // skc-lint: allow(skc-socket) wrapper API surface, not a raw syscall
  bool connect(std::string& error);

  int workers() const { return static_cast<int>(links_.size()); }

  /// Routes a batch to the owning workers.  Returns false when no live
  /// worker remains to accept some slice of it.  The batch's dim must be
  /// the cluster's (checked).
  bool submit(const EventBatch& batch);

  /// Cluster epoch barrier: polls worker heartbeats until every event this
  /// coordinator forwarded has been applied.  (Queries do not need this —
  /// workers flush before exporting — but benches use it to fence ingest.)
  void flush();

  /// One merge round + solve, mirroring ClusteringEngine::query semantics
  /// on the union of all workers' streams.  Retries once after a failover.
  EngineQueryResult query(const EngineQuery& q);

  /// Refreshes every live worker's member checkpoint (one kMergeSketch
  /// each); the front door maps kCheckpoint onto this.
  bool checkpoint_members();

  /// Sends SHUTDOWN to every live worker (their servers drain gracefully).
  void shutdown_workers();

  /// Live owner rank for (tenant, point): the routing hash mixes the
  /// stream id into the point hash, so one tenant's identical points still
  /// co-locate (insert/delete cancellation) while distinct tenants spread
  /// across workers.  The default tenant ("") reproduces the legacy
  /// point-only routing bit-for-bit, so pre-tenant deployments re-route
  /// nothing.  Returns -1 when no live worker owns the slot.
  int owner_of(std::string_view tenant, std::span<const Coord> p) const;

  ClusterMetrics metrics() const;

  /// Pulls every live worker's WORKER_STATS reply (latency histograms,
  /// trace-drop counters, per-tenant rows) and pairs each with the
  /// heartbeat prober's clock model — the input to fleet_prometheus_text.
  FleetStats fleet_stats();

  /// One fleet timeline: the coordinator's own trace ring plus every live
  /// worker's TRACE_DUMP, each rebased onto the coordinator's tracer clock
  /// via the heartbeat offset estimate and emitted as its own
  /// chrome://tracing process lane (pid 0 = coordinator, pid id+1 =
  /// worker id).  The CLUSTER_TRACE_DUMP reply.
  std::string cluster_trace_json() override;

 protected:
  // The front door (FrameServer) decodes and validates every generic
  // request; the coordinator forwards batches to its workers, answers
  // queries with one merge round, and serves its own fleet METRICS,
  // PROMETHEUS, WORKER_STATS and CHECKPOINT.
  net::Status ingest(std::string_view tenant, const EventBatch& events,
                     std::string& reply) override;
  net::Status answer_query(std::string_view tenant, const EngineQuery& q,
                           EngineQueryResult& result,
                           std::string& reply) override;
  net::Status serve(net::MsgType type, std::string_view tenant,
                    std::string_view body, std::string& reply) override;

 private:
  /// One worker: two dedicated connections (probes must never queue behind
  /// a multi-megabyte sketch transfer), the failover state, and per-worker
  /// latency.  `mu` serializes the data client, replay buffer, and
  /// snapshot; `hb_mu` the heartbeat client.  Lock order: topo_mu_ before
  /// any link mutex; never two link `mu` except ascending by id (failover
  /// holds the dead link's, then the survivor's — ordered by aliveness, and
  /// dead links take no new RPCs, so the pair cannot invert).
  struct WorkerLink {
    int id = 0;
    WorkerAddress address;

    std::mutex mu;
    net::SkcClient data;
    EventBatch replay;  ///< acknowledged events past the member checkpoint
    net::SketchSnapshot snapshot;  ///< member checkpoint (blob may be empty)

    std::mutex hb_mu;
    net::SkcClient heartbeat;

    obs::LatencyHistogram merge_latency;

    /// Clock model for the fleet timeline, maintained by the heartbeat
    /// prober: the NTP midpoint estimate from the lowest-RTT probe so far
    /// (coordinator tracer clock minus worker tracer clock).  Relaxed
    /// atomics — readers only need a coherent recent estimate.
    std::atomic<std::int64_t> clock_offset_micros{0};
    std::atomic<std::int64_t> best_rtt_micros{-1};
  };

  /// Routing slot of a point, with the tenant's hash mixed into the key
  /// (0 = default tenant, which leaves the legacy route untouched).
  std::size_t slot_of(std::uint64_t tenant_hash, std::span<const Coord> p) const;
  /// Current owner rank for each slot (copied under topo_mu_).
  std::vector<int> owners_snapshot() const;

  /// Forwards `events` (already routed to this owner) as op-runs of
  /// batches.  Appends acknowledged events to the replay buffer and
  /// refreshes the member checkpoint past replay_capacity.  On transport
  /// failure returns false and appends the unacknowledged tail to
  /// `leftover`.
  bool forward_to(int owner, const EventBatch& events, EventBatch& leftover);

  /// Refreshes `link`'s member checkpoint via kMergeSketch; expects
  /// link.mu held.  Returns false on transport failure.
  bool checkpoint_locked(WorkerLink& link);

  /// Claims `id`'s failure (first claimant only), ships its checkpoint +
  /// replay tail to a survivor, and re-points its slots.  Safe to call
  /// from the heartbeat thread and from failed RPC sites concurrently.
  void handle_worker_failure(int id);

  void heartbeat_loop();
  void stop_heartbeat();

  /// Ledger helpers: account one logical request/reply exchange with
  /// worker `id` on the given network.
  void account(Network& net, int id, std::size_t request_payload,
               std::size_t reply_payload);

  CoordinatorOptions options_;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t route_key_ = 0;

  std::vector<std::unique_ptr<WorkerLink>> links_;
  WorkerRegistry registry_;

  mutable std::mutex topo_mu_;
  std::vector<int> slot_owner_;  ///< slot (original rank) -> live owner rank

  /// Theorem 4.7 ledgers: machine 0 is the coordinator, machine id+1 is
  /// worker id.  Network::send is internally locked.
  Network protocol_net_;
  Network ingest_net_;

  std::atomic<std::int64_t> batches_{0};
  std::atomic<std::int64_t> events_forwarded_{0};
  std::atomic<std::int64_t> queries_{0};
  std::atomic<std::int64_t> merge_rounds_{0};
  std::atomic<std::int64_t> member_snapshots_{0};
  std::atomic<std::int64_t> failovers_{0};
  std::atomic<std::int64_t> replayed_events_{0};
  obs::LatencyHistogram query_latency_;
  obs::LatencyHistogram forward_latency_;

  std::thread heartbeat_thread_;
  std::mutex hb_stop_mu_;
  std::condition_variable hb_stop_cv_;
  bool hb_stop_ = false;  // guarded by hb_stop_mu_
  bool connected_ = false;
};

}  // namespace skc::cluster
