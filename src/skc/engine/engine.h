// ClusteringEngine — the long-lived serving layer over the one-pass
// dynamic-stream coreset (Theorem 4.5).
//
// The theorem's construction is a *linear sketch*, which makes it trivially
// shardable: split the event stream across N independent builders by any
// rule, add the sketches, and the sum summarizes the union — the same
// composition the distributed protocol (Theorem 4.7) and the merge-reduce
// lineage [HPM04/BFL16] exploit.  The engine turns that observation into a
// concurrent system:
//
//   ingest   submit(batch) is the one ingest entry (a single event is a
//            one-event batch, so every call is counted and timed the
//            same way).  One pass hashes each point of the flat EventBatch
//            to one of N shards and splits the batch into per-shard parts;
//            each part joins its shard's queue, merged into the newest
//            queued batch while both fit one builder call (backpressure:
//            producers block when a shard is `queue_capacity` events
//            ahead).  Shard queues are drained by tasks on an internal
//            ThreadPool; each drain applies the queued batches in place to
//            the shard's StreamingCoresetBuilder, at most
//            StreamingCoresetBuilder::kMaxBatch events per hold of the
//            builder lock.  Routing is by point-hash, so an insert and its
//            later delete always land on the same shard and the shard
//            sketch stays a valid summary of its sub-multiset.
//
//   query    query(q) takes an epoch barrier (waits until every event
//            submitted before the call has been applied), then takes every
//            shard's builder lock in index order and finalizes the linear
//            sum of the live shard builders in place (finalize_merged; in
//            exact mode the result of one builder fed the whole stream),
//            with no query-local copy or merge.  The locks are released
//            before solve_merged() solves capacitated k-median/k-means on the
//            merged coreset, so ingest stalls only for the finalize.  The
//            cluster coordinator runs the same two steps over its workers'
//            sketches.
//
//   durability  checkpoint(path)/restore(path) persist every shard builder
//            behind a versioned header; any mismatch or truncation makes
//            restore() return false and leaves the engine untouched.
//
//   metrics  a lock-free counter block (events, rates, queue depths, query
//            latency, checkpoint bytes) snapshotted by metrics() and
//            rendered by metrics_json().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "skc/common/serial.h"
#include "skc/common/timer.h"
#include "skc/coreset/coreset.h"
#include "skc/coreset/params.h"
#include "skc/coreset/streaming.h"
#include "skc/engine/metrics.h"
#include "skc/solve/capacitated_kmeans.h"
#include "skc/stream/events.h"

namespace skc {

struct EngineOptions {
  int num_shards = 4;
  /// Drain workers on the internal pool; -1 = one per shard, 0 = inline
  /// (every submit drains synchronously — deterministic, for tests).
  int worker_threads = -1;
  /// Externally owned drain pool shared across engines.  Multi-tenant hosts
  /// run thousands of engines; per-engine pools would mean thousands of
  /// idle threads, so the tenant registry points every engine at one pool.
  /// When set, worker_threads is ignored and the engine never destroys the
  /// pool — the owner must keep it alive until every engine using it has
  /// been shut down (shutdown() waits for this engine's in-flight drains,
  /// not for the pool).
  class ThreadPool* shared_pool = nullptr;
  /// Per-shard queue bound in events; producers block past this backlog.
  /// An empty queue admits a batch of any size.
  std::size_t queue_capacity = 4096;
  /// Per-shard builder configuration.  max_points should bound the events
  /// of the WHOLE stream, not one shard's slice, so that every shard
  /// enumerates the same o-guess grid (required by the sketch merge).
  StreamingOptions streaming;
};

struct EngineQuery {
  int k = 0;                    ///< 0 = the k the engine's params carry
  double capacity_slack = 1.1;  ///< capacity = slack * ceil(n / k)
  /// Wait for all previously submitted events before reading the shards
  /// (the epoch barrier).  false = read whatever has been applied so far.
  bool barrier = true;
  /// Skip the solver and return only the merged summary.
  bool summary_only = false;
  int solver_restarts = 1;
};

struct EngineQueryResult {
  bool ok = false;
  std::string error;  ///< set iff !ok
  /// Merged coreset at the query epoch (valid when ok).
  Coreset summary;
  /// Capacitated solution on the summary (valid when ok && !summary_only);
  /// k-median local search for r <= 1, balanced Lloyd otherwise.
  CapacitatedSolution solution;
  std::int64_t net_points = 0;  ///< surviving points at the epoch
  double capacity = 0.0;        ///< per-center capacity used (full-data units)
  /// Everything before the solver: the wait for the shard locks (or the
  /// cluster's merge round) and the finalize.
  double merge_millis = 0.0;
  double solve_millis = 0.0;    ///< the capacitated solver alone
};

/// The query's two steps, shared by ClusteringEngine::query (over its live
/// shard builders, under their locks) and cluster::ClusterCoordinator::query
/// (over its workers' loaded sketches).
///
/// finalize_merged: one finalize over the sum of `parts`, read in place
/// (StreamingCoresetBuilder::finalize), and the mapping of its failures onto
/// `error`.  On success ok is set with net_points and the summary;
/// merge_millis reads `merge_timer`, started before the parts were gathered
/// (the engine's lock wait or the cluster's merge round).
EngineQueryResult finalize_merged(std::span<const StreamingCoresetBuilder* const> parts,
                                  const Timer& merge_timer);

/// solve_merged: unless the finalize failed or q.summary_only, capacity
/// scaling onto the summary's weight, the solver seed and the solver choice
/// (k-median local search for r <= 1, balanced Lloyd otherwise).  A k larger
/// than the summary is answered with ok = false, never handed to the solver.
void solve_merged(EngineQueryResult& result, const EngineQuery& q,
                  const CoresetParams& params, int log_delta);

/// Serialized single-builder export of the engine's whole state plus its
/// epoch watermarks — the unit the cluster protocol ships (kMergeSketch
/// replies, kShipSnapshot requests) and import_sketch() adopts.
struct EngineSketchExport {
  std::string blob;
  std::int64_t net_points = 0;
  std::int64_t events_applied = 0;  ///< events folded into the blob
};

/// Hash of every sketch-compatibility-relevant knob (dim, the full
/// CoresetParams, the full StreamingOptions).  Two engines whose
/// fingerprints match build mergeable linear sketches; the cluster
/// handshake (WORKER_HELLO) compares fingerprints so a misconfigured worker
/// is refused before any sketch crosses the wire.
std::uint64_t engine_config_fingerprint(int dim, const CoresetParams& params,
                                        const StreamingOptions& streaming);

class ClusteringEngine {
 public:
  ClusteringEngine(int dim, const CoresetParams& params,
                   const EngineOptions& options);
  ~ClusteringEngine();

  ClusteringEngine(const ClusteringEngine&) = delete;
  ClusteringEngine& operator=(const ClusteringEngine&) = delete;

  int dim() const { return dim_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  const CoresetParams& params() const { return params_; }
  const EngineOptions& options() const { return options_; }

  /// The one ingest entry: splits the batch into one part per shard and
  /// queues each part (blocking on backpressure), then records one
  /// `batches` tick and one submit_latency sample.  The batch's dim must be
  /// the engine's (checked).  Must not be called after shutdown().
  void submit(const EventBatch& batch);
  /// The Stream entry: flattens once (checking every point's length) and
  /// submits the result.
  void submit(const Stream& batch);

  /// Epoch barrier: returns once every event submitted before this call has
  /// been applied to its shard builder.
  void flush();

  /// Merged-coreset clustering query; stalls every shard's ingest for the
  /// finalize over the live shard builders, not for the solver.
  EngineQueryResult query(const EngineQuery& q);

  /// Persists every shard builder behind a versioned header.  Takes the
  /// epoch barrier first.  Returns false on I/O failure.
  bool checkpoint(const std::string& path);
  /// Restores a checkpoint written by an engine with identical
  /// (dim, params, num_shards, streaming options).  Returns false on
  /// mismatch, corruption, or truncation; the engine keeps its current
  /// state in that case.
  bool restore(const std::string& path);

  /// Byte forms of checkpoint()/restore() — what checkpoint files and
  /// tenant spills are made of.  Format version 2 frames the body with its
  /// byte count and a CRC-64 so a torn write or a flipped bit anywhere in
  /// the file fails the restore up front instead of relying on per-section
  /// parsers to notice; any other version, version 1 included, is refused.
  /// save_state takes the epoch barrier first, then appends the frame to
  /// `out`, writing the body once and patching its size and CRC in place.
  /// load_state reads one frame that fills `bytes` exactly and follows the
  /// same parse-then-swap contract as restore().
  void save_state(serial::Writer& out);
  bool load_state(std::string_view bytes);

  /// A new engine of (dim, params, options) holding the state of a
  /// save_state() frame, parsed straight into the shard builders it
  /// creates rather than into a second builder per shard; null when such
  /// an engine's load_state() would refuse `bytes`.  Counts one restore.
  static std::unique_ptr<ClusteringEngine> from_state(int dim, const CoresetParams& params,
                                                      const EngineOptions& options,
                                                      std::string_view bytes);

  /// Cluster export: takes the epoch barrier, folds every shard builder
  /// into one via the linear merge (the sum query() finalizes in place),
  /// and serializes the result.  The blob
  /// summarizes every event applied to this engine and merges losslessly
  /// with any engine of identical configuration (exact mode: bit-identical
  /// to feeding one builder the union).
  EngineSketchExport export_sketch();

  /// Cluster failover: folds a peer engine's export_sketch() blob into this
  /// engine's state (linear merge into shard 0 — queries merge all shards,
  /// so cross-shard placement of adopted mass is immaterial).  The blob
  /// must come from an engine with identical (dim, params, streaming
  /// options); returns false on mismatch or corruption, leaving this
  /// engine untouched.
  bool import_sketch(const std::string& blob);

  /// Net surviving point count across shards (insertions minus deletions).
  std::int64_t net_count() const;

  /// Summed builder footprint across shards (the sketch RSS this engine
  /// pins) — what the tenant registry charges against a memory quota
  /// without paying for a full metrics() snapshot.
  std::int64_t sketch_bytes() const;

  /// Events enqueued but not yet applied, summed across shards — the
  /// backlog a front end (e.g. net::EngineServer) tests for load shedding
  /// before submit() would block on backpressure.
  std::int64_t queue_backlog() const;

  EngineMetrics metrics() const;

  /// Stops accepting events and drains every queue.  Idempotent; the
  /// destructor calls it.  query()/checkpoint() remain usable afterwards.
  void shutdown();

 private:
  struct Shard;

  std::size_t shard_of(std::span<const Coord> p) const;
  /// Queues one shard's part of a batch, waiting for room first.
  void enqueue(Shard& shard, EventBatch part);
  void schedule_drain(Shard& shard);
  void drain(Shard& shard);
  void save_body(serial::Writer& out);
  /// The payload of one save_state() frame that fills `bytes` exactly, its
  /// CRC checked; false if refused.
  static bool open_frame(std::string_view bytes, std::string_view& payload);
  /// Parses a body written by an engine of this configuration, one shard
  /// builder blob into each of `builders`; false on any refusal, leaving
  /// them part-loaded.
  bool parse_body(serial::Reader& in, std::span<StreamingCoresetBuilder* const> builders) const;
  /// parse_body into fresh builders, then swapped in: a refusal leaves the
  /// engine unchanged.
  bool load_body(serial::Reader& in);

  int dim_;
  CoresetParams params_;
  EngineOptions options_;
  std::uint64_t route_key_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Drain pool: owned_pool_ when this engine created it, else the
  /// embedder's shared pool.  pool_ is the one schedule_drain uses.
  std::unique_ptr<class ThreadPool> owned_pool_;
  class ThreadPool* pool_ = nullptr;
  /// Drain tasks handed to pool_ and not yet returned — a shared pool
  /// cannot be wait_idle()d per engine, so shutdown() waits on this.
  std::atomic<std::int64_t> drains_in_flight_{0};
  std::mutex drains_mu_;
  std::condition_variable drains_cv_;
  mutable detail::MetricCounters counters_;
  Timer uptime_;
  std::atomic<bool> accepting_{true};
};

}  // namespace skc
