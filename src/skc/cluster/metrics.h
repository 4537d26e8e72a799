// Coordinator metrics — the cluster-level analogue of EngineMetrics.
//
// Two byte ledgers coexist on purpose:
//   * `protocol_*` / `ingest_*` come from the coordinator's dist/Network
//     instances: every *logical* protocol message is accounted at
//     frame_wire_bytes(payload), exactly how the in-process simulation of
//     Lemma 4.6 (coreset/distributed.cpp) measures Theorem 4.7's
//     communication;
//   * `wire_*` come from the SkcClient socket counters: what actually
//     crossed loopback, retries and all.
// bench_cluster asserts the two agree within ±10% per worker — the proof
// that the wire protocol carries the paper's message structure and nothing
// else — and that protocol bytes stay flat across a 10x stream-size sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "skc/cluster/registry.h"
#include "skc/engine/metrics.h"
#include "skc/net/frame.h"
#include "skc/obs/histogram.h"

namespace skc::cluster {

/// The inherited transport block is the front door's (FrameServer)
/// snapshot, filled when serving TCP; the JSON and Prometheus renderings
/// carry its net_* counters.
struct ClusterMetrics : TransportMetrics {
  int workers = 0;
  int workers_alive = 0;

  std::int64_t batches = 0;           ///< ingest batches accepted
  std::int64_t events_forwarded = 0;  ///< stream events routed to workers
  std::int64_t queries = 0;
  std::int64_t merge_rounds = 0;      ///< per-worker sketch fetches
  std::int64_t member_snapshots = 0;  ///< checkpoints stored coordinator-side
  std::int64_t failovers = 0;         ///< dead workers re-assigned
  std::int64_t replayed_events = 0;   ///< events re-forwarded during failover

  /// Accounted bytes (dist/Network ledger, frame headers included).
  /// Protocol = hello + heartbeat + merge + snapshot + failover traffic —
  /// the Theorem 4.7 quantity; ingest = forwarded point batches (linear in
  /// n by construction, reported separately).
  std::int64_t protocol_bytes = 0;
  std::int64_t protocol_messages = 0;
  std::int64_t ingest_bytes = 0;
  std::int64_t ingest_messages = 0;
  std::vector<std::int64_t> worker_protocol_bytes;  ///< accounted, per rank
  std::vector<std::int64_t> worker_ingest_bytes;

  /// Real socket traffic per worker (sent + received across that worker's
  /// data + heartbeat clients).
  std::vector<std::int64_t> worker_wire_bytes;

  /// Registry snapshot (state, misses, watermarks) per rank.
  std::vector<WorkerStatus> worker_status;

  /// Coordinator-side latencies.
  obs::HistogramSnapshot query_latency;    ///< fan-out + merge + solve
  obs::HistogramSnapshot forward_latency;  ///< per ingest batch fan-out
  /// Per-worker MERGE_SKETCH round-trip (the per-worker histograms the
  /// Prometheus exposition labels with worker="<rank>").
  std::vector<obs::HistogramSnapshot> worker_merge_latency;
};

/// One JSON object (stable key order, no trailing whitespace).
std::string cluster_metrics_json(const ClusterMetrics& m);

/// Prometheus text exposition with per-worker labels (worker="<rank>") on
/// the byte ledgers, registry gauges, and merge-latency histograms.
std::string cluster_prometheus_text(const ClusterMetrics& m);

/// One worker's observability pull for the fleet scrape: the WORKER_STATS
/// reply plus the coordinator's clock model for that node.
struct FleetWorker {
  int id = 0;
  std::string address;  ///< host:port label
  bool alive = false;   ///< heartbeating AND answered the stats pull
  /// Estimated coordinator-minus-worker tracer clock offset (NTP midpoint
  /// of the lowest-RTT heartbeat; see HeartbeatReply::tracer_now_micros).
  std::int64_t clock_offset_micros = 0;
  std::int64_t best_rtt_micros = -1;  ///< RTT behind the estimate; -1 = none
  net::WorkerStatsReply stats;
};

struct FleetStats {
  std::vector<FleetWorker> workers;
};

/// The skc_cluster_* fleet family: per-worker clock/liveness/drop series,
/// per-worker op counters, fleet-wide latency histograms merged bucket-wise
/// across workers (so the p50/p99/p999 quantile gauges describe the whole
/// fleet, not an average of averages), and per-tenant event counters
/// labeled {worker, tenant}.  Pure string building — goldenable.
std::string fleet_prometheus_text(const FleetStats& f);

}  // namespace skc::cluster
