// Embedded metrics for the clustering engine.
//
// The engine updates a small set of relaxed atomics on its hot paths (one
// fetch_add per event batch, never per coordinate) and assembles a coherent
// EngineMetrics snapshot on demand.  The snapshot is a plain struct so
// embedders can export it to whatever telemetry system they run;
// metrics_json() renders the same snapshot as a single JSON object for the
// CLI driver and the benchmarks.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "skc/obs/histogram.h"

namespace skc {

/// Front-door transport counters (src/skc/net/): the one snapshot a
/// net::FrameServer takes of its connections, bytes, frames and requests.
/// All-zero for an engine used in-process.
struct TransportMetrics {
  std::int64_t net_connections_active = 0;
  std::int64_t net_connections_total = 0;   ///< accepted since start
  std::int64_t net_bytes_in = 0;            ///< wire bytes received (frames)
  std::int64_t net_bytes_out = 0;           ///< wire bytes sent (frames)
  std::int64_t net_busy_rejections = 0;     ///< load-shed BUSY replies
  std::int64_t net_malformed_frames = 0;    ///< rejected headers/payloads
  /// Requests served, indexed by net::MsgType.
  std::vector<std::int64_t> net_requests_by_type;
  /// Spans lost to trace-ring overwrites (obs::Tracer::total_dropped());
  /// filled by servers so the scrape stays deterministic for an engine
  /// used in-process (always 0 there).
  std::int64_t trace_dropped_spans = 0;
  /// Per-request dispatch time, read-to-reply (all message types).
  obs::HistogramSnapshot net_request_latency;
};

/// Point-in-time view of the engine's counters.  The inherited transport
/// block stays zero in-process; an EngineServer fills it into its metrics()
/// snapshot and the METRICS RPC, so one JSON object covers engine +
/// transport.
struct EngineMetrics : TransportMetrics {
  std::int64_t events_submitted = 0;  ///< accepted by submit()
  std::int64_t events_applied = 0;    ///< drained into a shard builder
  std::int64_t inserts = 0;
  std::int64_t deletes = 0;
  std::int64_t batches = 0;   ///< submit() calls
  std::int64_t queries = 0;
  std::int64_t checkpoints = 0;
  std::int64_t restores = 0;

  std::int64_t net_points = 0;  ///< insertions minus deletions, applied
  double uptime_seconds = 0.0;
  /// events_applied / uptime — the sustained ingest rate.
  double ingest_events_per_second = 0.0;

  std::int64_t last_checkpoint_bytes = 0;
  std::int64_t sketch_bytes = 0;  ///< summed builder footprint across shards

  std::vector<std::int64_t> shard_queue_depth;  ///< current per-shard backlog
  std::vector<std::int64_t> shard_events_applied;

  // Per-op latency distributions (src/skc/obs/histogram.h).  These replace
  // the old scalar last/total query timers: metrics_json() derives the
  // legacy last_query_millis / total_query_millis keys from query_latency,
  // and both it and the Prometheus exposition report p50/p99/p999 from the
  // same buckets.
  obs::HistogramSnapshot submit_latency;      ///< submit() batches
  obs::HistogramSnapshot query_latency;       ///< query() wall time
  obs::HistogramSnapshot checkpoint_latency;  ///< checkpoint() wall time
};

/// Renders a snapshot as one JSON object (stable key order, no trailing
/// whitespace) — e.g. {"events_submitted":1024,...,"shard_queue_depth":[0,3]}.
std::string metrics_json(const EngineMetrics& m);

/// The transport block alone, as one JSON object with the same keys the
/// engine object uses for it (the net_* counters, trace_dropped_spans and
/// the net_request_latency keys).
std::string transport_metrics_json(const TransportMetrics& t);

/// Appends the six net_* connection/byte/frame keys and
/// net_requests_by_type, comma-separated, with no surrounding braces —
/// shared by every front door's JSON rendering.
void append_net_counters_json(std::string& out, const TransportMetrics& t);

namespace detail {

/// The engine-internal counter block; all relaxed (metrics are advisory,
/// never used for synchronization — the engine's barriers are the per-shard
/// progress counters, not these).
struct MetricCounters {
  std::atomic<std::int64_t> events_submitted{0};
  std::atomic<std::int64_t> events_applied{0};
  std::atomic<std::int64_t> inserts{0};
  std::atomic<std::int64_t> deletes{0};
  std::atomic<std::int64_t> batches{0};
  std::atomic<std::int64_t> queries{0};
  std::atomic<std::int64_t> checkpoints{0};
  std::atomic<std::int64_t> restores{0};
  std::atomic<std::int64_t> last_checkpoint_bytes{0};
  // Per-op latency recorders (one relaxed fetch_add per op on the hot
  // path); race-free by construction where the old scalar micros counters
  // could tear a mean across a concurrent metrics() snapshot.
  obs::LatencyHistogram submit_latency;
  obs::LatencyHistogram query_latency;
  obs::LatencyHistogram checkpoint_latency;
};

}  // namespace detail

}  // namespace skc
