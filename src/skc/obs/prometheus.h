// Prometheus text exposition (version 0.0.4) for an EngineMetrics snapshot.
//
// One call renders the full snapshot — counters, gauges, per-shard series,
// per-type request counts, and the four op-latency histograms — as the
// plain-text format every Prometheus-compatible scraper ingests:
//
//   # TYPE skc_events_submitted_total counter
//   skc_events_submitted_total 1024
//   # TYPE skc_op_latency_seconds histogram
//   skc_op_latency_seconds_bucket{op="query",le="0.001"} 2
//   ...
//
// The engine's log-bucketed histograms are re-aggregated onto a fixed
// 16-rung `le` ladder (100 µs .. 10 s): each internal bucket is folded into
// the first rung at or above its upper bound, which can only push a sample
// UP a rung — cumulative bucket counts stay valid upper bounds and the
// distortion is bounded by the internal 6.25% bucket width.  _sum and
// _count are exact.
//
// EngineServer serves this from the PROMETHEUS RPC and `skc_cli serve`
// prints it on demand; see DESIGN.md §10 and the README scrape quickstart.
// A server without an engine of its own (the tenant host) exports only the
// transport families via transport_prometheus_text.
#pragma once

#include <string>

#include "skc/engine/metrics.h"

namespace skc::obs {

/// Renders the snapshot as Prometheus text exposition (trailing newline,
/// stable metric order — goldenable): the engine families, then the
/// transport families, then skc_op_latency_seconds for submit_batch, query,
/// checkpoint and net_request.
std::string prometheus_text(const EngineMetrics& metrics);

/// The transport families alone: the skc_net_* families,
/// skc_trace_dropped_spans_total, skc_net_requests_total and
/// skc_op_latency_seconds{op="net_request"}.
std::string transport_prometheus_text(const TransportMetrics& transport);

/// Appends the six skc_net_* connection/byte/frame families — the part of
/// the transport section every front door's exposition shares.
void append_net_families(std::string& out, const TransportMetrics& transport);

}  // namespace skc::obs
