#include "skc/obs/prometheus.h"

#include <cinttypes>

#include "skc/obs/prom_format.h"

namespace skc::obs {

namespace {

using prom::counter;
using prom::gauge;
using prom::gauge_i;
using prom::line;

/// Human names for net::MsgType indices (kept in sync with net/frame.h; a
/// textual table avoids an obs -> net dependency.  frame.h's static_assert
/// on kNumMsgTypes pins the enum dense, and the Prometheus golden test
/// covers every index, so a new opcode without a name here shows up as an
/// "unknown" label in a reviewed golden diff).
const char* request_type_name(std::size_t index) {
  static constexpr const char* kNames[] = {
      "ping",          "insert_batch",  "delete_batch", "query",
      "metrics",       "checkpoint",    "shutdown",     "trace_dump",
      "prometheus",    "worker_hello",  "heartbeat",    "merge_sketch",
      "fetch_coreset", "ship_snapshot", "tenant_stats",
      "cluster_trace_dump", "worker_stats", "flight_recorder"};
  constexpr std::size_t n = sizeof(kNames) / sizeof(kNames[0]);
  return index < n ? kNames[index] : "unknown";
}

/// One series of the shared skc_op_latency_seconds histogram family.
void op_latency_series(std::string& out, const char* op,
                       const HistogramSnapshot& h) {
  prom::histogram_series(out, "skc_op_latency_seconds",
                         std::string("op=\"") + op + "\"", h);
}

/// The transport section up to the latency family: the skc_net_* families,
/// dropped spans and the per-type request counters.
void append_transport_counters(std::string& out, const TransportMetrics& t) {
  append_net_families(out, t);
  counter(out, "skc_trace_dropped_spans_total",
          "Spans lost to trace-ring overwrites.", t.trace_dropped_spans);

  line(out, "# HELP skc_net_requests_total Requests served by message type.");
  line(out, "# TYPE skc_net_requests_total counter");
  for (std::size_t i = 0; i < t.net_requests_by_type.size(); ++i) {
    line(out, "skc_net_requests_total{type=\"%s\"} %" PRId64,
         request_type_name(i), t.net_requests_by_type[i]);
  }
}

}  // namespace

void append_net_families(std::string& out, const TransportMetrics& t) {
  gauge_i(out, "skc_net_connections_active", "Open TCP connections.",
          t.net_connections_active);
  counter(out, "skc_net_connections_total", "TCP connections accepted.",
          t.net_connections_total);
  counter(out, "skc_net_bytes_in_total", "Wire bytes received.", t.net_bytes_in);
  counter(out, "skc_net_bytes_out_total", "Wire bytes sent.", t.net_bytes_out);
  counter(out, "skc_net_busy_rejections_total", "Load-shed BUSY replies.",
          t.net_busy_rejections);
  counter(out, "skc_net_malformed_frames_total",
          "Rejected headers and payloads.", t.net_malformed_frames);
}

std::string transport_prometheus_text(const TransportMetrics& t) {
  std::string out;
  out.reserve(4096);
  append_transport_counters(out, t);
  line(out,
       "# HELP skc_op_latency_seconds Operation latency by op (net_request).");
  line(out, "# TYPE skc_op_latency_seconds histogram");
  op_latency_series(out, "net_request", t.net_request_latency);
  return out;
}

std::string prometheus_text(const EngineMetrics& m) {
  std::string out;
  out.reserve(4096);

  counter(out, "skc_events_submitted_total", "Events accepted by submit().",
          m.events_submitted);
  counter(out, "skc_events_applied_total",
          "Events drained into a shard builder.", m.events_applied);
  counter(out, "skc_inserts_total", "Insert events applied.", m.inserts);
  counter(out, "skc_deletes_total", "Delete events applied.", m.deletes);
  counter(out, "skc_batches_total", "submit(Stream) calls.", m.batches);
  counter(out, "skc_queries_total", "Clustering queries served.", m.queries);
  counter(out, "skc_checkpoints_total", "Checkpoints written.", m.checkpoints);
  counter(out, "skc_restores_total", "Checkpoints restored.", m.restores);

  gauge_i(out, "skc_net_points",
          "Surviving points (insertions minus deletions).", m.net_points);
  gauge(out, "skc_uptime_seconds", "Engine uptime.", m.uptime_seconds);
  gauge(out, "skc_ingest_events_per_second",
        "Sustained ingest rate (events applied / uptime).",
        m.ingest_events_per_second);
  gauge_i(out, "skc_last_checkpoint_bytes", "Size of the last checkpoint.",
          m.last_checkpoint_bytes);
  gauge_i(out, "skc_sketch_bytes",
          "Summed builder footprint across shards.", m.sketch_bytes);

  line(out, "# HELP skc_shard_queue_depth Per-shard ingest backlog.");
  line(out, "# TYPE skc_shard_queue_depth gauge");
  for (std::size_t s = 0; s < m.shard_queue_depth.size(); ++s) {
    line(out, "skc_shard_queue_depth{shard=\"%zu\"} %" PRId64, s,
         m.shard_queue_depth[s]);
  }
  line(out, "# HELP skc_shard_events_applied_total Events applied per shard.");
  line(out, "# TYPE skc_shard_events_applied_total counter");
  for (std::size_t s = 0; s < m.shard_events_applied.size(); ++s) {
    line(out, "skc_shard_events_applied_total{shard=\"%zu\"} %" PRId64, s,
         m.shard_events_applied[s]);
  }

  append_transport_counters(out, m);

  line(out,
       "# HELP skc_op_latency_seconds Operation latency by op "
       "(submit_batch, query, checkpoint, net_request).");
  line(out, "# TYPE skc_op_latency_seconds histogram");
  op_latency_series(out, "submit_batch", m.submit_latency);
  op_latency_series(out, "query", m.query_latency);
  op_latency_series(out, "checkpoint", m.checkpoint_latency);
  op_latency_series(out, "net_request", m.net_request_latency);

  return out;
}

}  // namespace skc::obs
