#include "skc/cluster/metrics.h"

#include <cinttypes>
#include <cstdio>

#include "skc/obs/prom_format.h"
#include "skc/obs/prometheus.h"

namespace skc::cluster {

namespace {

void append_kv(std::string& out, const char* key, std::int64_t value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRId64, key, value);
  out += buf;
}

void append_kv(std::string& out, const char* key,
               const std::vector<std::int64_t>& values) {
  out += '"';
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%" PRId64, i ? "," : "", values[i]);
    out += buf;
  }
  out += ']';
}

void append_kv_d(std::string& out, const char* key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6g", key, value);
  out += buf;
}

void append_latency(std::string& out, const char* prefix,
                    const obs::HistogramSnapshot& h) {
  char key[64];
  std::snprintf(key, sizeof(key), "%s_p50_ms", prefix);
  append_kv_d(out, key, h.p50_millis());
  out += ',';
  std::snprintf(key, sizeof(key), "%s_p99_ms", prefix);
  append_kv_d(out, key, h.p99_millis());
  out += ',';
  std::snprintf(key, sizeof(key), "%s_p999_ms", prefix);
  append_kv_d(out, key, h.p999_millis());
  out += ',';
  std::snprintf(key, sizeof(key), "%s_count", prefix);
  append_kv(out, key, h.count);
}

}  // namespace

std::string cluster_metrics_json(const ClusterMetrics& m) {
  std::string out = "{";
  append_kv(out, "workers", m.workers);
  out += ',';
  append_kv(out, "workers_alive", m.workers_alive);
  out += ',';
  append_kv(out, "batches", m.batches);
  out += ',';
  append_kv(out, "events_forwarded", m.events_forwarded);
  out += ',';
  append_kv(out, "queries", m.queries);
  out += ',';
  append_kv(out, "merge_rounds", m.merge_rounds);
  out += ',';
  append_kv(out, "member_snapshots", m.member_snapshots);
  out += ',';
  append_kv(out, "failovers", m.failovers);
  out += ',';
  append_kv(out, "replayed_events", m.replayed_events);
  out += ',';
  append_kv(out, "protocol_bytes", m.protocol_bytes);
  out += ',';
  append_kv(out, "protocol_messages", m.protocol_messages);
  out += ',';
  append_kv(out, "ingest_bytes", m.ingest_bytes);
  out += ',';
  append_kv(out, "ingest_messages", m.ingest_messages);
  out += ',';
  append_kv(out, "worker_protocol_bytes", m.worker_protocol_bytes);
  out += ',';
  append_kv(out, "worker_ingest_bytes", m.worker_ingest_bytes);
  out += ',';
  append_kv(out, "worker_wire_bytes", m.worker_wire_bytes);
  out += ',';
  append_latency(out, "query_latency", m.query_latency);
  out += ',';
  append_latency(out, "forward_latency", m.forward_latency);
  out += ',';
  out += "\"workers_status\":[";
  for (std::size_t i = 0; i < m.worker_status.size(); ++i) {
    const WorkerStatus& w = m.worker_status[i];
    if (i) out += ',';
    out += '{';
    append_kv(out, "id", w.id);
    out += ',';
    out += "\"address\":\"";
    out += w.address;
    out += "\",";
    out += "\"state\":\"";
    out += worker_state_name(w.state);
    out += "\",";
    append_kv(out, "consecutive_misses", w.consecutive_misses);
    out += ',';
    append_kv(out, "heartbeats", w.heartbeats);
    out += ',';
    append_kv(out, "backlog", w.backlog);
    out += ',';
    append_kv(out, "net_points", w.net_points);
    out += ',';
    append_kv(out, "events_applied", w.events_applied);
    out += ',';
    append_kv(out, "events_forwarded", w.events_forwarded);
    out += ',';
    append_kv(out, "snapshots", w.snapshots);
    out += ',';
    append_kv(out, "snapshot_events", w.snapshot_events);
    out += ',';
    append_kv(out, "replay_depth", w.replay_depth);
    out += ',';
    append_kv(out, "failovers_absorbed", w.failovers_absorbed);
    out += '}';
  }
  out += "],";
  append_net_counters_json(out, m);
  out += '}';
  return out;
}

std::string cluster_prometheus_text(const ClusterMetrics& m) {
  using obs::prom::counter;
  using obs::prom::gauge_i;
  using obs::prom::line;

  std::string out;
  out.reserve(8192);

  gauge_i(out, "skc_cluster_workers", "Configured worker processes.",
          m.workers);
  gauge_i(out, "skc_cluster_workers_alive", "Workers passing heartbeats.",
          m.workers_alive);
  counter(out, "skc_cluster_batches_total", "Ingest batches accepted.",
          m.batches);
  counter(out, "skc_cluster_events_forwarded_total",
          "Stream events routed to workers.", m.events_forwarded);
  counter(out, "skc_cluster_queries_total", "Fan-out queries served.",
          m.queries);
  counter(out, "skc_cluster_merge_rounds_total",
          "Per-worker sketch fetches across all queries.", m.merge_rounds);
  counter(out, "skc_cluster_member_snapshots_total",
          "Member checkpoints stored coordinator-side.", m.member_snapshots);
  counter(out, "skc_cluster_failovers_total",
          "Dead workers re-assigned to survivors.", m.failovers);
  counter(out, "skc_cluster_replayed_events_total",
          "Events re-forwarded during failover.", m.replayed_events);
  counter(out, "skc_cluster_protocol_bytes_total",
          "Accounted protocol bytes (the Theorem 4.7 quantity).",
          m.protocol_bytes);
  counter(out, "skc_cluster_protocol_messages_total",
          "Accounted protocol messages.", m.protocol_messages);
  counter(out, "skc_cluster_ingest_bytes_total",
          "Accounted forwarded-ingest bytes (linear in n by design).",
          m.ingest_bytes);
  counter(out, "skc_cluster_ingest_messages_total",
          "Accounted forwarded-ingest messages.", m.ingest_messages);

  line(out,
       "# HELP skc_cluster_worker_bytes_total Accounted bytes per worker by "
       "ledger (protocol vs ingest) plus real socket traffic (wire).");
  line(out, "# TYPE skc_cluster_worker_bytes_total counter");
  for (std::size_t w = 0; w < m.worker_protocol_bytes.size(); ++w) {
    line(out,
         "skc_cluster_worker_bytes_total{worker=\"%zu\",ledger=\"protocol\"} "
         "%" PRId64,
         w, m.worker_protocol_bytes[w]);
  }
  for (std::size_t w = 0; w < m.worker_ingest_bytes.size(); ++w) {
    line(out,
         "skc_cluster_worker_bytes_total{worker=\"%zu\",ledger=\"ingest\"} "
         "%" PRId64,
         w, m.worker_ingest_bytes[w]);
  }
  for (std::size_t w = 0; w < m.worker_wire_bytes.size(); ++w) {
    line(out,
         "skc_cluster_worker_bytes_total{worker=\"%zu\",ledger=\"wire\"} "
         "%" PRId64,
         w, m.worker_wire_bytes[w]);
  }

  line(out, "# HELP skc_cluster_worker_state Worker liveness (1 = in state).");
  line(out, "# TYPE skc_cluster_worker_state gauge");
  for (const WorkerStatus& w : m.worker_status) {
    line(out, "skc_cluster_worker_state{worker=\"%d\",state=\"%s\"} 1", w.id,
         worker_state_name(w.state));
  }
  line(out,
       "# HELP skc_cluster_worker_heartbeats_total Successful heartbeat "
       "probes per worker.");
  line(out, "# TYPE skc_cluster_worker_heartbeats_total counter");
  for (const WorkerStatus& w : m.worker_status) {
    line(out, "skc_cluster_worker_heartbeats_total{worker=\"%d\"} %" PRId64,
         w.id, w.heartbeats);
  }
  line(out,
       "# HELP skc_cluster_worker_replay_depth Events buffered past the "
       "member snapshot watermark.");
  line(out, "# TYPE skc_cluster_worker_replay_depth gauge");
  for (const WorkerStatus& w : m.worker_status) {
    line(out, "skc_cluster_worker_replay_depth{worker=\"%d\"} %" PRId64, w.id,
         w.replay_depth);
  }

  line(out,
       "# HELP skc_cluster_op_latency_seconds Coordinator operation latency "
       "by op (query, forward_batch, merge_sketch).");
  line(out, "# TYPE skc_cluster_op_latency_seconds histogram");
  obs::prom::histogram_series(out, "skc_cluster_op_latency_seconds",
                              "op=\"query\"", m.query_latency);
  obs::prom::histogram_series(out, "skc_cluster_op_latency_seconds",
                              "op=\"forward_batch\"", m.forward_latency);
  for (std::size_t w = 0; w < m.worker_merge_latency.size(); ++w) {
    char labels[64];
    std::snprintf(labels, sizeof(labels),
                  "op=\"merge_sketch\",worker=\"%zu\"", w);
    obs::prom::histogram_series(out, "skc_cluster_op_latency_seconds", labels,
                                m.worker_merge_latency[w]);
  }

  obs::append_net_families(out, m);
  return out;
}

std::string fleet_prometheus_text(const FleetStats& f) {
  using obs::prom::line;

  /// The four op histograms every WORKER_STATS reply carries, in exposition
  /// order.
  struct OpField {
    const char* op;
    const net::HistogramWire net::WorkerStatsReply::*field;
  };
  static constexpr OpField kOps[] = {
      {"submit_batch", &net::WorkerStatsReply::submit},
      {"query", &net::WorkerStatsReply::query},
      {"checkpoint", &net::WorkerStatsReply::checkpoint},
      {"net_request", &net::WorkerStatsReply::net_request}};

  std::string out;
  out.reserve(8192);

  line(out,
       "# HELP skc_cluster_worker_up Worker is heartbeating and answered "
       "the fleet stats pull.");
  line(out, "# TYPE skc_cluster_worker_up gauge");
  for (const FleetWorker& w : f.workers) {
    line(out, "skc_cluster_worker_up{worker=\"%d\",address=\"%s\"} %d", w.id,
         w.address.c_str(), w.alive ? 1 : 0);
  }

  line(out,
       "# HELP skc_cluster_worker_clock_offset_micros Estimated tracer clock "
       "offset, coordinator minus worker (NTP midpoint of the lowest-RTT "
       "heartbeat).");
  line(out, "# TYPE skc_cluster_worker_clock_offset_micros gauge");
  for (const FleetWorker& w : f.workers) {
    line(out, "skc_cluster_worker_clock_offset_micros{worker=\"%d\"} %" PRId64,
         w.id, w.clock_offset_micros);
  }
  line(out,
       "# HELP skc_cluster_worker_heartbeat_rtt_micros Round-trip behind the "
       "offset estimate (-1 before the first timed probe).");
  line(out, "# TYPE skc_cluster_worker_heartbeat_rtt_micros gauge");
  for (const FleetWorker& w : f.workers) {
    line(out, "skc_cluster_worker_heartbeat_rtt_micros{worker=\"%d\"} %" PRId64,
         w.id, w.best_rtt_micros);
  }

  line(out,
       "# HELP skc_cluster_trace_dropped_spans_total Spans lost to "
       "trace-ring overwrites, per worker.");
  line(out, "# TYPE skc_cluster_trace_dropped_spans_total counter");
  for (const FleetWorker& w : f.workers) {
    line(out, "skc_cluster_trace_dropped_spans_total{worker=\"%d\"} %" PRId64,
         w.id, w.stats.trace_dropped_spans);
  }

  line(out,
       "# HELP skc_cluster_worker_ops_total Operations recorded per worker "
       "by op.");
  line(out, "# TYPE skc_cluster_worker_ops_total counter");
  for (const OpField& op : kOps) {
    for (const FleetWorker& w : f.workers) {
      line(out, "skc_cluster_worker_ops_total{worker=\"%d\",op=\"%s\"} %" PRId64,
           w.id, op.op, (w.stats.*op.field).count);
    }
  }

  line(out,
       "# HELP skc_cluster_op_latency_fleet_seconds Fleet-wide operation "
       "latency: every worker's histogram merged bucket-wise.");
  line(out, "# TYPE skc_cluster_op_latency_fleet_seconds histogram");
  std::vector<obs::HistogramSnapshot> merged(sizeof(kOps) / sizeof(kOps[0]));
  for (std::size_t i = 0; i < merged.size(); ++i) {
    for (const FleetWorker& w : f.workers) {
      merged[i].merge((w.stats.*kOps[i].field).to_snapshot());
    }
    char labels[48];
    std::snprintf(labels, sizeof(labels), "op=\"%s\"", kOps[i].op);
    obs::prom::histogram_series(out, "skc_cluster_op_latency_fleet_seconds",
                                labels, merged[i]);
  }

  line(out,
       "# HELP skc_cluster_op_latency_quantile_millis Fleet p50/p99/p999 "
       "from the merged buckets (not an average of per-worker quantiles).");
  line(out, "# TYPE skc_cluster_op_latency_quantile_millis gauge");
  for (std::size_t i = 0; i < merged.size(); ++i) {
    line(out,
         "skc_cluster_op_latency_quantile_millis{op=\"%s\",q=\"0.5\"} %.6g",
         kOps[i].op, merged[i].p50_millis());
    line(out,
         "skc_cluster_op_latency_quantile_millis{op=\"%s\",q=\"0.99\"} %.6g",
         kOps[i].op, merged[i].p99_millis());
    line(out,
         "skc_cluster_op_latency_quantile_millis{op=\"%s\",q=\"0.999\"} %.6g",
         kOps[i].op, merged[i].p999_millis());
  }

  line(out,
       "# HELP skc_cluster_tenant_events_total Events submitted per tenant "
       "per worker.");
  line(out, "# TYPE skc_cluster_tenant_events_total counter");
  for (const FleetWorker& w : f.workers) {
    for (const net::TenantEventsRow& row : w.stats.tenants) {
      line(out,
           "skc_cluster_tenant_events_total{worker=\"%d\",tenant=\"%s\"} "
           "%" PRId64,
           w.id, row.id.c_str(), row.events);
    }
  }

  return out;
}

}  // namespace skc::cluster
