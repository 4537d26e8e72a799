#include "skc/engine/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace skc {

namespace {

void append_kv(std::string& out, const char* key, std::int64_t value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRId64, key, value);
  out += buf;
}

void append_kv(std::string& out, const char* key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6g", key, value);
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

/// Latency summary keys for one op: <prefix>_p50_ms/_p99_ms/_p999_ms plus
/// _count and _max_ms — the JSON projection of the full bucket vector the
/// Prometheus exposition renders.
void append_latency(std::string& out, const char* prefix,
                    const obs::HistogramSnapshot& h) {
  char key[64];
  std::snprintf(key, sizeof(key), "%s_p50_ms", prefix);
  append_kv(out, key, h.p50_millis());
  out += ',';
  std::snprintf(key, sizeof(key), "%s_p99_ms", prefix);
  append_kv(out, key, h.p99_millis());
  out += ',';
  std::snprintf(key, sizeof(key), "%s_p999_ms", prefix);
  append_kv(out, key, h.p999_millis());
  out += ',';
  std::snprintf(key, sizeof(key), "%s_max_ms", prefix);
  append_kv(out, key, static_cast<double>(h.max_micros) / 1e3);
  out += ',';
  std::snprintf(key, sizeof(key), "%s_count", prefix);
  append_kv(out, key, h.count);
}

}  // namespace

std::string metrics_json(const EngineMetrics& m) {
  std::string out = "{";
  append_kv(out, "events_submitted", m.events_submitted);
  out += ',';
  append_kv(out, "events_applied", m.events_applied);
  out += ',';
  append_kv(out, "inserts", m.inserts);
  out += ',';
  append_kv(out, "deletes", m.deletes);
  out += ',';
  append_kv(out, "batches", m.batches);
  out += ',';
  append_kv(out, "queries", m.queries);
  out += ',';
  append_kv(out, "checkpoints", m.checkpoints);
  out += ',';
  append_kv(out, "restores", m.restores);
  out += ',';
  append_kv(out, "net_points", m.net_points);
  out += ',';
  append_kv(out, "uptime_seconds", m.uptime_seconds);
  out += ',';
  append_kv(out, "ingest_events_per_second", m.ingest_events_per_second);
  out += ',';
  // Legacy scalar keys, derived from the query histogram (the scalar
  // counters they used to read are gone; see EngineMetrics::query_latency).
  append_kv(out, "last_query_millis",
            static_cast<double>(m.query_latency.last_micros) / 1e3);
  out += ',';
  append_kv(out, "total_query_millis",
            static_cast<double>(m.query_latency.sum_micros) / 1e3);
  out += ',';
  append_latency(out, "query_latency", m.query_latency);
  out += ',';
  append_latency(out, "submit_latency", m.submit_latency);
  out += ',';
  append_latency(out, "checkpoint_latency", m.checkpoint_latency);
  out += ',';
  append_latency(out, "net_request_latency", m.net_request_latency);
  out += ',';
  append_kv(out, "last_checkpoint_bytes", m.last_checkpoint_bytes);
  out += ',';
  append_kv(out, "sketch_bytes", m.sketch_bytes);
  out += ',';
  append_kv(out, "shard_queue_depth", m.shard_queue_depth);
  out += ',';
  append_kv(out, "shard_events_applied", m.shard_events_applied);
  out += ',';
  append_net_counters_json(out, m);
  out += ',';
  append_kv(out, "trace_dropped_spans", m.trace_dropped_spans);
  out += '}';
  return out;
}

std::string transport_metrics_json(const TransportMetrics& t) {
  std::string out = "{";
  append_net_counters_json(out, t);
  out += ',';
  append_kv(out, "trace_dropped_spans", t.trace_dropped_spans);
  out += ',';
  append_latency(out, "net_request_latency", t.net_request_latency);
  out += '}';
  return out;
}

void append_net_counters_json(std::string& out, const TransportMetrics& t) {
  append_kv(out, "net_connections_active", t.net_connections_active);
  out += ',';
  append_kv(out, "net_connections_total", t.net_connections_total);
  out += ',';
  append_kv(out, "net_bytes_in", t.net_bytes_in);
  out += ',';
  append_kv(out, "net_bytes_out", t.net_bytes_out);
  out += ',';
  append_kv(out, "net_busy_rejections", t.net_busy_rejections);
  out += ',';
  append_kv(out, "net_malformed_frames", t.net_malformed_frames);
  out += ',';
  append_kv(out, "net_requests_by_type", t.net_requests_by_type);
}

}  // namespace skc
