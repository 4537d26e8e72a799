#include "skc/tenant/server.h"

#include <utility>

#include "skc/obs/flight_recorder.h"
#include "skc/obs/prom_format.h"
#include "skc/obs/prometheus.h"

namespace skc::tenant {

namespace {

using net::MsgType;
using net::Status;

/// Admit -> wire status, with the refusal named in the reply body.
Status admit_status(Admit a, std::string& reply) {
  switch (a) {
    case Admit::kOk:
      return Status::kOk;
    case Admit::kQuota:
      reply = net::encode_text("tenant quota exceeded (events/s, sketch "
                               "bytes, or queued events)");
      return Status::kQuotaExceeded;
    case Admit::kInvalidId:
    case Admit::kTooManyTenants:
    case Admit::kUnknownTenant:
      reply = net::encode_text(admit_name(a));
      return Status::kUnknownTenant;
    case Admit::kError:
      reply = net::encode_text("tenant engine error (spill restore failed?)");
      return Status::kEngineError;
  }
  reply = net::encode_text("unknown admit verdict");
  return Status::kEngineError;
}

}  // namespace

TenantServer::TenantServer(TenantRegistry& registry,
                           const net::ServerOptions& options)
    : net::FrameServer(
          options,
          net::FrontDoor{registry.options().dim,
                         registry.options().engine.streaming.log_delta,
                         /*default_tenant_only=*/{},
                         "unsupported message type at the tenant server"}),
      registry_(registry) {}

// The base destructor also calls stop(), but by then this subclass (and the
// registry reference its hooks use) is gone — drain here, while alive.
TenantServer::~TenantServer() { stop(); }

Status TenantServer::ingest(std::string_view tenant, const EventBatch& events,
                            std::string& reply) {
  return admit_status(registry_.submit(tenant, events), reply);
}

Status TenantServer::answer_query(std::string_view tenant,
                                  const EngineQuery& q,
                                  EngineQueryResult& result,
                                  std::string& reply) {
  // Flight-recorder arm with the tenant in the metadata: a slow query names
  // who ran it without tracing pre-enabled.
  obs::QueryCapture capture("tenant_query",
                            tenant.empty() ? std::string("tenant=<default>")
                                           : "tenant=" + std::string(tenant));
  return admit_status(registry_.query(tenant, q, result), reply);
}

Status TenantServer::serve(MsgType type, std::string_view tenant,
                           std::string_view body, std::string& reply) {
  switch (type) {
    case MsgType::kMetrics: {
      // One JSON object: transport counters plus the registry's per-tenant
      // stats (per-tenant latency histograms included).
      std::string json = "{\"transport\":";
      json += transport_metrics_json(transport_metrics());
      json += ",\"tenants\":";
      json += registry_.stats_json();
      json += '}';
      reply = net::encode_text(json);
      return Status::kOk;
    }

    case MsgType::kPrometheus:
      reply = net::encode_text(
          obs::transport_prometheus_text(transport_metrics()) +
          tenant_prometheus_text(registry_.stats()));
      return Status::kOk;

    case MsgType::kCheckpoint: {
      net::CheckpointRequest request;
      if (!request.decode(body)) {
        return malformed("undecodable checkpoint request", reply);
      }
      if (request.path.empty()) {
        reply = net::encode_text("checkpoint needs a path");
        return Status::kEngineError;
      }
      return admit_status(registry_.checkpoint(tenant, request.path), reply);
    }

    case MsgType::kTenantStats: {
      // A named tenant gets its own object; the default tenant address
      // reads the whole registry.
      if (tenant.empty()) {
        reply = net::encode_text(registry_.stats_json());
        return Status::kOk;
      }
      std::string json;
      if (!registry_.tenant_stats_json(tenant, json)) {
        reply = net::encode_text("unknown tenant");
        return Status::kUnknownTenant;
      }
      reply = net::encode_text(json);
      return Status::kOk;
    }

    case MsgType::kWorkerStats: {
      // Fleet-scrape lane: registry-wide ingest/query distributions merged
      // bucket-wise across tenants, plus one per-tenant event row each.
      const RegistryStats stats = registry_.stats();
      const TransportMetrics transport = transport_metrics();
      net::WorkerStatsReply out;
      obs::HistogramSnapshot ingest, query;
      out.tenants.reserve(stats.per_tenant.size());
      for (const TenantStats& t : stats.per_tenant) {
        ingest.merge(t.ingest_latency);
        query.merge(t.query_latency);
        out.tenants.push_back({t.id, t.events});
      }
      out.submit = net::HistogramWire::from(ingest);
      out.query = net::HistogramWire::from(query);
      out.net_request = net::HistogramWire::from(transport.net_request_latency);
      out.trace_dropped_spans = transport.trace_dropped_spans;
      reply = out.encode();
      return Status::kOk;
    }

    default:
      // The cluster worker RPCs: a tenant host is not a cluster worker.
      return unsupported(reply);
  }
}

void TenantServer::on_drain() {
  // Settle every accepted event into the resident builders so post-drain
  // spills and in-process reads see a clean epoch (spilled tenants are
  // already quiescent by construction).
  registry_.flush();
}

std::string tenant_prometheus_text(const RegistryStats& stats) {
  using obs::prom::line;
  std::string out;

  obs::prom::gauge_i(out, "skc_tenants", "Known tenants (resident + spilled).",
                     stats.tenants);
  obs::prom::gauge_i(out, "skc_tenants_resident",
                     "Tenants with a live engine.", stats.resident);
  obs::prom::counter(out, "skc_tenant_evictions_total",
                     "Cold tenants spilled to disk.", stats.evictions);
  obs::prom::counter(out, "skc_tenant_restores_total",
                     "Spilled tenants restored on touch.", stats.restores);

  line(out, "# HELP skc_tenant_events_total Events admitted per tenant.");
  line(out, "# TYPE skc_tenant_events_total counter");
  for (const TenantStats& t : stats.per_tenant) {
    line(out, "skc_tenant_events_total{tenant=\"%s\"} %lld", t.id.c_str(),
         static_cast<long long>(t.events));
  }
  line(out, "# HELP skc_tenant_rung Sketch-ladder rung per tenant.");
  line(out, "# TYPE skc_tenant_rung gauge");
  for (const TenantStats& t : stats.per_tenant) {
    line(out, "skc_tenant_rung{tenant=\"%s\"} %d", t.id.c_str(), t.rung);
  }
  line(out,
       "# HELP skc_tenant_sketch_bytes Resident sketch footprint per tenant.");
  line(out, "# TYPE skc_tenant_sketch_bytes gauge");
  for (const TenantStats& t : stats.per_tenant) {
    line(out, "skc_tenant_sketch_bytes{tenant=\"%s\"} %lld", t.id.c_str(),
         static_cast<long long>(t.sketch_bytes));
  }
  line(out,
       "# HELP skc_tenant_quota_rejections_total Typed QUOTA_EXCEEDED "
       "refusals per tenant.");
  line(out, "# TYPE skc_tenant_quota_rejections_total counter");
  for (const TenantStats& t : stats.per_tenant) {
    line(out, "skc_tenant_quota_rejections_total{tenant=\"%s\"} %lld",
         t.id.c_str(), static_cast<long long>(t.quota_rejections));
  }
  line(out,
       "# HELP skc_tenant_op_latency_seconds Per-tenant operation latency "
       "(ingest, query).");
  line(out, "# TYPE skc_tenant_op_latency_seconds histogram");
  for (const TenantStats& t : stats.per_tenant) {
    obs::prom::histogram_series(
        out, "skc_tenant_op_latency_seconds",
        "tenant=\"" + t.id + "\",op=\"ingest\"", t.ingest_latency);
    obs::prom::histogram_series(
        out, "skc_tenant_op_latency_seconds",
        "tenant=\"" + t.id + "\",op=\"query\"", t.query_latency);
  }
  return out;
}

}  // namespace skc::tenant
