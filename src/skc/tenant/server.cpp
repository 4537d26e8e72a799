#include "skc/tenant/server.h"

#include <utility>

#include "skc/obs/flight_recorder.h"
#include "skc/obs/prom_format.h"
#include "skc/obs/prometheus.h"
#include "skc/obs/trace.h"

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
    : net::FrameServer(options), registry_(registry) {}

// The base destructor also calls stop(), but by then this subclass (and the
// registry reference dispatch() uses) is gone — drain here, while alive.
TenantServer::~TenantServer() { stop(); }

Status TenantServer::dispatch(const net::FrameHeader& header,
                              std::string_view body, std::string& reply) {
  std::string_view tenant, inner;
  const Status split = split_tenant(header, body, tenant, inner, reply);
  if (split != Status::kOk) return split;
  body = inner;

  switch (header.type) {
    case MsgType::kPing:
      reply.assign(body);  // echo
      return Status::kOk;

    case MsgType::kInsertBatch:
    case MsgType::kDeleteBatch: {
      net::PointBatch batch;
      if (!batch.decode(body)) {
        counters_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
        reply = net::encode_text("undecodable point batch");
        return Status::kMalformed;
      }
      const int dim = registry_.options().dim;
      if (batch.dim != dim) {
        reply = net::encode_text("batch dimension does not match the registry");
        return Status::kEngineError;
      }
      const Coord max_coord =
          Coord{1} << registry_.options().engine.streaming.log_delta;
      for (const Coord c : batch.coords) {
        if (c < 1 || c > max_coord) {
          reply = net::encode_text("coordinate outside [1, Delta]");
          return Status::kEngineError;
        }
      }
      if (draining()) return Status::kShuttingDown;
      const auto count = batch.count();
      Stream events(static_cast<std::size_t>(count));
      const StreamOp op = header.type == MsgType::kInsertBatch
                              ? StreamOp::kInsert
                              : StreamOp::kDelete;
      const auto d = static_cast<std::size_t>(dim);
      for (std::uint64_t i = 0; i < count; ++i) {
        events[i].op = op;
        const Coord* first = batch.coords.data() + i * d;
        events[i].point.assign(first, first + d);
      }
      const Status verdict = admit_status(registry_.submit(tenant, events),
                                          reply);
      if (verdict != Status::kOk) return verdict;
      net::BatchReply ack;
      ack.accepted = count;
      ack.backlog = 0;  // per-tenant backlog travels in TENANT_STATS
      reply = ack.encode();
      return Status::kOk;
    }

    case MsgType::kQuery: {
      net::QueryRequest request;
      if (!request.decode(body)) {
        counters_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
        reply = net::encode_text("undecodable query");
        return Status::kMalformed;
      }
      EngineQuery q;
      q.k = request.k;
      q.capacity_slack = request.capacity_slack;
      q.barrier = request.barrier;
      q.summary_only = request.summary_only;
      q.solver_restarts = request.solver_restarts;
      EngineQueryResult res;
      // Flight-recorder arm with the tenant in the metadata: a slow query
      // names who ran it without tracing pre-enabled.
      obs::QueryCapture capture(
          "tenant_query",
          tenant.empty() ? std::string("tenant=<default>")
                         : "tenant=" + std::string(tenant));
      const Status verdict = admit_status(registry_.query(tenant, q, res),
                                          reply);
      if (verdict != Status::kOk) return verdict;
      net::QueryReply out;
      out.ok = res.ok;
      out.error = res.error;
      out.net_points = res.net_points;
      out.summary_points = static_cast<std::uint64_t>(res.summary.points.size());
      out.capacity = res.capacity;
      out.cost = res.solution.cost;
      out.feasible = res.solution.feasible;
      out.merge_millis = res.merge_millis;
      out.solve_millis = res.solve_millis;
      out.dim = res.solution.centers.dim();
      for (PointIndex c = 0; c < res.solution.centers.size(); ++c) {
        const auto p = res.solution.centers[c];
        out.center_coords.insert(out.center_coords.end(), p.begin(), p.end());
      }
      reply = out.encode();
      return Status::kOk;  // an engine-level miss travels in out.ok/error
    }

    case MsgType::kMetrics: {
      // One JSON object: transport counters plus the registry's per-tenant
      // stats (per-tenant latency histograms included).
      std::string json = "{\"transport\":";
      json += metrics_json(transport_metrics());
      json += ",\"tenants\":";
      json += registry_.stats_json();
      json += '}';
      reply = net::encode_text(json);
      return Status::kOk;
    }

    case MsgType::kCheckpoint: {
      net::CheckpointRequest request;
      if (!request.decode(body)) {
        counters_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
        reply = net::encode_text("undecodable checkpoint request");
        return Status::kMalformed;
      }
      return admit_status(registry_.checkpoint(tenant, request.path), reply);
    }

    case MsgType::kShutdown:
      return Status::kOk;  // serve_connection requests the drain after replying

    case MsgType::kTraceDump:
      reply = net::encode_text(obs::Tracer::instance().dump_chrome_json());
      return Status::kOk;

    case MsgType::kPrometheus:
      reply = net::encode_text(
          tenant_prometheus_text(transport_metrics(), registry_.stats()));
      return Status::kOk;

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

    case MsgType::kClusterTraceDump:
      // A tenant host is a cluster of one: the local dump, unrebased.
      reply = net::encode_text(obs::Tracer::instance().dump_chrome_json());
      return Status::kOk;

    case MsgType::kWorkerStats: {
      // Fleet-scrape lane: registry-wide ingest/query distributions merged
      // bucket-wise across tenants, plus one per-tenant event row each.
      const RegistryStats stats = registry_.stats();
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
      out.net_request =
          net::HistogramWire::from(counters_.request_latency.snapshot());
      out.trace_dropped_spans = obs::Tracer::instance().total_dropped();
      reply = out.encode();
      return Status::kOk;
    }

    case MsgType::kFlightRecorder:
      reply = net::encode_text(obs::FlightRecorder::instance().dump_json());
      return Status::kOk;

    case MsgType::kWorkerHello:
    case MsgType::kHeartbeat:
    case MsgType::kMergeSketch:
    case MsgType::kShipSnapshot:
      // Cluster worker RPCs; a tenant host is not a cluster worker.
      break;

    case MsgType::kReserved12:  // reserved; no server implements it
      break;
  }
  reply = net::encode_text("unsupported message type at the tenant server");
  return Status::kUnsupported;
}

void TenantServer::on_drain() {
  // Settle every accepted event into the resident builders so post-drain
  // spills and in-process reads see a clean epoch (spilled tenants are
  // already quiescent by construction).
  registry_.flush();
}

EngineMetrics TenantServer::transport_metrics() const {
  EngineMetrics m;
  m.net_connections_active =
      counters_.connections_active.load(std::memory_order_relaxed);
  m.net_connections_total =
      counters_.connections_total.load(std::memory_order_relaxed);
  m.net_bytes_in = counters_.bytes_in.load(std::memory_order_relaxed);
  m.net_bytes_out = counters_.bytes_out.load(std::memory_order_relaxed);
  m.net_busy_rejections =
      counters_.busy_rejections.load(std::memory_order_relaxed);
  m.net_malformed_frames =
      counters_.malformed_frames.load(std::memory_order_relaxed);
  m.net_requests_by_type.resize(net::kNumMsgTypes);
  for (int t = 0; t < net::kNumMsgTypes; ++t) {
    m.net_requests_by_type[static_cast<std::size_t>(t)] =
        counters_.requests_by_type[static_cast<std::size_t>(t)].load(
            std::memory_order_relaxed);
  }
  m.net_request_latency = counters_.request_latency.snapshot();
  m.trace_dropped_spans = obs::Tracer::instance().total_dropped();
  return m;
}

std::string tenant_prometheus_text(const EngineMetrics& transport,
                                   const RegistryStats& stats) {
  using obs::prom::line;
  std::string out = obs::prometheus_text(transport);

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
