// TenantServer — the multi-tenant front door: a FrameServer whose hooks
// route every request to a TenantRegistry namespace.
//
// Protocol surface:
//   * version-1 frames address the default tenant ("") and stay
//     byte-compatible with pre-tenant clients — an old SkcClient works
//     against a TenantServer unchanged (pinned by test);
//   * version-2 frames carry the stream id prefix; an unparseable or
//     illegal prefix is answered with the typed UNKNOWN_TENANT error and
//     the connection is KEPT (frames are length-delimited, so the stream
//     stays in sync) — only an undecodable body drops, as everywhere else;
//   * quota refusals surface as the typed QUOTA_EXCEEDED error with the
//     violated quota named in the body; clients treat it like BUSY with
//     caller-controlled backoff (nothing was enqueued server-side);
//   * TENANT_STATS returns the registry's per-tenant JSON (one tenant when
//     the request names one, the whole registry for the default tenant);
//   * METRICS wraps the transport counters and the registry stats into one
//     JSON object; PROMETHEUS exports the transport families and then the
//     per-tenant series (skc_tenant_*).  A tenant host has no engine of its
//     own, so it exports no engine-level family (per-tenant engine state
//     travels in the skc_tenant_* series and TENANT_STATS).
//
// Everything protocol-generic — batch and query decoding, the [1, Delta]
// checks, PING, SHUTDOWN, the trace dumps — is FrameServer's; this class
// adds where a batch goes, who answers a query, and the quota verdicts.
#pragma once

#include <string>

#include "skc/net/server.h"
#include "skc/tenant/registry.h"

namespace skc::tenant {

class TenantServer : public net::FrameServer {
 public:
  /// The registry must outlive the server (the embedder may keep using it
  /// in-process after the server drains).
  TenantServer(TenantRegistry& registry, const net::ServerOptions& options);
  ~TenantServer() override;

 protected:
  net::Status ingest(std::string_view tenant, const EventBatch& events,
                     std::string& reply) override;
  net::Status answer_query(std::string_view tenant, const EngineQuery& q,
                           EngineQueryResult& result,
                           std::string& reply) override;
  net::Status serve(net::MsgType type, std::string_view tenant,
                    std::string_view body, std::string& reply) override;
  void on_drain() override;

 private:
  TenantRegistry& registry_;
};

/// The per-tenant families (skc_tenants, skc_tenant_events_total{tenant=...},
/// rung, sketch bytes, quota rejections, evictions/restores, and the
/// skc_tenant_op_latency_seconds{tenant=...,op=ingest|query} histogram
/// family).  The PROMETHEUS RPC appends it to the transport families.
std::string tenant_prometheus_text(const RegistryStats& stats);

}  // namespace skc::tenant
