#include "skc/net/server.h"

#include <cstdio>
#include <utility>

#include "skc/obs/flight_recorder.h"
#include "skc/obs/prometheus.h"
#include "skc/obs/trace.h"

namespace skc::net {

namespace {

constexpr int kBusyCloseTimeoutMs = 1000;

std::size_t type_index(MsgType type) {
  return static_cast<std::size_t>(static_cast<std::uint8_t>(type));
}

/// Splits the tenant id off `body` per the frame version: version-1 frames
/// address the default tenant (""), version-2 frames carry the prefix.
/// Returns kOk with `tenant`/`inner` set, or kUnknownTenant for an
/// unparseable or illegal stream id (frames are length-delimited, so this
/// is NEVER a connection drop; `reply` gets the diagnostic text).
Status split_tenant(const FrameHeader& header, std::string_view body,
                    std::string_view& tenant, std::string_view& inner,
                    std::string& reply) {
  if (header.version == kWireVersion) {
    tenant = std::string_view{};
    inner = body;
    return Status::kOk;
  }
  if (!split_tenant_prefix(body, tenant, inner)) {
    reply = encode_text("truncated tenant prefix");
    return Status::kUnknownTenant;
  }
  if (!tenant.empty() && !valid_tenant_id(tenant)) {
    reply = encode_text("illegal tenant id (want [A-Za-z0-9._-], <= 64 bytes)");
    return Status::kUnknownTenant;
  }
  return Status::kOk;
}

}  // namespace

// ---------------------------------------------------------------------------
// FrameServer — the protocol-generic transport.

FrameServer::FrameServer(const ServerOptions& options, const FrontDoor& door)
    : options_(options), door_(door) {}

FrameServer::~FrameServer() { stop(); }

bool FrameServer::start(std::string& error) {
  SKC_CHECK_MSG(!started_, "FrameServer::start called twice");
  port_ = options_.port;
  listener_ = listen_on(port_, options_.backlog, error);
  if (!listener_.valid()) return false;
  started_ = true;
  acceptor_ = std::thread([this] { accept_loop(); });
  return true;
}

void FrameServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const IoResult ready = wait_readable(listener_, /*timeout_ms=*/-1, &stopping_);
    if (ready != IoResult::kOk) break;  // cancelled or listener error
    Socket sock = accept_on(listener_);
    if (!sock.valid()) continue;
    reap_finished_conns();

    if (counters_.connections_active.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      // Admission control: one explicit BUSY frame, then close.  The peer
      // backs off and retries instead of queueing invisibly in the accept
      // backlog.
      counters_.busy_rejections.fetch_add(1, std::memory_order_relaxed);
      const std::string frame =
          encode_frame(MsgType::kPing, Status::kBusy, std::string_view{});
      send_exact(sock, frame.data(), frame.size(), kBusyCloseTimeoutMs,
                 &stopping_);
      counters_.bytes_out.fetch_add(static_cast<std::int64_t>(frame.size()),
                                    std::memory_order_relaxed);
      continue;
    }

    counters_.connections_total.fetch_add(1, std::memory_order_relaxed);
    counters_.connections_active.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(sock);
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] {
      serve_connection(*raw);
      counters_.connections_active.fetch_add(-1, std::memory_order_relaxed);
      raw->done.store(true, std::memory_order_release);
    });
  }
}

void FrameServer::reap_finished_conns() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void FrameServer::serve_connection(Conn& conn) {
  std::string header_buf(kFrameHeaderBytes, '\0');
  while (!stopping_.load(std::memory_order_acquire)) {
    // Idle wait first (its own, longer deadline), then the frame must
    // arrive within read_timeout_ms.
    const IoResult idle =
        wait_readable(conn.sock, options_.idle_timeout_ms, &stopping_);
    if (idle != IoResult::kOk) break;
    IoResult io = recv_exact(conn.sock, header_buf.data(), kFrameHeaderBytes,
                             options_.read_timeout_ms, &stopping_);
    if (io == IoResult::kClosed) break;  // clean disconnect between frames
    if (io != IoResult::kOk) {
      // Partial header: a truncated frame, not a clean goodbye.
      counters_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    FrameHeader header;
    const Status header_status = decode_header(header_buf, header);
    if (header_status != Status::kOk) {
      counters_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
      // Best-effort diagnostic, then drop the connection: after a bad
      // header the stream offset is unrecoverable.
      send_reply(conn, MsgType::kPing, header_status,
                 encode_text(status_name(header_status)));
      break;
    }
    std::string body(header.payload_bytes, '\0');
    if (header.payload_bytes > 0) {
      io = recv_exact(conn.sock, body.data(), body.size(),
                      options_.read_timeout_ms, &stopping_);
      if (io != IoResult::kOk) {  // mid-frame disconnect or stall
        counters_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
    counters_.bytes_in.fetch_add(
        static_cast<std::int64_t>(frame_wire_bytes(body.size())),
        std::memory_order_relaxed);
    counters_.requests_by_type[type_index(header.type)].fetch_add(
        1, std::memory_order_relaxed);

    // Version-3 frames open with a wire trace context.  Strip it here and
    // rewrite the header to version 2: dispatch code is version-gated on
    // the tenant prefix only and never sees the extension.
    obs::TraceContext wire_ctx;
    std::string_view body_view = body;
    if (header.version == kWireVersionTraced) {
      std::string_view rest;
      if (!split_trace_prefix(body_view, wire_ctx, rest)) {
        counters_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
        send_reply(conn, header.type, Status::kMalformed,
                   encode_text("truncated trace context"));
        break;
      }
      body_view = rest;
      header.version = kWireVersionTenant;
    }

    std::string reply;
    Status status;
    {
      // The request histogram (and span) covers decode + subclass work +
      // reply encoding, but not the idle wait for the frame to arrive.
      // The wire context (if any) is ambient for the dispatch, so server
      // spans parent under the caller's RPC span and share its trace_id.
      obs::ScopedTraceContext trace_scope(wire_ctx);
      obs::ScopedSpan request_span("request");
      obs::LatencyRecorder latency(counters_.request_latency);
      status = dispatch(header, body_view, reply);
      if (request_span.active()) {
        request_span.set_wire_bytes(static_cast<std::int64_t>(
            frame_wire_bytes(header.payload_bytes) +
            frame_wire_bytes(reply.size())));
      }
    }
    // Dispatch errors, kMalformed bodies included, keep the connection: the
    // body was read whole by its length prefix, so the stream offset holds.
    if (!send_reply(conn, header.type, status, reply)) break;
    if (header.type == MsgType::kShutdown && status == Status::kOk) {
      request_shutdown();
      break;
    }
  }
}

bool FrameServer::send_reply(Conn& conn, MsgType type, Status status,
                             std::string_view body) {
  const std::string frame = encode_frame(type, status, body);
  const IoResult io = send_exact(conn.sock, frame.data(), frame.size(),
                                 options_.write_timeout_ms, &stopping_);
  counters_.bytes_out.fetch_add(static_cast<std::int64_t>(frame.size()),
                                std::memory_order_relaxed);
  return io == IoResult::kOk;
}

void FrameServer::request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_.store(true, std::memory_order_release);
  }
  stop_cv_.notify_all();
}

void FrameServer::wait() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [&] { return stopping_.load(std::memory_order_acquire); });
}

void FrameServer::stop() {
  request_shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  bool drain = false;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    drain = started_ && !drained_;
    drained_ = true;
  }
  if (drain) on_drain();
}

Status FrameServer::dispatch(const FrameHeader& header, std::string_view body,
                             std::string& reply) {
  std::string_view tenant;
  std::string_view inner;
  const Status split = split_tenant(header, body, tenant, inner, reply);
  if (split != Status::kOk) return split;
  if (!tenant.empty() && !door_.default_tenant_only.empty()) {
    // A typed refusal, never a drop: the frame was length-delimited, so
    // the stream is intact.
    reply = encode_text(door_.default_tenant_only);
    return Status::kUnknownTenant;
  }
  switch (header.type) {
    case MsgType::kPing:
      reply.assign(inner);  // echo
      return Status::kOk;
    case MsgType::kInsertBatch:
    case MsgType::kDeleteBatch:
      return ingest_request(header.type, tenant, inner, reply);
    case MsgType::kQuery:
      return query_request(tenant, inner, reply);
    case MsgType::kShutdown:
      return Status::kOk;  // serve_connection requests the drain after replying
    case MsgType::kTraceDump:
      reply = encode_text(obs::Tracer::instance().dump_chrome_json());
      return Status::kOk;
    case MsgType::kClusterTraceDump:
      reply = encode_text(cluster_trace_json());
      return Status::kOk;
    case MsgType::kFlightRecorder:
      reply = encode_text(obs::FlightRecorder::instance().dump_json());
      return Status::kOk;
    case MsgType::kReserved12:  // reserved: no server serves it
      return unsupported(reply);
    default:
      return serve(header.type, tenant, inner, reply);
  }
}

Status FrameServer::ingest_request(MsgType type, std::string_view tenant,
                                   std::string_view body, std::string& reply) {
  PointBatch batch;
  if (!batch.decode(body)) return malformed("undecodable point batch", reply);
  if (batch.dim != door_.dim) {
    reply = encode_text("batch dimension does not match the server");
    return Status::kEngineError;
  }
  const Coord max_coord = Coord{1} << door_.log_delta;
  for (const Coord c : batch.coords) {
    if (c < 1 || c > max_coord) {
      reply = encode_text("coordinate outside [1, Delta]");
      return Status::kEngineError;
    }
  }
  if (draining()) return Status::kShuttingDown;
  if (options_.busy_backlog > 0 && ingest_backlog() > options_.busy_backlog) {
    counters_.busy_rejections.fetch_add(1, std::memory_order_relaxed);
    return Status::kBusy;
  }
  const std::uint64_t count = batch.count();
  const StreamOp op =
      type == MsgType::kInsertBatch ? StreamOp::kInsert : StreamOp::kDelete;
  const EventBatch events(batch.dim,
                          std::vector<StreamOp>(static_cast<std::size_t>(count), op),
                          std::move(batch.coords));
  const Status status = ingest(tenant, events, reply);
  if (status != Status::kOk) return status;
  BatchReply ack;
  ack.accepted = count;
  ack.backlog = ingest_backlog();
  reply = ack.encode();
  return Status::kOk;
}

Status FrameServer::query_request(std::string_view tenant,
                                  std::string_view body, std::string& reply) {
  QueryRequest request;
  if (!request.decode(body)) return malformed("undecodable query", reply);
  EngineQuery q;
  q.k = request.k;
  q.capacity_slack = request.capacity_slack;
  q.barrier = request.barrier;
  q.summary_only = request.summary_only;
  q.solver_restarts = request.solver_restarts;
  EngineQueryResult res;
  const Status status = answer_query(tenant, q, res, reply);
  if (status != Status::kOk) return status;
  QueryReply out;
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
  return Status::kOk;  // a miss travels in out.ok/error
}

Status FrameServer::malformed(std::string_view what, std::string& reply) const {
  counters_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
  reply = encode_text(what);
  return Status::kMalformed;
}

Status FrameServer::unsupported(std::string& reply) const {
  reply = encode_text(door_.unsupported);
  return Status::kUnsupported;
}

std::string FrameServer::cluster_trace_json() {
  return obs::Tracer::instance().dump_chrome_json();
}

TransportMetrics FrameServer::transport_metrics() const {
  TransportMetrics t;
  t.net_connections_active =
      counters_.connections_active.load(std::memory_order_relaxed);
  t.net_connections_total =
      counters_.connections_total.load(std::memory_order_relaxed);
  t.net_bytes_in = counters_.bytes_in.load(std::memory_order_relaxed);
  t.net_bytes_out = counters_.bytes_out.load(std::memory_order_relaxed);
  t.net_busy_rejections =
      counters_.busy_rejections.load(std::memory_order_relaxed);
  t.net_malformed_frames =
      counters_.malformed_frames.load(std::memory_order_relaxed);
  t.net_requests_by_type.resize(kNumMsgTypes);
  for (int i = 0; i < kNumMsgTypes; ++i) {
    t.net_requests_by_type[static_cast<std::size_t>(i)] =
        counters_.requests_by_type[static_cast<std::size_t>(i)].load(
            std::memory_order_relaxed);
  }
  t.net_request_latency = counters_.request_latency.snapshot();
  t.trace_dropped_spans = obs::Tracer::instance().total_dropped();
  return t;
}

// ---------------------------------------------------------------------------
// EngineServer — one ClusteringEngine behind the frame transport.

EngineServer::EngineServer(ClusteringEngine& engine, const ServerOptions& options)
    : FrameServer(options,
                  FrontDoor{engine.dim(), engine.options().streaming.log_delta,
                            "this server hosts only the default tenant",
                            // An engine serves every type but TENANT_STATS
                            // (own text in serve()) and the reserved 12.
                            "message type 12 is reserved"}),
      engine_(engine) {}

// The base destructor also calls stop(), but by then this subclass (and the
// engine reference its hooks use) is gone — drain here, while it is alive.
EngineServer::~EngineServer() { stop(); }

Status EngineServer::ingest(std::string_view /*tenant*/, const EventBatch& events,
                            std::string& /*reply*/) {
  engine_.submit(events);
  return Status::kOk;
}

Status EngineServer::answer_query(std::string_view /*tenant*/,
                                  const EngineQuery& q,
                                  EngineQueryResult& result,
                                  std::string& /*reply*/) {
  char capture_detail[64];
  std::snprintf(capture_detail, sizeof(capture_detail), "engine shards=%d",
                engine_.num_shards());
  obs::QueryCapture capture("query", capture_detail);
  result = engine_.query(q);
  return Status::kOk;
}

std::int64_t EngineServer::ingest_backlog() const {
  return engine_.queue_backlog();
}

Status EngineServer::serve(MsgType type, std::string_view /*tenant*/,
                           std::string_view body, std::string& reply) {
  switch (type) {
    case MsgType::kMetrics:
      reply = encode_text(metrics_json(metrics()));
      return Status::kOk;

    case MsgType::kPrometheus:
      reply = encode_text(obs::prometheus_text(metrics()));
      return Status::kOk;

    case MsgType::kCheckpoint: {
      CheckpointRequest request;
      if (!request.decode(body)) {
        return malformed("undecodable checkpoint request", reply);
      }
      if (request.path.empty()) {
        reply = encode_text("checkpoint needs a path");
        return Status::kEngineError;
      }
      if (!engine_.checkpoint(request.path)) {
        reply = encode_text("checkpoint write failed");
        return Status::kEngineError;
      }
      return Status::kOk;
    }

    case MsgType::kWorkerHello: {
      WorkerHello hello;
      if (!hello.decode(body)) {
        return malformed("undecodable worker hello", reply);
      }
      WorkerHelloReply out;
      const std::uint64_t fp = engine_config_fingerprint(
          engine_.dim(), engine_.params(), engine_.options().streaming);
      out.ok = hello.fingerprint == fp;
      if (!out.ok) {
        out.message =
            "engine configuration fingerprint mismatch (dim/k/log_delta and "
            "every sketch knob must match the coordinator exactly)";
      }
      out.num_shards = engine_.num_shards();
      out.net_points = engine_.net_count();
      reply = out.encode();
      return Status::kOk;  // a refusal travels in out.ok/message
    }

    case MsgType::kHeartbeat: {
      HeartbeatReply out;
      const EngineMetrics m = engine_.metrics();
      out.backlog = engine_.queue_backlog();
      out.net_points = m.net_points;
      out.events_applied = m.events_applied;
      out.tracer_now_micros = obs::Tracer::instance().now_micros();
      reply = out.encode();
      return Status::kOk;
    }

    case MsgType::kMergeSketch: {
      if (draining()) return Status::kShuttingDown;
      EngineSketchExport ex = engine_.export_sketch();
      SketchSnapshot out;
      out.net_points = ex.net_points;
      out.events_applied = ex.events_applied;
      out.blob = std::move(ex.blob);
      reply = out.encode();
      return Status::kOk;
    }

    case MsgType::kTenantStats:
      reply = encode_text("tenant stats require a multi-tenant server");
      return Status::kUnsupported;

    case MsgType::kShipSnapshot: {
      SketchSnapshot in;
      if (!in.decode(body)) {
        return malformed("undecodable sketch snapshot", reply);
      }
      if (draining()) return Status::kShuttingDown;
      if (!engine_.import_sketch(in.blob)) {
        reply = encode_text(
            "sketch blob rejected (configuration mismatch or corruption)");
        return Status::kEngineError;
      }
      return Status::kOk;
    }

    case MsgType::kWorkerStats: {
      const EngineMetrics m = metrics();
      WorkerStatsReply out;
      out.submit = HistogramWire::from(m.submit_latency);
      out.query = HistogramWire::from(m.query_latency);
      out.checkpoint = HistogramWire::from(m.checkpoint_latency);
      out.net_request = HistogramWire::from(m.net_request_latency);
      out.trace_dropped_spans = m.trace_dropped_spans;
      TenantEventsRow row;  // single-tenant node: one default-namespace row
      row.events = m.events_submitted;
      out.tenants.push_back(std::move(row));
      reply = out.encode();
      return Status::kOk;
    }

    default:
      return unsupported(reply);
  }
}

void EngineServer::on_drain() {
  // Everything accepted has been submitted; settle it into the builders so
  // the post-drain engine (and the optional checkpoint) is a clean epoch of
  // all acknowledged events.
  engine_.flush();
  if (!server_options().drain_checkpoint_path.empty()) {
    engine_.checkpoint(server_options().drain_checkpoint_path);
  }
}

EngineMetrics EngineServer::metrics() const {
  EngineMetrics m = engine_.metrics();
  static_cast<TransportMetrics&>(m) = transport_metrics();
  return m;
}

}  // namespace skc::net
