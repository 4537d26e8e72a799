#include "skc/net/client.h"

#include <chrono>
#include <thread>

#include "skc/common/check.h"
#include "skc/obs/trace.h"

namespace skc::net {

namespace {

/// Client-side span names, one literal per MsgType (the trace ring stores
/// `const char*`, so these must have static storage duration).  Indexed by
/// the dense enum; kept in sync by the static_assert below.
constexpr const char* kRpcSpanNames[] = {
    "rpc:ping",          "rpc:insert_batch",  "rpc:delete_batch",
    "rpc:query",         "rpc:metrics",       "rpc:checkpoint",
    "rpc:shutdown",      "rpc:trace_dump",    "rpc:prometheus",
    "rpc:worker_hello",  "rpc:heartbeat",     "rpc:merge_sketch",
    "rpc:fetch_coreset", "rpc:ship_snapshot", "rpc:tenant_stats",
    "rpc:cluster_trace_dump", "rpc:worker_stats", "rpc:flight_recorder"};
static_assert(sizeof(kRpcSpanNames) / sizeof(kRpcSpanNames[0]) ==
                  static_cast<std::size_t>(kNumMsgTypes),
              "every MsgType needs an rpc span name");

const char* rpc_span_name(MsgType type) {
  const auto index = static_cast<std::size_t>(type);
  return index < static_cast<std::size_t>(kNumMsgTypes) ? kRpcSpanNames[index]
                                                        : "rpc:unknown";
}

}  // namespace

SkcClient::SkcClient(const ClientOptions& options) : options_(options) {}

SkcClient::~SkcClient() { close(); }

bool SkcClient::connect(const std::string& host, std::uint16_t port) {
  close();
  host_ = host;
  port_ = port;
  int backoff = options_.retry_backoff_ms;
  std::string error;
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff *= 2;
    }
    sock_ = connect_to(host_, port_, options_.connect_timeout_ms, error);
    if (sock_.valid()) {
      last_status_ = Status::kOk;
      return true;
    }
  }
  return fail("connect to " + host + ": " + error);
}

void SkcClient::close() { sock_.close(); }

void SkcClient::set_tenant(std::string_view id) {
  SKC_CHECK_MSG(id.empty() || valid_tenant_id(id),
                "tenant id must be [A-Za-z0-9._-], at most 64 bytes");
  tenant_.assign(id);
}

bool SkcClient::fail(const std::string& message) {
  last_error_ = message;
  return false;
}

bool SkcClient::request(MsgType type, std::string_view body,
                        std::string& reply_body) {
  if (!sock_.valid()) return fail("not connected");
  // Every exchange runs inside a span named after its message type; when
  // tracing (or a flight-recorder capture) is live, the span extends the
  // ambient trace — or roots a fresh one — and the context rides the wire
  // as a version-3 frame so the server's "request" span shares a trace_id.
  obs::ScopedSpan rpc_span(rpc_span_name(type));
  const obs::TraceContext ctx = obs::Tracer::current_context();
  // Contextless traffic keeps the pre-trace framing: the default tenant
  // sends version-1 frames, byte-identical to a pre-tenant client, and a
  // tenant sends version 2 — both pinned by the compat tests.
  const std::string frame =
      ctx.trace_id != 0
          ? encode_traced_frame(type, Status::kOk, ctx, tenant_, body)
          : (tenant_.empty()
                 ? encode_frame(type, Status::kOk, body)
                 : encode_tenant_frame(type, Status::kOk, tenant_, body));
  int backoff = options_.retry_backoff_ms;
  for (int attempt = 0;; ++attempt) {
    IoResult io = send_exact(sock_, frame.data(), frame.size(),
                             options_.io_timeout_ms);
    if (io != IoResult::kOk) {
      close();
      return fail("send failed (connection lost)");
    }
    wire_bytes_sent_ += static_cast<std::int64_t>(frame.size());
    std::string header_buf(kFrameHeaderBytes, '\0');
    io = recv_exact(sock_, header_buf.data(), header_buf.size(),
                    options_.io_timeout_ms);
    if (io != IoResult::kOk) {
      close();
      return fail(io == IoResult::kTimeout ? "reply timed out"
                                           : "connection lost awaiting reply");
    }
    FrameHeader header;
    if (decode_header(header_buf, header) != Status::kOk) {
      close();
      return fail("malformed reply header");
    }
    std::string payload(header.payload_bytes, '\0');
    if (header.payload_bytes > 0) {
      io = recv_exact(sock_, payload.data(), payload.size(),
                      options_.io_timeout_ms);
      if (io != IoResult::kOk) {
        close();
        return fail("truncated reply");
      }
    }
    wire_bytes_received_ +=
        static_cast<std::int64_t>(frame_wire_bytes(header.payload_bytes));
    last_status_ = header.status;
    if (header.status == Status::kBusy) {
      // Load shed: nothing was applied server-side, so resending is safe.
      if (attempt >= options_.max_retries) {
        return fail("server busy (retries exhausted)");
      }
      ++busy_retries_;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff *= 2;
      continue;
    }
    if (header.type != type) {
      close();
      return fail("reply type does not match the request");
    }
    if (header.status != Status::kOk) {
      std::string detail;
      decode_text(payload, detail);
      return fail(std::string("server: ") + status_name(header.status) +
                  (detail.empty() ? "" : ": " + detail));
    }
    last_request_payload_ = body.size();
    last_reply_payload_ = payload.size();
    if (rpc_span.active()) {
      rpc_span.set_wire_bytes(static_cast<std::int64_t>(
          frame.size() + frame_wire_bytes(header.payload_bytes)));
    }
    reply_body = std::move(payload);
    return true;
  }
}

bool SkcClient::ping() {
  const std::string_view probe = "skc-ping";
  std::string reply;
  if (!request(MsgType::kPing, probe, reply)) return false;
  if (reply != probe) return fail("ping echo mismatch");
  return true;
}

bool SkcClient::batch(MsgType type, int dim, std::span<const Coord> coords,
                      BatchReply* ack) {
  SKC_CHECK(dim >= 1);
  SKC_CHECK(coords.size() % static_cast<std::size_t>(dim) == 0);
  PointBatch body;
  body.dim = dim;
  body.coords.assign(coords.begin(), coords.end());
  std::string reply;
  if (!request(type, body.encode(), reply)) return false;
  BatchReply parsed;
  if (!parsed.decode(reply)) return fail("undecodable batch ack");
  if (ack) *ack = parsed;
  return true;
}

bool SkcClient::insert_batch(int dim, std::span<const Coord> coords,
                             BatchReply* ack) {
  return batch(MsgType::kInsertBatch, dim, coords, ack);
}

bool SkcClient::delete_batch(int dim, std::span<const Coord> coords,
                             BatchReply* ack) {
  return batch(MsgType::kDeleteBatch, dim, coords, ack);
}

bool SkcClient::insert(std::span<const Coord> point) {
  return insert_batch(static_cast<int>(point.size()), point);
}

bool SkcClient::erase(std::span<const Coord> point) {
  return delete_batch(static_cast<int>(point.size()), point);
}

bool SkcClient::query(const QueryRequest& req, QueryReply& reply) {
  std::string body;
  if (!request(MsgType::kQuery, req.encode(), body)) return false;
  if (!reply.decode(body)) return fail("undecodable query reply");
  return true;
}

bool SkcClient::metrics_json(std::string& json) {
  std::string body;
  if (!request(MsgType::kMetrics, std::string_view{}, body)) return false;
  if (!decode_text(body, json)) return fail("undecodable metrics reply");
  return true;
}

bool SkcClient::trace_json(std::string& json) {
  std::string body;
  if (!request(MsgType::kTraceDump, std::string_view{}, body)) return false;
  if (!decode_text(body, json)) return fail("undecodable trace reply");
  return true;
}

bool SkcClient::prometheus_text(std::string& text) {
  std::string body;
  if (!request(MsgType::kPrometheus, std::string_view{}, body)) return false;
  if (!decode_text(body, text)) return fail("undecodable prometheus reply");
  return true;
}

bool SkcClient::checkpoint(const std::string& server_path) {
  CheckpointRequest req;
  req.path = server_path;
  std::string body;
  return request(MsgType::kCheckpoint, req.encode(), body);
}

bool SkcClient::shutdown_server() {
  std::string body;
  return request(MsgType::kShutdown, std::string_view{}, body);
}

bool SkcClient::worker_hello(const WorkerHello& hello, WorkerHelloReply& reply) {
  std::string body;
  if (!request(MsgType::kWorkerHello, hello.encode(), body)) return false;
  if (!reply.decode(body)) return fail("undecodable worker hello reply");
  return true;
}

bool SkcClient::heartbeat(HeartbeatReply& reply) {
  std::string body;
  if (!request(MsgType::kHeartbeat, std::string_view{}, body)) return false;
  if (!reply.decode(body)) return fail("undecodable heartbeat reply");
  return true;
}

bool SkcClient::merge_sketch(SketchSnapshot& snapshot) {
  std::string body;
  if (!request(MsgType::kMergeSketch, std::string_view{}, body)) return false;
  if (!snapshot.decode(body)) return fail("undecodable sketch snapshot");
  return true;
}

bool SkcClient::ship_snapshot(const SketchSnapshot& snapshot) {
  std::string body;
  return request(MsgType::kShipSnapshot, snapshot.encode(), body);
}

bool SkcClient::tenant_stats(std::string& json) {
  std::string body;
  if (!request(MsgType::kTenantStats, std::string_view{}, body)) return false;
  if (!decode_text(body, json)) return fail("undecodable tenant stats reply");
  return true;
}

bool SkcClient::cluster_trace_json(std::string& json) {
  std::string body;
  if (!request(MsgType::kClusterTraceDump, std::string_view{}, body)) {
    return false;
  }
  if (!decode_text(body, json)) return fail("undecodable cluster trace reply");
  return true;
}

bool SkcClient::worker_stats(WorkerStatsReply& reply) {
  std::string body;
  if (!request(MsgType::kWorkerStats, std::string_view{}, body)) return false;
  if (!reply.decode(body)) return fail("undecodable worker stats reply");
  return true;
}

bool SkcClient::flight_recorder_json(std::string& json) {
  std::string body;
  if (!request(MsgType::kFlightRecorder, std::string_view{}, body)) {
    return false;
  }
  if (!decode_text(body, json)) return fail("undecodable flight recorder reply");
  return true;
}

}  // namespace skc::net
