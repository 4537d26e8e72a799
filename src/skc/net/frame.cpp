#include "skc/net/frame.h"

#include <cmath>

#include "skc/common/check.h"
#include "skc/common/serial.h"

namespace skc::net {

using serial::Reader;
using serial::Writer;

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kBusy: return "busy";
    case Status::kMalformed: return "malformed";
    case Status::kUnsupported: return "unsupported";
    case Status::kTooLarge: return "too-large";
    case Status::kEngineError: return "engine-error";
    case Status::kShuttingDown: return "shutting-down";
    case Status::kQuotaExceeded: return "quota-exceeded";
    case Status::kUnknownTenant: return "unknown-tenant";
  }
  return "unknown";
}

namespace {

std::string encode_frame_impl(std::uint8_t version, MsgType type, Status status,
                              std::uint32_t payload_bytes) {
  Writer w;
  w.put<std::uint32_t>(kFrameMagic);
  w.put<std::uint8_t>(version);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(type));
  w.put<std::uint16_t>(static_cast<std::uint16_t>(status));
  w.put<std::uint32_t>(payload_bytes);
  return w.take();
}

}  // namespace

std::string encode_frame(MsgType type, Status status, std::string_view payload) {
  std::string out = encode_frame_impl(
      kWireVersion, type, status, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

std::string encode_tenant_frame(MsgType type, Status status,
                                std::string_view tenant,
                                std::string_view payload) {
  SKC_DCHECK(valid_tenant_id(tenant));
  const auto total =
      static_cast<std::uint32_t>(1 + tenant.size() + payload.size());
  std::string out = encode_frame_impl(kWireVersionTenant, type, status, total);
  out.push_back(static_cast<char>(static_cast<std::uint8_t>(tenant.size())));
  out.append(tenant);
  out.append(payload);
  return out;
}

std::string encode_traced_frame(MsgType type, Status status,
                                const obs::TraceContext& ctx,
                                std::string_view tenant,
                                std::string_view payload) {
  SKC_DCHECK(valid_tenant_id(tenant));
  SKC_DCHECK(ctx.trace_id != 0);
  const auto total = static_cast<std::uint32_t>(
      kTraceContextBytes + 1 + tenant.size() + payload.size());
  std::string out = encode_frame_impl(kWireVersionTraced, type, status, total);
  Writer w;
  w.put<std::uint64_t>(ctx.trace_id);
  w.put<std::uint64_t>(ctx.span_id);
  out.append(w.take());
  out.push_back(static_cast<char>(static_cast<std::uint8_t>(tenant.size())));
  out.append(tenant);
  out.append(payload);
  return out;
}

bool split_trace_prefix(std::string_view payload, obs::TraceContext& ctx,
                        std::string_view& rest) {
  if (payload.size() < kTraceContextBytes) return false;
  Reader r(payload.substr(0, kTraceContextBytes));
  std::uint64_t trace_id = 0, span_id = 0;
  r.get(trace_id);
  r.get(span_id);
  ctx.trace_id = trace_id;
  ctx.span_id = span_id;
  rest = payload.substr(kTraceContextBytes);
  return true;
}

bool valid_tenant_id(std::string_view id) {
  if (id.size() > kMaxTenantIdBytes) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool split_tenant_prefix(std::string_view payload, std::string_view& tenant,
                         std::string_view& inner) {
  if (payload.empty()) return false;
  const auto len = static_cast<std::size_t>(
      static_cast<std::uint8_t>(payload.front()));
  if (1 + len > payload.size()) return false;
  tenant = payload.substr(1, len);
  inner = payload.substr(1 + len);
  return true;
}

Status decode_header(std::string_view bytes, FrameHeader& out) {
  if (bytes.size() < kFrameHeaderBytes) return Status::kMalformed;
  Reader r(bytes.substr(0, kFrameHeaderBytes));
  std::uint32_t magic = 0, payload = 0;
  std::uint8_t version = 0, type = 0;
  std::uint16_t status = 0;
  r.get(magic);
  r.get(version);
  r.get(type);
  r.get(status);
  r.get(payload);
  if (magic != kFrameMagic) return Status::kMalformed;
  if (version != kWireVersion && version != kWireVersionTenant &&
      version != kWireVersionTraced) {
    return Status::kUnsupported;
  }
  if (type >= kNumMsgTypes) return Status::kUnsupported;
  if (status > kMaxStatusValue) return Status::kMalformed;
  if (payload > max_payload_bytes(static_cast<MsgType>(type))) {
    return Status::kTooLarge;
  }
  out.type = static_cast<MsgType>(type);
  out.status = static_cast<Status>(status);
  out.payload_bytes = payload;
  out.version = version;
  return Status::kOk;
}

std::string PointBatch::encode() const {
  Writer w;
  w.put<std::int32_t>(dim);
  w.put_vector(coords);
  return w.take();
}

bool PointBatch::decode(std::string_view body) {
  Reader r(body);
  if (!r.get(dim) || dim < 1 || dim > kMaxDim) return false;
  if (!r.get_vector(coords) || !r.done()) return false;
  if (coords.size() % static_cast<std::size_t>(dim) != 0) return false;
  if (count() > kMaxBatchPoints) return false;
  return true;
}

std::string BatchReply::encode() const {
  Writer w;
  w.put(accepted);
  w.put(backlog);
  return w.take();
}

bool BatchReply::decode(std::string_view body) {
  Reader r(body);
  return r.get(accepted) && r.get(backlog) && r.done();
}

std::string QueryRequest::encode() const {
  Writer w;
  w.put(k);
  w.put(capacity_slack);
  w.put_bool(barrier);
  w.put_bool(summary_only);
  w.put(solver_restarts);
  return w.take();
}

bool QueryRequest::decode(std::string_view body) {
  Reader r(body);
  return r.get(k) && k >= 0 && r.get(capacity_slack) &&
         std::isfinite(capacity_slack) && capacity_slack > 0.0 &&
         r.get_bool(barrier) && r.get_bool(summary_only) && r.get(solver_restarts) &&
         solver_restarts >= 0 && solver_restarts <= kMaxSolverRestarts &&
         r.done();
}

std::string QueryReply::encode() const {
  Writer w;
  w.put_bool(ok);
  w.put_string(error);
  w.put(net_points);
  w.put(summary_points);
  w.put(capacity);
  w.put(cost);
  w.put_bool(feasible);
  w.put(dim);
  w.put_vector(center_coords);
  w.put(merge_millis);
  w.put(solve_millis);
  return w.take();
}

bool QueryReply::decode(std::string_view body) {
  Reader r(body);
  if (!r.get_bool(ok) || !r.get_string(error) || !r.get(net_points) ||
      !r.get(summary_points) || !r.get(capacity) || !r.get(cost) ||
      !r.get_bool(feasible) || !r.get(dim)) {
    return false;
  }
  if (dim < 0 || dim > kMaxDim) return false;
  if (!r.get_vector(center_coords) || !r.get(merge_millis) ||
      !r.get(solve_millis) || !r.done()) {
    return false;
  }
  if (dim == 0) return center_coords.empty();
  return center_coords.size() % static_cast<std::size_t>(dim) == 0;
}

std::string CheckpointRequest::encode() const {
  Writer w;
  w.put_string(path);
  return w.take();
}

bool CheckpointRequest::decode(std::string_view body) {
  Reader r(body);
  return r.get_string(path) && r.done();
}

std::string WorkerHello::encode() const {
  Writer w;
  w.put(worker_id);
  w.put(dim);
  w.put(k);
  w.put(log_delta);
  w.put(fingerprint);
  return w.take();
}

bool WorkerHello::decode(std::string_view body) {
  Reader r(body);
  if (!r.get(worker_id) || worker_id < 0) return false;
  if (!r.get(dim) || dim < 1 || dim > kMaxDim) return false;
  if (!r.get(k) || k < 0) return false;
  if (!r.get(log_delta) || log_delta < 1 || log_delta > 62) return false;
  return r.get(fingerprint) && r.done();
}

std::string WorkerHelloReply::encode() const {
  Writer w;
  w.put_bool(ok);
  w.put_string(message);
  w.put(num_shards);
  w.put(net_points);
  return w.take();
}

bool WorkerHelloReply::decode(std::string_view body) {
  Reader r(body);
  return r.get_bool(ok) && r.get_string(message) && r.get(num_shards) &&
         num_shards >= 0 && r.get(net_points) && r.done();
}

std::string HeartbeatReply::encode() const {
  Writer w;
  w.put(backlog);
  w.put(net_points);
  w.put(events_applied);
  w.put(tracer_now_micros);
  return w.take();
}

bool HeartbeatReply::decode(std::string_view body) {
  Reader r(body);
  return r.get(backlog) && r.get(net_points) && r.get(events_applied) &&
         r.get(tracer_now_micros) && r.done();
}

std::string SketchSnapshot::encode() const {
  Writer w;
  w.put(net_points);
  w.put(events_applied);
  w.put_string(blob);
  return w.take();
}

bool SketchSnapshot::decode(std::string_view body) {
  Reader r(body);
  if (!r.get(net_points) || !r.get(events_applied)) return false;
  if (!r.get_string(blob) || !r.done()) return false;
  return blob.size() <= kMaxSketchPayloadBytes;
}

HistogramWire HistogramWire::from(const obs::HistogramSnapshot& snapshot) {
  HistogramWire w;
  w.count = snapshot.count;
  w.sum_micros = snapshot.sum_micros;
  w.min_micros = snapshot.min_micros;
  w.max_micros = snapshot.max_micros;
  w.last_micros = snapshot.last_micros;
  for (std::size_t i = 0; i < snapshot.buckets.size(); ++i) {
    if (snapshot.buckets[i] == 0) continue;
    w.bucket_index.push_back(static_cast<std::uint32_t>(i));
    w.bucket_value.push_back(snapshot.buckets[i]);
  }
  return w;
}

obs::HistogramSnapshot HistogramWire::to_snapshot() const {
  obs::HistogramSnapshot s;
  s.count = count;
  s.sum_micros = sum_micros;
  s.min_micros = min_micros;
  s.max_micros = max_micros;
  s.last_micros = last_micros;
  for (std::size_t i = 0; i < bucket_index.size(); ++i) {
    const auto idx = static_cast<std::size_t>(bucket_index[i]);
    if (idx < s.buckets.size()) s.buckets[idx] = bucket_value[i];
  }
  return s;
}

namespace {

void put_histogram(Writer& w, const HistogramWire& h) {
  w.put(h.count);
  w.put(h.sum_micros);
  w.put(h.min_micros);
  w.put(h.max_micros);
  w.put(h.last_micros);
  w.put_vector(h.bucket_index);
  w.put_vector(h.bucket_value);
}

bool get_histogram(Reader& r, HistogramWire& h) {
  if (!r.get(h.count) || !r.get(h.sum_micros) || !r.get(h.min_micros) ||
      !r.get(h.max_micros) || !r.get(h.last_micros)) {
    return false;
  }
  // The bounds of HistogramWire: what a fleet merge adds stays finite.
  if (h.count < 0 || h.count > kMaxEvents || h.sum_micros < 0 ||
      h.sum_micros > HistogramWire::kMaxSumMicros) {
    return false;
  }
  if (!r.get_vector(h.bucket_index) || !r.get_vector(h.bucket_value)) {
    return false;
  }
  if (h.bucket_index.size() != h.bucket_value.size()) return false;
  // Strictly increasing in-range indexes: rejects duplicates, disorder, and
  // out-of-bounds writes in to_snapshot() in one pass.
  std::int64_t total = 0;
  for (std::size_t i = 0; i < h.bucket_index.size(); ++i) {
    if (h.bucket_index[i] >= static_cast<std::uint32_t>(obs::kHistogramBuckets))
      return false;
    if (i > 0 && h.bucket_index[i] <= h.bucket_index[i - 1]) return false;
    if (h.bucket_value[i] < 0 || h.bucket_value[i] > kMaxEvents - total) return false;
    total += h.bucket_value[i];
  }
  return true;
}

}  // namespace

std::string WorkerStatsReply::encode() const {
  Writer w;
  put_histogram(w, submit);
  put_histogram(w, query);
  put_histogram(w, checkpoint);
  put_histogram(w, net_request);
  w.put(trace_dropped_spans);
  w.put<std::uint64_t>(tenants.size());
  for (const TenantEventsRow& t : tenants) {
    w.put_string(t.id);
    w.put(t.events);
  }
  return w.take();
}

bool WorkerStatsReply::decode(std::string_view body) {
  Reader r(body);
  if (!get_histogram(r, submit) || !get_histogram(r, query) ||
      !get_histogram(r, checkpoint) || !get_histogram(r, net_request)) {
    return false;
  }
  if (!r.get(trace_dropped_spans) || trace_dropped_spans < 0) return false;
  std::uint64_t n = 0;
  // Each row takes at least 16 bytes (id length and events), so a count
  // past the bytes left is refused before the rows are reserved.
  if (!r.get(n) || n > r.left() / 16) return false;
  tenants.clear();
  tenants.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    TenantEventsRow row;
    if (!r.get_string(row.id) || row.id.size() > kMaxTenantIdBytes ||
        !valid_tenant_id(row.id) || !r.get(row.events) || row.events < 0) {
      return false;
    }
    tenants.push_back(std::move(row));
  }
  return r.done();
}

std::string encode_text(std::string_view text) {
  Writer w;
  w.put_string(text);
  return w.take();
}

bool decode_text(std::string_view body, std::string& out) {
  Reader r(body);
  return r.get_string(out) && r.done();
}

}  // namespace skc::net
