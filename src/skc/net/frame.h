// Wire protocol for the TCP serving layer — length-prefixed binary frames.
//
// Every message on the wire is one frame:
//
//   offset  size  field
//   0       4     magic          0x53 0x4b 0x43 0x46 ("SKCF", little-endian u32)
//   4       1     version        kWireVersion (1) or kWireVersionTenant (2)
//   5       1     type           MsgType
//   6       2     status         Status (replies; kOk on requests)
//   8       4     payload_bytes  little-endian u32, <= kMaxPayloadBytes
//   12      n     payload        type-specific body (common/serial.h encoding:
//                                little-endian PODs, u64-length vectors/strings)
//
// Version 2 frames carry a stream-id (tenant) prefix at the START of the
// payload — one u8 length then that many id bytes, followed by the version-1
// body unchanged — so INGEST/QUERY/CHECKPOINT (and every other request) can
// be namespaced per tenant.  Version 1 frames have no prefix and address the
// default tenant (""): a PR-6 client speaks to a multi-tenant server
// unmodified, byte-for-byte (pinned by tenant_server_test).  Replies are
// always version 1 — a reply needs no namespace.
//
// Version 3 frames prepend a trace context to the payload — 16 bytes, a
// little-endian u64 trace_id then the caller's u64 span_id — ahead of the
// tenant prefix (always present in v3; an empty id is one 0x00 byte), so
// stripping the context yields a valid version-2 payload and dispatch code
// never sees the extension.  Clients emit v3 only when a trace context is
// live (tracing or a flight-recorder capture); contextless traffic stays
// byte-identical to the PR-9 encoding (pinned by frame_trace_test), the
// same gating discipline v2 used for tenants.
//
// A request and its reply carry the same MsgType; errors travel in the
// reply's Status with an empty or diagnostic payload.  Decoding is strictly
// bounds-checked: a frame with a bad magic, unknown version/type, or an
// over-limit length is rejected at the header (decode_header names the
// Status to answer with before closing), and payload decoders reject
// truncated bodies, impossible sizes, out-of-range fields and trailing
// garbage — a malformed peer can terminate its connection, never crash the
// process.  A payload that fails its decoder, or a malformed or unknown
// *stream id*, is NOT a framing error: frames are length-delimited, so the
// server answers a typed error (kMalformed / kUnknownTenant) and keeps the
// connection.
//
// The simulated coordinator network (src/skc/dist/) accounts its messages
// with frame_wire_bytes() so Theorem 4.7's measured communication equals
// what these frames would occupy on a real wire.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "skc/common/types.h"
#include "skc/obs/histogram.h"
#include "skc/obs/trace.h"

namespace skc::net {

inline constexpr std::uint32_t kFrameMagic = 0x46434b53u;  // "SKCF"
inline constexpr std::uint8_t kWireVersion = 1;
/// Version 2: payload starts with a tenant-id prefix (u8 length + bytes).
inline constexpr std::uint8_t kWireVersionTenant = 2;
/// Version 3: payload starts with a trace context (u64 trace_id + u64
/// parent span_id, little-endian) followed by the version-2 tenant prefix.
inline constexpr std::uint8_t kWireVersionTraced = 3;
/// Bytes of the version-3 trace-context extension.
inline constexpr std::size_t kTraceContextBytes = 16;
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// Stream ids are short tokens: at most this many bytes of [A-Za-z0-9._-].
inline constexpr std::size_t kMaxTenantIdBytes = 64;
/// Hard cap on an ordinary frame body; a header announcing more is
/// malformed.  Sketch-carrying frames get the larger cap below — see
/// max_payload_bytes().
inline constexpr std::uint32_t kMaxPayloadBytes = 8u << 20;
/// Cap for frames whose body is a serialized coreset builder (MERGE_SKETCH
/// replies and SHIP_SNAPSHOT requests).  Sketch-mode
/// builders are size-capped independent of n, but exact-mode snapshots grow
/// with the data, and a failover restore must be able to ship one whole.
inline constexpr std::uint32_t kMaxSketchPayloadBytes = 256u << 20;
/// Caps inside payloads (points per batch, coordinates per point).
inline constexpr std::uint64_t kMaxBatchPoints = 1u << 20;
inline constexpr std::int32_t kMaxDim = 4096;
/// Cap on QueryRequest::solver_restarts: the k-means solver allocates one
/// solution per restart up front, so the count must be bounded at the wire.
inline constexpr std::int32_t kMaxSolverRestarts = 64;

enum class MsgType : std::uint8_t {
  kPing = 0,
  kInsertBatch = 1,
  kDeleteBatch = 2,
  kQuery = 3,
  kMetrics = 4,
  kCheckpoint = 5,
  kShutdown = 6,
  kTraceDump = 7,    ///< reply: chrome://tracing JSON (encode_text)
  kPrometheus = 8,   ///< reply: Prometheus text exposition (encode_text)
  // Cluster protocol (src/skc/cluster/): coordinator <-> worker RPCs.
  kWorkerHello = 9,   ///< config-fingerprint handshake; reply: WorkerHelloReply
  kHeartbeat = 10,    ///< empty request; reply: HeartbeatReply
  kMergeSketch = 11,  ///< empty request; reply: SketchSnapshot (engine export)
  kReserved12 = 12,   ///< formerly FETCH_CORESET; every server answers
                      ///< kUnsupported.  Kept so the enum stays dense and
                      ///< 13-17 keep their wire values.
  kShipSnapshot = 13, ///< request: SketchSnapshot to adopt (failover restore)
  // Multi-tenant protocol (src/skc/tenant/).
  kTenantStats = 14,  ///< reply: per-tenant registry stats JSON (encode_text);
                      ///< a v2 tenant prefix narrows it to that one tenant
  // Fleet observability (src/skc/obs/ + cluster/).
  kClusterTraceDump = 15,  ///< reply: fleet-merged chrome://tracing JSON —
                           ///< one process lane per node (encode_text)
  kWorkerStats = 16,       ///< empty request; reply: WorkerStatsReply
                           ///< (latency histograms + per-tenant counters)
  kFlightRecorder = 17,    ///< reply: slow-query flight-recorder JSON
                           ///< (encode_text)
};
/// Derived from the enum's last member so every per-type table (request
/// counters, Prometheus names) resizes with the protocol instead of relying
/// on a hand-maintained count.  Append new types at the end and bump the
/// static_assert — it pins the enum dense (no gaps), which type_index-style
/// array indexing assumes.
inline constexpr int kNumMsgTypes =
    static_cast<int>(MsgType::kFlightRecorder) + 1;
static_assert(kNumMsgTypes == 18,
              "MsgType must stay dense: append new members at the end, keep "
              "kNumMsgTypes tied to the last member, and update this assert");

enum class Status : std::uint16_t {
  kOk = 0,
  kBusy = 1,            ///< load shed: engine backlog over the server limit
  kMalformed = 2,       ///< undecodable header or payload
  kUnsupported = 3,     ///< unknown version or message type
  kTooLarge = 4,        ///< announced payload exceeds kMaxPayloadBytes
  kEngineError = 5,     ///< request decoded but the engine refused it
  kShuttingDown = 6,    ///< server is draining; no new work accepted
  kQuotaExceeded = 7,   ///< tenant admission refused (memory / rate / backlog)
  kUnknownTenant = 8,   ///< unknown or malformed stream id (typed, never a drop)
};
/// Highest valid Status value (decode_header's bound; keep tied to the last
/// member above).
inline constexpr std::uint16_t kMaxStatusValue =
    static_cast<std::uint16_t>(Status::kUnknownTenant);

/// Human-readable status name ("ok", "busy", ...) for logs and errors.
const char* status_name(Status s);

struct FrameHeader {
  MsgType type = MsgType::kPing;
  Status status = Status::kOk;
  std::uint32_t payload_bytes = 0;
  std::uint8_t version = kWireVersion;  ///< 1 = plain, 2 = tenant-prefixed,
                                        ///< 3 = trace context + tenant prefix
};

/// Bytes a frame carrying `payload_bytes` of body occupies on the wire.
inline constexpr std::uint64_t frame_wire_bytes(std::uint64_t payload_bytes) {
  return static_cast<std::uint64_t>(kFrameHeaderBytes) + payload_bytes;
}

/// Per-type payload cap enforced by decode_header (after the type has
/// validated): sketch-carrying frames may be much larger than ordinary
/// request/reply bodies.
constexpr std::uint32_t max_payload_bytes(MsgType type) {
  switch (type) {
    case MsgType::kMergeSketch:
    case MsgType::kShipSnapshot:
      return kMaxSketchPayloadBytes;
    default:
      return kMaxPayloadBytes;
  }
}

/// Serializes header + payload into one contiguous wire frame (version 1 —
/// byte-identical to the PR-6 encoding; the compatibility pin).
std::string encode_frame(MsgType type, Status status, std::string_view payload);

/// Version-2 frame: the payload is prefixed with the tenant id (u8 length +
/// bytes).  The id must satisfy valid_tenant_id(); an empty id addresses the
/// default tenant explicitly (servers treat it exactly like a v1 frame).
std::string encode_tenant_frame(MsgType type, Status status,
                                std::string_view tenant,
                                std::string_view payload);

/// True iff `id` is a legal stream id: at most kMaxTenantIdBytes bytes of
/// [A-Za-z0-9._-].  The empty string is legal (the default tenant).
bool valid_tenant_id(std::string_view id);

/// Version-3 frame: the payload opens with `ctx` (u64 trace_id + u64 span_id,
/// little-endian) followed by the tenant prefix (u8 length + bytes; empty id
/// = one 0x00 byte) and the version-1 body — stripping kTraceContextBytes
/// yields a valid version-2 payload.  The context must be live
/// (ctx.trace_id != 0): contextless traffic must use encode_frame /
/// encode_tenant_frame so its bytes stay PR-9-identical.
std::string encode_traced_frame(MsgType type, Status status,
                                const obs::TraceContext& ctx,
                                std::string_view tenant,
                                std::string_view payload);

/// Splits a version-2 payload into its tenant prefix and the inner body.
/// Returns false when the prefix is structurally absent (no length byte or
/// announced length past the payload end) — charset/length POLICY violations
/// are left to the server, which answers kUnknownTenant; this only rejects
/// what cannot be parsed at all.
bool split_tenant_prefix(std::string_view payload, std::string_view& tenant,
                         std::string_view& inner);

/// Splits a version-3 payload into its trace context and the remainder (a
/// version-2 tenant-prefixed payload).  Returns false when fewer than
/// kTraceContextBytes are present.
bool split_trace_prefix(std::string_view payload, obs::TraceContext& ctx,
                        std::string_view& rest);

/// Validates the 12 header bytes.  Returns Status::kOk and fills `out` on
/// success; otherwise returns the status a server should answer with
/// (kMalformed / kUnsupported / kTooLarge) before closing the connection.
/// Accepts versions 1, 2 and 3 (out.version says which).
Status decode_header(std::string_view bytes, FrameHeader& out);

// ---------------------------------------------------------------------------
// Payload bodies.  Each struct has encode() -> body bytes and a decode()
// returning false on truncation, limit violations, or trailing garbage.

/// INSERT_BATCH / DELETE_BATCH request: `count` points of `dim` coordinates,
/// row-major.  The reply body is BatchReply.
struct PointBatch {
  std::int32_t dim = 0;
  std::vector<Coord> coords;  ///< size() == dim * count

  std::uint64_t count() const {
    return dim > 0 ? coords.size() / static_cast<std::uint64_t>(dim) : 0;
  }
  std::string encode() const;
  bool decode(std::string_view body);
};

struct BatchReply {
  std::uint64_t accepted = 0;  ///< events enqueued (0 on BUSY)
  std::int64_t backlog = 0;    ///< engine queue depth after the batch

  std::string encode() const;
  bool decode(std::string_view body);
};

/// QUERY request — mirrors EngineQuery.  decode() rejects a negative k, a
/// non-finite or non-positive capacity_slack, and a solver_restarts outside
/// [0, kMaxSolverRestarts].
struct QueryRequest {
  std::int32_t k = 0;
  double capacity_slack = 1.1;
  bool barrier = true;
  bool summary_only = false;
  std::int32_t solver_restarts = 1;

  std::string encode() const;
  bool decode(std::string_view body);
};

/// QUERY reply — the serving-relevant projection of EngineQueryResult
/// (centers + cost + diagnostics; the full summary stays server-side).
struct QueryReply {
  bool ok = false;
  std::string error;
  std::int64_t net_points = 0;
  std::uint64_t summary_points = 0;
  double capacity = 0.0;
  double cost = 0.0;
  bool feasible = false;
  std::int32_t dim = 0;
  std::vector<Coord> center_coords;  ///< row-major, dim per center
  double merge_millis = 0.0;
  double solve_millis = 0.0;

  std::string encode() const;
  bool decode(std::string_view body);
};

/// CHECKPOINT request: server-side destination path (the blob itself is not
/// shipped; checkpoints are written where the engine runs).  An empty path
/// decodes: the coordinator ignores the path, and engine and tenant servers
/// answer it with an engine error, not as a malformed frame.
struct CheckpointRequest {
  std::string path;

  std::string encode() const;
  bool decode(std::string_view body);
};

/// WORKER_HELLO request: the coordinator introduces itself and pins the
/// engine configuration.  Merging sketches across mismatched configurations
/// would be silently wrong, so the worker compares `fingerprint` (a hash of
/// every sketch-relevant knob — see engine_config_fingerprint) and refuses
/// registration on mismatch; dim/k/log_delta ride along for diagnostics.
struct WorkerHello {
  std::int32_t worker_id = 0;  ///< rank the coordinator assigns (0-based)
  std::int32_t dim = 0;
  std::int32_t k = 0;
  std::int32_t log_delta = 0;
  std::uint64_t fingerprint = 0;

  std::string encode() const;
  bool decode(std::string_view body);
};

struct WorkerHelloReply {
  bool ok = false;
  std::string message;  ///< mismatch diagnostic when !ok
  std::int32_t num_shards = 0;
  std::int64_t net_points = 0;

  std::string encode() const;
  bool decode(std::string_view body);
};

/// HEARTBEAT reply (the request body is empty): liveness plus the load
/// signals the coordinator folds into its registry, plus the worker's
/// tracer clock so the coordinator can estimate per-node offsets from the
/// round trip (NTP-style midpoint; see cluster/coordinator.h) and rebase
/// worker spans onto its own timeline.
struct HeartbeatReply {
  std::int64_t backlog = 0;         ///< worker queue depth
  std::int64_t net_points = 0;      ///< surviving points on the worker
  std::int64_t events_applied = 0;  ///< drained into the worker's builders
  std::int64_t tracer_now_micros = 0;  ///< worker Tracer::now_micros() at reply

  std::string encode() const;
  bool decode(std::string_view body);
};

/// MERGE_SKETCH reply / SHIP_SNAPSHOT request: one serialized
/// StreamingCoresetBuilder (ClusteringEngine::export_sketch) plus its epoch
/// watermark.  The blob is opaque to the transport; the engine validates
/// its fingerprint on import.
struct SketchSnapshot {
  std::int64_t net_points = 0;
  std::int64_t events_applied = 0;  ///< events folded into the blob
  std::string blob;

  std::string encode() const;
  bool decode(std::string_view body);
};

/// Sparse wire form of one obs::HistogramSnapshot: of the 944 log-linear
/// buckets only the nonzero ones travel, as parallel (index, value) arrays.
/// Scalars ride alongside so the coordinator's bucket-wise merge (the same
/// linear composition the sketches use) reconstructs the snapshot exactly.
/// Decoding refuses a negative count, bucket value or sum, a count, bucket
/// value or bucket total past kMaxEvents (2^53), and a sum past
/// kMaxSumMicros, so the fleet scrape can add up to 1,023 replies — counts,
/// buckets, cumulative buckets and sums — without an int64 overflow.
struct HistogramWire {
  static constexpr std::int64_t kMaxSumMicros = INT64_MAX / 1024;

  std::int64_t count = 0;
  std::int64_t sum_micros = 0;
  std::int64_t min_micros = 0;
  std::int64_t max_micros = 0;
  std::int64_t last_micros = 0;
  std::vector<std::uint32_t> bucket_index;  ///< strictly increasing
  std::vector<std::int64_t> bucket_value;   ///< parallel to bucket_index

  static HistogramWire from(const obs::HistogramSnapshot& snapshot);
  obs::HistogramSnapshot to_snapshot() const;
};

/// One tenant's admitted-event count inside a WorkerStatsReply.
struct TenantEventsRow {
  std::string id;  ///< "" = the default tenant
  std::int64_t events = 0;
};

/// WORKER_STATS reply (the request body is empty): the node's per-op
/// latency histograms in sparse form, its dropped-span counter, and
/// per-tenant admitted-event counts.  The coordinator's fleet scrape merges
/// these bucket-wise into aggregate p50/p99/p999 (cluster/metrics.h).
struct WorkerStatsReply {
  HistogramWire submit;
  HistogramWire query;
  HistogramWire checkpoint;
  HistogramWire net_request;
  std::int64_t trace_dropped_spans = 0;
  std::vector<TenantEventsRow> tenants;

  std::string encode() const;
  bool decode(std::string_view body);
};

/// METRICS reply and error replies carry one string (JSON / diagnostic).
std::string encode_text(std::string_view text);
bool decode_text(std::string_view body, std::string& out);

}  // namespace skc::net
