// Wire protocol (src/skc/net/frame.h): every header field is validated,
// every payload decoder is strict (truncation, impossible sizes, trailing
// garbage all rejected), and a hostile length prefix can never provoke an
// allocation larger than the bytes actually present — the properties the
// server relies on to survive arbitrary peers.
#include "skc/net/frame.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

namespace skc::net {
namespace {

FrameHeader decode_ok(std::string_view bytes) {
  FrameHeader h;
  EXPECT_EQ(decode_header(bytes, h), Status::kOk);
  return h;
}

TEST(Frame, HeaderRoundTripsEveryTypeAndStatus) {
  for (int t = 0; t < kNumMsgTypes; ++t) {
    for (int s = 0; s <= static_cast<int>(kMaxStatusValue); ++s) {
      const std::string payload(static_cast<std::size_t>(t) * 3, 'x');
      const std::string frame =
          encode_frame(static_cast<MsgType>(t), static_cast<Status>(s), payload);
      ASSERT_EQ(frame.size(), frame_wire_bytes(payload.size()));
      const FrameHeader h = decode_ok(frame);
      EXPECT_EQ(h.type, static_cast<MsgType>(t));
      EXPECT_EQ(h.status, static_cast<Status>(s));
      EXPECT_EQ(h.payload_bytes, payload.size());
      EXPECT_EQ(frame.substr(kFrameHeaderBytes), payload);
    }
  }
}

TEST(Frame, WireBytesMatchesEncoderOutput) {
  // frame_wire_bytes is the contract dist/Network::send accounts with; it
  // must equal what the encoder actually emits at every payload size.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{12},
                              std::size_t{4096}}) {
    const std::string body(n, 'p');
    EXPECT_EQ(encode_frame(MsgType::kQuery, Status::kOk, body).size(),
              frame_wire_bytes(n));
  }
}

TEST(Frame, TruncatedHeaderIsMalformed) {
  const std::string frame = encode_frame(MsgType::kPing, Status::kOk, "abc");
  FrameHeader h;
  for (std::size_t len = 0; len < kFrameHeaderBytes; ++len) {
    EXPECT_EQ(decode_header(std::string_view(frame).substr(0, len), h),
              Status::kMalformed)
        << "header prefix of " << len << " bytes";
  }
}

TEST(Frame, BadMagicIsMalformed) {
  std::string frame = encode_frame(MsgType::kPing, Status::kOk, "");
  frame[0] = 'X';
  FrameHeader h;
  EXPECT_EQ(decode_header(frame, h), Status::kMalformed);
}

TEST(Frame, UnknownVersionAndTypeAreUnsupported) {
  std::string frame = encode_frame(MsgType::kPing, Status::kOk, "");
  frame[4] = static_cast<char>(kWireVersionTraced + 1);  // first invalid version
  FrameHeader h;
  EXPECT_EQ(decode_header(frame, h), Status::kUnsupported);

  frame = encode_frame(MsgType::kPing, Status::kOk, "");
  frame[5] = static_cast<char>(kNumMsgTypes);  // first invalid type
  EXPECT_EQ(decode_header(frame, h), Status::kUnsupported);
}

TEST(Frame, InvalidStatusIsMalformed) {
  std::string frame = encode_frame(MsgType::kPing, Status::kOk, "");
  frame[6] = static_cast<char>(0x7f);  // status low byte, way out of range
  FrameHeader h;
  EXPECT_EQ(decode_header(frame, h), Status::kMalformed);
}

TEST(Frame, OverLimitPayloadLengthIsTooLarge) {
  std::string frame = encode_frame(MsgType::kInsertBatch, Status::kOk, "");
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(frame.data() + 8, &huge, sizeof(huge));
  FrameHeader h;
  EXPECT_EQ(decode_header(frame, h), Status::kTooLarge);
  // The cap itself is fine (the header only announces; no body needed here).
  const std::uint32_t cap = kMaxPayloadBytes;
  std::memcpy(frame.data() + 8, &cap, sizeof(cap));
  EXPECT_EQ(decode_header(frame, h), Status::kOk);
}

TEST(Frame, PointBatchRoundTrip) {
  PointBatch in;
  in.dim = 3;
  in.coords = {1, 2, 3, 4, 5, 6};
  PointBatch out;
  ASSERT_TRUE(out.decode(in.encode()));
  EXPECT_EQ(out.dim, 3);
  EXPECT_EQ(out.coords, in.coords);
  EXPECT_EQ(out.count(), 2u);
}

TEST(Frame, PointBatchRejectsBadBodies) {
  PointBatch in;
  in.dim = 2;
  in.coords = {7, 8, 9, 10};
  const std::string body = in.encode();
  PointBatch out;

  // Truncation at every length strictly inside the body.
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(out.decode(std::string_view(body).substr(0, len)))
        << "body prefix of " << len << " bytes";
  }
  // Trailing garbage.
  EXPECT_FALSE(out.decode(body + "!"));
  // dim out of range.
  PointBatch bad = in;
  bad.dim = 0;
  EXPECT_FALSE(out.decode(bad.encode()));
  bad.dim = kMaxDim + 1;
  EXPECT_FALSE(out.decode(bad.encode()));
  // coords not a multiple of dim.
  bad = in;
  bad.coords.push_back(11);
  EXPECT_FALSE(out.decode(bad.encode()));
  EXPECT_TRUE(out.decode(in.encode()));  // the pristine body still decodes
}

TEST(Frame, HostileVectorLengthCannotOverAllocate) {
  // A body announcing 2^61 coordinates but carrying none: the decoder must
  // reject on the announced-vs-remaining comparison before any resize.
  std::string body;
  const std::int32_t dim = 2;
  body.append(reinterpret_cast<const char*>(&dim), sizeof(dim));
  const std::uint64_t huge = std::uint64_t{1} << 61;
  body.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  PointBatch out;
  EXPECT_FALSE(out.decode(body));
  EXPECT_TRUE(out.coords.empty());
}

TEST(Frame, BatchReplyRoundTrip) {
  BatchReply in;
  in.accepted = 512;
  in.backlog = 12345;
  BatchReply out;
  ASSERT_TRUE(out.decode(in.encode()));
  EXPECT_EQ(out.accepted, 512u);
  EXPECT_EQ(out.backlog, 12345);
  EXPECT_FALSE(out.decode(in.encode() + "x"));
  EXPECT_FALSE(out.decode(""));
}

TEST(Frame, QueryRequestRoundTripAndValidation) {
  QueryRequest in;
  in.k = 7;
  in.capacity_slack = 1.25;
  in.barrier = false;
  in.summary_only = true;
  in.solver_restarts = 3;
  QueryRequest out;
  ASSERT_TRUE(out.decode(in.encode()));
  EXPECT_EQ(out.k, 7);
  EXPECT_DOUBLE_EQ(out.capacity_slack, 1.25);
  EXPECT_FALSE(out.barrier);
  EXPECT_TRUE(out.summary_only);
  EXPECT_EQ(out.solver_restarts, 3);

  // Negative k rejected; non-0/1 bool byte rejected.
  QueryRequest bad = in;
  bad.k = -1;
  EXPECT_FALSE(out.decode(bad.encode()));
  std::string body = in.encode();
  body[sizeof(std::int32_t) + sizeof(double)] = 2;  // the `barrier` byte
  EXPECT_FALSE(out.decode(body));
}

// solver_restarts sizes an up-front allocation in the k-means solver, so the
// decoder bounds it: [0, kMaxSolverRestarts] decodes, anything else (an
// INT32_MAX would throw bad_alloc in the solver) is malformed.
TEST(Frame, QueryRequestBoundsSolverRestarts) {
  QueryRequest in;
  QueryRequest out;
  for (const std::int32_t ok : {0, 1, 5, kMaxSolverRestarts}) {
    in.solver_restarts = ok;
    ASSERT_TRUE(out.decode(in.encode())) << ok;
    EXPECT_EQ(out.solver_restarts, ok);
  }
  for (const std::int32_t bad : {-1, kMaxSolverRestarts + 1,
                                 std::numeric_limits<std::int32_t>::max(),
                                 std::numeric_limits<std::int32_t>::min()}) {
    in.solver_restarts = bad;
    EXPECT_FALSE(out.decode(in.encode())) << bad;
  }
}

TEST(Frame, QueryRequestBoundsCapacitySlack) {
  QueryRequest in;
  QueryRequest out;
  for (const double ok : {1e-9, 1.0, 1.1, 64.0, 1e300}) {
    in.capacity_slack = ok;
    ASSERT_TRUE(out.decode(in.encode())) << ok;
    EXPECT_EQ(out.capacity_slack, ok);
  }
  for (const double bad : {0.0, -0.0, -1.1, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    in.capacity_slack = bad;
    EXPECT_FALSE(out.decode(in.encode())) << bad;
  }
}

TEST(Frame, QueryReplyRoundTrip) {
  QueryReply in;
  in.ok = true;
  in.error = "";
  in.net_points = 4000;
  in.summary_points = 93;
  in.capacity = 1100.0;
  in.cost = 3.5e6;
  in.feasible = true;
  in.dim = 2;
  in.center_coords = {10, 20, 30, 40, 50, 60};
  in.merge_millis = 12.5;
  in.solve_millis = 80.25;
  QueryReply out;
  ASSERT_TRUE(out.decode(in.encode()));
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.net_points, 4000);
  EXPECT_EQ(out.summary_points, 93u);
  EXPECT_DOUBLE_EQ(out.capacity, 1100.0);
  EXPECT_DOUBLE_EQ(out.cost, 3.5e6);
  EXPECT_EQ(out.center_coords, in.center_coords);
  EXPECT_DOUBLE_EQ(out.solve_millis, 80.25);

  // Centers not a multiple of dim.
  QueryReply bad = in;
  bad.center_coords.push_back(70);
  EXPECT_FALSE(out.decode(bad.encode()));
  // dim 0 demands no centers.
  bad = in;
  bad.dim = 0;
  EXPECT_FALSE(out.decode(bad.encode()));
  bad.center_coords.clear();
  EXPECT_TRUE(out.decode(bad.encode()));
}

// Decoding `body` must succeed, and every strict prefix plus one byte of
// trailing garbage must be rejected — the strictness contract every payload
// codec in the protocol promises.
template <typename Body>
void expect_strict(const std::string& body) {
  Body out;
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(out.decode(std::string_view(body).substr(0, len)))
        << "body prefix of " << len << " bytes";
  }
  EXPECT_FALSE(out.decode(body + "!"));
  EXPECT_TRUE(out.decode(body));
}

TEST(Frame, WorkerHelloRoundTrip) {
  WorkerHello in;
  in.worker_id = 3;
  in.dim = 5;
  in.k = 9;
  in.log_delta = 12;
  in.fingerprint = 0xfeedbeefcafe1234ull;
  WorkerHello out;
  ASSERT_TRUE(out.decode(in.encode()));
  EXPECT_EQ(out.worker_id, 3);
  EXPECT_EQ(out.dim, 5);
  EXPECT_EQ(out.k, 9);
  EXPECT_EQ(out.log_delta, 12);
  EXPECT_EQ(out.fingerprint, 0xfeedbeefcafe1234ull);
  expect_strict<WorkerHello>(in.encode());
}

TEST(Frame, WorkerHelloReplyRoundTrip) {
  WorkerHelloReply in;
  in.ok = false;
  in.message = "config fingerprint mismatch";
  in.num_shards = 4;
  in.net_points = 777;
  WorkerHelloReply out;
  ASSERT_TRUE(out.decode(in.encode()));
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.message, "config fingerprint mismatch");
  EXPECT_EQ(out.num_shards, 4);
  EXPECT_EQ(out.net_points, 777);
  expect_strict<WorkerHelloReply>(in.encode());
}

TEST(Frame, HeartbeatReplyRoundTrip) {
  HeartbeatReply in;
  in.backlog = 42;
  in.net_points = 4096;
  in.events_applied = 5000;
  HeartbeatReply out;
  ASSERT_TRUE(out.decode(in.encode()));
  EXPECT_EQ(out.backlog, 42);
  EXPECT_EQ(out.net_points, 4096);
  EXPECT_EQ(out.events_applied, 5000);
  expect_strict<HeartbeatReply>(in.encode());
}

TEST(Frame, SketchSnapshotRoundTrip) {
  SketchSnapshot in;
  in.net_points = 123;
  in.events_applied = 456;
  in.blob = std::string("\x00\x01\x02opaque-builder-bytes\xff", 24);
  SketchSnapshot out;
  ASSERT_TRUE(out.decode(in.encode()));
  EXPECT_EQ(out.net_points, 123);
  EXPECT_EQ(out.events_applied, 456);
  EXPECT_EQ(out.blob, in.blob);
  expect_strict<SketchSnapshot>(in.encode());
}

// Exhaustive per-type round-trip: a representative payload for every one of
// the kNumMsgTypes opcodes framed and decoded end to end, so adding a
// MsgType without a codec (or with a lax one) fails here, not in
// production.  The switch has no default: a new enum member breaks the
// compile until this test covers it.
TEST(Frame, EveryMessageTypeHasAStrictPayloadCodec) {
  for (int t = 0; t < kNumMsgTypes; ++t) {
    const MsgType type = static_cast<MsgType>(t);
    std::string body;
    switch (type) {
      case MsgType::kPing:
      case MsgType::kHeartbeat:
      case MsgType::kMergeSketch:
      case MsgType::kReserved12:  // reserved: no codec, no body
      case MsgType::kShutdown:
      case MsgType::kTenantStats:
      case MsgType::kClusterTraceDump:
      case MsgType::kFlightRecorder:
        body.clear();  // empty request bodies
        break;
      case MsgType::kWorkerStats: {
        WorkerStatsReply r;  // empty request; the reply codec is the strict one
        r.trace_dropped_spans = 3;
        body = r.encode();
        expect_strict<WorkerStatsReply>(body);
        body.clear();
        break;
      }
      case MsgType::kInsertBatch:
      case MsgType::kDeleteBatch: {
        PointBatch b;
        b.dim = 2;
        b.coords = {1, 2, 3, 4};
        body = b.encode();
        expect_strict<PointBatch>(body);
        break;
      }
      case MsgType::kQuery: {
        QueryRequest q;
        q.k = 3;
        body = q.encode();
        expect_strict<QueryRequest>(body);
        break;
      }
      case MsgType::kMetrics:
      case MsgType::kTraceDump:
      case MsgType::kPrometheus: {
        body = encode_text("payload");
        std::string text;
        EXPECT_TRUE(decode_text(body, text));
        EXPECT_FALSE(decode_text(body.substr(0, body.size() - 1), text));
        break;
      }
      case MsgType::kCheckpoint: {
        CheckpointRequest c;
        c.path = "/tmp/x";
        body = c.encode();
        expect_strict<CheckpointRequest>(body);
        break;
      }
      case MsgType::kWorkerHello: {
        WorkerHello h;
        h.dim = 2;
        h.k = 4;
        h.log_delta = 6;
        h.fingerprint = 99;
        body = h.encode();
        expect_strict<WorkerHello>(body);
        break;
      }
      case MsgType::kShipSnapshot: {
        SketchSnapshot s;
        s.net_points = 10;
        s.blob = "blob";
        body = s.encode();
        expect_strict<SketchSnapshot>(body);
        break;
      }
    }
    const std::string frame = encode_frame(type, Status::kOk, body);
    const FrameHeader h = decode_ok(frame);
    EXPECT_EQ(h.type, type);
    EXPECT_EQ(h.payload_bytes, body.size());
    EXPECT_EQ(frame.substr(kFrameHeaderBytes), body);
  }
}

// Per-type payload caps: sketch-carrying frames accept bodies the ordinary
// cap rejects, and the big cap still has a hard ceiling.
TEST(Frame, PerTypePayloadCapBoundaries) {
  FrameHeader h;
  for (int t = 0; t < kNumMsgTypes; ++t) {
    const MsgType type = static_cast<MsgType>(t);
    std::string frame = encode_frame(type, Status::kOk, "");
    const std::uint32_t cap = max_payload_bytes(type);

    // At the cap: accepted.  One past: kTooLarge.
    std::memcpy(frame.data() + 8, &cap, sizeof(cap));
    EXPECT_EQ(decode_header(frame, h), Status::kOk) << "type " << t;
    const std::uint32_t over = cap + 1;
    std::memcpy(frame.data() + 8, &over, sizeof(over));
    EXPECT_EQ(decode_header(frame, h), Status::kTooLarge) << "type " << t;

    // The sketch types' cap must exceed the ordinary one (that asymmetry is
    // the point), and the ordinary types — the reserved type 12 included —
    // must reject a sketch-sized body.
    const bool sketchy = type == MsgType::kMergeSketch ||
                         type == MsgType::kShipSnapshot;
    EXPECT_EQ(cap, sketchy ? kMaxSketchPayloadBytes : kMaxPayloadBytes);
    if (!sketchy) {
      const std::uint32_t sketch_sized = kMaxPayloadBytes + 1;
      std::memcpy(frame.data() + 8, &sketch_sized, sizeof(sketch_sized));
      EXPECT_EQ(decode_header(frame, h), Status::kTooLarge) << "type " << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Tenant-id field (wire version 2).

TEST(Frame, TenantFrameRoundTrip) {
  const std::string payload = "inner-body-bytes";
  const std::string frame = encode_tenant_frame(MsgType::kInsertBatch,
                                                Status::kOk, "acme-7", payload);
  FrameHeader h;
  ASSERT_EQ(decode_header(frame, h), Status::kOk);
  EXPECT_EQ(h.version, kWireVersionTenant);
  EXPECT_EQ(h.type, MsgType::kInsertBatch);
  EXPECT_EQ(h.payload_bytes, 1 + 6 + payload.size());

  const std::string body = frame.substr(kFrameHeaderBytes);
  std::string_view tenant, inner;
  ASSERT_TRUE(split_tenant_prefix(body, tenant, inner));
  EXPECT_EQ(tenant, "acme-7");
  EXPECT_EQ(inner, payload);
}

TEST(Frame, TenantFrameEmptyIdAddressesDefaultTenant) {
  const std::string frame =
      encode_tenant_frame(MsgType::kQuery, Status::kOk, "", "q");
  const std::string body = frame.substr(kFrameHeaderBytes);
  std::string_view tenant, inner;
  ASSERT_TRUE(split_tenant_prefix(body, tenant, inner));
  EXPECT_TRUE(tenant.empty());
  EXPECT_EQ(inner, "q");
}

TEST(Frame, TenantPrefixRejectsTruncation) {
  std::string_view tenant, inner;
  // No length byte at all.
  EXPECT_FALSE(split_tenant_prefix("", tenant, inner));
  // Length byte announcing more id bytes than the payload holds — at every
  // truncation point inside the prefix.
  std::string payload;
  payload.push_back(static_cast<char>(10));
  payload.append("abc");  // only 3 of the announced 10 id bytes present
  EXPECT_FALSE(split_tenant_prefix(payload, tenant, inner));
  const std::string good =
      encode_tenant_frame(MsgType::kPing, Status::kOk, "tenant-x", "body")
          .substr(kFrameHeaderBytes);
  for (std::size_t len = 0; len < 1 + 8; ++len) {  // inside the prefix only
    EXPECT_FALSE(split_tenant_prefix(std::string_view(good).substr(0, len),
                                     tenant, inner))
        << "prefix truncated to " << len << " bytes";
  }
  EXPECT_TRUE(split_tenant_prefix(good, tenant, inner));
}

TEST(Frame, ValidTenantIdCharsetAndLength) {
  EXPECT_TRUE(valid_tenant_id(""));
  EXPECT_TRUE(valid_tenant_id("acme"));
  EXPECT_TRUE(valid_tenant_id("A-Z_0.9"));
  EXPECT_TRUE(valid_tenant_id(std::string(kMaxTenantIdBytes, 'a')));
  EXPECT_FALSE(valid_tenant_id(std::string(kMaxTenantIdBytes + 1, 'a')));
  EXPECT_FALSE(valid_tenant_id("spaces bad"));
  EXPECT_FALSE(valid_tenant_id("slash/bad"));
  EXPECT_FALSE(valid_tenant_id(std::string("nul\0byte", 8)));
  EXPECT_FALSE(valid_tenant_id("\xff"));
}

// The PR-6 byte-compatibility pin: the version-1 encoding must never drift.
// A v1 INSERT_BATCH frame is reproduced here byte by byte from the format
// comment at the top of frame.h; if this test fails, old clients break.
TEST(Frame, Version1FramesAreByteStable) {
  PointBatch batch;
  batch.dim = 2;
  batch.coords = {3, 4};
  const std::string body = batch.encode();
  const std::string frame =
      encode_frame(MsgType::kInsertBatch, Status::kOk, body);

  std::string expected;
  expected += std::string("\x53\x4b\x43\x46", 4);       // magic "SKCF"
  expected += '\x01';                                   // version 1
  expected += '\x01';                                   // type kInsertBatch
  expected += std::string("\x00\x00", 2);               // status kOk
  const auto n = static_cast<std::uint32_t>(body.size());
  expected.append(reinterpret_cast<const char*>(&n), 4);  // payload_bytes LE
  expected += body;
  EXPECT_EQ(frame, expected);

  // And the v1 body itself: i32 dim, u64 count, coords.
  std::string expected_body;
  const std::int32_t dim = 2;
  expected_body.append(reinterpret_cast<const char*>(&dim), 4);
  const std::uint64_t count = 2;
  expected_body.append(reinterpret_cast<const char*>(&count), 8);
  const Coord c3 = 3, c4 = 4;
  expected_body.append(reinterpret_cast<const char*>(&c3), sizeof(Coord));
  expected_body.append(reinterpret_cast<const char*>(&c4), sizeof(Coord));
  EXPECT_EQ(body, expected_body);
}

TEST(Frame, CheckpointAndTextBodies) {
  CheckpointRequest ckpt;
  ckpt.path = "/tmp/snap.bin";
  CheckpointRequest out;
  ASSERT_TRUE(out.decode(ckpt.encode()));
  EXPECT_EQ(out.path, "/tmp/snap.bin");

  std::string text;
  ASSERT_TRUE(decode_text(encode_text("{\"x\":1}"), text));
  EXPECT_EQ(text, "{\"x\":1}");
  // String length announcing more than the body holds.
  std::string body = encode_text("hello");
  body.resize(body.size() - 2);
  EXPECT_FALSE(decode_text(body, text));
}

}  // namespace
}  // namespace skc::net
