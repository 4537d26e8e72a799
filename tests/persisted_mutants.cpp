// Seeded mutants of every persisted format: STRM6 builder blobs (both
// modes, with pruned guesses), engine checkpoints, tenant spills, and the
// SketchSnapshot and WorkerStatsReply (HistogramWire) wire bodies.
//
// A mutant is one bit flip, one truncation, one splice (a chunk of the
// input copied over, into or out of another place) or one edit of a 64-bit
// count, length, event, net or counter field, found by walking the layout.  Where a format
// carries CRCs they are recomputed after the mutation, so the mutant gets
// past them to the decoders behind.  Every mutant must be refused, or load
// into a value that saves and loads again; a loaded builder must finalize
// and a loaded engine or tenant must answer a query (an error reply is
// fine).  No load may make one allocation larger than kAllocationSlack
// times its input plus 4 KiB (the input being the larger of the mutant and
// the intact bytes, since a loader builds its configured structures before
// it reads them), which the replacement operator new of this executable
// records (allocation_probe.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "allocation_probe.h"
#include "skc/common/crc64.h"
#include "skc/common/random.h"
#include "skc/common/serial.h"
#include "skc/coreset/streaming.h"
#include "skc/engine/engine.h"
#include "skc/geometry/point_set.h"
#include "skc/net/frame.h"
#include "skc/stream/generators.h"
#include "skc/tenant/registry.h"
#include "test_util.h"

namespace skc {
namespace {

constexpr int kDim = 2;
constexpr int kLogDelta = 6;
constexpr std::size_t kAllocationSlack = 4;

CoresetParams params() { return CoresetParams::practical(2, LrOrder{2.0}, 0.3, 0.3); }

/// Small geometry, so a few hundred mutants load in well under a second;
/// sketch mode prunes guesses every 64 events.
StreamingOptions options(bool exact) {
  StreamingOptions opt;
  opt.log_delta = kLogDelta;
  opt.max_points = 512;
  opt.countmin_width = 8;
  opt.countmin_depth = 2;
  opt.max_live_points = 256;
  opt.distinct_budget = 8;
  opt.exact_storing = exact;
  opt.prune_interval = 64;
  return opt;
}

/// A churn stream over [1, 2^kLogDelta]^2: `n` uniform inserts plus a
/// third as many inserted and deleted again.
EventBatch churn(int n, std::uint64_t seed) {
  Rng rng(seed);
  const auto uniform = [&rng](int count) {
    PointSet out(kDim);
    for (int i = 0; i < count; ++i) {
      out.push_back(std::vector<Coord>{static_cast<Coord>(rng.uniform_int(1, 1 << kLogDelta)),
                                       static_cast<Coord>(rng.uniform_int(1, 1 << kLogDelta))});
    }
    return out;
  };
  const PointSet base = uniform(n);
  const PointSet extra = uniform(n / 3);
  return EventBatch(churn_stream(base, extra, ChurnConfig{}, rng), kDim);
}

std::uint64_t u64_at(std::string_view b, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + at, sizeof v);
  return v;
}

void set_u64(std::string& b, std::size_t at, std::uint64_t v) {
  std::memcpy(b.data() + at, &v, sizeof v);
}

/// A 64-bit field of a persisted layout: its offset and what it holds.
struct Field {
  std::size_t at;
  const char* what;
};
using Fields = std::vector<Field>;

/// Appends the 64-bit count, length, event, net and counter fields of the
/// STRM6 blob at `pos` to `fields` (a run header's two u32 lengths count as
/// one field, and the first counter or count of each run or block stands for
/// it); returns the offset past the blob.
std::size_t walk_strm6(std::string_view b, std::size_t pos, Fields& fields) {
  const auto field = [&fields](std::size_t at, const char* what) {
    fields.push_back({at, what});
  };
  pos += 8 + 4 + 4 + 8;  // magic, dim, log_delta, seed
  const std::uint64_t guesses = u64_at(b, pos);
  field(pos, "guess count");
  field(pos + 8, "builder net count");
  field(pos + 16, "builder events");
  pos += 24 + guesses;  // + pruned flags
  for (int level = 0; level <= kLogDelta; ++level) {
    field(pos, "CountMin lo");
    field(pos + 8, "CountMin run count");
    const std::uint64_t runs = u64_at(b, pos + 8);
    pos += 16;
    for (std::uint64_t r = 0; r < runs; ++r) {
      field(pos, "CountMin run header");
      const std::uint64_t literals = u64_at(b, pos) >> 32;
      if (literals > 0) field(pos + 8, "CountMin counter");
      pos += 8 + literals * 8;
    }
    const std::uint64_t rows = u64_at(b, pos);
    field(pos, "exact rows");
    pos += 8;
    for (std::uint64_t r = 0; r < rows; ++r) {
      field(pos, "exact row index length");
      pos += 8 + u64_at(b, pos) * 4;
      field(pos, "exact row count length");
      field(pos + 8, "exact count");
      pos += 8 + u64_at(b, pos) * 8;
    }
  }
  for (int level = 0; level <= kLogDelta; ++level) {
    std::uint32_t classes = 0;
    std::memcpy(&classes, b.data() + pos, sizeof classes);
    pos += 4;
    for (std::uint32_t c = 0; c < classes; ++c) {
      field(pos + 1, "store events");
      field(pos + 9, "store live points");
      pos += 17;
    }
    field(pos, "store cell count");
    const std::uint64_t cells = u64_at(b, pos);
    pos += 8;
    for (std::uint64_t c = 0; c < cells; ++c) {
      field(pos, "cell row length");
      pos += 8 + u64_at(b, pos) * 4;
      field(pos, "cell view count");
      const std::uint64_t views = u64_at(b, pos);
      pos += 8;
      for (std::uint64_t v = 0; v < views; ++v) {
        field(pos, "cell net");
        field(pos + 8, "cell peak");
        field(pos + 17, "cell point count");
        const std::uint64_t points = u64_at(b, pos + 17);
        pos += 25;
        for (std::uint64_t p = 0; p < points; ++p) {
          field(pos, "point record length");
          pos += 8 + u64_at(b, pos);
          field(pos, "point multiplicity");
          pos += 8;
        }
      }
    }
  }
  for (int level = 0; level < kLogDelta; ++level) {
    field(pos + 4, "distinct entry count");
    const std::uint64_t entries = u64_at(b, pos + 4);
    pos += 12;
    for (std::uint64_t e = 0; e < entries; ++e) {
      field(pos, "distinct row length");
      pos += 8 + u64_at(b, pos) * 4;
      field(pos, "distinct count");
      pos += 8;
    }
  }
  return pos;
}

/// One seeded mutant of `b`: a bit flip, a truncation, a splice, or one of
/// `fields` set to a value near or far off.
std::string mutate(const std::string& b, const Fields& fields, Rng& rng) {
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(std::max<std::size_t>(n, 1)));
  };
  std::string m = b;
  switch (rng.next_below(fields.empty() ? 3 : 4)) {
    case 0:  // bit flip
      if (!m.empty()) m[below(m.size())] ^= static_cast<char>(1 << below(8));
      break;
    case 1:  // truncation
      m.resize(below(m.size()));
      break;
    case 2: {  // splice: a chunk copied over, into, or out of another place
      if (m.empty()) break;
      const std::size_t from = below(m.size());
      const std::size_t len = 1 + below(std::min<std::size_t>(64, m.size() - from));
      const std::size_t to = below(m.size());
      const std::string chunk = b.substr(from, len);
      switch (rng.next_below(3)) {
        case 0: m.replace(to, std::min(len, m.size() - to), chunk); break;
        case 1: m.insert(to, chunk); break;
        default: m.erase(to, len); break;
      }
      break;
    }
    default: {
      const std::size_t at = fields[below(fields.size())].at;
      const std::uint64_t v = u64_at(b, at);
      const std::uint64_t values[] = {0,
                                      1,
                                      v - 1,
                                      v + 1,
                                      2 * v,
                                      std::uint64_t{1} << 31,
                                      std::uint64_t{1} << 40,
                                      std::uint64_t{1} << 62,
                                      ~std::uint64_t{0} >> 1,
                                      ~std::uint64_t{0},
                                      rng.next()};
      set_u64(m, at, values[below(std::size(values))]);
      break;
    }
  }
  return m;
}

/// The first field of each kind.
Fields one_of_each(const Fields& fields) {
  Fields out;
  for (const Field& f : fields) {
    const bool seen = std::any_of(out.begin(), out.end(), [&f](const Field& g) {
      return std::string_view(g.what) == f.what;
    });
    if (!seen) out.push_back(f);
  }
  return out;
}

/// Runs `load` with the largest-allocation watch restarted and checks the
/// largest request against the input.
template <typename Load>
bool watched_load(std::size_t input_bytes, Load&& load) {
  testutil::take_largest_allocation();
  const bool loaded = load();
  const std::size_t largest = testutil::take_largest_allocation();
  EXPECT_LE(largest, kAllocationSlack * input_bytes + 4096)
      << "a " << input_bytes << "-byte input made a " << largest << "-byte allocation";
  return loaded;
}

// ---------------------------------------------------------------------------
// STRM6 builder blobs
// ---------------------------------------------------------------------------

std::string builder_blob(const StreamingCoresetBuilder& builder) {
  serial::Writer out;
  builder.save(out);
  return out.take();
}

bool load_builder(StreamingCoresetBuilder& into, std::string_view bytes) {
  serial::Reader in(bytes);
  return into.load(in) && in.done();
}

/// Refused, or a builder that finalizes and saves bytes that load again.
void check_builder_mutant(const std::string& bytes, const StreamingOptions& opt,
                          std::size_t intact) {
  StreamingCoresetBuilder fresh(kDim, params(), opt);
  if (!watched_load(std::max(bytes.size(), intact),
                    [&] { return load_builder(fresh, bytes); })) {
    return;
  }
  (void)fresh.finalize();
  StreamingCoresetBuilder again(kDim, params(), opt);
  EXPECT_TRUE(load_builder(again, builder_blob(fresh))) << "saves, but does not load again";
}

TEST(PersistedMutants, BuilderBlobs) {
  for (const bool exact : {false, true}) {
    SCOPED_TRACE(exact ? "exact mode" : "sketch mode");
    const StreamingOptions opt = options(exact);
    StreamingCoresetBuilder builder(kDim, params(), opt);
    builder.consume(churn(150, 1));
    if (!exact) {
      ASSERT_GT(builder.level_counts(0).lo(), 0) << "the stream must prune guesses";
    }
    const std::string blob = builder_blob(builder);
    Fields fields;
    ASSERT_EQ(walk_strm6(blob, 0, fields), blob.size());
    check_builder_mutant(blob, opt, blob.size());  // the intact blob loads
    Rng rng(exact ? 12 : 11);
    for (int i = 0; i < 250; ++i) {
      SCOPED_TRACE(testing::Message() << "mutant " << i);
      check_builder_mutant(mutate(blob, fields, rng), opt, blob.size());
      if (HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine checkpoints: [magic u64][version u32][size u64][crc64 u64][payload]
// ---------------------------------------------------------------------------

constexpr std::size_t kFrameBytes = 8 + 4 + 8 + 8;

EngineOptions engine_options(const StreamingOptions& streaming) {
  EngineOptions opt;
  opt.num_shards = 2;
  opt.worker_threads = 0;
  opt.streaming = streaming;
  return opt;
}

std::string engine_state(ClusteringEngine& engine) {
  serial::Writer out;
  engine.save_state(out);
  return out.take();
}

/// `frame` with its payload replaced by `payload`, size and CRC recomputed.
std::string reframe(std::string_view frame, std::string_view payload) {
  std::string out(frame.substr(0, kFrameBytes));
  set_u64(out, 12, payload.size());
  set_u64(out, 20, crc64(payload));
  out.append(payload);
  return out;
}

/// The 64-bit fields of an engine checkpoint payload.
Fields engine_payload_fields(std::string_view payload, int shards) {
  Fields fields;
  std::size_t pos = 4 + 4 + 8 + 4 + 1;  // dim, log_delta, seed, shards, exact
  for (int s = 0; s < shards; ++s) pos = walk_strm6(payload, pos, fields);
  EXPECT_EQ(pos + 8, payload.size()) << "the walk must end at the footer";
  return fields;
}

/// Refused, or an engine that answers a query and saves bytes that load
/// again.
void check_engine_mutant(const std::string& bytes, const EngineOptions& eopt,
                         std::size_t intact) {
  ClusteringEngine fresh(kDim, params(), eopt);
  if (!watched_load(std::max(bytes.size(), intact),
                    [&] { return fresh.load_state(bytes); })) {
    return;
  }
  (void)fresh.query(EngineQuery{});
  ClusteringEngine again(kDim, params(), eopt);
  EXPECT_TRUE(again.load_state(engine_state(fresh))) << "saves, but does not load again";
}

TEST(PersistedMutants, EngineCheckpoints) {
  for (const bool exact : {false, true}) {
    SCOPED_TRACE(exact ? "exact mode" : "sketch mode");
    const EngineOptions eopt = engine_options(options(exact));
    ClusteringEngine engine(kDim, params(), eopt);
    engine.submit(churn(80, 2));
    const std::string file = engine_state(engine);
    const std::string payload = file.substr(kFrameBytes);
    const Fields fields = engine_payload_fields(payload, 2);
    const Fields frame_fields = {{12, "frame size"}};
    check_engine_mutant(file, eopt, file.size());
    Rng rng(exact ? 22 : 21);
    for (int i = 0; i < 200; ++i) {
      SCOPED_TRACE(testing::Message() << "mutant " << i);
      // One in eight mutates the file as stored, frame included; the rest
      // mutate the payload and recompute the frame.
      const std::string bytes = rng.next_below(8) == 0
                                    ? mutate(file, frame_fields, rng)
                                    : reframe(file, mutate(payload, fields, rng));
      check_engine_mutant(bytes, eopt, file.size());
      if (HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Tenant spills: [magic u64][rung u32][sealed u8][replay: count u64, ops,
// coords][replay crc64 u64][engine checkpoint]
// ---------------------------------------------------------------------------

constexpr std::size_t kSpillHeadBytes = 8 + 4 + 1;

TEST(PersistedMutants, TenantSpills) {
  tenant::TenantRegistryOptions o;
  o.dim = kDim;
  o.params = params();
  o.engine = engine_options(options(false));
  o.engine.num_shards = 1;
  o.engine.streaming.max_points = 4096;  // the bottom rung promotes at 1,024
  o.pool_threads = 0;
  o.num_rungs = 2;
  o.rung_scale = 2;
  o.min_rung_points = 256;
  o.max_resident = 1;
  o.spill_dir = testutil::temp_path("persisted-mutants");
  std::filesystem::create_directories(o.spill_dir);
  tenant::TenantRegistry reg(o);
  const char* victim = "victim";
  const char* other = "other";
  ASSERT_EQ(reg.submit(victim, churn(120, 3)), tenant::Admit::kOk);
  ASSERT_EQ(reg.submit(other, churn(30, 4)), tenant::Admit::kOk);  // victim spills
  const std::string path = o.spill_dir + "/" + victim + ".tnt";
  std::string file;
  ASSERT_TRUE(serial::read_file(path, file));

  // Split the spill into its sections to recompute both CRCs.
  const std::uint64_t replay_events = u64_at(file, kSpillHeadBytes);
  ASSERT_GT(replay_events, 0u) << "the tenant must be below the top rung";
  const std::size_t replay_bytes = 8 + replay_events * (1 + kDim * sizeof(Coord));
  const std::string head = file.substr(0, kSpillHeadBytes);
  const std::string replay = file.substr(kSpillHeadBytes, replay_bytes);
  const std::string engine = file.substr(kSpillHeadBytes + replay_bytes + 8);
  const std::string payload = engine.substr(kFrameBytes);
  const auto spill = [&](std::string_view h, std::string_view r, std::string_view e) {
    std::string out(h);
    out.append(r);
    const std::uint64_t crc = crc64(r);
    out.append(reinterpret_cast<const char*>(&crc), sizeof crc);
    out.append(e);
    return out;
  };
  ASSERT_EQ(spill(head, replay, engine), file) << "the section split must be exact";
  const Fields engine_fields = engine_payload_fields(payload, 1);
  const Fields replay_fields = {{0, "replay event count"}};

  EngineQuery summary;
  summary.summary_only = true;
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    SCOPED_TRACE(testing::Message() << "mutant " << i);
    std::string bytes;
    switch (rng.next_below(4)) {
      case 0: bytes = spill(mutate(head, {}, rng), replay, engine); break;
      case 1: bytes = spill(head, mutate(replay, replay_fields, rng), engine); break;
      default:
        bytes = spill(head, replay, reframe(engine, mutate(payload, engine_fields, rng)));
    }
    ASSERT_TRUE(serial::write_file(path, bytes));
    EngineQueryResult res;
    tenant::Admit verdict = tenant::Admit::kOk;
    (void)watched_load(std::max(bytes.size(), file.size()), [&] {
      verdict = reg.query(victim, summary, res);
      return true;
    });
    if (verdict != tenant::Admit::kOk) {
      EXPECT_EQ(verdict, tenant::Admit::kError);
      continue;
    }
    EXPECT_EQ(reg.query(victim, EngineQuery{}, res), tenant::Admit::kOk);
    // Spill the restored tenant again and restore what it wrote.
    ASSERT_EQ(reg.submit(other, churn(3, 5)), tenant::Admit::kOk);
    EXPECT_EQ(reg.query(victim, summary, res), tenant::Admit::kOk)
        << "restores, but its own spill does not";
    ASSERT_EQ(reg.submit(other, churn(3, 6)), tenant::Admit::kOk);
  }
  std::filesystem::remove_all(o.spill_dir);
}

// ---------------------------------------------------------------------------
// Wire bodies: SketchSnapshot (MERGE_SKETCH replies, SHIP_SNAPSHOT
// requests) and WorkerStatsReply, whose histograms travel as HistogramWire.
// ---------------------------------------------------------------------------

TEST(PersistedMutants, SketchSnapshotBodies) {
  const EngineOptions eopt = engine_options(options(false));
  ClusteringEngine source(kDim, params(), eopt);
  source.submit(churn(150, 7));
  const EngineSketchExport exported = source.export_sketch();
  net::SketchSnapshot snap;
  snap.net_points = exported.net_points;
  snap.events_applied = exported.events_applied;
  snap.blob = exported.blob;
  const std::string body = snap.encode();
  Fields fields = {{0, "net points"}, {8, "events applied"}, {16, "blob size"}};
  ASSERT_EQ(walk_strm6(body, 24, fields), body.size());

  ClusteringEngine target(kDim, params(), eopt);
  target.submit(churn(60, 8));
  Rng rng(41);
  for (int i = 0; i < 300; ++i) {
    SCOPED_TRACE(testing::Message() << "mutant " << i);
    const std::string bytes = mutate(body, fields, rng);
    net::SketchSnapshot got;
    if (!watched_load(bytes.size(), [&] { return got.decode(bytes); })) continue;
    net::SketchSnapshot again;
    EXPECT_TRUE(again.decode(got.encode())) << "decodes, but does not decode again";
    // What a SHIP_SNAPSHOT server does with it.
    if (watched_load(std::max(bytes.size(), body.size()),
                     [&] { return target.import_sketch(got.blob); })) {
      (void)target.query(EngineQuery{});
    }
  }
}

TEST(PersistedMutants, WorkerStatsBodies) {
  net::WorkerStatsReply reply;
  std::int64_t v = 1;
  for (net::HistogramWire* h : {&reply.submit, &reply.query, &reply.checkpoint,
                                &reply.net_request}) {
    h->count = 3 * v;
    h->sum_micros = 100 * v;
    h->min_micros = v;
    h->max_micros = 90 * v;
    h->last_micros = 5 * v;
    h->bucket_index = {2, 17, static_cast<std::uint32_t>(40 + v)};
    h->bucket_value = {1, 1, v};
    ++v;
  }
  reply.trace_dropped_spans = 7;
  reply.tenants = {{"", 40}, {"alpha", 12}, {"beta-2", 9}};
  const std::string body = reply.encode();
  // Each histogram: five i64 scalars, then the index and value vectors.
  Fields fields;
  std::size_t pos = 0;
  for (int h = 0; h < 4; ++h) {
    for (const char* scalar : {"count", "sum", "min", "max", "last"}) {
      fields.push_back({pos, scalar});
      pos += 8;
    }
    fields.push_back({pos, "bucket index length"});
    pos += 8 + u64_at(body, pos) * 4;
    fields.push_back({pos, "bucket value length"});
    fields.push_back({pos + 8, "bucket value"});
    pos += 8 + u64_at(body, pos) * 8;
  }
  fields.push_back({pos, "dropped spans"});
  fields.push_back({pos + 8, "tenant count"});
  const std::uint64_t tenants = u64_at(body, pos + 8);
  pos += 16;
  for (std::uint64_t t = 0; t < tenants; ++t) {
    fields.push_back({pos, "tenant id length"});
    pos += 8 + u64_at(body, pos);
    fields.push_back({pos, "tenant events"});
    pos += 8;
  }
  ASSERT_EQ(pos, body.size());

  Rng rng(51);
  for (int i = 0; i < 400; ++i) {
    SCOPED_TRACE(testing::Message() << "mutant " << i);
    const std::string bytes = mutate(body, fields, rng);
    net::WorkerStatsReply got;
    if (!watched_load(bytes.size(), [&] { return got.decode(bytes); })) continue;
    for (const net::HistogramWire* h : {&got.submit, &got.query, &got.checkpoint,
                                        &got.net_request}) {
      (void)h->to_snapshot().p99_millis();
    }
    net::WorkerStatsReply again;
    EXPECT_TRUE(again.decode(got.encode())) << "decodes, but does not decode again";
  }
}

// Every count, counter, net and event total a sketch keeps moves by one per
// event, so a blob never holds one past kMaxEvents (or a length past the
// bytes left).  A store's events() edited to 2^63 - 1 used to load, and the
// next query's fold added the other shard's events to it: a signed
// overflow (caught by UBSan).  Each kind of 64-bit field, set to
// kMaxEvents + 1 or 2^63 - 1, is now refused: by the engine, through its
// CRC, and by import_sketch, with no CRC at all.
TEST(PersistedMutants, EveryFieldPastTheEventBoundIsRefused) {
  for (const bool exact : {false, true}) {
    SCOPED_TRACE(exact ? "exact mode" : "sketch mode");
    const EngineOptions eopt = engine_options(options(exact));
    ClusteringEngine engine(kDim, params(), eopt);
    engine.submit(churn(80, 9));
    const std::string file = engine_state(engine);
    const std::string payload = file.substr(kFrameBytes);
    const std::string blob = engine.export_sketch().blob;
    Fields blob_fields;
    ASSERT_EQ(walk_strm6(blob, 0, blob_fields), blob.size());
    const Fields kinds = one_of_each(blob_fields);
    ASSERT_EQ(kinds.size(), exact ? 22u : 21u) << "every kind of field must be present";
    for (const std::uint64_t huge : {std::uint64_t{kMaxEvents} + 1, ~std::uint64_t{0} >> 1}) {
      for (const Field& f : kinds) {
        SCOPED_TRACE(testing::Message() << f.what << " set to " << huge);
        std::string bad = blob;
        set_u64(bad, f.at, huge);
        EXPECT_FALSE(engine.import_sketch(bad));
      }
      for (const Field& f : one_of_each(engine_payload_fields(payload, 2))) {
        SCOPED_TRACE(testing::Message() << f.what << " set to " << huge << " in a checkpoint");
        std::string bad = payload;
        set_u64(bad, f.at, huge);
        ClusteringEngine fresh(kDim, params(), eopt);
        EXPECT_FALSE(fresh.load_state(reframe(file, bad)));
      }
    }
    EXPECT_TRUE(engine.import_sketch(blob));
  }
}

// The tenant-row count of a WorkerStatsReply used to be checked against
// the frame cap only, so a 443-byte body announcing 65,536 rows reserved
// 2.6 MB before the first row read failed.  Rows are now bounded by the
// bytes left, 16 per row.
TEST(PersistedMutants, WorkerStatsRowCountCannotReserveMoreThanTheBody) {
  const std::string body = net::WorkerStatsReply{}.encode();
  std::string bad = body;
  set_u64(bad, body.size() - 8, std::uint64_t{1} << 16);  // the tenant count
  net::WorkerStatsReply got;
  EXPECT_FALSE(watched_load(bad.size(), [&] { return got.decode(bad); }));
  EXPECT_TRUE(got.decode(body));
}

}  // namespace
}  // namespace skc
