// Checkpoint/restore of the streaming builder: feed half a stream, save,
// restore into a fresh builder, feed the rest — the result must equal an
// uninterrupted run exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "skc/common/crc64.h"
#include "skc/common/serial.h"
#include "skc/coreset/streaming.h"
#include "skc/engine/engine.h"
#include "skc/stream/generators.h"
#include "skc/tenant/registry.h"
#include "test_util.h"

namespace skc {
namespace {

MixtureConfig mixture(int n) {
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 9;
  cfg.clusters = 3;
  cfg.n = n;
  cfg.spread = 0.02;
  cfg.skew = 1.0;
  return cfg;
}

StreamingOptions options() {
  StreamingOptions opt;
  opt.log_delta = 9;
  opt.max_points = 4000;
  return opt;
}

TEST(Checkpoint, ResumeEqualsUninterruptedRun) {
  Rng rng(1);
  PointSet base = gaussian_mixture(mixture(1200), rng);
  PointSet extra = gaussian_mixture(mixture(600), rng);
  Rng srng(2);
  const Stream stream = churn_stream(base, extra, ChurnConfig{}, srng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);

  // Uninterrupted reference.
  StreamingCoresetBuilder reference(2, params, options());
  reference.consume(EventBatch(stream, 2));
  const StreamingResult want = reference.finalize();
  ASSERT_TRUE(want.ok);

  // Interrupted run: half the stream, checkpoint, restore, rest.
  StreamingCoresetBuilder first(2, params, options());
  const std::size_t half = stream.size() / 2;
  first.consume(EventBatch(std::span(stream).first(half), 2));
  std::stringstream checkpoint;
  first.save(checkpoint);

  StreamingCoresetBuilder second(2, params, options());
  ASSERT_TRUE(second.load(checkpoint));
  EXPECT_EQ(second.net_count(), first.net_count());
  EXPECT_EQ(second.events(), first.events());
  second.consume(EventBatch(std::span(stream).subspan(half), 2));
  const StreamingResult got = second.finalize();
  ASSERT_TRUE(got.ok);
  EXPECT_DOUBLE_EQ(got.coreset.o, want.coreset.o);
  EXPECT_EQ(testutil::canonical_multiset(got.coreset.points),
            testutil::canonical_multiset(want.coreset.points));
}

TEST(Checkpoint, RejectsMismatchedConfiguration) {
  Rng rng(3);
  PointSet pts = gaussian_mixture(mixture(300), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  StreamingCoresetBuilder builder(2, params, options());
  builder.consume(EventBatch(insertion_stream(pts), 2));
  std::stringstream checkpoint;
  builder.save(checkpoint);

  // Different seed: fingerprint mismatch.
  CoresetParams other = params;
  other.seed = params.seed + 1;
  StreamingCoresetBuilder wrong(2, other, options());
  EXPECT_FALSE(wrong.load(checkpoint));
}

TEST(Checkpoint, RejectsTruncation) {
  Rng rng(4);
  PointSet pts = gaussian_mixture(mixture(300), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  StreamingCoresetBuilder builder(2, params, options());
  builder.consume(EventBatch(insertion_stream(pts), 2));
  std::stringstream checkpoint;
  builder.save(checkpoint);
  std::string blob = checkpoint.str();
  blob.resize(blob.size() / 2);
  std::stringstream truncated(blob);
  StreamingCoresetBuilder fresh(2, params, options());
  EXPECT_FALSE(fresh.load(truncated));
}

// ---------------------------------------------------------------------------
// Engine-level snapshots: version 2 wraps the whole body (shard builder
// saves, STRM5 point-store sections included) in a size + CRC-64 frame, so
// ANY truncation or bit flip must be a clean `false` — never a partial load,
// never UB (the tier-1 suite runs under sanitizers).

EngineOptions engine_options() {
  EngineOptions opt;
  opt.num_shards = 2;
  opt.worker_threads = 0;
  opt.streaming = options();
  return opt;
}

std::string engine_snapshot(ClusteringEngine& engine, int n) {
  Rng rng(7);
  PointSet pts = gaussian_mixture(mixture(n), rng);
  engine.submit(insertion_stream(pts));
  engine.flush();
  serial::Writer out;
  engine.save_state(out);
  return out.take();
}

TEST(Checkpoint, EngineStateRoundTripsThroughTheCrcFrame) {
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  ClusteringEngine engine(2, params, engine_options());
  const std::string blob = engine_snapshot(engine, 400);

  ClusteringEngine restored(2, params, engine_options());
  ASSERT_TRUE(restored.load_state(blob));
  EXPECT_EQ(restored.net_count(), engine.net_count());
  EngineQuery q;
  q.summary_only = true;
  const EngineQueryResult a = engine.query(q);
  const EngineQueryResult b = restored.query(q);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(testutil::canonical_multiset(a.summary.points),
            testutil::canonical_multiset(b.summary.points));
  engine.shutdown();
  restored.shutdown();
}

// Version 1 had no CRC frame, and every such file predates STRM3 builders,
// so only a hand-made file could load: load_state refuses the version.
TEST(Checkpoint, RefusesAnUnframedVersion1EngineFile) {
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  ClusteringEngine engine(2, params, engine_options());
  const std::string blob = engine_snapshot(engine, 400);
  engine.shutdown();
  // [magic u64][version u32][size u64][crc u64][body] -> [magic][1][body]
  std::string v1 = blob.substr(0, 8);
  const std::uint32_t version = 1;
  v1.append(reinterpret_cast<const char*>(&version), sizeof version);
  v1.append(blob.substr(8 + 4 + 8 + 8));
  ClusteringEngine fresh(2, params, engine_options());
  EXPECT_FALSE(fresh.load_state(v1));
  EXPECT_EQ(fresh.net_count(), 0);
  fresh.shutdown();
}

TEST(Checkpoint, EngineStateRejectsEveryTruncationAndBitFlip) {
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  ClusteringEngine engine(2, params, engine_options());
  const std::string blob = engine_snapshot(engine, 400);
  engine.shutdown();
  ASSERT_GT(blob.size(), 64u);

  const auto rejects = [&params](const std::string& bytes) {
    ClusteringEngine fresh(2, params, engine_options());
    const bool loaded = fresh.load_state(bytes);
    fresh.shutdown();
    return !loaded;
  };

  // Truncation sweep: inside the magic, the version, the size/CRC fields,
  // and at several cuts through the payload (which holds the shard
  // builders' STRM5 point-store sections).
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{5}, std::size_t{11}, std::size_t{20},
        std::size_t{27}, blob.size() / 4, blob.size() / 2, blob.size() - 1}) {
    EXPECT_TRUE(rejects(blob.substr(0, keep))) << "keep=" << keep;
  }

  // Bit-flip sweep: every prologue byte (magic/version/size/CRC) plus 32
  // evenly spaced offsets through the CRC-covered payload.
  const std::size_t payload_bytes = blob.size() - 28;
  const std::size_t step = payload_bytes > 32 ? payload_bytes / 32 : 1;
  for (std::size_t at = 0; at < blob.size();
       at = at < 28 ? at + 1 : at + step) {
    std::string bad = blob;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    EXPECT_TRUE(rejects(bad)) << "flip at " << at;
  }

  // An announced size far past the actual stream must fail on the short
  // read, not allocate or scan unbounded memory.
  {
    std::string bad = blob;
    const std::uint64_t huge = ~std::uint64_t{0} / 2;
    std::memcpy(bad.data() + 12, &huge, sizeof(huge));
    EXPECT_TRUE(rejects(bad));
  }

  // The untouched blob still loads: the sweeps rejected corruption, not
  // the format.
  EXPECT_FALSE(rejects(blob));
}

// A checkpoint is one frame read whole, and a blob is one builder: a byte
// past either is refused, after the frame, after the footer inside a frame
// whose size and CRC cover it, and after an imported blob.
TEST(Checkpoint, RefusesBytesPastTheFrameTheFooterOrTheBlob) {
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  ClusteringEngine engine(2, params, engine_options());
  const std::string file = engine_snapshot(engine, 400);
  std::string payload = file.substr(28) + '\0';
  std::string framed = file.substr(0, 28) + payload;
  const std::uint64_t size = payload.size(), crc = crc64(payload);
  std::memcpy(framed.data() + 12, &size, sizeof size);
  std::memcpy(framed.data() + 20, &crc, sizeof crc);
  for (const std::string& bad : {file + '\0', framed}) {
    ClusteringEngine fresh(2, params, engine_options());
    EXPECT_FALSE(fresh.load_state(bad));
    fresh.shutdown();
  }
  const std::string blob = engine.export_sketch().blob;
  EXPECT_FALSE(engine.import_sketch(blob + '\0'));
  EXPECT_TRUE(engine.import_sketch(blob));
  engine.shutdown();
}

// Checkpoint files are read whole, sized by the file: a path that is not a
// regular file is refused, never sized from a stream's end (a directory
// opens as a stream whose end reads as 2^63 - 1).
TEST(Checkpoint, RestoreOfADirectoryIsRefused) {
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  ClusteringEngine engine(2, params, engine_options());
  EXPECT_FALSE(engine.restore(::testing::TempDir()));
  EXPECT_FALSE(engine.restore(::testing::TempDir() + "no-such-checkpoint.skc"));
  engine.shutdown();
}

TEST(Checkpoint, ExactModeRoundTripsToo) {
  Rng rng(5);
  PointSet pts = gaussian_mixture(mixture(500), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  StreamingOptions opt = options();
  opt.exact_storing = true;
  StreamingCoresetBuilder builder(2, params, opt);
  builder.consume(EventBatch(insertion_stream(pts), 2));
  std::stringstream checkpoint;
  builder.save(checkpoint);

  StreamingCoresetBuilder restored(2, params, opt);
  ASSERT_TRUE(restored.load(checkpoint));
  const StreamingResult a = builder.finalize();
  const StreamingResult b = restored.finalize();
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(testutil::canonical_multiset(a.coreset.points),
            testutil::canonical_multiset(b.coreset.points));
}

// ---------------------------------------------------------------------------
// STRM6: the builder layout with one CountMin per level (one counter column
// per distinct keep bound, the counter block written as zero runs and
// literal runs) and one point store per level (one view per rate class).
// Blobs in the older layouts, STRM2 (one CountMin per guess and level, every
// guess with its own hashes), STRM3 (one counter column per live guess),
// STRM4 (one point store per level and phi) and STRM5 (every counter of the
// block written), must be refused by every loader, and each rule load()
// enforces on the level CountMins must refuse a blob that breaks only that
// rule.

/// The options tests/golden/strm{2,3,4,5}_builder.hex were written with.
StreamingOptions strm2_options() {
  StreamingOptions opt;
  opt.log_delta = 3;
  opt.max_points = 16;
  opt.countmin_width = 8;
  opt.countmin_depth = 1;
  opt.max_live_points = 16;
  opt.distinct_budget = 4;
  opt.o_min = 64;
  opt.o_max = 256;
  return opt;
}

const Coord kStrm2Points[][2] = {{1, 1}, {2, 1}, {7, 8}, {8, 8}, {3, 5}, {6, 2}};

/// The magic of layout version `version`: "SKCSTRM" then the version digit,
/// which is the low byte.
constexpr std::uint64_t strm_magic(char version) {
  return 0x534b435354524d00ULL | static_cast<unsigned char>(version);
}

std::uint64_t u64_at(const std::string& blob, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, blob.data() + at, sizeof v);
  return v;
}

void set_u64(std::string& blob, std::size_t at, std::uint64_t v) {
  std::memcpy(blob.data() + at, &v, sizeof v);
}

std::string read_hex_golden(const char* name) {
  std::ifstream in(std::string(SKC_GOLDEN_DIR) + "/" + name);
  std::string line, bytes;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    for (std::size_t i = 0; i + 1 < line.size(); i += 2) {
      bytes.push_back(static_cast<char>(std::stoi(line.substr(i, 2), nullptr, 16)));
    }
  }
  return bytes;
}

TEST(Checkpoint, RefusesAStrm2BlobAtLoadAndAtImport) {
  const std::string blob = read_hex_golden("strm2_builder.hex");
  ASSERT_EQ(blob.size(), 3184u);
  ASSERT_EQ(u64_at(blob, 0), strm_magic('2'));
  const CoresetParams params = CoresetParams::practical(2, LrOrder{2.0}, 0.3, 0.3);

  StreamingCoresetBuilder builder(2, params, strm2_options());
  std::istringstream old_blob(blob);
  EXPECT_FALSE(builder.load(old_blob));

  // The same events written today load: the refusal is the layout's.
  StreamingCoresetBuilder today(2, params, strm2_options());
  Stream events;
  for (const auto& p : kStrm2Points) events.push_back({StreamOp::kInsert, Point{p[0], p[1]}});
  events.push_back({StreamOp::kDelete, Point{8, 8}});
  today.consume(EventBatch(events, 2));
  std::stringstream current;
  today.save(current);
  EXPECT_EQ(u64_at(current.str(), 0), strm_magic('6'));
  StreamingCoresetBuilder thawed(2, params, strm2_options());
  EXPECT_TRUE(thawed.load(current));

  EngineOptions eopt;
  eopt.num_shards = 2;
  eopt.worker_threads = 0;
  eopt.streaming = strm2_options();
  ClusteringEngine engine(2, params, eopt);
  engine.submit(events);
  EngineQuery summary;
  summary.summary_only = true;
  const EngineQueryResult before = engine.query(summary);
  ASSERT_TRUE(before.ok) << before.error;
  EXPECT_FALSE(engine.import_sketch(blob));
  EXPECT_EQ(engine.net_count(), 5);
  const EngineQueryResult after = engine.query(summary);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(testutil::sequence(after.summary.points),
            testutil::sequence(before.summary.points));
  EXPECT_TRUE(engine.query(EngineQuery{}).ok);
  engine.shutdown();
}

std::string blob_of(const StreamingCoresetBuilder& builder) {
  std::stringstream out;
  builder.save(out);
  return out.str();
}

constexpr std::size_t kStateFrameBytes = 8 + 4 + 8 + 8;  // magic, version, size, CRC
constexpr std::size_t kStateHeaderBytes = 4 + 4 + 8 + 4 + 1;  // dim, log_delta, seed,
                                                              // shards, exact

/// The offset of the last shard's builder blob in `state`, an engine
/// save_state file of `shards` shards built with (params, opt).
std::size_t last_shard_at(const std::string& state, const CoresetParams& params,
                          const StreamingOptions& opt, int shards) {
  serial::Reader in(std::string_view(state).substr(kStateFrameBytes + kStateHeaderBytes));
  for (int s = 0; s + 1 < shards; ++s) {
    StreamingCoresetBuilder skipped(2, params, opt);
    EXPECT_TRUE(skipped.load(in));
  }
  return state.size() - in.left();
}

/// `state` with the builder blob at `at` (the last one) replaced by `blob`
/// and the frame's size and CRC recomputed.
std::string with_last_shard(const std::string& state, std::size_t at,
                            std::string_view blob) {
  const std::string payload = state.substr(kStateFrameBytes, at - kStateFrameBytes) +
                              std::string(blob) + state.substr(state.size() - 8);
  const std::uint64_t size = payload.size(), crc = crc64(payload);
  std::string out = state.substr(0, 12);
  out.append(reinterpret_cast<const char*>(&size), sizeof size);
  out.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  return out + payload;
}

/// `old` carrying the seed of the builder blob at `at` in `state`, so only
/// its layout differs from what that builder writes.
std::string with_seed_of(std::string old, const std::string& state, std::size_t at) {
  std::memcpy(old.data() + 16, state.data() + at + 16, sizeof(std::uint64_t));
  return old;
}

/// The golden blob `name` (`bytes` long, layout `version`, the events of
/// kStrm2Points and one delete) must be refused by load(), import_sketch(),
/// engine restore() and a .tnt restore, each leaving the state as it was.
/// Relabelled with today's magic it is refused by its first level's counter
/// section: the old u64 counter count reads as the run count and the first
/// counter, 0 in every golden, as a run that covers nothing.
void expect_every_loader_refuses(const char* name, std::size_t bytes, char version) {
  const std::string blob = read_hex_golden(name);
  ASSERT_EQ(blob.size(), bytes);
  ASSERT_EQ(u64_at(blob, 0), strm_magic(version));
  const CoresetParams params = CoresetParams::practical(2, LrOrder{2.0}, 0.3, 0.3);
  Stream events;
  for (const auto& p : kStrm2Points) events.push_back({StreamOp::kInsert, Point{p[0], p[1]}});
  events.push_back({StreamOp::kDelete, Point{8, 8}});
  EngineQuery summary;
  summary.summary_only = true;

  {  // load(): refused, and the builder keeps what it held
    StreamingCoresetBuilder builder(2, params, strm2_options());
    builder.consume(EventBatch(events, 2));
    const std::string held = blob_of(builder);
    std::istringstream old_blob(blob);
    EXPECT_FALSE(builder.load(old_blob));
    EXPECT_EQ(blob_of(builder), held);
    // Header (24 bytes), guess count, net count, events, 4 pruned flags,
    // then the first level's lo and counter count.
    constexpr std::size_t kFirstCounterAt = 24 + 3 * 8 + 4 + 2 * 8;
    ASSERT_EQ(u64_at(blob, kFirstCounterAt), 0u);
    std::string relabelled = blob;
    relabelled[0] = '6';
    ASSERT_EQ(u64_at(relabelled, 0), strm_magic('6'));
    std::istringstream relabelled_in(relabelled);
    StreamingCoresetBuilder fresh(2, params, strm2_options());
    EXPECT_FALSE(fresh.load(relabelled_in));
    EXPECT_EQ(fresh.level_counts(0).lo(), fresh.level_counts(0).guesses())
        << "a refused counter section leaves every guess pruned";
    // The same events written today load: the refusal is the layout's.
    std::istringstream today(held);
    EXPECT_TRUE(fresh.load(today));
  }

  {  // import_sketch(), and restore() of a checkpoint whose second shard is
     // the blob: refused, and the engine answers as before
    EngineOptions eopt;
    eopt.num_shards = 2;
    eopt.worker_threads = 0;
    eopt.streaming = strm2_options();
    ClusteringEngine engine(2, params, eopt);
    engine.submit(events);
    const EngineQueryResult before = engine.query(summary);
    ASSERT_TRUE(before.ok) << before.error;
    const auto unchanged = [&](const char* step) {
      SCOPED_TRACE(step);
      EXPECT_EQ(engine.net_count(), 5);
      const EngineQueryResult after = engine.query(summary);
      ASSERT_TRUE(after.ok) << after.error;
      EXPECT_EQ(testutil::sequence(after.summary.points),
                testutil::sequence(before.summary.points));
    };
    EXPECT_FALSE(engine.import_sketch(blob));
    unchanged("import_sketch");

    serial::Writer out;
    engine.save_state(out);
    const std::string state = out.take();
    const std::size_t at = last_shard_at(state, params, eopt.streaming, 2);
    ASSERT_EQ(with_last_shard(state, at, std::string_view(state).substr(at, state.size() - 8 - at)),
              state)
        << "the splice must be exact";
    const std::string path = testutil::temp_path(std::string(name) + ".ckpt");
    ASSERT_TRUE(serial::write_file(path, with_last_shard(state, at, with_seed_of(blob, state, at))));
    EXPECT_FALSE(engine.restore(path));
    unchanged("restore");
    ASSERT_TRUE(serial::write_file(path, state));
    EXPECT_TRUE(engine.restore(path));
    unchanged("restore of the intact checkpoint");
    std::filesystem::remove(path);
    engine.shutdown();
  }

  {  // a .tnt spill whose engine holds the blob: a typed error, and the
     // intact spill still restores the tenant as it was
    tenant::TenantRegistryOptions o;
    o.dim = 2;
    o.params = params;
    o.engine.num_shards = 1;
    o.engine.streaming = strm2_options();
    o.pool_threads = 0;
    o.num_rungs = 1;
    o.max_resident = 1;
    o.spill_dir = testutil::temp_path(std::string(name) + "-spill");
    std::filesystem::create_directories(o.spill_dir);
    tenant::TenantRegistry reg(o);
    ASSERT_EQ(reg.submit("old", events), tenant::Admit::kOk);
    EngineQueryResult before, after;
    ASSERT_EQ(reg.query("old", summary, before), tenant::Admit::kOk);
    ASSERT_TRUE(before.ok) << before.error;
    ASSERT_EQ(reg.submit("other", Stream(events.begin(), events.begin() + 2)),
              tenant::Admit::kOk);  // "old" spills
    const std::string path = o.spill_dir + "/old.tnt";
    std::string spill;
    ASSERT_TRUE(serial::read_file(path, spill)) << "expected a spill at " << path;
    // Magic, rung and sealed flag (13 bytes), an empty replay section (its
    // event count and CRC-64: a one-rung tenant keeps no replay), then the
    // engine's save_state.
    const std::size_t engine_at = 13 + 8 + 8;
    ASSERT_EQ(std::string_view(spill).substr(13, 8), std::string(8, '\0'));
    const std::string state = spill.substr(engine_at);
    const std::size_t at = last_shard_at(state, params, o.engine.streaming, 1);
    ASSERT_TRUE(serial::write_file(
        path, spill.substr(0, engine_at) +
                  with_last_shard(state, at, with_seed_of(blob, state, at))));
    EXPECT_EQ(reg.query("old", summary, after), tenant::Admit::kError);
    ASSERT_TRUE(serial::write_file(path, spill));
    ASSERT_EQ(reg.query("old", summary, after), tenant::Admit::kOk);
    ASSERT_TRUE(after.ok) << after.error;
    EXPECT_EQ(after.net_points, 5);
    EXPECT_EQ(testutil::sequence(after.summary.points),
              testutil::sequence(before.summary.points));
    std::filesystem::remove_all(o.spill_dir);
  }
}

// STRM3 held one counter column per live guess: every guess keeps every
// event here, so four columns a slot where today's block holds one.  Read
// at today's strides it would answer with other guesses' counts.
TEST(Checkpoint, RefusesAStrm3BlobAtLoadAndAtImport) {
  expect_every_loader_refuses("strm3_builder.hex", 2880, '3');
}

// STRM4 kept one point store per (level, phi) in a pool; STRM5 and STRM6
// keep one per level with a view per rate class.
TEST(Checkpoint, RefusesAStrm4BlobAtLoadAndAtImport) {
  expect_every_loader_refuses("strm4_builder.hex", 2112, '4');
}

// STRM5 wrote every counter of a level's block after a u64 counter count;
// STRM6 writes the block as zero runs and literal runs after a run count.
TEST(Checkpoint, RefusesAStrm5BlobAtLoadAndAtImport) {
  expect_every_loader_refuses("strm5_builder.hex", 2280, '5');
}

/// Byte offsets of the STRM6 fields the load rules read.
struct Strm6Layout {
  struct Level {
    std::size_t lo = 0;    // u64 lo
    std::size_t runs = 0;  // u64 run count
    std::vector<std::size_t> pairs;  // per run: u32 zeros, u32 literals, literals
    std::vector<std::size_t> rows;   // per exact row: u64 index length
  };
  std::uint64_t guesses = 0;
  std::size_t flags = 0;  // one byte per guess
  std::vector<Level> levels;
  std::vector<std::size_t> distinct;  // per estimator: i32 shift
};

std::uint32_t u32_at(const std::string& blob, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, blob.data() + at, sizeof v);
  return v;
}

void set_u32(std::string& blob, std::size_t at, std::uint32_t v) {
  std::memcpy(blob.data() + at, &v, sizeof v);
}

Strm6Layout walk_strm6(const std::string& blob, int log_delta) {
  Strm6Layout out;
  std::size_t pos = 8 + 4 + 4 + 8;  // magic, dim, log_delta, seed
  out.guesses = u64_at(blob, pos);
  pos += 8 + 8 + 8;  // guess count, net count, events
  out.flags = pos;
  pos += out.guesses;
  for (int level = 0; level <= log_delta; ++level) {
    Strm6Layout::Level lv;
    lv.lo = pos;
    lv.runs = pos + 8;
    pos = lv.runs + 8;
    for (std::uint64_t r = u64_at(blob, lv.runs); r > 0; --r) {
      lv.pairs.push_back(pos);
      pos += 8 + std::size_t{u32_at(blob, pos + 4)} * 8;  // zeros, literals, literals
    }
    const std::uint64_t rows = u64_at(blob, pos);
    pos += 8;
    for (std::uint64_t r = 0; r < rows; ++r) {
      lv.rows.push_back(pos);
      pos += 8 + u64_at(blob, pos) * 4;  // cell index
      pos += 8 + u64_at(blob, pos) * 8;  // per-guess counts
    }
    out.levels.push_back(std::move(lv));
  }
  for (int level = 0; level <= log_delta; ++level) {
    std::uint32_t classes = u32_at(blob, pos);
    pos += 4 + std::size_t{classes} * (1 + 8 + 8);  // per class: dead, events, live
    std::uint64_t cells = u64_at(blob, pos);
    pos += 8;
    for (; cells > 0; --cells) {
      pos += 8 + u64_at(blob, pos) * 4;  // row
      std::uint64_t views = u64_at(blob, pos);
      pos += 8;
      for (; views > 0; --views) {
        pos += 8 + 8 + 1;  // net, peak, tombstone
        std::uint64_t points = u64_at(blob, pos);
        pos += 8;
        for (; points > 0; --points) pos += 8 + u64_at(blob, pos) + 8;  // coords, count
      }
    }
  }
  for (int level = 0; level < log_delta; ++level) {
    out.distinct.push_back(pos);
    std::uint64_t entries = u64_at(blob, pos + 4);
    pos += 4 + 8;
    for (; entries > 0; --entries) pos += 8 + u64_at(blob, pos) * 4 + 8;  // row, count
  }
  EXPECT_EQ(pos, blob.size()) << "the walk must end at the blob's end";
  return out;
}

TEST(Checkpoint, RefusesLevelCountMinsThatBreakTheLayout) {
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  Rng rng(6);
  PointSet base = gaussian_mixture(mixture(900), rng);
  PointSet extra = gaussian_mixture(mixture(300), rng);
  Rng srng(7);
  const Stream stream = churn_stream(base, extra, ChurnConfig{}, srng);
  for (const bool exact : {false, true}) {
    SCOPED_TRACE(exact ? "exact mode" : "sketch mode");
    StreamingOptions opt = options();
    opt.exact_storing = exact;
    opt.prune_interval = 128;
    StreamingCoresetBuilder builder(2, params, opt);
    builder.consume(EventBatch(stream, 2));
    std::stringstream out;
    builder.save(out);
    const std::string blob = out.str();
    const Strm6Layout layout = walk_strm6(blob, opt.log_delta);
    const auto loads = [&](const std::string& bytes) {
      StreamingCoresetBuilder fresh(2, params, opt);
      std::istringstream in(bytes);
      return fresh.load(in);
    };
    ASSERT_TRUE(loads(blob));
    const auto pruned = static_cast<std::size_t>(u64_at(blob, layout.levels[0].lo));
    ASSERT_LT(pruned + 1, layout.guesses);
    if (!exact) {
      ASSERT_GT(pruned, 0u) << "the stream must prune for the flags to bite";
    }

    {  // pruned flags that are not a prefix (with the count kept when
       // there is a pruned guess to move)
      std::string bad = blob;
      bad[layout.flags + pruned + 1] = 1;
      if (pruned > 0) bad[layout.flags + pruned - 1] = 0;
      EXPECT_FALSE(loads(bad));
    }
    {  // a prefix one longer than every level's lo
      std::string bad = blob;
      bad[layout.flags + pruned] = 1;
      EXPECT_FALSE(loads(bad));
    }
    {  // a lo past the guess count
      std::string bad = blob;
      set_u64(bad, layout.levels[2].lo, layout.guesses + 1);
      EXPECT_FALSE(loads(bad));
    }
    const auto header = [](std::uint32_t zeros, std::uint32_t literals) {
      std::string h(8, '\0');
      set_u32(h, 0, zeros);
      set_u32(h, 4, literals);
      return h;
    };
    if (!exact) {
      // The counter block's rules, each broken alone on the first level
      // with a literal run of two or more counters; a refused level leaves
      // every guess pruned.
      const auto zeros = [&](std::size_t pair) { return u32_at(blob, pair); };
      const auto literals = [&](std::size_t pair) { return u32_at(blob, pair + 4); };
      const auto coded = std::find_if(layout.levels.begin(), layout.levels.end(),
                                      [&](const Strm6Layout::Level& lv) {
                                        return std::any_of(lv.pairs.begin(), lv.pairs.end(),
                                                           [&](std::size_t p) {
                                                             return literals(p) > 1;
                                                           });
                                      });
      ASSERT_NE(coded, layout.levels.end());
      ASSERT_GT(coded->pairs.size(), 2u);
      const Strm6Layout::Level& lv = *coded;
      const int level = static_cast<int>(coded - layout.levels.begin());
      const auto refused = [&](const std::string& bad) {
        StreamingCoresetBuilder fresh(2, params, opt);
        std::istringstream in(bad);
        EXPECT_FALSE(fresh.load(in));
        EXPECT_EQ(fresh.level_counts(level).lo(), fresh.level_counts(level).guesses());
      };
      const std::uint64_t runs = u64_at(blob, lv.runs);
      const auto with_runs = [&](std::uint64_t count) {
        std::string bad = blob;
        set_u64(bad, lv.runs, count);
        return bad;
      };
      const std::size_t first = lv.pairs.front(), last = lv.pairs.back();
      ASSERT_GT(literals(first), 0u);
      {  // a run past the block: the last one zero longer
        std::string bad = blob;
        set_u32(bad, last, zeros(last) + 1);
        refused(bad);
      }
      {  // a zero literal
        std::string bad = blob;
        set_u64(bad, first + 8, 0);
        refused(bad);
      }
      for (const std::int64_t past : {kMaxEvents + 1, -kMaxEvents - 1}) {
        // a literal past ±kMaxEvents
        std::string bad = blob;
        set_u64(bad, first + 8, static_cast<std::uint64_t>(past));
        refused(bad);
      }
      {  // runs that stop short of the block: the last one left out
        std::string bad = with_runs(runs - 1);
        bad.erase(last, 8 + std::size_t{literals(last)} * 8);
        refused(bad);
      }
      // Runs that split one in two decode to the same counters, so they are
      // refused too: equal counters have one coding.
      const auto split_zeros = std::find_if(lv.pairs.begin(), lv.pairs.end(),
                                            [&](std::size_t p) { return zeros(p) > 1; });
      ASSERT_NE(split_zeros, lv.pairs.end());
      {  // a zero run split by a run without literals
        std::string bad = with_runs(runs + 1);
        set_u32(bad, *split_zeros, zeros(*split_zeros) - 1);
        bad.insert(*split_zeros, header(1, 0));
        refused(bad);
      }
      const auto split_literals = std::find_if(lv.pairs.begin(), lv.pairs.end(),
                                               [&](std::size_t p) { return literals(p) > 1; });
      ASSERT_NE(split_literals, lv.pairs.end());
      {  // a literal run split by a run without zeros
        std::string bad = with_runs(runs + 1);
        set_u32(bad, *split_literals + 4, 1);
        bad.insert(*split_literals + 8 + 8, header(0, literals(*split_literals) - 1));
        refused(bad);
      }
      continue;
    }
    // An exact level has no counter block, so no run fits: one with a
    // literal is past the block, and an empty one, which breaks no other
    // rule there, covers nothing.
    const std::size_t runs = layout.levels[3].runs;
    ASSERT_EQ(u64_at(blob, runs), 0u);
    std::string literal(8, '\0');
    set_u64(literal, 0, 1);
    for (const std::string& run : {header(0, 1) + literal, header(0, 0)}) {
      std::string bad = blob;
      set_u64(bad, runs, 1);
      bad.insert(runs + 8, run);
      EXPECT_FALSE(loads(bad));
    }
    const Strm6Layout::Level& lv = layout.levels[4];
    ASSERT_GT(lv.rows.size(), 1u);
    const std::size_t row = lv.rows[0];
    const std::size_t counts = row + 8 + u64_at(blob, row) * 4;
    const std::size_t row_end = counts + 8 + u64_at(blob, counts) * 8;
    {  // an exact row whose index is not dim long
      std::string bad = blob;
      set_u64(bad, row, 3);
      bad.insert(row + 8, 4, '\0');
      EXPECT_FALSE(loads(bad));
    }
    {  // a duplicate exact cell
      std::string bad = blob;
      bad.insert(row_end, blob.substr(row, row_end - row));
      set_u64(bad, row - 8, u64_at(blob, row - 8) + 1);
      EXPECT_FALSE(loads(bad));
    }
    {  // an exact count vector whose length is not G - lo
      std::string bad = blob;
      set_u64(bad, counts, u64_at(blob, counts) + 1);
      bad.insert(counts + 8, 8, '\0');
      EXPECT_FALSE(loads(bad));
    }
  }
}

// A distinct estimator no history writes used to load: with shift 64 the
// keep threshold f61::kP >> 64 is undefined (on x86 every cell is kept), the
// estimate gains a factor of 2^64 and the OPT lower bound prunes every guess,
// so every later query failed.  Each rule must refuse its mutant at load()
// and at import_sketch(), and the engine must keep answering.
TEST(Checkpoint, RefusesDistinctEstimatorsNoHistoryWrites) {
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  EngineOptions eopt = engine_options();
  eopt.streaming.log_delta = 12;
  ClusteringEngine engine(2, params, eopt);
  Rng rng(8);
  engine.submit(insertion_stream(gaussian_mixture(mixture(600), rng)));
  const std::string blob = engine.export_sketch().blob;
  const std::size_t at = walk_strm6(blob, 12).distinct.back();
  const std::uint64_t entries = u64_at(blob, at + 4);
  ASSERT_GT(entries, 0u);
  const std::size_t first = at + 4 + 8;  // the first entry: u64 2, 2 x i32, i64
  const std::size_t entry_bytes = 8 + 2 * 4 + 8;
  const auto set_i32 = [](std::string& b, std::size_t pos, std::int32_t v) {
    std::memcpy(b.data() + pos, &v, sizeof v);
  };
  const auto set_i64 = [](std::string& b, std::size_t pos, std::int64_t v) {
    std::memcpy(b.data() + pos, &v, sizeof v);
  };

  std::vector<std::pair<const char*, std::string>> mutants;
  for (const std::int32_t shift : {64, 62, -1}) {
    std::string bad = blob;
    set_i32(bad, at, shift);
    mutants.emplace_back("shift outside [0, 61]", bad);
  }
  {
    std::string bad = blob;
    set_u64(bad, first, 3);
    bad.insert(first + 8, 4, '\0');
    mutants.emplace_back("an index row that is not dim long", bad);
  }
  for (const std::int64_t count : {0, -1}) {
    std::string bad = blob;
    set_i64(bad, first + 8 + 2 * 4, count);
    mutants.emplace_back("a count <= 0", bad);
  }
  {
    std::string bad = blob;
    bad.insert(first + entry_bytes, blob.substr(first, entry_bytes));
    set_u64(bad, at + 4, entries + 1);
    mutants.emplace_back("a duplicate cell", bad);
  }
  {  // distinct made-up cells past the budget
    std::string bad = blob;
    const std::uint64_t over = eopt.streaming.distinct_budget + 1;
    for (std::uint64_t e = entries; e < over; ++e) {
      std::string entry = blob.substr(first, entry_bytes);
      set_i32(entry, 8, static_cast<std::int32_t>(1000000 + e));
      set_i64(entry, 8 + 2 * 4, 1);
      bad.append(entry);
    }
    set_u64(bad, at + 4, over);
    mutants.emplace_back("more entries than the budget", bad);
  }

  EngineQuery summary;
  summary.summary_only = true;
  const EngineQueryResult before = engine.query(summary);
  ASSERT_TRUE(before.ok) << before.error;
  StreamingCoresetBuilder valid(2, params, eopt.streaming);
  std::istringstream valid_in(blob);
  ASSERT_TRUE(valid.load(valid_in));
  for (const auto& [rule, bad] : mutants) {
    SCOPED_TRACE(rule);
    StreamingCoresetBuilder fresh(2, params, eopt.streaming);
    std::istringstream in(bad);
    EXPECT_FALSE(fresh.load(in));
    EXPECT_FALSE(engine.import_sketch(bad));
    const EngineQueryResult after = engine.query(summary);
    ASSERT_TRUE(after.ok) << after.error;
    EXPECT_EQ(testutil::sequence(after.summary.points),
              testutil::sequence(before.summary.points));
  }
  EXPECT_TRUE(engine.query(EngineQuery{}).ok);
  engine.shutdown();
}

}  // namespace
}  // namespace skc
