// TenantRegistry: stream-id namespaces must be perfectly isolated (a tenant's
// query equals a dedicated single-tenant run), quotas must refuse with typed
// verdicts before touching state, the HLL ladder must promote without losing
// events, and LRU spill/restore must be transparent — including when the
// spill file is truncated or bit-flipped, which must be a typed error, never
// a crash.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "skc/obs/trace.h"
#include "skc/tenant/registry.h"
#include "test_util.h"

namespace skc {
namespace {

using tenant::Admit;
using tenant::TenantRegistry;
using tenant::TenantRegistryOptions;
using tenant::TenantStats;

constexpr int kDim = 2;
constexpr int kLogDelta = 9;

TenantRegistryOptions base_options() {
  TenantRegistryOptions o;
  o.dim = kDim;
  o.params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  o.engine.num_shards = 1;
  o.engine.streaming.log_delta = kLogDelta;
  o.engine.streaming.max_points = 1024;
  // Exact mode + inline drains: every comparison below is deterministic.
  o.engine.streaming.exact_storing = true;
  o.engine.streaming.distinct_budget = 1 << 20;
  o.engine.streaming.prune_interval = 0;
  o.pool_threads = 0;
  // Ladder [64, 256, 1024]: promotion thresholds at 32 and 128 distinct.
  o.num_rungs = 3;
  o.rung_scale = 4;
  o.min_rung_points = 64;
  o.replay_capacity = 1 << 12;
  o.max_resident = 64;
  return o;
}

/// `n` distinct insertions, enumerated from `offset` (coords stay in
/// [1, 2^kLogDelta]).
Stream distinct_inserts(int n, int offset) {
  Stream s;
  s.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int v = offset + i;
    StreamEvent e;
    e.op = StreamOp::kInsert;
    e.point = {static_cast<Coord>(v % 511 + 1), static_cast<Coord>(v / 511 + 1)};
    s.push_back(std::move(e));
  }
  return s;
}

std::int64_t net_points(TenantRegistry& reg, std::string_view id) {
  EngineQuery q;
  q.summary_only = true;
  EngineQueryResult res;
  EXPECT_EQ(reg.query(id, q, res), Admit::kOk);
  EXPECT_TRUE(res.ok) << res.error;
  return res.net_points;
}

TenantStats stats_of(const TenantRegistry& reg, std::string_view id) {
  for (const TenantStats& t : reg.stats().per_tenant) {
    if (t.id == id) return t;
  }
  ADD_FAILURE() << "no stats for tenant " << id;
  return {};
}

TEST(TenantRegistry, NamespacesAreIsolatedAndDeterministic) {
  TenantRegistry shared(base_options());
  TenantRegistry alone(base_options());

  // Interleave two tenants in the shared registry; give a dedicated registry
  // only tenant "a".  The per-tenant seed is a pure function of the id, so
  // "a" must come out bit-identical either way.
  const Stream a1 = distinct_inserts(40, 0);
  const Stream b1 = distinct_inserts(70, 1000);
  const Stream a2 = distinct_inserts(25, 40);
  ASSERT_EQ(shared.submit("a", a1), Admit::kOk);
  ASSERT_EQ(shared.submit("b", b1), Admit::kOk);
  ASSERT_EQ(shared.submit("a", a2), Admit::kOk);
  ASSERT_EQ(alone.submit("a", a1), Admit::kOk);
  ASSERT_EQ(alone.submit("a", a2), Admit::kOk);

  EXPECT_EQ(net_points(shared, "a"), 65);
  EXPECT_EQ(net_points(shared, "b"), 70);
  EXPECT_EQ(shared.tenant_count(), 2);

  EngineQuery q;
  q.summary_only = true;
  EngineQueryResult sa, da;
  ASSERT_EQ(shared.query("a", q, sa), Admit::kOk);
  ASSERT_EQ(alone.query("a", q, da), Admit::kOk);
  ASSERT_TRUE(sa.ok && da.ok);
  EXPECT_EQ(testutil::canonical_multiset(sa.summary.points),
            testutil::canonical_multiset(da.summary.points));

  // The default tenant is just another namespace (the empty id).
  ASSERT_EQ(shared.submit("", distinct_inserts(5, 0)), Admit::kOk);
  EXPECT_EQ(net_points(shared, ""), 5);
  EXPECT_EQ(shared.tenant_count(), 3);
}

TEST(TenantRegistry, HllLadderPromotesWithoutLosingEvents) {
  TenantRegistry reg(base_options());
  ASSERT_EQ(reg.rungs().size(), 3u);
  EXPECT_EQ(reg.rungs()[0].max_points, 64);
  EXPECT_EQ(reg.rungs()[2].max_points, 1024);

  // 20 distinct points: under the rung-0 threshold (32), no promotion.
  ASSERT_EQ(reg.submit("t", distinct_inserts(20, 0)), Admit::kOk);
  TenantStats s = stats_of(reg, "t");
  EXPECT_EQ(s.rung, 0);
  EXPECT_EQ(s.promotions, 0);

  // 60 more distinct (~80 total): crosses 32, promotes exactly one rung.
  ASSERT_EQ(reg.submit("t", distinct_inserts(60, 20)), Admit::kOk);
  s = stats_of(reg, "t");
  EXPECT_EQ(s.rung, 1);
  EXPECT_EQ(s.promotions, 1);
  EXPECT_FALSE(s.sealed);
  EXPECT_EQ(net_points(reg, "t"), 80);

  // 100 more (~180 total): crosses 128, reaches the top rung; the replay
  // buffer is freed there but no event was lost on the way up.
  ASSERT_EQ(reg.submit("t", distinct_inserts(100, 80)), Admit::kOk);
  s = stats_of(reg, "t");
  EXPECT_EQ(s.rung, 2);
  EXPECT_EQ(s.promotions, 2);
  EXPECT_EQ(net_points(reg, "t"), 180);
  EXPECT_GT(s.hll_estimate, 150.0);
  EXPECT_LT(s.hll_estimate, 210.0);

  // The promoted tenant equals a dedicated full-size run of the same events.
  TenantRegistryOptions full = base_options();
  full.num_rungs = 1;
  TenantRegistry reference(full);
  ASSERT_EQ(reference.submit("t", distinct_inserts(180, 0)), Admit::kOk);
  EngineQuery q;
  q.summary_only = true;
  EngineQueryResult got, want;
  ASSERT_EQ(reg.query("t", q, got), Admit::kOk);
  ASSERT_EQ(reference.query("t", q, want), Admit::kOk);
  EXPECT_EQ(testutil::canonical_multiset(got.summary.points),
            testutil::canonical_multiset(want.summary.points));
}

TEST(TenantRegistry, ReplayOverflowSealsAtTheCurrentRung) {
  TenantRegistryOptions o = base_options();
  o.replay_capacity = 16;
  TenantRegistry reg(o);

  // A batch larger than the replay budget seals the tenant immediately (the
  // sketch still absorbs every event; only promotion stops).
  ASSERT_EQ(reg.submit("s", distinct_inserts(20, 0)), Admit::kOk);
  TenantStats s = stats_of(reg, "s");
  EXPECT_TRUE(s.sealed);
  EXPECT_EQ(s.rung, 0);
  EXPECT_EQ(net_points(reg, "s"), 20);

  // Far past every promotion threshold: a sealed tenant never climbs.
  ASSERT_EQ(reg.submit("s", distinct_inserts(200, 20)), Admit::kOk);
  s = stats_of(reg, "s");
  EXPECT_TRUE(s.sealed);
  EXPECT_EQ(s.rung, 0);
  EXPECT_EQ(s.promotions, 0);
  EXPECT_EQ(net_points(reg, "s"), 220);
}

TEST(TenantRegistry, TokenBucketThrottlesOnlyTheNoisyTenant) {
  TenantRegistryOptions o = base_options();
  o.quotas.max_events_per_second = 200.0;
  o.quotas.burst_events = 100.0;
  TenantRegistry reg(o);

  // The first batch drains the whole burst; refilling the 100 tokens the
  // follow-up needs takes 500ms, so the immediate retry is refused without
  // touching the engine.
  ASSERT_EQ(reg.submit("noisy", distinct_inserts(100, 0)), Admit::kOk);
  EXPECT_EQ(reg.submit("noisy", distinct_inserts(100, 100)), Admit::kQuota);
  TenantStats s = stats_of(reg, "noisy");
  EXPECT_EQ(s.events, 100);
  EXPECT_EQ(s.quota_rejections, 1);

  // Another tenant's bucket is its own: admitted concurrently.
  ASSERT_EQ(reg.submit("quiet", distinct_inserts(50, 0)), Admit::kOk);
  EXPECT_EQ(stats_of(reg, "quiet").quota_rejections, 0);

  // Refilled at 200 events/s, a guaranteed >=100ms nap buys back 20+
  // tokens — a small batch is admitted again.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(reg.submit("noisy", distinct_inserts(10, 100)), Admit::kOk);
}

TEST(TenantRegistry, TokenBucketAdmitsOversizeBatchAsDebt) {
  TenantRegistryOptions o = base_options();
  o.quotas.max_events_per_second = 200.0;
  o.quotas.burst_events = 20.0;
  TenantRegistry reg(o);

  // A batch larger than the burst can never be covered by a full bucket;
  // it must still be admitted (balance goes negative) rather than refused
  // on every retry forever.
  ASSERT_EQ(reg.submit("t", distinct_inserts(50, 0)), Admit::kOk);
  EXPECT_EQ(stats_of(reg, "t").events, 50);

  // The debt throttles what follows: even a batch the burst could normally
  // cover is refused until the 30-token deficit refills.
  EXPECT_EQ(reg.submit("t", distinct_inserts(20, 50)), Admit::kQuota);
  EXPECT_EQ(stats_of(reg, "t").quota_rejections, 1);
}

TEST(TenantRegistry, FootprintAndBacklogQuotasRefuseTyped) {
  TenantRegistryOptions o = base_options();
  o.quotas.max_sketch_bytes = 1;
  TenantRegistry tiny(o);
  // One byte of sketch budget: at the latest after the first admitted batch
  // the footprint exceeds it and ingest is refused, typed.
  const Admit first = tiny.submit("t", distinct_inserts(30, 0));
  ASSERT_TRUE(first == Admit::kOk || first == Admit::kQuota);
  EXPECT_EQ(tiny.submit("t", distinct_inserts(30, 30)), Admit::kQuota);
  EXPECT_GE(stats_of(tiny, "t").quota_rejections, 1);

  TenantRegistryOptions b = base_options();
  b.quotas.max_queued_events = 8;
  TenantRegistry backlog(b);
  // A batch that alone exceeds the queued-events cap is refused outright.
  EXPECT_EQ(backlog.submit("t", distinct_inserts(30, 0)), Admit::kQuota);
  EXPECT_EQ(stats_of(backlog, "t").events, 0);
}

TEST(TenantRegistry, LruEvictionSpillsAndRestoresTransparently) {
  TenantRegistryOptions o = base_options();
  o.max_resident = 2;
  o.spill_dir = testutil::temp_dir();
  TenantRegistry reg(o);

  // Four tenants, distinct sizes; only two engines may stay resident.
  for (int t = 0; t < 4; ++t) {
    const std::string id = "t" + std::to_string(t);
    ASSERT_EQ(reg.submit(id, distinct_inserts(10 + t, 100 * t)), Admit::kOk);
  }
  EXPECT_EQ(reg.tenant_count(), 4);
  EXPECT_LE(reg.resident_count(), 2);
  EXPECT_GE(reg.stats().evictions, 2);

  // Touching a spilled tenant restores it — same counts, no lost events —
  // and pushes someone else out.
  for (int t = 0; t < 4; ++t) {
    const std::string id = "t" + std::to_string(t);
    EXPECT_EQ(net_points(reg, id), 10 + t) << id;
    EXPECT_LE(reg.resident_count(), 2);
  }
  const tenant::RegistryStats s = reg.stats();
  EXPECT_GE(s.restores, 2);
  EXPECT_EQ(s.spill_failures, 0);

  // A restored tenant matches a never-evicted twin exactly.
  TenantRegistryOptions big = base_options();
  TenantRegistry reference(big);
  ASSERT_EQ(reference.submit("t3", distinct_inserts(13, 300)), Admit::kOk);
  EngineQuery q;
  q.summary_only = true;
  EngineQueryResult got, want;
  ASSERT_EQ(reg.query("t3", q, got), Admit::kOk);
  ASSERT_EQ(reference.query("t3", q, want), Admit::kOk);
  EXPECT_EQ(testutil::canonical_multiset(got.summary.points),
            testutil::canonical_multiset(want.summary.points));
}

// The cold path is traced: each eviction is one `spill` span and each cold
// touch one `restore` span, with one child for the engine state and one for
// the file write or read.
TEST(TenantRegistry, SpillAndRestoreAreTracedWithTheirSteps) {
  TenantRegistryOptions o = base_options();
  o.max_resident = 1;
  o.spill_dir = testutil::temp_dir();
  TenantRegistry reg(o);
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  ASSERT_EQ(reg.submit("cold", distinct_inserts(10, 0)), Admit::kOk);
  ASSERT_EQ(reg.submit("warm", distinct_inserts(10, 100)), Admit::kOk);  // "cold" spills
  EXPECT_EQ(net_points(reg, "cold"), 10);  // "cold" restores, "warm" spills
  tracer.set_enabled(false);
  const std::vector<obs::TaggedTraceEvent> events = tracer.events();
  tracer.clear();
  std::map<std::uint64_t, std::string> name_of;
  for (const obs::TaggedTraceEvent& e : events) name_of[e.event.span_id] = e.event.name;
  std::map<std::uint64_t, std::multiset<std::string>> children;
  for (const obs::TaggedTraceEvent& e : events) {
    if (name_of.count(e.event.parent_id) != 0) children[e.event.parent_id].insert(e.event.name);
  }
  int spills = 0, restores = 0;
  for (const auto& [id, name] : name_of) {
    if (name == "spill") {
      ++spills;
      EXPECT_EQ(children[id], (std::multiset<std::string>{"save_state", "write_file"}));
    } else if (name == "restore") {
      ++restores;
      EXPECT_EQ(children[id], (std::multiset<std::string>{"load_state", "read_file"}));
    }
  }
  EXPECT_EQ(spills, 2);
  EXPECT_EQ(restores, 1);
}

// The frame's CRC-64 is its own step under each spill's save_state and
// each restore's load_state.
TEST(TenantRegistry, SpillAndRestoreTraceTheirChecksums) {
  TenantRegistryOptions o = base_options();
  o.max_resident = 1;
  o.spill_dir = testutil::temp_dir();
  TenantRegistry reg(o);
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  ASSERT_EQ(reg.submit("sum_cold", distinct_inserts(10, 0)), Admit::kOk);
  ASSERT_EQ(reg.submit("sum_warm", distinct_inserts(10, 100)), Admit::kOk);
  EXPECT_EQ(net_points(reg, "sum_cold"), 10);
  tracer.set_enabled(false);
  const std::vector<obs::TaggedTraceEvent> events = tracer.events();
  tracer.clear();
  std::map<std::uint64_t, std::string> name_of;
  for (const obs::TaggedTraceEvent& e : events) name_of[e.event.span_id] = e.event.name;
  std::map<std::uint64_t, std::multiset<std::string>> children;
  for (const obs::TaggedTraceEvent& e : events) {
    if (name_of.count(e.event.parent_id) != 0) children[e.event.parent_id].insert(e.event.name);
  }
  int saves = 0, loads = 0;
  for (const auto& [id, name] : name_of) {
    if (name != "save_state" && name != "load_state") continue;
    ++(name == "save_state" ? saves : loads);
    EXPECT_EQ(children[id], (std::multiset<std::string>{"checksum"})) << name;
  }
  EXPECT_EQ(saves, 2);
  EXPECT_EQ(loads, 1);
}

TEST(TenantRegistry, CorruptSpillFilesAreTypedErrorsNeverCrashes) {
  TenantRegistryOptions o = base_options();
  o.max_resident = 1;
  o.spill_dir = testutil::temp_dir();
  TenantRegistry reg(o);

  ASSERT_EQ(reg.submit("victim", distinct_inserts(40, 0)), Admit::kOk);
  ASSERT_EQ(reg.submit("other", distinct_inserts(10, 500)), Admit::kOk);
  ASSERT_LE(reg.resident_count(), 1);

  const std::string path = o.spill_dir + "/victim.tnt";
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "expected the LRU victim to be spilled at " << path;
    std::stringstream buf;
    buf << in.rdbuf();
    blob = buf.str();
  }
  // Spill layout (SKCTNT02): magic, rung and sealed flag (13 bytes), the
  // replay section — event count (8), 40 op bytes, 40 x 2 coordinates of 4
  // bytes, its CRC-64 (8) — then the engine's CRC-framed save_state blob.
  const std::size_t ops_at = 21;
  const std::size_t coords_at = ops_at + 40;
  const std::size_t crc_at = coords_at + 40 * 2 * 4;
  const std::size_t engine_at = crc_at + 8;
  ASSERT_GT(blob.size(), engine_at + 32);
  ASSERT_EQ(blob[ops_at + 5], static_cast<char>(StreamOp::kInsert));

  const auto rewrite = [&](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  };
  EngineQuery q;
  q.summary_only = true;
  EngineQueryResult res;

  // Truncation sweep: header, replay section, engine payload, last byte.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{21}, engine_at + 5,
        blob.size() / 2, blob.size() - 1}) {
    rewrite(blob.substr(0, keep));
    EXPECT_EQ(reg.query("victim", q, res), Admit::kError) << "keep=" << keep;
  }
  // Bit flips in every validated field: the spill magic, the rung, the
  // replay count, a replay coordinate, the replay CRC, the engine magic, and
  // two spots inside the engine's CRC-covered payload.  A flipped coordinate
  // is still a valid point, so only the replay CRC can catch it.
  for (const std::size_t at :
       {std::size_t{0}, std::size_t{9}, std::size_t{13}, coords_at + 13,
        crc_at + 3, engine_at + 3, engine_at + (blob.size() - engine_at) / 2,
        blob.size() - 2}) {
    std::string bad = blob;
    bad[at] = static_cast<char>(bad[at] ^ 0x20);
    rewrite(bad);
    EXPECT_EQ(reg.query("victim", q, res), Admit::kError) << "at=" << at;
  }
  // An op byte turned into the other valid op: an insert replayed as a
  // delete.  The replay CRC refuses it.
  {
    std::string bad = blob;
    bad[ops_at + 5] = static_cast<char>(StreamOp::kDelete);
    rewrite(bad);
    EXPECT_EQ(reg.query("victim", q, res), Admit::kError) << "op flip";
  }

  // The intact file still restores: corruption was detected, not "repaired".
  rewrite(blob);
  ASSERT_EQ(reg.query("victim", q, res), Admit::kOk);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.net_points, 40);
  std::remove(path.c_str());
}

// The registry's Stream entry checks every point's length in all builds.
TEST(TenantRegistryDeathTest, StreamPointOfTheWrongLengthAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TenantRegistry reg(base_options());
        reg.submit("t", Stream{StreamEvent{StreamOp::kInsert, Point(8, 5)}});
      },
      "point length does not match the batch dimension");
}

// A batch of another dim is refused before admission looks at it: even a
// submit that admission would turn away (here kTooManyTenants) aborts.
TEST(TenantRegistryDeathTest, BatchOfAnotherDimAbortsBeforeAdmission) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TenantRegistryOptions o = base_options();
        o.max_tenants = 1;
        TenantRegistry reg(o);
        reg.submit("a", distinct_inserts(1, 0));
        EventBatch wide(kDim + 1);
        wide.push_back(StreamOp::kInsert, std::vector<Coord>(kDim + 1, 5));
        reg.submit("b", wide);
      },
      "batch dimension does not match the registry");
}

TEST(TenantRegistry, AdmissionVerdictsAreTyped) {
  TenantRegistryOptions o = base_options();
  o.max_tenants = 2;
  TenantRegistry reg(o);

  EXPECT_EQ(reg.submit("bad/id", distinct_inserts(1, 0)), Admit::kInvalidId);
  EXPECT_EQ(reg.submit(std::string(65, 'a'), distinct_inserts(1, 0)),
            Admit::kInvalidId);

  EngineQuery q;
  EngineQueryResult res;
  EXPECT_EQ(reg.query("ghost", q, res), Admit::kUnknownTenant);
  EXPECT_EQ(reg.checkpoint("ghost", "/tmp/nope.bin"), Admit::kUnknownTenant);

  ASSERT_EQ(reg.submit("a", distinct_inserts(1, 0)), Admit::kOk);
  ASSERT_EQ(reg.submit("b", distinct_inserts(1, 1)), Admit::kOk);
  EXPECT_EQ(reg.submit("c", distinct_inserts(1, 2)), Admit::kTooManyTenants);
  EXPECT_FALSE(reg.exists("c"));
}

TEST(TenantRegistry, StatsJsonCarriesTheRegistryShape) {
  TenantRegistry reg(base_options());
  ASSERT_EQ(reg.submit("alpha", distinct_inserts(12, 0)), Admit::kOk);
  EngineQuery q;
  q.summary_only = true;
  EngineQueryResult res;
  ASSERT_EQ(reg.query("alpha", q, res), Admit::kOk);

  const std::string json = reg.stats_json();
  EXPECT_NE(json.find("\"tenants\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"per_tenant\":[{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"id\":\"alpha\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"events\":12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ingest_count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"query_p99_ms\":"), std::string::npos) << json;

  std::string one;
  ASSERT_TRUE(reg.tenant_stats_json("alpha", one));
  EXPECT_NE(one.find("\"id\":\"alpha\""), std::string::npos) << one;
  EXPECT_FALSE(reg.tenant_stats_json("ghost", one));
}

// Tenant engines are made lazily, so the registry refuses a dimension above
// the finalize walk's limit when it is made, before any tenant exists.
TEST(TenantRegistryDeathTest, DimensionAboveTheWalkLimitAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TenantRegistryOptions o = base_options();
  o.dim = HierarchicalGrid::kMaxWalkDim + 1;
  EXPECT_DEATH(tenant::TenantRegistry registry(o), "dimension too large");
}

}  // namespace
}  // namespace skc
