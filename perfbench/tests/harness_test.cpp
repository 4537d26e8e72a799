// Tests of the benchmark's own machinery: frame packing, connection pinning,
// percentiles that refuse to guess, and failure accounting.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "harness.h"
#include "skc/common/random.h"
#include "skc/net/client.h"
#include "skc/stream/generators.h"
#include "skc/tenant/registry.h"
#include "skc/tenant/server.h"

namespace perfbench {
namespace {

using skc::Coord;
using skc::StreamOp;

TEST(PackWindows, NeverSendsADeleteBeforeItsInsert) {
  skc::Rng rng(7);
  skc::MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 6;  // a small grid, so points repeat and the multiset matters
  cfg.n = 3000;
  const skc::PointSet points = skc::gaussian_mixture(cfg, rng);
  cfg.n = 2000;
  const skc::PointSet extra = skc::gaussian_mixture(cfg, rng);
  const skc::Stream stream = skc::churn_stream(points, extra, {}, rng);

  for (std::size_t window : {1u, 7u, 512u, 100000u}) {
    std::map<std::vector<Coord>, std::int64_t> live;
    std::size_t events = 0;
    for (const Frame& f : pack_windows(stream, window)) {
      ASSERT_FALSE(f.coords.empty());
      ASSERT_LE(static_cast<std::size_t>(f.events(2)), window);
      for (std::size_t i = 0; i < f.coords.size(); i += 2) {
        std::int64_t& n = live[{f.coords[i], f.coords[i + 1]}];
        n += f.op == StreamOp::kInsert ? 1 : -1;
        ASSERT_GE(n, 0) << "delete before its insert, window " << window;
        ++events;
      }
    }
    EXPECT_EQ(events, stream.size());
    std::int64_t survivors = 0;
    for (const auto& [p, n] : live) survivors += n;
    EXPECT_EQ(survivors, points.size());
  }
}

TEST(PackWindows, FramesAreSameOpAndNetMatchesStream) {
  skc::Rng rng(3);
  skc::MixtureConfig cfg;
  cfg.dim = 2;
  cfg.n = 500;
  const skc::PointSet points = skc::gaussian_mixture(cfg, rng);
  const skc::PointSet extra = skc::gaussian_mixture(cfg, rng);
  const auto frames = pack_windows(skc::churn_stream(points, extra, {}, rng), 64);
  EXPECT_EQ(net_events(frames, 2), points.size());
  for (const Frame& f : frames) {
    const skc::Stream ev = frame_events(f, 2);
    ASSERT_EQ(static_cast<std::int64_t>(ev.size()), f.events(2));
    for (const auto& e : ev) EXPECT_EQ(e.op, f.op);
  }
}

TEST(PinBatches, EveryTenantStaysOnOneConnectionInOrder) {
  skc::TenantChurnConfig cfg;
  cfg.tenants = 50;
  cfg.batches = 600;
  cfg.batch_points = 4;
  skc::Rng rng(11);
  const auto batches = skc::tenant_churn_stream(cfg, rng);
  const auto pinned = pin_batches(batches, 2);

  std::map<std::string, int> owner;
  std::size_t total = 0;
  for (int c = 0; c < 2; ++c) {
    const auto& mine = pinned[static_cast<std::size_t>(c)];
    total += mine.size();
    EXPECT_FALSE(mine.empty());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(mine[i - 1], mine[i]) << "order lost on connection " << c;
      }
      const std::string& id = batches[mine[i]].tenant;
      const auto [it, fresh] = owner.emplace(id, c);
      EXPECT_EQ(it->second, c) << id << " on two connections";
      EXPECT_EQ(pinned_connection(id, 2), c);
    }
  }
  EXPECT_EQ(total, batches.size());
}

TEST(Percentile, MissingWithFewerThanTenSamplesBeyond) {
  std::vector<double> s;
  for (int i = 1; i <= 19; ++i) s.push_back(i);
  EXPECT_FALSE(percentile(s, 0.5).has_value());
  s.push_back(20);
  ASSERT_TRUE(percentile(s, 0.5).has_value());
  EXPECT_EQ(*percentile(s, 0.5), 10.0);

  std::vector<double> big;
  for (int i = 1; i <= 999; ++i) big.push_back(i);
  EXPECT_FALSE(percentile(big, 0.99).has_value());
  ASSERT_TRUE(percentile(big, 0.90).has_value());
  big.push_back(1000);
  ASSERT_TRUE(percentile(big, 0.99).has_value());
  EXPECT_EQ(*percentile(big, 0.99), 990.0);

  std::vector<double> hundred(99, 1.0);
  EXPECT_FALSE(percentile(hundred, 0.90).has_value());
  hundred.push_back(1.0);
  EXPECT_TRUE(percentile(hundred, 0.90).has_value());
  EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(InterquartileMean, AveragesTheMiddleHalfAndNeedsTwentySamples) {
  std::vector<double> s(19, 1.0);
  EXPECT_FALSE(interquartile_mean(s).has_value());
  s = {};
  for (int i = 1; i <= 20; ++i) s.push_back(i);
  s.back() = 1e9;  // the tail does not move it
  ASSERT_TRUE(interquartile_mean(s).has_value());
  EXPECT_DOUBLE_EQ(*interquartile_mean(s), 10.5);  // mean of 6..15
}

TEST(OpTally, CountsBusyQuotaAndErrorReplies) {
  OpTally t;
  t.record(true, skc::net::Status::kOk);
  t.record(false, skc::net::Status::kBusy);
  t.record(false, skc::net::Status::kQuotaExceeded);
  t.record(false, skc::net::Status::kEngineError);
  t.record(false, skc::net::Status::kOk);  // transport failure: no reply status
  t.record_wrong();
  EXPECT_EQ(t.attempted, 5);
  EXPECT_EQ(t.failed, 5);
  EXPECT_EQ(t.busy, 1);
  EXPECT_EQ(t.quota, 1);
  EXPECT_EQ(t.errors, 2);
  EXPECT_EQ(t.wrong, 1);
}

TEST(OpTally, CountsARealQuotaRefusalFromATenantServer) {
  skc::tenant::TenantRegistryOptions topts;
  topts.dim = 2;
  topts.params = skc::CoresetParams::practical(2, skc::LrOrder{2.0}, 0.3, 0.3);
  topts.engine.num_shards = 1;
  topts.engine.streaming.log_delta = 8;
  topts.pool_threads = 0;
  topts.quotas.max_events_per_second = 1.0;
  topts.quotas.burst_events = 1.0;
  skc::tenant::TenantRegistry registry(topts);
  skc::tenant::TenantServer server(registry, skc::net::ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  skc::net::ClientOptions copts;
  copts.max_retries = 0;
  skc::net::SkcClient client(copts);
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  client.set_tenant("t1");
  const std::vector<Coord> batch = {5, 5, 6, 6, 7, 7, 8, 8};
  OpTally t;
  std::string replies;
  for (int i = 0; i < 3; ++i) {
    t.record(client.insert_batch(2, batch), client.last_status());
    replies += " [" + client.last_error() + "]";
  }
  EXPECT_EQ(t.attempted, 3);
  EXPECT_GE(t.quota, 1) << replies;
  EXPECT_EQ(t.failed, t.quota + t.busy + t.errors) << replies;
  server.stop();
}

TEST(ResultJson, KeepsFullPrecision) {
  const std::string json =
      result_json(true, 3, 0, {{"latency_ms", 1.2345678901234, "ms"}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.2345678901234, \"unit\": \"ms\"}}}");
}

TEST(SpanTotals, SumsDurationsPerName) {
  const std::string dump =
      "{\"otherData\":{},\"traceEvents\":["
      "{\"name\":\"drain\",\"cat\":\"skc\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":5,\"dur\":10},"
      "{\"name\":\"solve\",\"cat\":\"skc\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":9,\"dur\":7},"
      "{\"name\":\"drain\",\"cat\":\"skc\",\"ph\":\"X\",\"pid\":0,\"tid\":2,\"ts\":6,\"dur\":30}]}";
  const auto totals = span_totals(dump);
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].first, "drain");
  EXPECT_EQ(totals[0].second.first, 2);
  EXPECT_EQ(totals[0].second.second, 40);
  EXPECT_EQ(totals[1].first, "solve");
  EXPECT_EQ(totals[1].second.second, 7);
}

}  // namespace
}  // namespace perfbench
