// Latency histogram (src/skc/obs/histogram.h): bucket geometry, exact
// linear merging, percentile sanity, and the wait-free recording contract
// under concurrency (this suite runs under both ASan and TSan in CI).
#include "skc/obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace skc::obs {
namespace {

TEST(Histogram, BucketBoundariesPartitionTheRange) {
  // Unit buckets: 0..15 map to themselves, width 1.
  for (std::int64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(histogram_bucket_of(v), static_cast<int>(v));
    EXPECT_EQ(histogram_bucket_lower(static_cast<int>(v)), v);
    EXPECT_EQ(histogram_bucket_upper(static_cast<int>(v)), v + 1);
  }
  // Every bucket's bounds bracket every value mapped into it, buckets tile
  // the line with no gaps, and widths give <= 1/16 relative error.
  for (int b = 0; b < kHistogramBuckets - 1; ++b) {
    const std::int64_t lo = histogram_bucket_lower(b);
    const std::int64_t hi = histogram_bucket_upper(b);
    ASSERT_LT(lo, hi) << "bucket " << b;
    EXPECT_EQ(histogram_bucket_lower(b + 1), hi) << "gap after bucket " << b;
    EXPECT_EQ(histogram_bucket_of(lo), b);
    EXPECT_EQ(histogram_bucket_of(hi - 1), b);
    if (lo >= 16) {
      EXPECT_LE(hi - lo, lo / 16) << "bucket " << b << " too wide";
    }
  }
  // Spot values across magnitudes round-trip through their bucket.
  for (std::int64_t v : {std::int64_t{16}, std::int64_t{17}, std::int64_t{31},
                         std::int64_t{32}, std::int64_t{1000},
                         std::int64_t{123456789}, std::int64_t{1} << 40}) {
    const int b = histogram_bucket_of(v);
    EXPECT_LE(histogram_bucket_lower(b), v);
    EXPECT_GT(histogram_bucket_upper(b), v);
  }
  // Negative durations clamp into bucket 0.
  EXPECT_EQ(histogram_bucket_of(-5), 0);
}

TEST(Histogram, RecordTracksCountSumMinMaxLast) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  for (std::int64_t v : {7, 100, 3, 2500}) h.record_micros(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4);
  EXPECT_EQ(s.sum_micros, 7 + 100 + 3 + 2500);
  EXPECT_EQ(s.min_micros, 3);
  EXPECT_EQ(s.max_micros, 2500);
  EXPECT_EQ(s.last_micros, 2500);
  EXPECT_DOUBLE_EQ(s.mean_micros(), (7 + 100 + 3 + 2500) / 4.0);

  h.reset();
  EXPECT_EQ(h.snapshot().count, 0);
  EXPECT_EQ(h.snapshot().max_micros, 0);
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  LatencyHistogram a, b, c;
  for (int i = 1; i <= 100; ++i) a.record_micros(i);
  for (int i = 1000; i <= 1100; ++i) b.record_micros(i);
  c.record_micros(1 << 20);

  const HistogramSnapshot sa = a.snapshot(), sb = b.snapshot(),
                          sc = c.snapshot();
  // (a + b) + c
  HistogramSnapshot left = sa;
  left.merge(sb);
  left.merge(sc);
  // a + (b + c)
  HistogramSnapshot right_inner = sb;
  right_inner.merge(sc);
  HistogramSnapshot right = sa;
  right.merge(right_inner);
  // c + b + a (reordered)
  HistogramSnapshot rev = sc;
  rev.merge(sb);
  rev.merge(sa);

  for (const HistogramSnapshot* s : {&right, &rev}) {
    EXPECT_EQ(left.buckets, s->buckets);
    EXPECT_EQ(left.count, s->count);
    EXPECT_EQ(left.sum_micros, s->sum_micros);
    EXPECT_EQ(left.min_micros, s->min_micros);
    EXPECT_EQ(left.max_micros, s->max_micros);
  }
  EXPECT_EQ(left.count, 202);
  EXPECT_EQ(left.min_micros, 1);
  EXPECT_EQ(left.max_micros, 1 << 20);

  // merge_from on the recorder itself agrees with snapshot-level merging.
  LatencyHistogram folded;
  folded.merge_from(a);
  folded.merge_from(b);
  folded.merge_from(c);
  EXPECT_EQ(folded.snapshot().buckets, left.buckets);
  EXPECT_EQ(folded.snapshot().sum_micros, left.sum_micros);
}

TEST(Histogram, MergeWithEmptyIsIdentity) {
  LatencyHistogram a;
  for (int i : {5, 50, 500}) a.record_micros(i);
  HistogramSnapshot s = a.snapshot();
  const HistogramSnapshot empty = LatencyHistogram{}.snapshot();
  HistogramSnapshot merged = s;
  merged.merge(empty);
  EXPECT_EQ(merged.buckets, s.buckets);
  EXPECT_EQ(merged.min_micros, s.min_micros);
  EXPECT_EQ(merged.max_micros, s.max_micros);
  HistogramSnapshot other = empty;
  other.merge(s);
  EXPECT_EQ(other.count, s.count);
  EXPECT_EQ(other.min_micros, s.min_micros);
}

TEST(Histogram, PercentilesAreMonotoneAndBounded) {
  LatencyHistogram h;
  for (int i = 1; i <= 10000; ++i) h.record_micros(i);
  const HistogramSnapshot s = h.snapshot();
  double prev = 0.0;
  for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    const double v = s.percentile_micros(q);
    EXPECT_GE(v, prev) << "q=" << q;
    EXPECT_GE(v, static_cast<double>(s.min_micros));
    EXPECT_LE(v, static_cast<double>(s.max_micros));
    prev = v;
  }
  // A uniform 1..10000 distribution: the quantiles should sit within the
  // 6.25% bucket quantization of their exact positions.
  EXPECT_NEAR(s.percentile_micros(0.5), 5000.0, 5000.0 * 0.07);
  EXPECT_NEAR(s.percentile_micros(0.99), 9900.0, 9900.0 * 0.07);
  EXPECT_NEAR(s.p999_millis(), 9.990, 9.990 * 0.07);
}

TEST(Histogram, PercentileOfSingleValueIsThatValue) {
  LatencyHistogram h;
  h.record_micros(777);
  const HistogramSnapshot s = h.snapshot();
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(s.percentile_micros(q), 777.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(LatencyHistogram{}.snapshot().percentile_micros(0.5), 0.0);
}

// A snapshot from a peer's WORKER_STATS reply holds whatever the wire
// carried.  Min above max used to reach std::clamp with lo > hi (undefined;
// an assertion failure under _GLIBCXX_ASSERTIONS), and a bucket near
// INT64_MAX overflowed the running sum; both now give a defined percentile.
TEST(Histogram, PercentileIsDefinedForAnySnapshot) {
  HistogramSnapshot s;
  s.count = 4;
  s.min_micros = 900;
  s.max_micros = 100;  // min above max
  const int b = histogram_bucket_of(500);
  s.buckets[static_cast<std::size_t>(b)] = 4;
  const double p50 = s.percentile_micros(0.5);
  EXPECT_GE(p50, static_cast<double>(histogram_bucket_lower(b)));
  EXPECT_LE(p50, static_cast<double>(histogram_bucket_upper(b)));

  s.min_micros = 0;
  s.max_micros = 1000;
  s.buckets[static_cast<std::size_t>(histogram_bucket_of(10))] = 1;
  s.buckets[static_cast<std::size_t>(b)] = INT64_MAX;
  s.count = INT64_MAX;
  EXPECT_GE(s.percentile_micros(0.99), static_cast<double>(histogram_bucket_lower(b)));
}

TEST(Histogram, UnitConversionsLandInTheRightBuckets) {
  LatencyHistogram h;
  h.record_millis(1.5);    // 1500 us
  h.record_seconds(0.002); // 2000 us
  h.record_millis(-3.0);   // clamps to 0
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3);
  EXPECT_EQ(s.min_micros, 0);
  EXPECT_EQ(s.max_micros, 2000);
  EXPECT_EQ(s.buckets[static_cast<std::size_t>(histogram_bucket_of(1500))], 1);
}

TEST(Histogram, ConcurrentRecordersLoseNothing) {
  // The wait-free contract: N threads hammering one histogram must account
  // for every recording exactly (count, sum, and bucket mass all conserve).
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record_micros(1 + ((t * kPerThread + i) % 5000));
      }
    });
  }
  // Concurrent snapshots must be race-free (values advisory, reads clean).
  std::thread reader([&h] {
    for (int i = 0; i < 50; ++i) {
      const HistogramSnapshot s = h.snapshot();
      EXPECT_GE(s.count, 0);
      EXPECT_GE(s.sum_micros, 0);
    }
  });
  for (auto& t : threads) t.join();
  reader.join();

  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::int64_t>(kThreads) * kPerThread);
  std::int64_t bucket_mass = 0;
  for (std::int64_t b : s.buckets) bucket_mass += b;
  EXPECT_EQ(bucket_mass, s.count);
  EXPECT_EQ(s.min_micros, 1);
  EXPECT_EQ(s.max_micros, 5000);
}

TEST(Histogram, RecorderTimesItsScope) {
  LatencyHistogram h;
  {
    LatencyRecorder probe(h);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_GE(probe.elapsed_micros(), 0);
  }
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.count, 1);
  EXPECT_GE(s.max_micros, 1000);  // slept >= 2 ms; allow heavy scheduling slop
}

}  // namespace
}  // namespace skc::obs
