#include "skc/obs/histogram.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>

namespace skc::obs {

namespace {

/// Relaxed CAS fold for min/max: the window between load and exchange is
/// harmless because a losing CAS re-reads the fresher competitor.
template <typename Cmp>
void fold_extreme(std::atomic<std::int64_t>& slot, std::int64_t value, Cmp cmp) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (cmp(value, cur) &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

std::int64_t now_nanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

HistogramSnapshot::HistogramSnapshot()
    : buckets(static_cast<std::size_t>(kHistogramBuckets), 0) {}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  for (std::size_t b = 0; b < buckets.size(); ++b) buckets[b] += other.buckets[b];
  if (other.count > 0) {
    min_micros = count > 0 ? std::min(min_micros, other.min_micros)
                           : other.min_micros;
    max_micros = std::max(max_micros, other.max_micros);
    if (count == 0) last_micros = other.last_micros;
  }
  count += other.count;
  sum_micros += other.sum_micros;
}

double HistogramSnapshot::percentile_micros(double q) const {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile observation, 1-based; ceil so p100 = the last.
  const auto target = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(q * static_cast<double>(count))));
  // cumulative < target <= count throughout, so neither the comparison nor
  // the running sum can overflow, whatever a bucket holds.
  std::int64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const std::int64_t here = buckets[b];
    if (here <= 0) continue;
    if (here >= target - cumulative) {
      const auto lower =
          static_cast<double>(histogram_bucket_lower(static_cast<int>(b)));
      const auto upper =
          static_cast<double>(histogram_bucket_upper(static_cast<int>(b)));
      const double frac = (static_cast<double>(target - cumulative) - 0.5) /
                          static_cast<double>(here);
      const double value = lower + frac * (upper - lower);
      // min and max are advisory (relaxed loads, or a peer's reply): clamp
      // only to a range that is one.
      if (min_micros > max_micros) return value;
      return std::clamp(value, static_cast<double>(min_micros),
                        static_cast<double>(max_micros));
    }
    cumulative += here;
  }
  return static_cast<double>(max_micros);
}

void LatencyHistogram::record_micros(std::int64_t micros) {
  if (micros < 0) micros = 0;
  const int bucket = histogram_bucket_of(micros);
  buckets_[static_cast<std::size_t>(bucket)].fetch_add(
      1, std::memory_order_relaxed);
  sum_.fetch_add(micros, std::memory_order_relaxed);
  last_.store(micros, std::memory_order_relaxed);
  // First recorder seeds min/max; count_ goes last so a reader observing
  // count > 0 also observes a seeded min (advisory either way).
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    min_.store(micros, std::memory_order_relaxed);
    max_.store(micros, std::memory_order_relaxed);
  } else {
    fold_extreme(min_, micros, std::less<>{});
    fold_extreme(max_, micros, std::greater<>{});
  }
}

void LatencyHistogram::merge_from(const LatencyHistogram& other) {
  const HistogramSnapshot snap = other.snapshot();
  for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
    if (snap.buckets[b] != 0) {
      buckets_[b].fetch_add(snap.buckets[b], std::memory_order_relaxed);
    }
  }
  if (snap.count > 0) {
    sum_.fetch_add(snap.sum_micros, std::memory_order_relaxed);
    if (count_.fetch_add(snap.count, std::memory_order_relaxed) == 0) {
      min_.store(snap.min_micros, std::memory_order_relaxed);
      max_.store(snap.max_micros, std::memory_order_relaxed);
      last_.store(snap.last_micros, std::memory_order_relaxed);
    } else {
      fold_extreme(min_, snap.min_micros, std::less<>{});
      fold_extreme(max_, snap.max_micros, std::greater<>{});
    }
  }
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  last_.store(0, std::memory_order_relaxed);
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot snap;
  for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
    snap.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_micros = sum_.load(std::memory_order_relaxed);
  snap.min_micros = min_.load(std::memory_order_relaxed);
  snap.max_micros = max_.load(std::memory_order_relaxed);
  snap.last_micros = last_.load(std::memory_order_relaxed);
  return snap;
}

LatencyRecorder::LatencyRecorder(LatencyHistogram& hist)
    : hist_(&hist), start_nanos_(now_nanos()) {}

std::int64_t LatencyRecorder::elapsed_micros() const {
  return (now_nanos() - start_nanos_) / 1000;
}

LatencyRecorder::~LatencyRecorder() { hist_->record_micros(elapsed_micros()); }

}  // namespace skc::obs
