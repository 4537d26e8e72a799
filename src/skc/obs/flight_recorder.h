// Slow-query flight recorder — always-armed capture of outlier queries.
//
// Tracing answers "what is the system doing right now", but the query that
// blew its latency budget at 3am happened before anyone could turn tracing
// on.  The flight recorder closes that gap: QueryCapture arms a per-thread
// span sink for the duration of one query, so every SKC_TRACE_SPAN on the
// query thread records into a private buffer even with global tracing OFF
// (the disabled-span fast path grows by exactly one thread-local load).
// When the query finishes under the latency threshold the buffer is thrown
// away; when it exceeds the threshold the full span tree — trace id, span
// parentage, per-RPC wire bytes — plus the query's shard/tenant metadata
// is pushed into a bounded process-wide ring for post-hoc diagnosis.
//
// The ring holds the most recent kFlightRecorderCapacity slow queries and
// is dumped as JSON via the FLIGHT_RECORDER RPC (`skc_cli flight`, or the
// command loop's `flight`) — no restart, no pre-enabled tracing.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "skc/obs/trace.h"

namespace skc::obs {

/// Slow queries kept; older records are overwritten.
inline constexpr std::size_t kFlightRecorderCapacity = 64;
/// Queries at or above this wall time are captured by default.
inline constexpr double kDefaultSlowQueryMillis = 250.0;

/// One captured slow query: identity, metadata, and its span tree.
struct FlightRecord {
  std::int64_t seq = 0;          ///< monotone capture number (never reused)
  const char* op = "";           ///< string literal: "query", "cluster_query"…
  std::string detail;            ///< free-form metadata ("tenant=a shards=4")
  std::int64_t start_micros = 0;  ///< tracer-epoch start of the query
  std::int64_t dur_micros = 0;
  std::uint64_t trace_id = 0;
  std::vector<TraceEvent> spans;  ///< names are literals; safe to retain
  bool truncated = false;         ///< span buffer hit kFlightCaptureMaxSpans
};

class FlightRecorder {
 public:
  static FlightRecorder& instance();

  /// Capture threshold; queries meeting it are recorded.  Settable at
  /// runtime (REPL/CLI); values <= 0 capture every query.
  void set_threshold_millis(double millis);
  double threshold_millis() const;

  /// Pushes one record, evicting the oldest past capacity.
  void add(FlightRecord record);

  /// Snapshot of the ring, oldest first.
  std::vector<FlightRecord> records() const;
  /// Slow queries captured since process start (including evicted ones).
  std::int64_t total_captured() const;
  void clear();

  /// {"thresholdMillis":…,"captured":N,"records":[…]} with each record's
  /// spans in chrome://tracing-style objects.
  std::string dump_json() const;

 private:
  FlightRecorder() = default;

  mutable std::mutex mu_;
  std::deque<FlightRecord> ring_;          // guarded by mu_
  std::int64_t total_captured_ = 0;        // guarded by mu_
  std::atomic<std::int64_t> threshold_micros_{
      static_cast<std::int64_t>(kDefaultSlowQueryMillis * 1000.0)};
};

/// RAII capture of one query on the current thread.  Arms the thread-local
/// span sink (trace.h) and installs a trace context when none is live, so
/// the captured spans share one trace_id even with tracing off.  On
/// destruction the capture is kept iff the query ran at least the
/// recorder's threshold.
class QueryCapture {
 public:
  /// `op` must be a string literal; `detail` is copied.
  QueryCapture(const char* op, std::string detail);
  ~QueryCapture();

  /// Appends to the query's metadata after construction (e.g. a result
  /// status known only at the end).
  void annotate(const std::string& more) { detail_ += more; }

  QueryCapture(const QueryCapture&) = delete;
  QueryCapture& operator=(const QueryCapture&) = delete;

 private:
  const char* op_;
  std::string detail_;
  std::int64_t start_micros_;
  TraceContext ctx_;
  TraceContext saved_ctx_;
  std::uint64_t parent_span_ = 0;  ///< enclosing span at capture start
  std::vector<TraceEvent> spans_;
  std::vector<TraceEvent>* saved_sink_;
};

}  // namespace skc::obs
