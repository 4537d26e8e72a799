// perfbench harness — the pieces every workload shares: wire-frame packing,
// tenant-to-connection pinning, percentiles that refuse to guess, failure
// accounting, and the spawned `skc_cli serve` process under test.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "skc/common/types.h"
#include "skc/net/frame.h"
#include "skc/stream/events.h"
#include "skc/stream/generators.h"

namespace perfbench {

/// One same-op INSERT_BATCH / DELETE_BATCH frame: row-major coordinates.
struct Frame {
  skc::StreamOp op = skc::StreamOp::kInsert;
  std::vector<skc::Coord> coords;

  std::int64_t events(int dim) const {
    return static_cast<std::int64_t>(coords.size()) / dim;
  }
  /// +events for an insert frame, -events for a delete frame.
  std::int64_t net(int dim) const {
    return op == skc::StreamOp::kInsert ? events(dim) : -events(dim);
  }
};

/// Packs a stream into same-op frames of `frame_events` events by windowing:
/// inserts and deletes collect in two buffers; a full insert buffer goes out
/// as a frame, and a full delete buffer closes the window, sending the
/// window's remaining inserts first.  Every insert that precedes a delete in
/// the stream is therefore sent before it (moving inserts earlier only raises
/// the prefix counts of the point multiset), so a delete never precedes its
/// insert, and all frames but the last of each window are full.
std::vector<Frame> pack_windows(const skc::Stream& stream, std::size_t frame_events);

/// Sum of Frame::net over `frames`: the survivor count they leave behind.
std::int64_t net_events(const std::vector<Frame>& frames, int dim);

/// Expands a frame back into stream events (the in-process layer run feeds
/// the same frames through the engine and builder APIs).
skc::Stream frame_events(const Frame& frame, int dim);

/// Connection a tenant is pinned to: a stable hash of its id.
int pinned_connection(const std::string& tenant, int connections);

/// Splits tenant batches over `connections`, keeping every tenant on one
/// connection and each connection's batches in generation order.  Returns
/// batch indices per connection.
std::vector<std::vector<std::size_t>> pin_batches(
    const std::vector<skc::TenantBatch>& batches, int connections);

/// Nearest-rank percentile q in (0, 1).  Missing (nullopt) unless at least
/// ten samples lie beyond the rank, so a tail is never guessed from a
/// handful of points: p50 needs 20 samples, p90 100, p99 1000.
std::optional<double> percentile(std::vector<double> samples, double q);

/// Plain median of a non-empty sample (set-up repetitions).
double median(std::vector<double> samples);
/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& samples);

/// Interquartile mean: the mean of the samples between the 25th and 75th
/// percentiles (the middle half).  Missing below 20 samples, like a p50.
/// Unlike the median it moves smoothly when a distribution is bimodal and
/// the modes' shares shift; unlike the mean it ignores the tail.
std::optional<double> interquartile_mean(std::vector<double> samples);

/// Attempts and failures of wire operations.  A failed call, a BUSY or
/// QUOTA refusal, an error status, and a reply that fails its correctness
/// check all count as failed.
struct OpTally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t busy = 0;
  std::int64_t quota = 0;
  std::int64_t errors = 0;  ///< transport failures and other error statuses
  std::int64_t wrong = 0;   ///< replies that failed a correctness check

  /// One wire call: `ok` is the client's return value, `status` its
  /// last_status() afterwards.
  void record(bool ok, skc::net::Status status);
  /// A call that returned but whose answer was wrong.
  void record_wrong();
  void merge(const OpTally& other);
};

/// A spawned `skc_cli serve ... --tcp 0` child.  stdout and stderr go to a
/// log file; the port is read from its "listening on 127.0.0.1:<port>" line.
class ServerProcess {
 public:
  ServerProcess() = default;
  /// Kills and reaps a child that is still running.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, std::string& error);
  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Peak resident set (VmHWM) of the child so far, in MB; -1 if unreadable.
  double peak_rss_mb() const;
  /// Sends SHUTDOWN, waits for a clean exit, and falls back to SIGKILL.
  /// True when the child exited with status 0 on its own.
  bool stop();

 private:
  void kill_and_reap();

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// Renders the final result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}} with full-precision values.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed, const std::vector<Metric>& metrics);

/// Totals per span name over a chrome://tracing dump: name -> (count, sum of
/// durations in microseconds).
std::vector<std::pair<std::string, std::pair<std::int64_t, std::int64_t>>>
span_totals(const std::string& chrome_json);

}  // namespace perfbench
