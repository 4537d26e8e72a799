// perfbench — workloads, inputs and the layer run behind `perfbench`.
//
// Every end-to-end figure comes from a real `skc_cli serve ... --tcp 0`
// child driven through net::SkcClient; the benchmark process only generates
// inputs (from --seed) and checks answers.  The per-layer figures come from
// a separate in-process replay of the same inputs (layers.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "skc/common/types.h"
#include "skc/stream/generators.h"

namespace perfbench {

// The server configuration every workload uses (skc_cli serve <dim> <k>
// <shards> <log_delta>); the layer run builds its engines and builders from
// the same values.
inline constexpr int kDim = 2;
inline constexpr int kK = 4;
inline constexpr int kLogDelta = 12;
inline constexpr int kShards = 2;         // ingest, query_under_ingest
inline constexpr int kTenantShards = 1;   // tenant_churn
inline constexpr int kMaxResident = 16;   // tenant_churn

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;      ///< path of the skc_cli binary under test
  std::string out_dir;  ///< scratch directory for logs, spills and traces
};

/// Main churn input of `ingest` and `query_under_ingest`: a churn_stream of
/// a skewed planted mixture packed into ~512-event frames, plus a tail that
/// inserts and deletes extra points and nets to zero, replayed cyclically
/// once the initial frames run out.
struct IngestInputs {
  std::vector<Frame> initial;
  std::vector<Frame> tail;
  std::int64_t survivors = 0;  ///< net_events(initial)
  std::int64_t events = 0;     ///< events in `initial`
};
IngestInputs make_ingest_inputs(std::uint64_t seed);

/// Zipf(1.1) multi-tenant churn over 200 tenants in 256-point batches with
/// 10% deletes (`tenant_churn`): the batches a run of `seconds` offers.
/// Tenant ids are "t" + zero-padded Zipf rank, as tenant_churn_stream names
/// them.
std::vector<skc::TenantBatch> make_tenant_inputs(std::uint64_t seed, double seconds);

/// Server flags of each workload (argv after the binary).
std::vector<std::string> server_args(const std::string& workload,
                                     const std::string& spill_dir, bool trace);

/// What one wire run measured.
struct WireRun {
  bool valid = true;                ///< every correctness gate held
  OpTally tally;
  std::vector<double> setup_s;      ///< one entry per set-up repetition
  std::vector<double> batch_ms;     ///< batch round trips (frame, or tenant
                                    ///< batch of an insert + a delete frame)
  std::vector<double> query_ms;     ///< timed query round trips
  std::int64_t window_events = 0;   ///< events sent in the timed windows
  double window_seconds = 0.0;      ///< and the time they took
  std::vector<double> peak_rss_mb;  ///< one per server that ran a window
  double coreset_cost_error = 0.0;  ///< quality probe (untraced runs)
  double solution_cost_ratio = 0.0;
  std::string server_trace;         ///< TRACE_DUMP (traced runs)
};

/// Runs one workload over the wire.  `setups` set-ups are timed; the window
/// runs on the last of them (ingest and query_under_ingest: split over the
/// last few, each its own server).  A traced run starts the server with
/// --trace, pulls its TRACE_DUMP and skips the quality probe.
WireRun run_wire(const Options& options, int setups);

/// The in-process layer run: replays the workload inputs through each
/// module's public functions with one bench-side span per call, writes the
/// spans as chrome://tracing JSON into out_dir, and appends the per-layer
/// figures (BENCHMARK.json order).  False when a layer gave a wrong answer.
bool run_layers(const Options& options, std::vector<Metric>& metrics);

}  // namespace perfbench
