// The three wire workloads and the quality probe.
//
//   ingest              one connection, closed loop, ~512-event frames, a
//                       fixed event count; ends with barrier summary queries.
//                       Nothing is solved.
//   query_under_ingest  full barrier queries back to back on one connection
//                       while a second sends open-loop background churn at a
//                       fixed rate.
//   tenant_churn        a fixed batch count of Zipf multi-tenant churn on two
//                       connections (tenants pinned), a barrier summary query
//                       every 10 batches.
//
// ingest and query_under_ingest run their window in kRounds rounds, a fresh
// server each.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "skc/common/random.h"
#include "skc/net/client.h"
#include "skc/solve/cost.h"

namespace perfbench {

using skc::Coord;
using skc::Rng;
using skc::StreamOp;
using Clock = std::chrono::steady_clock;

namespace {

// Input sizes.  The churn stream leaves kSurvivors points (far under the
// CLI's 2^20 max_points); the tail cycles kTailExtra points in and out.
constexpr skc::PointIndex kSurvivors = 20'000;
constexpr skc::PointIndex kExtra = 8'000;
constexpr skc::PointIndex kTailExtra = 4'096;
constexpr std::size_t kFrameEvents = 512;
constexpr std::uint64_t kSurvivorSeed = 0x7375727669766fULL;

// ingest offers a fixed amount of work, --seconds x kIngestEventsPerSecond
// events (about --seconds of closed-loop traffic on a 4-thread host): the
// server's state and heap after the churn, which the closing queries walk,
// must not depend on how fast the server happened to ingest.
constexpr double kIngestEventsPerSecond = 40'000.0;

// ingest and query_under_ingest split their window over kRounds servers,
// each set up afresh.  Query time moved by 10-20% from one server process
// to the next on the same seed, with the sketch size equal within 1%, so
// one server per run made that process's offset the run's figure.
constexpr int kRounds = 4;

// query_under_ingest background: a fixed offered load (about a tenth of the
// closed-loop ingest rate on a 4-thread host) in small frames, so a window
// holds several thousand frames and its p99 is well sampled.
constexpr double kBackgroundEventsPerSec = 5'000.0;
constexpr std::size_t kBackgroundFrameEvents = 64;
// The run is invalid when the open-loop generator ends more than this share
// of its scheduled frames behind.
constexpr double kMaxBehindShare = 0.10;

// tenant_churn offers a fixed amount of work, --seconds x kBatchesPerSecond
// batches (about --seconds of traffic on a 4-thread host), rather than
// running for a fixed time: how many tenants cross an HLL promotion
// threshold, and so the resident footprint, must not depend on how fast the
// server happened to ingest.
constexpr int kTenants = 200;
constexpr double kBatchesPerSecond = 40.0;
constexpr skc::PointIndex kTenantBatchPoints = 256;
constexpr int kConnections = 2;
constexpr int kQueryEveryBatches = 10;

// Sample floors: a window runs past --seconds until it holds the 1,000
// frames a p99 needs and the 20 queries an interquartile mean needs, but
// never past kMaxWindowFactor x --seconds.  A window split over rounds
// applies its share of each floor and of --seconds to every round.
constexpr std::size_t kMinFrames = 1'000;
constexpr std::size_t kMinQueries = 20;
constexpr double kMaxWindowFactor = 4.0;

/// One round's share of the window.
struct Slice {
  double seconds = 0.0;
  std::size_t min_frames = 0;
  std::size_t min_queries = 0;
};

// The quality probe is one fixed instance (its own seed), so its figures
// compare across runs and commits; --seed varies only the load.
constexpr std::uint64_t kProbeSeed = 0x70726f6265ULL;
constexpr skc::PointIndex kProbeSurvivors = 2'000;
constexpr skc::PointIndex kProbeExtra = 600;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double millis_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

skc::MixtureConfig mixture(skc::PointIndex n, int clusters) {
  skc::MixtureConfig cfg;
  cfg.dim = kDim;
  cfg.log_delta = kLogDelta;
  cfg.clusters = clusters;
  cfg.n = n;
  cfg.spread = 0.015;
  cfg.skew = 1.2;
  return cfg;
}

/// The load's fixed shape: six planted centers drawn once from their own
/// seed, cluster masses proportional to (i+1)^-1.2; `rng` draws the points.
skc::PointSet sample_shape(skc::PointIndex n, Rng& rng) {
  constexpr int kClusters = 6;
  static const skc::PointSet centers = [] {
    Rng shape(0x7368617065ULL);
    return skc::planted_gaussian_mixture(mixture(kClusters, kClusters), shape).centers;
  }();
  std::vector<double> cdf;
  double total = 0.0;
  for (int c = 0; c < kClusters; ++c) {
    total += std::pow(c + 1.0, -1.2);
    cdf.push_back(total);
  }
  const Coord delta = Coord{1} << kLogDelta;
  const double sigma = 0.015 * static_cast<double>(delta);
  skc::PointSet out(kDim);
  out.reserve(n);
  Coord p[kDim];
  for (skc::PointIndex i = 0; i < n; ++i) {
    const double u = rng.uniform(0.0, total);
    const auto c = static_cast<skc::PointIndex>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    for (int j = 0; j < kDim; ++j) {
      const double v = centers[c][static_cast<std::size_t>(j)] + sigma * rng.gaussian();
      p[j] = std::clamp<Coord>(static_cast<Coord>(std::llround(v)), 1, delta);
    }
    out.push_back(std::span<const Coord>(p, kDim));
  }
  return out;
}

skc::net::ClientOptions client_options() {
  skc::net::ClientOptions o;
  o.max_retries = 0;  // a BUSY refusal is a failure here, never retried away
  return o;
}

skc::net::QueryRequest query_request(bool summary_only) {
  skc::net::QueryRequest q;
  q.k = kK;
  q.barrier = true;
  q.summary_only = summary_only;
  return q;
}

/// Sends one frame; records its round trip and outcome.  True when the
/// server accepted every event of the frame.
bool send_frame(skc::net::SkcClient& client, const Frame& frame, OpTally& tally) {
  skc::net::BatchReply ack;
  const bool ok = frame.op == StreamOp::kInsert
                      ? client.insert_batch(kDim, frame.coords, &ack)
                      : client.delete_batch(kDim, frame.coords, &ack);
  tally.record(ok, client.last_status());
  if (!ok) return false;
  if (static_cast<std::int64_t>(ack.accepted) != frame.events(kDim)) {
    tally.record_wrong();
    return false;
  }
  return true;
}

/// One barrier query; checks ok (and feasible for a full query) and, when
/// given, the surviving point count.  Returns the round trip in ms, or a
/// negative value when the query failed any check.
double timed_query(skc::net::SkcClient& client, bool summary_only,
                   std::int64_t expect_lo, std::int64_t expect_hi,
                   OpTally& tally, skc::net::QueryReply* out = nullptr) {
  skc::net::QueryReply reply;
  const auto t0 = Clock::now();
  const bool ok = client.query(query_request(summary_only), reply);
  const double ms = millis_since(t0);
  tally.record(ok, client.last_status());
  if (!ok) return -1.0;
  if (!reply.ok || (!summary_only && !reply.feasible) ||
      reply.net_points < expect_lo || reply.net_points > expect_hi) {
    std::fprintf(stderr,
                 "perfbench: wrong query answer: ok=%d feasible=%d "
                 "net_points=%lld expected [%lld, %lld] %s\n",
                 reply.ok, reply.feasible, static_cast<long long>(reply.net_points),
                 static_cast<long long>(expect_lo), static_cast<long long>(expect_hi),
                 reply.error.c_str());
    tally.record_wrong();
    return -1.0;
  }
  if (out != nullptr) *out = std::move(reply);
  return ms;
}

bool window_open(const Options& o, const Slice& slice, Clock::time_point t0,
                 bool floors_met) {
  const double elapsed = seconds_since(t0);
  const double seconds = slice.seconds;
  if (o.trace) return elapsed < seconds;  // a traced run reports no percentiles
  if (elapsed >= kMaxWindowFactor * seconds) return false;
  return elapsed < seconds || !floors_met;
}

/// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(int n, double s) : cdf_(static_cast<std::size_t>(n)) {
    double total = 0.0;
    for (int r = 0; r < n; ++r) {
      total += std::pow(r + 1.0, -s);
      cdf_[static_cast<std::size_t>(r)] = total;
    }
  }
  int draw(Rng& rng) const {
    const double u = rng.uniform(0.0, cdf_.back());
    return static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                            cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

std::string tenant_id(int rank) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%05d", rank);
  return buf;
}

/// A server for one workload plus the time its set-up took.
struct Setup {
  ServerProcess server;
  IngestInputs ingest;
  std::vector<skc::TenantBatch> tenants;
  std::string spill_dir;
  double seconds = 0.0;
};

/// Spawns the server, generates the inputs and, for query_under_ingest,
/// ingests the churn stream and confirms it with a barrier query.
bool set_up(const Options& o, int index, Setup& s, OpTally& tally) {
  const auto t0 = Clock::now();
  s.spill_dir = o.out_dir + "/spill-" + std::to_string(index);
  std::filesystem::remove_all(s.spill_dir);
  std::filesystem::create_directories(s.spill_dir);
  std::string error;
  if (!s.server.start(o.cli, server_args(o.workload, s.spill_dir, o.trace),
                      o.out_dir + "/server-" + std::to_string(index) + ".log",
                      error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return false;
  }
  if (o.workload == "tenant_churn") {
    s.tenants = make_tenant_inputs(o.seed, o.seconds);
  } else {
    s.ingest = make_ingest_inputs(o.seed);
  }
  if (o.workload == "query_under_ingest") {
    skc::net::SkcClient client(client_options());
    if (!client.connect("127.0.0.1", s.server.port())) return false;
    for (const Frame& f : s.ingest.initial) {
      if (!send_frame(client, f, tally)) return false;
    }
    if (timed_query(client, true, s.ingest.survivors, s.ingest.survivors, tally) < 0) {
      return false;
    }
  }
  s.seconds = seconds_since(t0);
  return true;
}

void tear_down(Setup& s) {
  s.server.stop();
  std::filesystem::remove_all(s.spill_dir);
}

// ---------------------------------------------------------------------------

void ingest_window(const Slice& slice, Setup& s, WireRun& run) {
  skc::net::SkcClient client(client_options());
  if (!client.connect("127.0.0.1", s.server.port())) {
    run.tally.record(false, client.last_status());
    run.valid = false;
    return;
  }
  const auto target = static_cast<std::int64_t>(slice.seconds * kIngestEventsPerSecond);
  std::int64_t net = 0;
  std::int64_t events = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < s.ingest.initial.size() || events < target; ++i) {
    const bool tail = i >= s.ingest.initial.size();
    const Frame& f = tail ? s.ingest.tail[(i - s.ingest.initial.size()) %
                                          s.ingest.tail.size()]
                          : s.ingest.initial[i];
    const auto ts = Clock::now();
    if (!send_frame(client, f, run.tally)) {
      run.valid = false;
      return;
    }
    run.batch_ms.push_back(millis_since(ts));
    net += f.net(kDim);
    events += f.events(kDim);
  }
  // The closing barrier confirms every event applied; its reply ends the
  // ingest clock.  It waits for the queued backlog to drain, so it is not a
  // query sample: the barrier summary queries after it are.
  const bool closed = timed_query(client, true, net, net, run.tally) >= 0;
  const double seconds = seconds_since(t0);
  std::printf("round: %lld events in %.3f s, %.0f events/s\n",
              static_cast<long long>(events), seconds,
              static_cast<double>(events) / seconds);
  run.window_events += events;
  run.window_seconds += seconds;
  if (!closed) {
    run.valid = false;
    return;
  }
  for (std::size_t q = 0; q < slice.min_queries; ++q) {
    const double ms = timed_query(client, true, net, net, run.tally);
    if (ms < 0) {
      run.valid = false;
      return;
    }
    run.query_ms.push_back(ms);
  }
}

void query_under_ingest_window(const Options& o, const Slice& slice, Setup& s,
                               WireRun& run) {
  const std::int64_t base = s.ingest.survivors;
  // Background churn: insert a 64-point chunk, then delete it again, from a
  // small pool, so the survivor count stays flat.
  Rng rng(o.seed ^ 0x6267ULL);
  const skc::PointSet pool = sample_shape(4096, rng);
  const std::size_t chunks = static_cast<std::size_t>(pool.size()) / kBackgroundFrameEvents;
  const auto interval = std::chrono::duration<double>(
      static_cast<double>(kBackgroundFrameEvents) / kBackgroundEventsPerSec);

  std::atomic<bool> stop{false};
  OpTally bg_tally;
  std::vector<double> bg_ms;
  std::vector<double> late_ms;
  std::int64_t bg_net = 0;
  std::int64_t bg_events = 0;
  std::size_t behind = 0;
  bool bg_ok = true;
  const auto t0 = Clock::now();

  std::thread background([&] {
    skc::net::SkcClient client(client_options());
    if (!client.connect("127.0.0.1", s.server.port())) {
      bg_tally.record(false, client.last_status());
      bg_ok = false;
      return;
    }
    for (std::size_t j = 0;; ++j) {
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                static_cast<double>(j) * interval);
      if (stop.load() && (o.trace || bg_ms.size() >= slice.min_frames)) {
        const auto now = Clock::now();
        behind = now > due ? static_cast<std::size_t>((now - due) / interval) : 0;
        break;
      }
      std::this_thread::sleep_until(due);
      late_ms.push_back(1e3 * std::chrono::duration<double>(Clock::now() - due).count());
      Frame f;
      f.op = j % 2 == 0 ? StreamOp::kInsert : StreamOp::kDelete;
      const std::size_t chunk = (j / 2) % chunks;
      const auto p = pool[static_cast<skc::PointIndex>(chunk * kBackgroundFrameEvents)];
      f.coords.assign(p.data(), p.data() + kBackgroundFrameEvents * kDim);
      if (!send_frame(client, f, bg_tally)) {
        bg_ok = false;
        return;
      }
      // Open loop: the round trip counts from the scheduled send time.
      bg_ms.push_back(1e3 * std::chrono::duration<double>(Clock::now() - due).count());
      bg_net += f.net(kDim);
      bg_events += f.events(kDim);
    }
  });

  skc::net::SkcClient client(client_options());
  if (!client.connect("127.0.0.1", s.server.port())) {
    run.tally.record(false, client.last_status());
    run.valid = false;
  } else {
    // The server's own split of each query, printed per round.
    std::vector<double> merge_ms, solve_ms, points;
    while (window_open(o, slice, t0, merge_ms.size() >= slice.min_queries)) {
      // Shards are snapshotted one after another while the background
      // frames keep landing, so each shard may hold part of a different
      // chunk: the count lies within [base, base + shards x chunk].
      skc::net::QueryReply reply;
      const double ms = timed_query(
          client, false, base,
          base + kShards * static_cast<std::int64_t>(kBackgroundFrameEvents), run.tally,
          &reply);
      if (ms < 0) {
        run.valid = false;
        break;
      }
      run.query_ms.push_back(ms);
      merge_ms.push_back(reply.merge_millis);
      solve_ms.push_back(reply.solve_millis);
      points.push_back(static_cast<double>(reply.summary_points));
    }
    if (!points.empty()) {
      std::printf("round: %zu queries, server merge p50 %.1f ms, solve p50 %.1f ms, "
                  "coreset points p50 %.0f\n",
                  points.size(), median(merge_ms), median(solve_ms), median(points));
    }
  }
  stop.store(true);
  background.join();
  run.tally.merge(bg_tally);
  run.batch_ms.insert(run.batch_ms.end(), bg_ms.begin(), bg_ms.end());
  if (!bg_ok || !run.valid) {
    run.valid = false;
    return;
  }
  const double closing = timed_query(client, true, base + bg_net, base + bg_net, run.tally);
  run.window_events += bg_events;
  run.window_seconds += seconds_since(t0);
  if (closing < 0) run.valid = false;

  const double scheduled = static_cast<double>(bg_ms.size() + behind);
  std::printf("open loop: %zu frames sent at %.0f events/s, generator lateness "
              "p50 %.3f ms, p99 %.3f ms, max %.3f ms; %zu frames behind at the end\n",
              bg_ms.size(), kBackgroundEventsPerSec,
              percentile(late_ms, 0.5).value_or(-1.0),
              percentile(late_ms, 0.99).value_or(-1.0),
              *std::max_element(late_ms.begin(), late_ms.end()), behind);
  if (static_cast<double>(behind) > kMaxBehindShare * scheduled) {
    std::printf("INVALID: the open-loop generator fell %zu frames behind its "
                "schedule; the offered load was not delivered\n",
                behind);
    run.valid = false;
  }
}

void tenant_churn_window(const Options& o, Setup& s, WireRun& run) {
  const auto pinned = pin_batches(s.tenants, kConnections);
  // Per-batch frames: the batch's inserts, then its deletes (a delete only
  // targets a point of the same tenant inserted earlier).  A batch, the unit
  // a tenant's client waits on, is timed as one round trip of both frames.
  std::vector<std::vector<Frame>> frames;
  frames.reserve(s.tenants.size());
  for (const skc::TenantBatch& b : s.tenants) {
    frames.push_back(pack_windows(b.events, b.events.size()));
  }

  struct Conn {
    OpTally tally;
    std::vector<double> batch_ms, query_ms;
    std::map<std::string, std::int64_t> net, events;
    bool ok = true;
    Clock::time_point end;
  };
  std::vector<Conn> conns(kConnections);
  const Zipf zipf(kTenants, 1.1);
  const auto t0 = Clock::now();

  auto drive = [&](int c) {
    Conn& me = conns[static_cast<std::size_t>(c)];
    const auto& mine = pinned[static_cast<std::size_t>(c)];
    Rng rng(o.seed * 1000003ULL + static_cast<std::uint64_t>(c));
    skc::net::SkcClient client(client_options());
    if (!client.connect("127.0.0.1", s.server.port())) {
      me.tally.record(false, client.last_status());
      me.ok = false;
    }
    if (!me.ok || mine.empty()) {
      me.end = Clock::now();
      return;
    }
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const std::size_t b = mine[i];
      const std::string& id = s.tenants[b].tenant;
      client.set_tenant(id);
      const auto ts = Clock::now();
      for (const Frame& f : frames[b]) {
        if (!send_frame(client, f, me.tally)) {
          me.ok = false;
          me.end = Clock::now();
          return;
        }
        me.net[id] += f.net(kDim);
        me.events[id] += f.events(kDim);
      }
      me.batch_ms.push_back(millis_since(ts));
      if ((i + 1) % kQueryEveryBatches == 0) {
        std::string target = tenant_id(zipf.draw(rng));
        if (!me.net.count(target)) target = id;  // not (yet) on this connection
        client.set_tenant(target);
        const std::int64_t want = me.net[target];
        const double ms = timed_query(client, true, want, want, me.tally);
        if (ms < 0) {
          me.ok = false;
          me.end = Clock::now();
          return;
        }
        me.query_ms.push_back(ms);
      }
    }
    // Closing barrier: every tenant this connection touched reports exactly
    // the survivors it was sent.
    for (const auto& [id, want] : me.net) {
      client.set_tenant(id);
      if (timed_query(client, true, want, want, me.tally) < 0) me.ok = false;
    }
    me.end = Clock::now();
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) threads.emplace_back(drive, c);
  for (std::thread& t : threads) t.join();

  std::int64_t events = 0;
  auto end = t0;
  std::map<std::string, std::int64_t> sent;
  for (Conn& c : conns) {
    run.tally.merge(c.tally);
    run.valid = run.valid && c.ok;
    run.batch_ms.insert(run.batch_ms.end(), c.batch_ms.begin(), c.batch_ms.end());
    run.query_ms.insert(run.query_ms.end(), c.query_ms.begin(), c.query_ms.end());
    for (const auto& [id, n] : c.events) {
      sent[id] += n;
      events += n;
    }
    end = std::max(end, c.end);
  }
  run.window_events += events;
  run.window_seconds += std::chrono::duration<double>(end - t0).count();

  // TENANT_STATS: every tenant's admitted-event count equals what was sent.
  skc::net::SkcClient client(client_options());
  std::string json;
  const bool ok = client.connect("127.0.0.1", s.server.port()) &&
                  client.tenant_stats(json);
  run.tally.record(ok, client.last_status());
  if (!ok) {
    run.valid = false;
    return;
  }
  std::size_t mismatched = 0;
  for (const auto& [id, n] : sent) {
    const std::string key = "{\"id\":\"" + id + "\"";
    const std::size_t at = json.find(key);
    const std::size_t ev = at == std::string::npos ? at : json.find("\"events\":", at);
    if (ev == std::string::npos || std::stoll(json.substr(ev + 9, 24)) != n) {
      ++mismatched;
    }
  }
  if (mismatched > 0) {
    std::printf("TENANT_STATS: %zu of %zu tenants report a different applied "
                "count than was sent\n", mismatched, sent.size());
    run.tally.record_wrong();
    run.valid = false;
  }
}

/// The quality probe: a fixed ~2k-survivor churn instance ingested into
/// `port` (as tenant `tenant`, if set), one full barrier query, and exact
/// capacitated costs of the served and the planted centers on the probe's
/// surviving points.
bool run_probe(std::uint16_t port, const std::string& tenant, WireRun& run) {
  Rng rng(kProbeSeed);
  const skc::PlantedMixture planted =
      skc::planted_gaussian_mixture(mixture(kProbeSurvivors, kK), rng);
  const skc::PointSet extra = skc::gaussian_mixture(mixture(kProbeExtra, kK), rng);
  const skc::Stream stream = skc::churn_stream(planted.points, extra, {}, rng);

  skc::net::SkcClient client(client_options());
  if (!client.connect("127.0.0.1", port)) return false;
  client.set_tenant(tenant);
  for (const Frame& f : pack_windows(stream, kFrameEvents)) {
    if (!send_frame(client, f, run.tally)) return false;
  }
  skc::net::QueryReply reply;
  if (timed_query(client, false, kProbeSurvivors, kProbeSurvivors, run.tally,
                  &reply) < 0) {
    return false;
  }
  skc::PointSet centers(kDim);
  for (std::size_t i = 0; i < reply.center_coords.size(); i += kDim) {
    centers.push_back(std::span<const Coord>(reply.center_coords.data() + i, kDim));
  }
  const skc::LrOrder r{2.0};
  const double served = skc::capacitated_cost(planted.points, centers, reply.capacity, r);
  const double best = skc::capacitated_cost(planted.points, planted.centers,
                                            reply.capacity, r);
  run.coreset_cost_error = std::abs(reply.cost / served - 1.0);
  run.solution_cost_ratio = served / best;
  return std::isfinite(run.coreset_cost_error) && std::isfinite(run.solution_cost_ratio);
}

}  // namespace

IngestInputs make_ingest_inputs(std::uint64_t seed) {
  // The survivors come from their own fixed seed, so every run's queries
  // solve nearly the same coreset: seed-drawn survivors moved the coreset
  // size by 8% over four seeds, and the solve time with it.  --seed draws
  // the inserted-then-deleted extras, the tail and the stream order.
  Rng fixed(kSurvivorSeed);
  const skc::PointSet points = sample_shape(kSurvivors, fixed);
  Rng rng(seed);
  const skc::PointSet extra = sample_shape(kExtra, rng);
  const skc::PointSet tail_extra = sample_shape(kTailExtra, rng);
  IngestInputs in;
  in.initial = pack_windows(skc::churn_stream(points, extra, {}, rng), kFrameEvents);
  in.tail = pack_windows(
      skc::churn_stream(skc::PointSet(kDim), tail_extra, {}, rng), kFrameEvents);
  in.survivors = net_events(in.initial, kDim);
  for (const Frame& f : in.initial) in.events += f.events(kDim);
  return in;
}

std::vector<skc::TenantBatch> make_tenant_inputs(std::uint64_t seed, double seconds) {
  // tenant_churn_stream's model (Zipf(1.1) traffic over the tenants,
  // 256-point batches, 10% deletes of the tenant's own live points, kK
  // Gaussian clusters per tenant), except that every tenant's centers come
  // from a fixed seed: --seed draws the traffic order and the points, not the
  // tenant population.
  const int batches = std::max(static_cast<int>(kMinFrames),
                               static_cast<int>(seconds * kBatchesPerSecond));
  const Coord delta = Coord{1} << kLogDelta;
  const double sigma = 0.015 * static_cast<double>(delta);
  const Rng shapes(0x74656e616e74ULL);
  struct Tenant {
    skc::PointSet centers{kDim};
    skc::PointSet live{kDim};
  };
  std::vector<Tenant> tenants(kTenants);
  Coord p[kDim];
  for (int r = 0; r < kTenants; ++r) {
    Rng shape = shapes.fork(static_cast<std::uint64_t>(r));
    for (int c = 0; c < kK; ++c) {
      for (Coord& v : p) v = static_cast<Coord>(shape.uniform_int(delta / 10, delta - delta / 10));
      tenants[static_cast<std::size_t>(r)].centers.push_back(std::span<const Coord>(p, kDim));
    }
  }

  // Traffic: each block of ~kBlock batches holds every tenant's Zipf share
  // (systematic rounding from a seeded phase, so shares are exact over the
  // run), shuffled within the block.  A purely random Zipf draw leaves so
  // much seed-to-seed variation in which warm tenants get evicted that the
  // run-to-run spread of every tenant figure exceeds its bound.
  constexpr int kBlock = 100;
  Rng rng(seed);
  std::vector<double> share(kTenants), phase(kTenants);
  double total = 0.0;
  for (int r = 0; r < kTenants; ++r) total += std::pow(r + 1.0, -1.1);
  for (int r = 0; r < kTenants; ++r) {
    share[static_cast<std::size_t>(r)] = kBlock * std::pow(r + 1.0, -1.1) / total;
    phase[static_cast<std::size_t>(r)] = rng.uniform();
  }
  std::vector<int> ranks;
  for (int block = 0; static_cast<int>(ranks.size()) < batches; ++block) {
    std::vector<int> mine;
    for (int r = 0; r < kTenants; ++r) {
      const double s0 = phase[static_cast<std::size_t>(r)] + block * share[static_cast<std::size_t>(r)];
      const auto n = static_cast<int>(std::floor(s0 + share[static_cast<std::size_t>(r)]) - std::floor(s0));
      mine.insert(mine.end(), static_cast<std::size_t>(n), r);
    }
    rng.shuffle(mine);
    ranks.insert(ranks.end(), mine.begin(), mine.end());
  }
  ranks.resize(static_cast<std::size_t>(batches));

  std::vector<skc::TenantBatch> out(static_cast<std::size_t>(batches));
  for (std::size_t b = 0; b < out.size(); ++b) {
    skc::TenantBatch& batch = out[b];
    const int rank = ranks[b];
    Tenant& t = tenants[static_cast<std::size_t>(rank)];
    batch.tenant = tenant_id(rank);
    for (skc::PointIndex i = 0; i < kTenantBatchPoints; ++i) {
      if (t.live.size() > 0 && rng.bernoulli(0.1)) {
        const auto victim = static_cast<skc::PointIndex>(
            rng.next_below(static_cast<std::uint64_t>(t.live.size())));
        const auto q = t.live[victim];
        batch.events.push_back({StreamOp::kDelete, skc::Point(q.begin(), q.end())});
        t.live.swap_remove(victim);
        continue;
      }
      const auto center = t.centers[static_cast<skc::PointIndex>(rng.next_below(kK))];
      for (int j = 0; j < kDim; ++j) {
        const double v = center[static_cast<std::size_t>(j)] + sigma * rng.gaussian();
        p[j] = std::clamp<Coord>(static_cast<Coord>(std::llround(v)), 1, delta);
      }
      batch.events.push_back({StreamOp::kInsert, skc::Point(p, p + kDim)});
      t.live.push_back(std::span<const Coord>(p, kDim));
    }
  }
  return out;
}

std::vector<std::string> server_args(const std::string& workload,
                                     const std::string& spill_dir, bool trace) {
  std::vector<std::string> args;
  if (workload == "tenant_churn") {
    args = {"serve", std::to_string(kDim), std::to_string(kK),
            std::to_string(kTenantShards), std::to_string(kLogDelta),
            "--tenants", "--spill", spill_dir, "--max-resident",
            std::to_string(kMaxResident)};
  } else {
    args = {"serve", std::to_string(kDim), std::to_string(kK),
            std::to_string(kShards), std::to_string(kLogDelta)};
  }
  args.insert(args.end(), {"--tcp", "0"});
  if (trace) args.push_back("--trace");
  return args;
}

WireRun run_wire(const Options& o, int setups) {
  WireRun run;
  // The window is split over the servers of the last `rounds` set-ups.
  // tenant_churn keeps one server: its evictions and promotions need the
  // whole batch sequence on one registry.
  const int rounds = std::min(setups, o.workload == "tenant_churn" ? 1 : kRounds);
  Slice slice;
  slice.seconds = o.seconds / rounds;
  slice.min_frames = kMinFrames / static_cast<std::size_t>(rounds);
  slice.min_queries = kMinQueries / static_cast<std::size_t>(rounds);
  auto setup = std::make_unique<Setup>();
  for (int i = 0; i < setups && run.valid; ++i) {
    if (i > 0) {
      tear_down(*setup);
      setup = std::make_unique<Setup>();
    }
    if (!set_up(o, i, *setup, run.tally)) {
      run.valid = false;
      return run;
    }
    run.setup_s.push_back(setup->seconds);
    if (i < setups - rounds) continue;
    if (o.workload == "ingest") {
      ingest_window(slice, *setup, run);
    } else if (o.workload == "query_under_ingest") {
      query_under_ingest_window(o, slice, *setup, run);
    } else {
      tenant_churn_window(o, *setup, run);
    }
    run.peak_rss_mb.push_back(setup->server.peak_rss_mb());
  }
  Setup& s = *setup;

  if (o.trace) {
    skc::net::SkcClient client(client_options());
    const bool ok = client.connect("127.0.0.1", s.server.port()) &&
                    client.trace_json(run.server_trace);
    run.tally.record(ok, client.last_status());
    if (!ok) run.valid = false;
  } else if (run.valid) {
    // Outside the measured window: the quality probe.  tenant_churn probes
    // its own server as a fresh tenant; the single-tenant workloads get a
    // fresh server with the same flags.
    bool probed = false;
    if (o.workload == "tenant_churn") {
      probed = run_probe(s.server.port(), "probe", run);
    } else {
      ServerProcess probe;
      std::string error;
      probed = probe.start(o.cli, server_args(o.workload, "", false),
                           o.out_dir + "/server-probe.log", error) &&
               run_probe(probe.port(), "", run);
      probe.stop();
    }
    if (!probed) {
      std::printf("quality probe failed\n");
      run.valid = false;
    }
  }
  tear_down(s);
  return run;
}

}  // namespace perfbench
