// The layer run: the workload inputs replayed in-process through each
// module's public functions, one bench-side span around every call.
//
//   net      PointBatch + frame encode / header + body decode per frame
//   coreset  StreamingCoresetBuilder::update_batch per frame (one builder);
//            per query on kShards point-hash shards: save each shard, load
//            the blobs, merge_from, finalize (what an engine query does)
//   engine   ClusteringEngine submit per frame, flush, full query
//   solve    capacitated_kmeans on the finalized coreset (engine settings)
//   assign   optimal_capacitated_assignment at the solve's final centers
//   tenant   TenantRegistry::submit per frame of the tenant batches, with a
//            call counted cold when a restore happened during it
//
// The library's own tracer stays off, so the spans time only the calls.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "skc/assign/capacitated_assignment.h"
#include "skc/common/random.h"
#include "skc/coreset/streaming.h"
#include "skc/engine/engine.h"
#include "skc/net/frame.h"
#include "skc/solve/capacitated_kmeans.h"
#include "skc/solve/cost.h"
#include "skc/tenant/registry.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Query-path steps are repeated and reported as medians.
constexpr int kRepeats = 3;
// Tenant batches replayed (the first ones of the workload's stream): enough
// for hundreds of evictions and restores at kMaxResident.
constexpr std::size_t kLayerTenantBatches = 300;

/// Bench-side spans, kept in memory and written as chrome://tracing JSON.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  /// Runs `fn` inside a span named `name`; returns its duration in ms.
  template <typename Fn>
  double span(const char* name, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    spans_.push_back({name, micros(t0), micros(t1) - micros(t0)});
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out << (i ? "," : "") << "{\"name\":\"" << spans_[i].name
          << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":"
          << spans_[i].start_us << ",\"dur\":" << spans_[i].dur_us << "}";
    }
    out << "]}\n";
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_us;
    std::int64_t dur_us;
  };
  std::int64_t micros(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_).count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// The CLI's configuration (tools/skc_cli.cpp, cmd_serve).
skc::CoresetParams cli_params() {
  return skc::CoresetParams::practical(kK, skc::LrOrder{2.0}, 0.2, 0.2);
}
skc::EngineOptions cli_engine(int shards) {
  skc::EngineOptions opts;
  opts.num_shards = shards;
  opts.streaming.log_delta = kLogDelta;
  return opts;
}

std::size_t shard_of(std::span<const skc::Coord> p) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (skc::Coord c : p) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(c));
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
  }
  return static_cast<std::size_t>(h % kShards);
}

/// The tenant's own restore count (0 before its first batch).  A submit
/// restores only the tenant it addresses, so this rises exactly when
/// stats().restores does, without snapshotting every tenant per call.
std::int64_t tenant_restores(const skc::tenant::TenantRegistry& registry,
                             const std::string& id) {
  std::string json;
  if (!registry.tenant_stats_json(id, json)) return 0;
  const std::size_t at = json.find("\"restores\":");
  return at == std::string::npos ? 0 : std::stoll(json.substr(at + 11, 24));
}

double mb(std::size_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

}  // namespace

bool run_layers(const Options& o, std::vector<Metric>& metrics) {
  SpanLog log;
  bool ok = true;
  auto fail = [&](const char* what) {
    std::printf("layer run: wrong answer from %s\n", what);
    ok = false;
  };
  const IngestInputs in = make_ingest_inputs(o.seed);
  std::vector<skc::Stream> batches;
  std::int64_t events = 0;
  for (const Frame& f : in.initial) {
    batches.push_back(frame_events(f, kDim));
    events += f.events(kDim);
  }
  const double n_events = static_cast<double>(events);

  // net: the wire codecs, per frame.
  double encode_ms = 0.0, decode_ms = 0.0;
  std::size_t wire_bytes = 0;
  for (const Frame& f : in.initial) {
    std::string wire;
    const auto type = f.op == skc::StreamOp::kInsert ? skc::net::MsgType::kInsertBatch
                                                     : skc::net::MsgType::kDeleteBatch;
    encode_ms += log.span("net.encode", [&] {
      skc::net::PointBatch pb;
      pb.dim = kDim;
      pb.coords = f.coords;
      wire = skc::net::encode_frame(type, skc::net::Status::kOk, pb.encode());
    });
    wire_bytes += wire.size();
    skc::net::PointBatch back;
    bool decoded = false;
    decode_ms += log.span("net.decode", [&] {
      skc::net::FrameHeader header;
      const std::string_view bytes(wire);
      decoded = skc::net::decode_header(bytes.substr(0, skc::net::kFrameHeaderBytes),
                                        header) == skc::net::Status::kOk &&
                back.decode(bytes.substr(skc::net::kFrameHeaderBytes));
    });
    if (!decoded || back.coords != f.coords) fail("net decode");
  }
  const double frames = static_cast<double>(in.initial.size());

  // coreset: one builder, batched ingest.
  const skc::CoresetParams params = cli_params();
  const skc::EngineOptions eopts = cli_engine(kShards);
  double update_ms = 0.0;
  {
    skc::StreamingCoresetBuilder builder(kDim, params, eopts.streaming);
    for (const skc::Stream& b : batches) {
      update_ms += log.span("coreset.update", [&] { builder.update_batch(b); });
    }
    if (builder.net_count() != in.survivors) fail("coreset update");
  }

  // engine: routed submit, barrier, full query.
  double submit_ms = 0.0, flush_ms = 0.0;
  std::vector<double> query_ms, merge_ms, solve_ms;
  {
    skc::ClusteringEngine engine(kDim, params, eopts);
    for (const skc::Stream& b : batches) {
      submit_ms += log.span("engine.submit", [&] { engine.submit(b); });
    }
    flush_ms = log.span("engine.flush", [&] { engine.flush(); });
    for (int r = 0; r < kRepeats; ++r) {
      skc::EngineQuery q;
      q.k = kK;
      skc::EngineQueryResult res;
      query_ms.push_back(log.span("engine.query", [&] { res = engine.query(q); }));
      merge_ms.push_back(res.merge_millis);
      solve_ms.push_back(res.solve_millis);
      if (!res.ok || !res.solution.feasible || res.net_points != in.survivors) {
        fail("engine query");
      }
    }
  }

  // coreset query path on kShards point-hash shards, then solve and assign.
  std::vector<skc::StreamingCoresetBuilder> shards;
  shards.reserve(kShards);
  for (int s = 0; s < kShards; ++s) shards.emplace_back(kDim, params, eopts.streaming);
  for (const skc::Stream& b : batches) {
    std::vector<skc::Stream> split(kShards);
    for (const skc::StreamEvent& e : b) split[shard_of(e.point)].push_back(e);
    for (int s = 0; s < kShards; ++s) shards[static_cast<std::size_t>(s)].update_batch(split[static_cast<std::size_t>(s)]);
  }
  std::vector<double> save_ms, load_ms, merge_from_ms, finalize_ms;
  std::size_t snapshot_bytes = 0, memory_bytes = 0;
  for (const auto& s : shards) memory_bytes += s.memory_bytes();
  skc::StreamingResult final_result;
  int guesses = 0;
  for (int r = 0; r < kRepeats; ++r) {
    std::vector<std::string> blobs;
    double save = 0.0, load = 0.0, merge = 0.0;
    for (const auto& s : shards) {
      std::ostringstream out(std::ios::binary);
      save += log.span("coreset.save", [&] { s.save(out); });
      blobs.push_back(std::move(out).str());
    }
    snapshot_bytes = 0;
    for (const std::string& b : blobs) snapshot_bytes += b.size();
    skc::StreamingCoresetBuilder merged(kDim, params, eopts.streaming);
    skc::StreamingCoresetBuilder scratch(kDim, params, eopts.streaming);
    for (std::size_t s = 0; s < blobs.size(); ++s) {
      std::istringstream blob(blobs[s]);
      bool loaded = false;
      load += log.span("coreset.load",
                       [&] { loaded = (s == 0 ? merged : scratch).load(blob); });
      if (!loaded) fail("coreset load");
      if (s > 0) merge += log.span("coreset.merge_from", [&] { merged.merge_from(scratch); });
    }
    save_ms.push_back(save);
    load_ms.push_back(load);
    merge_from_ms.push_back(merge);
    finalize_ms.push_back(log.span("coreset.finalize", [&] { final_result = merged.finalize(); }));
    guesses = merged.num_guesses();
    if (!final_result.ok || merged.net_count() != in.survivors) fail("coreset finalize");
  }

  const skc::WeightedPointSet& summary = final_result.coreset.points;
  const double n = static_cast<double>(in.survivors);
  const double t_summary =
      skc::tight_capacity(n, kK) * 1.1 * summary.total_weight() / n;
  skc::CapacitatedSolverOptions sopts;
  sopts.delta = skc::Coord{1} << kLogDelta;
  std::vector<double> kmeans_ms, assign_ms;
  skc::CapacitatedSolution solution;
  for (int r = 0; r < kRepeats; ++r) {
    skc::Rng rng(params.seed ^ 0x71756572795f3173ULL);  // the engine's solver seed
    kmeans_ms.push_back(log.span("solve.kmeans", [&] {
      solution = skc::capacitated_kmeans(summary, kK, t_summary, params.r, sopts, rng);
    }));
    if (!solution.feasible) fail("solve");
  }
  for (int r = 0; r < kRepeats; ++r) {
    skc::CapacitatedAssignment a;
    assign_ms.push_back(log.span("assign.optimal", [&] {
      a = skc::optimal_capacitated_assignment(summary, solution.centers, t_summary,
                                              params.r);
    }));
    if (!a.feasible) fail("assign");
  }

  // tenant: the registry the `serve --tenants` CLI builds, fed frame by frame.
  std::vector<double> warm_ms, cold_ms;
  skc::tenant::RegistryStats tstats;
  {
    const std::string spill = o.out_dir + "/layer-spill";
    std::filesystem::remove_all(spill);
    std::filesystem::create_directories(spill);
    skc::tenant::TenantRegistryOptions topts;
    topts.dim = kDim;
    topts.params = params;
    topts.engine = cli_engine(kTenantShards);
    topts.max_resident = kMaxResident;
    topts.spill_dir = spill;
    {
      skc::tenant::TenantRegistry registry(topts);
      auto tenant_batches = make_tenant_inputs(o.seed, o.seconds);
      tenant_batches.resize(std::min(tenant_batches.size(), kLayerTenantBatches));
      for (const skc::TenantBatch& b : tenant_batches) {
        for (const Frame& f : pack_windows(b.events, b.events.size())) {
          const skc::Stream ev = frame_events(f, kDim);
          const std::int64_t before = tenant_restores(registry, b.tenant);
          skc::tenant::Admit verdict = skc::tenant::Admit::kOk;
          const double ms =
              log.span("tenant.submit", [&] { verdict = registry.submit(b.tenant, ev); });
          if (verdict != skc::tenant::Admit::kOk) fail("tenant submit");
          (tenant_restores(registry, b.tenant) > before ? cold_ms : warm_ms).push_back(ms);
        }
      }
      registry.flush();
      tstats = registry.stats();
    }
    std::filesystem::remove_all(spill);
  }

  log.write(o.out_dir + "/layers-" + o.workload + ".json");

  auto med = [](const std::vector<double>& v) { return v.empty() ? -1.0 : median(v); };
  metrics.push_back({"net.encode_us_per_frame", 1e3 * encode_ms / frames, "us"});
  metrics.push_back({"net.decode_us_per_frame", 1e3 * decode_ms / frames, "us"});
  metrics.push_back({"net.bytes_per_event", static_cast<double>(wire_bytes) / n_events, "bytes"});
  metrics.push_back({"engine.submit_us_per_event", 1e3 * submit_ms / n_events, "us"});
  metrics.push_back({"engine.flush_ms", flush_ms, "ms"});
  metrics.push_back({"engine.query_ms", med(query_ms), "ms"});
  metrics.push_back({"engine.merge_ms", med(merge_ms), "ms"});
  metrics.push_back({"engine.solve_ms", med(solve_ms), "ms"});
  metrics.push_back({"coreset.update_us_per_event", 1e3 * update_ms / n_events, "us"});
  metrics.push_back({"coreset.save_ms", med(save_ms), "ms"});
  metrics.push_back({"coreset.load_ms", med(load_ms), "ms"});
  metrics.push_back({"coreset.merge_from_ms", med(merge_from_ms), "ms"});
  metrics.push_back({"coreset.finalize_ms", med(finalize_ms), "ms"});
  metrics.push_back({"coreset.points", static_cast<double>(summary.size()), "count"});
  metrics.push_back({"coreset.guesses", static_cast<double>(guesses), "count"});
  metrics.push_back({"coreset.memory_mb", mb(memory_bytes), "MB"});
  metrics.push_back({"coreset.snapshot_mb", mb(snapshot_bytes), "MB"});
  metrics.push_back({"assign.optimal_ms", med(assign_ms), "ms"});
  metrics.push_back({"solve.kmeans_ms", med(kmeans_ms), "ms"});
  metrics.push_back({"solve.iterations", static_cast<double>(solution.iterations), "count"});
  metrics.push_back({"tenant.submit_warm_ms", med(warm_ms), "ms"});
  metrics.push_back({"tenant.submit_cold_ms", med(cold_ms), "ms"});
  metrics.push_back({"tenant.evictions", static_cast<double>(tstats.evictions), "count"});
  metrics.push_back({"tenant.restores", static_cast<double>(tstats.restores), "count"});
  metrics.push_back({"tenant.promotions", static_cast<double>(tstats.promotions), "count"});
  if (cold_ms.empty()) fail("tenant spill (no restore observed)");
  return ok;
}

}  // namespace perfbench
