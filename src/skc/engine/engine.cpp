#include "skc/engine/engine.h"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "skc/common/check.h"
#include "skc/common/crc64.h"
#include "skc/common/random.h"
#include "skc/common/serial.h"
#include "skc/engine/bounded_queue.h"
#include "skc/obs/histogram.h"
#include "skc/obs/trace.h"
#include "skc/parallel/thread_pool.h"
#include "skc/solve/capacitated_kmedian.h"
#include "skc/solve/cost.h"

namespace skc {

namespace {

constexpr std::uint64_t kEngineMagic = 0x534b43454e474e31ULL;   // "SKCENGN1"
constexpr std::uint64_t kEngineFooter = 0x534b43454e444f4bULL;  // "SKCENDOK"
// Version 2 wraps the body in a [size u64][crc64 u64][payload] frame so
// corruption anywhere in the file fails the restore up front.  Version 1
// (no frame) is refused: its files predate STRM3 builders, which load()
// requires anyway.
constexpr std::uint32_t kEngineVersion = 2;

}  // namespace

struct ClusteringEngine::Shard {
  Shard(int dim, const CoresetParams& params, const StreamingOptions& streaming,
        std::size_t queue_capacity)
      : queue(queue_capacity),
        builder(std::make_unique<StreamingCoresetBuilder>(dim, params, streaming)) {}

  BoundedQueue<StreamEvent> queue;
  std::atomic<bool> drain_scheduled{false};
  std::atomic<std::int64_t> enqueued{0};

  // The builder is heap-allocated and never moved: its sketch structures
  // hold pointers into the builder's own grid, so identity must be stable
  // (restore swaps the unique_ptr, not the object).
  std::mutex builder_mu;
  std::unique_ptr<StreamingCoresetBuilder> builder;

  std::mutex progress_mu;
  std::condition_variable progress_cv;
  std::int64_t applied = 0;  // guarded by progress_mu
};

ClusteringEngine::ClusteringEngine(int dim, const CoresetParams& params,
                                   const EngineOptions& options)
    : dim_(dim), params_(params), options_(options) {
  SKC_CHECK(dim >= 1);
  SKC_CHECK(options.num_shards >= 1);
  {
    // Routing key derived from the configured seed so the shard split (and
    // with it every per-shard sketch) is reproducible across runs.
    std::uint64_t state = params.seed ^ 0x73686172645f6b31ULL;
    route_key_ = splitmix64(state);
  }
  shards_.reserve(static_cast<std::size_t>(options.num_shards));
  for (int s = 0; s < options.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(dim, params, options.streaming,
                                              options.queue_capacity));
  }
  if (options.shared_pool != nullptr) {
    pool_ = options.shared_pool;
  } else {
    const int workers = options.worker_threads >= 0 ? options.worker_threads
                                                    : options.num_shards;
    owned_pool_ = std::make_unique<ThreadPool>(static_cast<std::size_t>(workers));
    pool_ = owned_pool_.get();
  }
}

ClusteringEngine::~ClusteringEngine() { shutdown(); }

std::size_t ClusteringEngine::shard_of(std::span<const Coord> p) const {
  // Point-hash routing: an insert and its later delete carry the same
  // coordinates, hence land on the same shard, keeping each shard's sketch a
  // valid linear summary of a sub-multiset of the stream.
  std::uint64_t h = route_key_;
  for (Coord c : p) {
    std::uint64_t state = h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(c));
    h = splitmix64(state);
  }
  return static_cast<std::size_t>(h % shards_.size());
}

void ClusteringEngine::route(const StreamEvent& event) {
  SKC_DCHECK(static_cast<int>(event.point.size()) == dim_);
  Shard& shard = *shards_[shard_of(event.point)];
  const bool pushed = shard.queue.push(event);
  SKC_CHECK_MSG(pushed, "submit on a shut-down engine");
  shard.enqueued.fetch_add(1, std::memory_order_release);
  schedule_drain(shard);
}

void ClusteringEngine::submit(const Stream& batch) {
  SKC_CHECK_MSG(accepting_.load(std::memory_order_acquire),
                "submit after shutdown");
  obs::LatencyRecorder latency(counters_.submit_latency);
  for (const StreamEvent& event : batch) route(event);
  counters_.events_submitted.fetch_add(static_cast<std::int64_t>(batch.size()),
                                       std::memory_order_relaxed);
  counters_.batches.fetch_add(1, std::memory_order_relaxed);
}

void ClusteringEngine::schedule_drain(Shard& shard) {
  if (shard.drain_scheduled.exchange(true, std::memory_order_acq_rel)) return;
  // Count the task out and back in: on a shared pool, shutdown() cannot
  // wait_idle() (that would wait on other engines' work), so it waits for
  // this counter to hit zero instead.
  drains_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  pool_->submit([this, &shard] {
    drain(shard);
    // Decrement under drains_mu_: shutdown() holds the mutex while checking
    // the counter, so it cannot observe 0 (and destroy the engine) until this
    // task has released the mutex and no longer touches `this`.
    std::lock_guard<std::mutex> lock(drains_mu_);
    if (drains_in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      drains_cv_.notify_all();
    }
  });
}

void ClusteringEngine::drain(Shard& shard) {
  std::vector<StreamEvent> batch;
  for (;;) {
    batch.clear();
    shard.queue.try_pop_batch(batch, options_.drain_batch);
    if (batch.empty()) {
      shard.drain_scheduled.store(false, std::memory_order_release);
      // A producer may have pushed between the last pop and the clear and
      // lost its schedule_drain race against the still-set flag; re-acquire
      // the flag and keep going if so.
      if (shard.queue.empty() ||
          shard.drain_scheduled.exchange(true, std::memory_order_acq_rel)) {
        return;
      }
      continue;
    }
    std::int64_t inserts = 0;
    for (const StreamEvent& e : batch) {
      if (e.op == StreamOp::kInsert) ++inserts;
    }
    {
      SKC_TRACE_SPAN("drain");
      std::lock_guard<std::mutex> lock(shard.builder_mu);
      shard.builder->update_batch(batch);
    }
    const auto applied = static_cast<std::int64_t>(batch.size());
    counters_.events_applied.fetch_add(applied, std::memory_order_relaxed);
    counters_.inserts.fetch_add(inserts, std::memory_order_relaxed);
    counters_.deletes.fetch_add(applied - inserts, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(shard.progress_mu);
      shard.applied += applied;
    }
    shard.progress_cv.notify_all();
  }
}

void ClusteringEngine::flush() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    const std::int64_t target = shard.enqueued.load(std::memory_order_acquire);
    std::unique_lock<std::mutex> lock(shard.progress_mu);
    shard.progress_cv.wait(lock, [&] { return shard.applied >= target; });
  }
}

std::unique_ptr<StreamingCoresetBuilder> ClusteringEngine::fold_shards() {
  SKC_TRACE_SPAN("merge");
  // The builder is linear, so adding each live shard into an empty builder
  // yields the sketch of the union.  One shard lock at a time: the others
  // keep ingesting while this one merges.
  auto folded =
      std::make_unique<StreamingCoresetBuilder>(dim_, params_, options_.streaming);
  for (auto& shard : shards_) {
    SKC_TRACE_SPAN("snapshot");
    std::lock_guard<std::mutex> lock(shard->builder_mu);
    folded->merge_from(*shard->builder);
  }
  return folded;
}

EngineQueryResult solve_merged(const StreamingCoresetBuilder& merged,
                               const EngineQuery& q, const CoresetParams& params,
                               int log_delta, const Timer& merge_timer) {
  EngineQueryResult result;
  result.net_points = merged.net_count();
  if (result.net_points <= 0) {
    result.error = "the merged sketch holds no surviving points";
    return result;
  }
  StreamingResult streamed = merged.finalize();
  if (!streamed.ok) {
    result.error = "merged coreset construction failed (every o-guess FAILed)";
    return result;
  }
  result.summary = std::move(streamed.coreset);
  result.merge_millis = merge_timer.millis();
  if (q.summary_only) {
    result.ok = true;
    return result;
  }

  const int k = q.k > 0 ? q.k : params.k;
  const WeightedPointSet& points = result.summary.points;
  if (points.size() < k) {
    // The solvers require k <= n; a tiny stream must get an answer, not an
    // abort.
    result.error = "k = " + std::to_string(k) + " exceeds the " +
                   std::to_string(points.size()) + "-point merged summary";
    return result;
  }
  const double w = points.total_weight();
  if (w <= 0.0) {
    result.error = "merged summary carries no weight";
    return result;
  }
  SKC_TRACE_SPAN("solve");
  Timer solve_timer;
  // Capacity in full-data units, rescaled onto the summary's weight (the
  // summary's total weight is an unbiased estimate of n).
  const double n = static_cast<double>(result.net_points);
  result.capacity = tight_capacity(n, k) * q.capacity_slack;
  const double t_summary = result.capacity * w / n;
  Rng rng(params.seed ^ 0x71756572795f3173ULL);
  if (params.r.r <= 1.0) {
    result.solution =
        capacitated_kmedian(points, k, t_summary, params.r, LocalSearchOptions{}, rng);
  } else {
    CapacitatedSolverOptions sopts;
    sopts.restarts = q.solver_restarts;
    sopts.delta = Coord{1} << log_delta;
    result.solution = capacitated_kmeans(points, k, t_summary, params.r, sopts, rng);
  }
  result.solve_millis = solve_timer.millis();
  result.ok = true;
  return result;
}

EngineQueryResult ClusteringEngine::query(const EngineQuery& q) {
  SKC_TRACE_SPAN("query");
  obs::LatencyRecorder latency(counters_.query_latency);
  if (q.barrier) flush();
  const Timer merge_timer;
  const auto folded = fold_shards();
  EngineQueryResult result =
      solve_merged(*folded, q, params_, options_.streaming.log_delta, merge_timer);
  counters_.queries.fetch_add(1, std::memory_order_relaxed);
  // `latency` records the full wall time (barrier included) into
  // counters_.query_latency when it leaves scope.
  return result;
}

void ClusteringEngine::save_body(std::ostream& out) {
  serial::put<std::int32_t>(out, dim_);
  serial::put<std::int32_t>(out, options_.streaming.log_delta);
  serial::put<std::uint64_t>(out, params_.seed);
  serial::put<std::int32_t>(out, num_shards());
  serial::put<std::uint8_t>(out,
                            options_.streaming.exact_storing ? 1 : 0);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->builder_mu);
    shard->builder->save(out);
  }
  serial::put(out, kEngineFooter);
}

bool ClusteringEngine::load_body(std::istream& in) {
  std::uint64_t seed = 0, footer = 0;
  std::int32_t dim = 0, log_delta = 0, shards = 0;
  std::uint8_t exact = 0;
  if (!serial::get(in, dim) || dim != dim_) return false;
  if (!serial::get(in, log_delta) || log_delta != options_.streaming.log_delta) {
    return false;
  }
  if (!serial::get(in, seed) || seed != params_.seed) return false;
  if (!serial::get(in, shards) || shards != num_shards()) return false;
  if (!serial::get(in, exact) ||
      (exact != 0) != options_.streaming.exact_storing) {
    return false;
  }
  // Parse into fresh builders first; the engine is only touched once the
  // whole body (footer included) has validated.
  std::vector<std::unique_ptr<StreamingCoresetBuilder>> fresh;
  fresh.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    auto builder = std::make_unique<StreamingCoresetBuilder>(dim_, params_,
                                                             options_.streaming);
    if (!builder->load(in)) return false;
    fresh.push_back(std::move(builder));
  }
  if (!serial::get(in, footer) || footer != kEngineFooter) return false;

  flush();  // quiesce in-flight events so the swap is a clean epoch
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s]->builder_mu);
    shards_[s]->builder = std::move(fresh[s]);
  }
  counters_.restores.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ClusteringEngine::save_state(std::ostream& out) {
  flush();
  // Serialize the body first so the frame can carry its exact byte count
  // and CRC-64; a checkpoint is a few MB at most, so the staging copy is
  // cheap next to the builder serialization itself.
  std::ostringstream body(std::ios::binary);
  save_body(body);
  const std::string payload = std::move(body).str();
  serial::put(out, kEngineMagic);
  serial::put<std::uint32_t>(out, kEngineVersion);
  serial::put<std::uint64_t>(out, static_cast<std::uint64_t>(payload.size()));
  serial::put<std::uint64_t>(out, crc64(payload));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  return static_cast<bool>(out);
}

bool ClusteringEngine::load_state(std::istream& in) {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  if (!serial::get(in, magic) || magic != kEngineMagic) return false;
  if (!serial::get(in, version) || version != kEngineVersion) return false;
  std::uint64_t size = 0, crc = 0;
  if (!serial::get(in, size) || !serial::get(in, crc)) return false;
  // Chunked slurp: a flipped bit in the size field must fail on a short
  // read, never reserve a 2^60-byte buffer.
  std::string payload;
  std::uint64_t done = 0;
  while (done < size) {
    const std::size_t take =
        static_cast<std::size_t>(std::min(size - done, serial::kReadChunkBytes));
    payload.resize(static_cast<std::size_t>(done) + take);
    in.read(payload.data() + done, static_cast<std::streamsize>(take));
    if (!in) return false;
    done += take;
  }
  if (crc64(payload) != crc) return false;  // torn write or flipped bit
  std::istringstream body(std::move(payload));
  return load_body(body);
}

bool ClusteringEngine::checkpoint(const std::string& path) {
  SKC_TRACE_SPAN("checkpoint");
  obs::LatencyRecorder latency(counters_.checkpoint_latency);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  if (!save_state(out)) return false;
  out.flush();
  if (!out) return false;
  const auto bytes = static_cast<std::int64_t>(out.tellp());
  counters_.last_checkpoint_bytes.store(bytes, std::memory_order_relaxed);
  counters_.checkpoints.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ClusteringEngine::restore(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  return load_state(in);
}

EngineSketchExport ClusteringEngine::export_sketch() {
  SKC_TRACE_SPAN("export_sketch");
  flush();
  // The same fold a query runs: the linear sum of the shard sketches, i.e.
  // exactly what a single builder fed every applied event would hold (the
  // same multiset of samples in exact mode).
  const auto folded = fold_shards();
  EngineSketchExport out;
  out.net_points = folded->net_count();
  out.events_applied = folded->events();
  std::ostringstream blob(std::ios::binary);
  folded->save(blob);
  out.blob = std::move(blob).str();
  return out;
}

bool ClusteringEngine::import_sketch(const std::string& blob) {
  SKC_TRACE_SPAN("import_sketch");
  // Thaw into a builder of THIS engine's configuration; load() verifies the
  // blob's fingerprint against it and fails closed, so a peer with a
  // different sketch geometry can never be folded in.
  StreamingCoresetBuilder incoming(dim_, params_, options_.streaming);
  std::istringstream in(blob);
  if (!incoming.load(in)) return false;
  flush();  // quiesce so the adoption lands on a clean epoch
  Shard& shard = *shards_[0];
  std::lock_guard<std::mutex> lock(shard.builder_mu);
  shard.builder->merge_from(incoming);
  return true;
}

std::uint64_t engine_config_fingerprint(int dim, const CoresetParams& params,
                                        const StreamingOptions& streaming) {
  // splitmix64 chain over every knob that shapes the sketch structures or
  // their hash functions; any drift in any of them must change the value.
  std::uint64_t h = 0x736b636670313400ULL;  // "skcfp14"
  auto mix = [&h](std::uint64_t v) {
    std::uint64_t state = h ^ v;
    h = splitmix64(state);
  };
  auto mix_d = [&](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  mix(static_cast<std::uint64_t>(dim));
  mix(static_cast<std::uint64_t>(params.k));
  mix_d(params.r.r);
  mix_d(params.epsilon);
  mix_d(params.eta);
  mix_d(params.threshold_const);
  mix_d(params.heavy_bound_const);
  mix_d(params.mass_bound_const);
  mix_d(params.gamma_const);
  mix_d(params.gamma_max);
  mix_d(params.samples_per_part);
  mix_d(params.sampling_gamma);
  mix(static_cast<std::uint64_t>(params.hash_independence));
  mix(params.use_kwise_sampling ? 1 : 0);
  mix(params.seed);
  mix_d(params.guess_factor);
  mix(static_cast<std::uint64_t>(streaming.log_delta));
  mix(static_cast<std::uint64_t>(streaming.max_points));
  mix_d(streaming.o_min);
  mix_d(streaming.o_max);
  mix_d(streaming.counting_samples);
  mix(static_cast<std::uint64_t>(streaming.countmin_width));
  mix(static_cast<std::uint64_t>(streaming.countmin_depth));
  mix(static_cast<std::uint64_t>(streaming.max_live_points));
  mix(streaming.exact_storing ? 1 : 0);
  mix(static_cast<std::uint64_t>(streaming.distinct_budget));
  mix(static_cast<std::uint64_t>(streaming.prune_interval));
  return h;
}

std::int64_t ClusteringEngine::net_count() const {
  std::int64_t net = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->builder_mu);
    net += shard->builder->net_count();
  }
  return net;
}

std::int64_t ClusteringEngine::sketch_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->builder_mu);
    bytes += static_cast<std::int64_t>(shard->builder->memory_bytes());
  }
  return bytes;
}

std::int64_t ClusteringEngine::queue_backlog() const {
  std::int64_t backlog = 0;
  for (const auto& shard : shards_) {
    backlog += static_cast<std::int64_t>(shard->queue.size());
  }
  return backlog;
}

EngineMetrics ClusteringEngine::metrics() const {
  EngineMetrics m;
  m.events_submitted = counters_.events_submitted.load(std::memory_order_relaxed);
  m.events_applied = counters_.events_applied.load(std::memory_order_relaxed);
  m.inserts = counters_.inserts.load(std::memory_order_relaxed);
  m.deletes = counters_.deletes.load(std::memory_order_relaxed);
  m.batches = counters_.batches.load(std::memory_order_relaxed);
  m.queries = counters_.queries.load(std::memory_order_relaxed);
  m.checkpoints = counters_.checkpoints.load(std::memory_order_relaxed);
  m.restores = counters_.restores.load(std::memory_order_relaxed);
  m.last_checkpoint_bytes =
      counters_.last_checkpoint_bytes.load(std::memory_order_relaxed);
  m.submit_latency = counters_.submit_latency.snapshot();
  m.query_latency = counters_.query_latency.snapshot();
  m.checkpoint_latency = counters_.checkpoint_latency.snapshot();
  m.uptime_seconds = uptime_.seconds();
  if (m.uptime_seconds > 0) {
    m.ingest_events_per_second =
        static_cast<double>(m.events_applied) / m.uptime_seconds;
  }
  m.shard_queue_depth.reserve(shards_.size());
  m.shard_events_applied.reserve(shards_.size());
  for (const auto& shard : shards_) {
    m.shard_queue_depth.push_back(static_cast<std::int64_t>(shard->queue.size()));
    {
      std::lock_guard<std::mutex> lock(shard->progress_mu);
      m.shard_events_applied.push_back(shard->applied);
    }
    std::lock_guard<std::mutex> lock(shard->builder_mu);
    m.sketch_bytes += static_cast<std::int64_t>(shard->builder->memory_bytes());
    m.net_points += shard->builder->net_count();
  }
  return m;
}

void ClusteringEngine::shutdown() {
  accepting_.store(false, std::memory_order_release);
  flush();
  if (owned_pool_) {
    owned_pool_->wait_idle();
  } else if (pool_) {
    // Shared pool: wait for THIS engine's drain tasks only — wait_idle()
    // would block on other engines' work (or deadlock a draining host).
    // flush() already guaranteed every event is applied; this wait covers
    // the tail of a drain task that has applied everything but not yet
    // returned, so no task can touch `this` after shutdown().
    std::unique_lock<std::mutex> lock(drains_mu_);
    drains_cv_.wait(lock, [&] {
      return drains_in_flight_.load(std::memory_order_acquire) == 0;
    });
  }
}

}  // namespace skc
