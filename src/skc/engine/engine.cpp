#include "skc/engine/engine.h"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>

#include "skc/common/check.h"
#include "skc/common/crc64.h"
#include "skc/common/random.h"
#include "skc/common/serial.h"
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
// (no frame) is refused: its files predate STRM3 builders, and load()
// accepts only STRM6 ones anyway.
constexpr std::uint32_t kEngineVersion = 2;

}  // namespace

struct ClusteringEngine::Shard {
  Shard(int dim, const CoresetParams& params, const StreamingOptions& streaming)
      : builder(std::make_unique<StreamingCoresetBuilder>(dim, params, streaming)) {}

  // The shard queue: this shard's parts of the submitted batches, in submit
  // order (small parts merged), and its event counters.  Producers wait on
  // `changed` for the backlog (`queued`, the events no drain has taken yet)
  // to shrink below queue_capacity, flush() for `applied` to reach
  // `enqueued`.
  std::mutex mu;
  std::condition_variable changed;
  std::deque<EventBatch> queue;  // guarded by mu, as are the three counters
  std::size_t queued = 0;
  std::int64_t enqueued = 0;
  std::int64_t applied = 0;
  // Set while a drain task owns the queue; cleared by the drain, under mu,
  // only when it finds the queue empty.
  std::atomic<bool> drain_scheduled{false};

  // The builder is heap-allocated so that restore can parse fresh builders
  // before taking any lock and swap the pointers in under builder_mu.
  std::mutex builder_mu;
  std::unique_ptr<StreamingCoresetBuilder> builder;

  // Every other user of the builder (a query, a fold, a save, a read) takes
  // it here and is counted in `waiting` until it holds the lock.  A busy
  // drain re-locks builder_mu microseconds after releasing it, sooner than a
  // woken waiter runs, so it waits for `waiting` to reach zero before each
  // slice: a query waits for at most one slice per shard, not for the queue
  // to empty.
  std::atomic<int> waiting{0};
  std::unique_lock<std::mutex> lock_builder() {
    waiting.fetch_add(1, std::memory_order_acq_rel);
    std::unique_lock<std::mutex> lock(builder_mu);
    waiting.fetch_sub(1, std::memory_order_acq_rel);
    waiting.notify_all();
    return lock;
  }
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
    shards_.push_back(std::make_unique<Shard>(dim, params, options.streaming));
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

void ClusteringEngine::submit(const Stream& batch) { submit(EventBatch(batch, dim_)); }

void ClusteringEngine::submit(const EventBatch& batch) {
  SKC_CHECK_MSG(accepting_.load(std::memory_order_acquire),
                "submit after shutdown");
  SKC_CHECK_MSG(batch.dim() == dim_, "batch dimension does not match the engine");
  obs::LatencyRecorder latency(counters_.submit_latency);
  std::vector<EventBatch> parts = batch.split(
      shards_.size(), [this](std::span<const Coord> p) { return shard_of(p); });
  for (std::size_t s = 0; s < parts.size(); ++s) {
    if (!parts[s].empty()) enqueue(*shards_[s], std::move(parts[s]));
  }
  counters_.events_submitted.fetch_add(static_cast<std::int64_t>(batch.size()),
                                       std::memory_order_relaxed);
  counters_.batches.fetch_add(1, std::memory_order_relaxed);
}

void ClusteringEngine::enqueue(Shard& shard, EventBatch part) {
  const std::size_t n = part.size();
  {
    // Backpressure: wait while this part would take the backlog past
    // queue_capacity events.  An empty queue admits any part, so a part
    // larger than the capacity waits for the backlog to clear, not forever.
    std::unique_lock<std::mutex> lock(shard.mu);
    shard.changed.wait(lock, [&] {
      return shard.queued == 0 || shard.queued + n <= options_.queue_capacity;
    });
    // A part joins the newest queued batch while both fit one builder call,
    // so a run of small submits still reaches update_batch kMaxBatch events
    // at a time rather than one call per submit.
    if (!shard.queue.empty() &&
        shard.queue.back().size() + n <= StreamingCoresetBuilder::kMaxBatch) {
      shard.queue.back().append(part, 0, n);
    } else {
      shard.queue.push_back(std::move(part));
    }
    shard.queued += n;
    shard.enqueued += static_cast<std::int64_t>(n);
  }
  schedule_drain(shard);
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
  // Applies the queued batches in place, at most kMaxBatch events per
  // locked builder call.  Each turn under the shard lock publishes the slice
  // just applied and takes the next one.
  EventBatch batch;
  std::size_t done = 0;
  std::size_t n = 0;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.applied += static_cast<std::int64_t>(n);
      done += n;
      if (done == batch.size()) {
        if (shard.queue.empty()) {
          // Cleared under mu: a producer pushes under the same lock before
          // it tests the flag, so its part is either seen here or finds the
          // flag clear and schedules a new drain.
          shard.drain_scheduled.store(false, std::memory_order_release);
          shard.changed.notify_all();
          return;
        }
        batch = std::move(shard.queue.front());
        shard.queue.pop_front();
        done = 0;
      }
      n = std::min(StreamingCoresetBuilder::kMaxBatch, batch.size() - done);
      shard.queued -= n;
    }
    shard.changed.notify_all();
    const std::span<const StreamOp> ops = batch.ops().subspan(done, n);
    const auto inserts = static_cast<std::int64_t>(
        std::count(ops.begin(), ops.end(), StreamOp::kInsert));
    // Any other user waiting for the builder goes first (Shard::waiting).
    while (const int w = shard.waiting.load(std::memory_order_acquire)) {
      shard.waiting.wait(w, std::memory_order_acquire);
    }
    {
      std::lock_guard<std::mutex> lock(shard.builder_mu);
      // Opened once the lock is held: the span times the apply, not the
      // wait for a query's finalize or a fold to release the builder.
      SKC_TRACE_SPAN("drain");
      shard.builder->update_batch(batch, done, n);
    }
    const auto applied = static_cast<std::int64_t>(n);
    counters_.events_applied.fetch_add(applied, std::memory_order_relaxed);
    counters_.inserts.fetch_add(inserts, std::memory_order_relaxed);
    counters_.deletes.fetch_add(applied - inserts, std::memory_order_relaxed);
  }
}

void ClusteringEngine::flush() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::unique_lock<std::mutex> lock(shard.mu);
    const std::int64_t target = shard.enqueued;
    shard.changed.wait(lock, [&] { return shard.applied >= target; });
  }
}

EngineQueryResult finalize_merged(std::span<const StreamingCoresetBuilder* const> parts,
                                  const Timer& merge_timer) {
  EngineQueryResult result;
  for (const StreamingCoresetBuilder* part : parts) result.net_points += part->net_count();
  if (result.net_points <= 0) {
    result.error = "the merged sketch holds no surviving points";
    return result;
  }
  StreamingResult streamed = StreamingCoresetBuilder::finalize(parts);
  if (!streamed.ok) {
    result.error = "merged coreset construction failed (every o-guess FAILed)";
    return result;
  }
  result.summary = std::move(streamed.coreset);
  result.merge_millis = merge_timer.millis();
  result.ok = true;
  return result;
}

void solve_merged(EngineQueryResult& result, const EngineQuery& q,
                  const CoresetParams& params, int log_delta) {
  if (!result.ok || q.summary_only) return;
  const int k = q.k > 0 ? q.k : params.k;
  const WeightedPointSet& points = result.summary.points;
  if (points.size() < k) {
    // The solvers require k <= n; a tiny stream must get an answer, not an
    // abort.
    result.ok = false;
    result.error = "k = " + std::to_string(k) + " exceeds the " +
                   std::to_string(points.size()) + "-point merged summary";
    return;
  }
  const double w = points.total_weight();
  if (w <= 0.0) {
    result.ok = false;
    result.error = "merged summary carries no weight";
    return;
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
}

EngineQueryResult ClusteringEngine::query(const EngineQuery& q) {
  SKC_TRACE_SPAN("query");
  obs::LatencyRecorder latency(counters_.query_latency);
  if (q.barrier) flush();
  const Timer merge_timer;
  EngineQueryResult result;
  {
    // The live shard builders are finalized in place, so every shard lock is
    // held for the finalize: taken in index order (the only multi-lock
    // order in the engine) and released before the solver runs.
    SKC_TRACE_SPAN("finalize");
    std::vector<std::unique_lock<std::mutex>> locks;
    std::vector<const StreamingCoresetBuilder*> parts;
    locks.reserve(shards_.size());
    parts.reserve(shards_.size());
    for (auto& shard : shards_) {
      locks.push_back(shard->lock_builder());
      parts.push_back(shard->builder.get());
    }
    result = finalize_merged(parts, merge_timer);
  }
  solve_merged(result, q, params_, options_.streaming.log_delta);
  counters_.queries.fetch_add(1, std::memory_order_relaxed);
  // `latency` records the full wall time (barrier included) into
  // counters_.query_latency when it leaves scope.
  return result;
}

void ClusteringEngine::save_body(serial::Writer& out) {
  out.put<std::int32_t>(dim_);
  out.put<std::int32_t>(options_.streaming.log_delta);
  out.put<std::uint64_t>(params_.seed);
  out.put<std::int32_t>(num_shards());
  out.put<std::uint8_t>(options_.streaming.exact_storing ? 1 : 0);
  for (auto& shard : shards_) {
    const auto lock = shard->lock_builder();
    shard->builder->save(out);
  }
  out.put(kEngineFooter);
}

bool ClusteringEngine::parse_body(
    serial::Reader& in, std::span<StreamingCoresetBuilder* const> builders) const {
  std::uint64_t seed = 0, footer = 0;
  std::int32_t dim = 0, log_delta = 0, shards = 0;
  std::uint8_t exact = 0;
  if (!in.get(dim) || dim != dim_) return false;
  if (!in.get(log_delta) || log_delta != options_.streaming.log_delta) return false;
  if (!in.get(seed) || seed != params_.seed) return false;
  if (!in.get(shards) || shards != num_shards()) return false;
  if (!in.get(exact) || (exact != 0) != options_.streaming.exact_storing) return false;
  for (StreamingCoresetBuilder* builder : builders) {
    if (!builder->load(in)) return false;
  }
  return in.get(footer) && footer == kEngineFooter && in.done();
}

bool ClusteringEngine::load_body(serial::Reader& in) {
  // Parse into fresh builders first; the engine is only touched once the
  // whole body (footer included) has validated.
  std::vector<std::unique_ptr<StreamingCoresetBuilder>> fresh;
  std::vector<StreamingCoresetBuilder*> into;
  fresh.reserve(shards_.size());
  into.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    fresh.push_back(
        std::make_unique<StreamingCoresetBuilder>(dim_, params_, options_.streaming));
    into.push_back(fresh.back().get());
  }
  if (!parse_body(in, into)) return false;

  flush();  // quiesce in-flight events so the swap is a clean epoch
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto lock = shards_[s]->lock_builder();
    shards_[s]->builder = std::move(fresh[s]);
  }
  counters_.restores.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ClusteringEngine::save_state(serial::Writer& out) {
  flush();
  out.put(kEngineMagic);
  out.put<std::uint32_t>(kEngineVersion);
  const std::size_t frame = out.size();
  out.put<std::uint64_t>(0);  // body size and CRC-64, patched below
  out.put<std::uint64_t>(0);
  const std::size_t body = out.size();
  save_body(out);
  const std::string_view payload = out.view().substr(body);
  out.put_at<std::uint64_t>(frame, payload.size());
  SKC_TRACE_SPAN("checksum");
  out.put_at<std::uint64_t>(frame + 8, crc64(payload));
}

bool ClusteringEngine::open_frame(std::string_view bytes, std::string_view& payload) {
  serial::Reader in(bytes);
  std::uint64_t magic = 0, size = 0, crc = 0;
  std::uint32_t version = 0;
  if (!in.get(magic) || magic != kEngineMagic) return false;
  if (!in.get(version) || version != kEngineVersion) return false;
  if (!in.get(size) || !in.get(crc) || !in.get_view(size, payload) || !in.done()) {
    return false;
  }
  SKC_TRACE_SPAN("checksum");
  return crc64(payload) == crc;  // else a torn write or flipped bit
}

bool ClusteringEngine::load_state(std::string_view bytes) {
  std::string_view payload;
  if (!open_frame(bytes, payload)) return false;
  serial::Reader body(payload);
  return load_body(body);
}

std::unique_ptr<ClusteringEngine> ClusteringEngine::from_state(int dim,
                                                               const CoresetParams& params,
                                                               const EngineOptions& options,
                                                               std::string_view bytes) {
  std::string_view payload;
  if (!open_frame(bytes, payload)) return nullptr;
  auto engine = std::make_unique<ClusteringEngine>(dim, params, options);
  // No other thread knows the engine and it has seen no event, so its own
  // builders take the parse; a refusal drops the whole engine.
  std::vector<StreamingCoresetBuilder*> own;
  own.reserve(engine->shards_.size());
  for (const auto& shard : engine->shards_) own.push_back(shard->builder.get());
  serial::Reader body(payload);
  if (!engine->parse_body(body, own)) return nullptr;
  engine->counters_.restores.fetch_add(1, std::memory_order_relaxed);
  return engine;
}

bool ClusteringEngine::checkpoint(const std::string& path) {
  SKC_TRACE_SPAN("checkpoint");
  obs::LatencyRecorder latency(counters_.checkpoint_latency);
  serial::Writer out;
  save_state(out);
  if (!serial::write_file(path, out.view())) return false;
  counters_.last_checkpoint_bytes.store(static_cast<std::int64_t>(out.size()),
                                        std::memory_order_relaxed);
  counters_.checkpoints.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ClusteringEngine::restore(const std::string& path) {
  std::string bytes;
  return serial::read_file(path, bytes) && load_state(bytes);
}

EngineSketchExport ClusteringEngine::export_sketch() {
  SKC_TRACE_SPAN("export_sketch");
  flush();
  // The sum a query finalizes in place, built here: each live shard is added
  // into an empty builder, i.e. exactly what a single builder fed every
  // applied event would hold (the same multiset of samples in exact mode).
  // One shard lock at a time: the others keep ingesting while one merges.
  StreamingCoresetBuilder folded(dim_, params_, options_.streaming);
  {
    SKC_TRACE_SPAN("merge");
    for (auto& shard : shards_) {
      SKC_TRACE_SPAN("snapshot");
      const auto lock = shard->lock_builder();
      folded.merge_from(*shard->builder);
    }
  }
  EngineSketchExport out;
  out.net_points = folded.net_count();
  out.events_applied = folded.events();
  serial::Writer blob;
  folded.save(blob);
  out.blob = blob.take();
  return out;
}

bool ClusteringEngine::import_sketch(const std::string& blob) {
  SKC_TRACE_SPAN("import_sketch");
  // Thaw into a builder of THIS engine's configuration; load() verifies the
  // blob's fingerprint against it and fails closed, so a peer with a
  // different sketch geometry can never be folded in.
  StreamingCoresetBuilder incoming(dim_, params_, options_.streaming);
  serial::Reader in(blob);
  if (!incoming.load(in) || !in.done()) return false;
  flush();  // quiesce so the adoption lands on a clean epoch
  const auto lock = shards_[0]->lock_builder();
  shards_[0]->builder->merge_from(incoming);
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
    const auto lock = shard->lock_builder();
    net += shard->builder->net_count();
  }
  return net;
}

std::int64_t ClusteringEngine::sketch_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& shard : shards_) {
    const auto lock = shard->lock_builder();
    bytes += static_cast<std::int64_t>(shard->builder->memory_bytes());
  }
  return bytes;
}

std::int64_t ClusteringEngine::queue_backlog() const {
  std::int64_t backlog = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    backlog += static_cast<std::int64_t>(shard->queued);
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
    std::lock_guard<std::mutex> lock(shard->mu);
    m.shard_queue_depth.push_back(static_cast<std::int64_t>(shard->queued));
    m.shard_events_applied.push_back(shard->applied);
  }
  m.sketch_bytes = sketch_bytes();
  m.net_points = net_count();
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
