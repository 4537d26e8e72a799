#include "skc/tenant/registry.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "skc/common/check.h"
#include "skc/common/crc64.h"
#include "skc/common/random.h"
#include "skc/common/serial.h"
#include "skc/grid/hierarchical_grid.h"
#include "skc/net/frame.h"
#include "skc/obs/trace.h"
#include "skc/parallel/thread_pool.h"

namespace skc::tenant {

namespace {

// Version 02 covers the replay section with a CRC-64; SKCTNT01 files (whose
// replay bytes were unchecked) are refused.
constexpr std::uint64_t kSpillMagic = 0x534b43544e543032ULL;  // "SKCTNT02"

/// Same splitmix64 chain the engine's shard router uses, keyed off a
/// tenant-layer constant — feeds the per-tenant HLL.
std::uint64_t point_hash(std::span<const Coord> p) {
  std::uint64_t h = 0x746e745f686c6c31ULL;  // "tnt_hll1"
  for (Coord c : p) {
    std::uint64_t state =
        h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(c));
    h = splitmix64(state);
  }
  return h;
}

/// CRC-64 of a spill's replay section: the event count, the ops and the
/// coordinates.
std::uint64_t replay_crc(const EventBatch& replay) {
  const std::uint64_t count = replay.size();
  std::uint64_t crc = crc64_update(crc64_init(), &count, sizeof count);
  crc = crc64_update(crc, replay.ops().data(), replay.ops().size_bytes());
  return crc64_final(
      crc64_update(crc, replay.coords().data(), replay.coords().size_bytes()));
}

/// Replay section: [count u64][ops: count bytes][coords: count * dim
/// Coords][crc64 u64], so a flipped op or coordinate fails the restore
/// instead of replaying as data.
void put_replay(serial::Writer& out, const EventBatch& replay) {
  out.put<std::uint64_t>(replay.size());
  out.put_array(replay.ops().data(), replay.ops().size());
  out.put_array(replay.coords().data(), replay.coords().size());
  out.put(replay_crc(replay));
}

bool get_replay(serial::Reader& in, int dim, std::uint64_t capacity,
                EventBatch& replay) {
  std::uint64_t count = 0, crc = 0;
  std::vector<StreamOp> ops;
  std::vector<Coord> coords;
  if (!in.get(count) || count > capacity || !in.get_array(count, ops) ||
      !in.get_array(count * static_cast<std::uint64_t>(dim), coords) ||
      !in.get(crc)) {
    return false;
  }
  for (const StreamOp op : ops) {
    if (op != StreamOp::kInsert && op != StreamOp::kDelete) return false;
  }
  replay = EventBatch(dim, std::move(ops), std::move(coords));
  return crc == replay_crc(replay);
}

std::uint64_t id_hash(std::string_view id) {
  std::uint64_t state = 0x746e74696431ULL;  // "tntid1"
  for (const char ch : id) {
    state ^= static_cast<std::uint64_t>(static_cast<unsigned char>(ch));
    state = splitmix64(state);
  }
  return state;
}

void append_kv(std::string& out, const char* key, std::int64_t v) {
  if (out.back() != '{') out.push_back(',');
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_kv_d(std::string& out, const char* key, double v) {
  if (out.back() != '{') out.push_back(',');
  out += '"';
  out += key;
  out += "\":";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

void append_kv_s(std::string& out, const char* key, const std::string& v) {
  if (out.back() != '{') out.push_back(',');
  out += '"';
  out += key;
  out += "\":\"";
  out += v;  // tenant ids are [A-Za-z0-9._-]: no JSON escaping needed
  out += '"';
}

void append_latency(std::string& out, const char* prefix,
                    const obs::HistogramSnapshot& h) {
  std::string key(prefix);
  const std::size_t base = key.size();
  key += "_count";
  append_kv(out, key.c_str(), h.count);
  key.resize(base);
  key += "_p50_ms";
  append_kv_d(out, key.c_str(), h.p50_millis());
  key.resize(base);
  key += "_p99_ms";
  append_kv_d(out, key.c_str(), h.p99_millis());
}

void append_tenant_json(std::string& out, const TenantStats& t) {
  out += '{';
  append_kv_s(out, "id", t.id);
  append_kv(out, "resident", t.resident ? 1 : 0);
  append_kv(out, "rung", t.rung);
  append_kv(out, "sealed", t.sealed ? 1 : 0);
  append_kv(out, "events", t.events);
  append_kv(out, "batches", t.batches);
  append_kv(out, "queries", t.queries);
  append_kv(out, "quota_rejections", t.quota_rejections);
  append_kv(out, "promotions", t.promotions);
  append_kv(out, "evictions", t.evictions);
  append_kv(out, "restores", t.restores);
  append_kv(out, "sketch_bytes", t.sketch_bytes);
  append_kv_d(out, "hll_estimate", t.hll_estimate);
  append_latency(out, "ingest", t.ingest_latency);
  append_latency(out, "query", t.query_latency);
  out += '}';
}

}  // namespace

const char* admit_name(Admit a) {
  switch (a) {
    case Admit::kOk: return "ok";
    case Admit::kQuota: return "quota-exceeded";
    case Admit::kInvalidId: return "invalid-id";
    case Admit::kTooManyTenants: return "too-many-tenants";
    case Admit::kUnknownTenant: return "unknown-tenant";
    case Admit::kError: return "error";
  }
  return "unknown";
}

struct TenantRegistry::Tenant {
  /// 2^10 one-byte HLL registers: ~1 KB per tenant, ~3% standard error.
  explicit Tenant(int dim) : replay(dim), hll(10) {}

  std::string id;
  /// LRU touch stamp and residency mirror — atomics so the eviction scan
  /// reads them without the tenant mutex.
  std::atomic<std::uint64_t> last_used{0};
  std::atomic<bool> resident{false};

  std::mutex mu;
  // Everything below is guarded by mu.
  std::unique_ptr<ClusteringEngine> engine;  ///< null while spilled
  int rung = 0;
  bool sealed = false;  ///< replay overflowed; fixed at this rung
  EventBatch replay;    ///< events since birth, for promotion replay
  HyperLogLog hll;      ///< distinct points ever inserted

  double tokens = 0.0;
  bool bucket_primed = false;
  Timer bucket_timer;

  std::int64_t events = 0;
  std::int64_t batches = 0;
  std::int64_t queries = 0;
  std::int64_t quota_rejections = 0;
  std::int64_t promotions = 0;
  std::int64_t evictions = 0;
  std::int64_t restores = 0;
  obs::LatencyHistogram ingest_latency;
  obs::LatencyHistogram query_latency;
};

TenantRegistry::TenantRegistry(const TenantRegistryOptions& options)
    : options_(options) {
  SKC_CHECK(options_.dim >= 1);
  // Tenant engines are made lazily; refuse a dimension their finalize walk
  // cannot enumerate before the first one is.
  SKC_CHECK_MSG(options_.dim <= HierarchicalGrid::kMaxWalkDim,
                "the finalize walk enumerates 2^d children; dimension too large");
  SKC_CHECK(options_.max_resident >= 1);
  SKC_CHECK(options_.num_rungs >= 1);
  SKC_CHECK(options_.rung_scale >= 2);
  // Ladder: back() is the configured (full) geometry; each step down
  // divides max_points by rung_scale, floored at min_rung_points.
  // Duplicate rungs are collapsed so promotion always strictly grows.
  rungs_.push_back(options_.engine.streaming);
  for (int r = 1; r < options_.num_rungs; ++r) {
    StreamingOptions smaller = rungs_.front();
    const std::int64_t scaled = static_cast<std::int64_t>(smaller.max_points) /
                                options_.rung_scale;
    const std::int64_t floored = std::max(scaled, options_.min_rung_points);
    if (floored >= static_cast<std::int64_t>(rungs_.front().max_points)) break;
    smaller.max_points = static_cast<PointIndex>(floored);
    if (smaller.max_live_points > 0) {
      smaller.max_live_points =
          std::max<std::int64_t>(smaller.max_live_points / options_.rung_scale,
                                 1024);
    }
    rungs_.insert(rungs_.begin(), smaller);
  }
  pool_ = std::make_unique<ThreadPool>(
      static_cast<std::size_t>(std::max(options_.pool_threads, 0)));
}

TenantRegistry::~TenantRegistry() {
  // Every engine destructor waits out its own drain tasks on the shared
  // pool, so the engines must go before the pool: tenants_ is declared
  // after pool_, hence destroyed first — made explicit here.
  std::lock_guard<std::mutex> lock(reg_mu_);
  tenants_.clear();
}

std::unique_ptr<ClusteringEngine> TenantRegistry::make_engine(
    const Tenant& t, int rung, std::optional<std::string_view> state) const {
  EngineOptions eo = options_.engine;
  eo.streaming = rungs_[static_cast<std::size_t>(rung)];
  eo.shared_pool = pool_.get();
  CoresetParams params = options_.params;
  std::uint64_t seed_state = options_.params.seed ^ id_hash(t.id);
  params.seed = splitmix64(seed_state);
  if (state) return ClusteringEngine::from_state(options_.dim, params, eo, *state);
  return std::make_unique<ClusteringEngine>(options_.dim, params, eo);
}

std::string TenantRegistry::spill_path(const std::string& id) const {
  // Ids are [A-Za-z0-9._-] (no '/'), so the id is path-safe as a filename;
  // the default tenant spills as "_default".
  return options_.spill_dir + "/" + (id.empty() ? "_default" : id) + ".tnt";
}

TenantRegistry::Tenant* TenantRegistry::find(std::string_view id) const {
  std::lock_guard<std::mutex> lock(reg_mu_);
  const auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second.get();
}

TenantRegistry::Tenant* TenantRegistry::find_or_create(std::string_view id,
                                                       Admit& verdict) {
  if (!id.empty() && !net::valid_tenant_id(id)) {
    verdict = Admit::kInvalidId;
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(reg_mu_);
  auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    if (options_.max_tenants > 0 &&
        static_cast<int>(tenants_.size()) >= options_.max_tenants) {
      verdict = Admit::kTooManyTenants;
      return nullptr;
    }
    auto t = std::make_unique<Tenant>(options_.dim);
    t->id.assign(id);
    it = tenants_.emplace(std::string(id), std::move(t)).first;
  }
  verdict = Admit::kOk;
  return it->second.get();
}

bool TenantRegistry::ensure_resident_locked(Tenant& t) {
  if (t.engine) return true;
  if (t.events == 0) {
    // First touch: birth on the smallest rung.
    t.engine = make_engine(t, t.rung);
    t.resident.store(true, std::memory_order_release);
    resident_count_.fetch_add(1, std::memory_order_acq_rel);
    return true;
  }
  return restore_locked(t);
}

bool TenantRegistry::spill_locked(Tenant& t) {
  if (options_.spill_dir.empty() || !t.engine) return false;
  SKC_TRACE_SPAN("spill");
  const std::string path = spill_path(t.id);
  serial::Writer out;
  out.put(kSpillMagic);
  out.put<std::uint32_t>(static_cast<std::uint32_t>(t.rung));
  out.put<std::uint8_t>(t.sealed ? 1 : 0);
  put_replay(out, t.replay);
  {
    SKC_TRACE_SPAN("save_state");
    t.engine->save_state(out);
  }
  // Write to a sibling temp file and rename into place only after a clean
  // write: a crash mid-spill must never leave a torn file at the canonical
  // path (the tenant would fail restore on every later touch).
  const std::string tmp = path + ".tmp";
  const bool written = [&] {
    SKC_TRACE_SPAN("write_file");
    return serial::write_file(tmp, out.view()) &&
           std::rename(tmp.c_str(), path.c_str()) == 0;
  }();
  if (!written) {
    spill_failures_.fetch_add(1, std::memory_order_relaxed);
    std::remove(tmp.c_str());
    return false;
  }
  t.engine.reset();  // shuts down, waiting out this engine's drain tasks
  t.replay = EventBatch(options_.dim);
  t.resident.store(false, std::memory_order_release);
  resident_count_.fetch_sub(1, std::memory_order_acq_rel);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  ++t.evictions;
  return true;
}

bool TenantRegistry::restore_locked(Tenant& t) {
  SKC_TRACE_SPAN("restore");
  const std::string path = spill_path(t.id);
  std::string bytes;
  {
    SKC_TRACE_SPAN("read_file");
    if (!serial::read_file(path, bytes)) return false;
  }
  serial::Reader in(bytes);
  std::uint64_t magic = 0;
  std::uint32_t rung = 0;
  std::uint8_t sealed = 0;
  if (!in.get(magic) || magic != kSpillMagic) return false;
  if (!in.get(rung) || rung != static_cast<std::uint32_t>(t.rung)) return false;
  if (!in.get(sealed) || (sealed != 0) != t.sealed) return false;
  EventBatch replay;
  if (!get_replay(in, options_.dim, options_.replay_capacity, replay)) return false;
  {
    SKC_TRACE_SPAN("load_state");
    t.engine = make_engine(t, t.rung, in.rest());
  }
  if (!t.engine) return false;
  t.replay = std::move(replay);
  t.resident.store(true, std::memory_order_release);
  resident_count_.fetch_add(1, std::memory_order_acq_rel);
  restores_.fetch_add(1, std::memory_order_relaxed);
  ++t.restores;
  std::remove(path.c_str());
  return true;
}

void TenantRegistry::maybe_promote_locked(Tenant& t) {
  const int top = static_cast<int>(rungs_.size()) - 1;
  while (!t.sealed && t.rung < top) {
    const double threshold =
        0.5 * static_cast<double>(rungs_[static_cast<std::size_t>(t.rung)]
                                      .max_points);
    if (t.hll.estimate() <= threshold) return;
    // Replay the tenant's whole event history into a fresh engine one rung
    // up (sketch geometries differ across rungs, so a linear merge cannot
    // carry state over — raw events can).
    std::unique_ptr<ClusteringEngine> next = make_engine(t, t.rung + 1);
    next->submit(t.replay);
    next->flush();
    t.engine = std::move(next);  // old engine shuts down here
    ++t.rung;
    ++t.promotions;
  }
  if (t.rung == top && !t.replay.empty()) {
    // Top of the ladder: no further promotion can replay, free the buffer.
    t.replay = EventBatch(options_.dim);
  }
}

Admit TenantRegistry::submit(std::string_view id, const Stream& batch) {
  return submit(id, EventBatch(batch, options_.dim));
}

Admit TenantRegistry::submit(std::string_view id, const EventBatch& batch) {
  SKC_CHECK_MSG(batch.dim() == options_.dim,
                "batch dimension does not match the registry");
  Admit verdict = Admit::kOk;
  Tenant* t = find_or_create(id, verdict);
  if (t == nullptr) return verdict;
  t->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(t->mu);
    obs::LatencyRecorder latency(t->ingest_latency);
    const auto n = static_cast<double>(batch.size());
    // 1. Token bucket first: a throttled tenant must be refused before any
    //    engine state is touched (and without restoring a spilled engine).
    const TenantQuotas& q = options_.quotas;
    if (q.max_events_per_second > 0.0) {
      const double burst = q.burst_events > 0.0 ? q.burst_events
                                                : q.max_events_per_second;
      if (!t->bucket_primed) {
        t->tokens = burst;
        t->bucket_primed = true;
        t->bucket_timer.reset();
      } else {
        t->tokens = std::min(
            burst, t->tokens + t->bucket_timer.seconds() *
                                   q.max_events_per_second);
        t->bucket_timer.reset();
      }
      // A batch larger than the burst can never be covered by a full bucket,
      // so require only min(n, burst) and let the balance go negative below:
      // the oversize batch is admitted once the bucket is full and the debt
      // throttles subsequent batches, preserving the long-run rate.
      if (t->tokens < std::min(n, burst)) {
        ++t->quota_rejections;
        return Admit::kQuota;
      }
    }
    if (!ensure_resident_locked(*t)) return Admit::kError;
    // 2. Footprint and backlog caps.
    if (q.max_sketch_bytes > 0 &&
        t->engine->sketch_bytes() > q.max_sketch_bytes) {
      ++t->quota_rejections;
      return Admit::kQuota;
    }
    if (q.max_queued_events > 0 &&
        t->engine->queue_backlog() + static_cast<std::int64_t>(batch.size()) >
            q.max_queued_events) {
      ++t->quota_rejections;
      return Admit::kQuota;
    }
    if (q.max_events_per_second > 0.0) t->tokens -= n;
    // 3. Admission done: count distinct points, promote if the HLL crossed
    //    the current rung's threshold (replays history, not this batch),
    //    then record this batch into the replay buffer and the engine.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch.op(i) == StreamOp::kInsert) t->hll.add_hash(point_hash(batch.point(i)));
    }
    maybe_promote_locked(*t);
    if (!t->sealed && t->rung + 1 < static_cast<int>(rungs_.size())) {
      if (t->replay.size() + batch.size() > options_.replay_capacity) {
        t->sealed = true;
        t->replay = EventBatch(options_.dim);
      } else {
        t->replay.append(batch, 0, batch.size());
      }
    }
    t->engine->submit(batch);
    t->events += static_cast<std::int64_t>(batch.size());
    ++t->batches;
  }
  enforce_residency();
  return Admit::kOk;
}

Admit TenantRegistry::query(std::string_view id, const EngineQuery& q,
                            EngineQueryResult& result) {
  if (!id.empty() && !net::valid_tenant_id(id)) return Admit::kInvalidId;
  Tenant* t = find(id);
  if (t == nullptr) return Admit::kUnknownTenant;
  t->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(t->mu);
    obs::LatencyRecorder latency(t->query_latency);
    if (!ensure_resident_locked(*t)) return Admit::kError;
    result = t->engine->query(q);
    ++t->queries;
  }
  enforce_residency();
  return Admit::kOk;
}

Admit TenantRegistry::checkpoint(std::string_view id, const std::string& path) {
  if (!id.empty() && !net::valid_tenant_id(id)) return Admit::kInvalidId;
  Tenant* t = find(id);
  if (t == nullptr) return Admit::kUnknownTenant;
  t->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  Admit verdict = Admit::kOk;
  {
    std::lock_guard<std::mutex> lock(t->mu);
    if (!ensure_resident_locked(*t)) return Admit::kError;
    if (!t->engine->checkpoint(path)) verdict = Admit::kError;
  }
  enforce_residency();
  return verdict;
}

void TenantRegistry::flush() {
  std::vector<Tenant*> all;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    all.reserve(tenants_.size());
    for (auto& [id, t] : tenants_) all.push_back(t.get());
  }
  for (Tenant* t : all) {
    std::lock_guard<std::mutex> lock(t->mu);
    if (t->engine) t->engine->flush();
  }
}

void TenantRegistry::enforce_residency() {
  if (options_.spill_dir.empty()) return;
  while (resident_count_.load(std::memory_order_acquire) >
         options_.max_resident) {
    Tenant* victim = nullptr;
    {
      // Pick the LRU resident tenant we can lock WITHOUT blocking: a
      // tenant mid-operation is skipped, so one tenant's long query never
      // stalls another tenant's admission.
      std::lock_guard<std::mutex> lock(reg_mu_);
      std::uint64_t best = 0;
      Tenant* candidate = nullptr;
      for (auto& [id, t] : tenants_) {
        if (!t->resident.load(std::memory_order_acquire)) continue;
        const std::uint64_t lu = t->last_used.load(std::memory_order_relaxed);
        if (candidate == nullptr || lu < best) {
          if (!t->mu.try_lock()) continue;  // busy — skip
          if (candidate != nullptr) candidate->mu.unlock();
          candidate = t.get();
          best = lu;
        }
      }
      victim = candidate;  // still holding victim->mu
    }
    if (victim == nullptr) return;  // everyone busy; the next op retries
    const bool spilled = victim->engine ? spill_locked(*victim) : false;
    victim->mu.unlock();
    if (!spilled) return;  // spill failed (or raced empty); do not spin
  }
}

bool TenantRegistry::exists(std::string_view id) const {
  return find(id) != nullptr;
}

std::int64_t TenantRegistry::tenant_count() const {
  std::lock_guard<std::mutex> lock(reg_mu_);
  return static_cast<std::int64_t>(tenants_.size());
}

RegistryStats TenantRegistry::stats() const {
  RegistryStats s;
  std::vector<Tenant*> all;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    all.reserve(tenants_.size());
    for (const auto& [id, t] : tenants_) all.push_back(t.get());
  }
  s.tenants = static_cast<std::int64_t>(all.size());
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.restores = restores_.load(std::memory_order_relaxed);
  s.spill_failures = spill_failures_.load(std::memory_order_relaxed);
  s.per_tenant.reserve(all.size());
  for (Tenant* t : all) {
    TenantStats ts;
    std::lock_guard<std::mutex> lock(t->mu);
    ts.id = t->id;
    ts.resident = t->engine != nullptr;
    ts.rung = t->rung;
    ts.sealed = t->sealed;
    ts.events = t->events;
    ts.batches = t->batches;
    ts.queries = t->queries;
    ts.quota_rejections = t->quota_rejections;
    ts.promotions = t->promotions;
    ts.evictions = t->evictions;
    ts.restores = t->restores;
    ts.sketch_bytes = t->engine ? t->engine->sketch_bytes() : 0;
    ts.hll_estimate = t->hll.estimate();
    ts.ingest_latency = t->ingest_latency.snapshot();
    ts.query_latency = t->query_latency.snapshot();
    if (ts.resident) ++s.resident;
    s.promotions += ts.promotions;
    if (ts.sealed) ++s.sealed;
    s.quota_rejections += ts.quota_rejections;
    s.resident_sketch_bytes += ts.sketch_bytes;
    s.per_tenant.push_back(std::move(ts));
  }
  return s;
}

std::string TenantRegistry::stats_json() const {
  const RegistryStats s = stats();
  std::string out;
  out.reserve(256 + s.per_tenant.size() * 192);
  out += '{';
  append_kv(out, "tenants", s.tenants);
  append_kv(out, "resident", s.resident);
  append_kv(out, "evictions", s.evictions);
  append_kv(out, "restores", s.restores);
  append_kv(out, "spill_failures", s.spill_failures);
  append_kv(out, "promotions", s.promotions);
  append_kv(out, "sealed", s.sealed);
  append_kv(out, "quota_rejections", s.quota_rejections);
  append_kv(out, "resident_sketch_bytes", s.resident_sketch_bytes);
  out += ",\"per_tenant\":[";
  for (std::size_t i = 0; i < s.per_tenant.size(); ++i) {
    if (i > 0) out += ',';
    append_tenant_json(out, s.per_tenant[i]);
  }
  out += "]}";
  return out;
}

bool TenantRegistry::tenant_stats_json(std::string_view id,
                                       std::string& out) const {
  const RegistryStats s = stats();
  for (const TenantStats& t : s.per_tenant) {
    if (t.id == id) {
      out.clear();
      append_tenant_json(out, t);
      return true;
    }
  }
  return false;
}

}  // namespace skc::tenant
