// TenantRegistry — stream-id namespaces over independent engine state.
//
// The Theorem 4.5 sketch is linear, so tenancy is routing and accounting,
// never algorithm: each stream id owns a full ClusteringEngine (its own
// shard builders, its own seed derived from the registry seed and the id),
// and the registry multiplexes thousands of them into one process under a
// bounded resident set.  Three mechanisms make that safe:
//
//   quotas     admission control BEFORE any state is touched: a per-tenant
//              token bucket on ingest events/s, a cap on the tenant's
//              sketch footprint (ClusteringEngine::sketch_bytes), and a cap
//              on its queued-but-unapplied backlog.  A violation is a typed
//              refusal (Admit::kQuota -> wire QUOTA_EXCEEDED), never a
//              stall — a noisy tenant is throttled without its neighbors'
//              latency paying for it.
//
//   HLL ladder every tenant carries an always-on HyperLogLog of the
//              distinct points it ever inserted.  Engines start on the
//              smallest rung of a geometric ladder of sketch sizes
//              (StreamingOptions.max_points scaled down, which shrinks the
//              o-guess grid); when the HLL estimate crosses half a rung's
//              design capacity the tenant is promoted: a fresh engine on
//              the next rung replays the tenant's bounded event buffer.
//              If the buffer ever overflows the tenant is sealed at its
//              current rung (counted, never wrong — the sketch still
//              summarizes every event; only the o-grid stops growing).
//
//   LRU spill  above `max_resident` live engines, the least-recently-used
//              tenant is checkpointed to disk (engine save_state — the
//              CRC-framed STRM6-backed format — plus the replay buffer,
//              under its own CRC-64)
//              and its engine freed; the next touch restores it
//              transparently.  HLL, quota, and stats state stay in RAM
//              (tiny), so admission decisions never need disk.
//
// Locking: reg_mu_ guards only the id -> Tenant map (tenants are created,
// never destroyed before the registry).  Every per-tenant field sits under
// that tenant's own mutex, held for the duration of one operation.
// Eviction selects a victim under reg_mu_ with try_lock only (a busy
// tenant is simply skipped), then spills holding just the victim's mutex —
// so no thread ever blocks on a tenant mutex while holding reg_mu_, and
// taking reg_mu_ while holding one tenant mutex cannot cycle.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "skc/common/timer.h"
#include "skc/coreset/params.h"
#include "skc/engine/engine.h"
#include "skc/obs/histogram.h"
#include "skc/sketch/hll.h"
#include "skc/stream/events.h"

namespace skc::tenant {

struct TenantQuotas {
  /// Sketch footprint cap per tenant (0 = unlimited).
  std::int64_t max_sketch_bytes = 0;
  /// Sustained ingest events/s per tenant via a token bucket (0 = unlimited).
  double max_events_per_second = 0.0;
  /// Bucket depth in events; 0 = one second's worth of rate.
  double burst_events = 0.0;
  /// Cap on queued-but-unapplied events per tenant (0 = unlimited).
  std::int64_t max_queued_events = 0;
};

struct TenantRegistryOptions {
  int dim = 2;
  CoresetParams params;
  /// Engine template for every tenant: num_shards, queue/drain geometry,
  /// merge mode, and the TOP-rung streaming options.  worker_threads and
  /// shared_pool are overridden — all tenant engines drain on one pool.
  EngineOptions engine;
  /// Default quotas applied to every tenant.
  TenantQuotas quotas;

  /// Threads on the shared drain pool (0 = inline drains, deterministic).
  int pool_threads = 4;

  /// Resident-engine cap; past it the LRU tenant spills to spill_dir.
  int max_resident = 256;
  /// Hard cap on known tenants, resident or spilled (0 = unlimited).
  int max_tenants = 0;
  /// Where cold tenants spill; empty disables eviction (the resident set
  /// then grows without bound).
  std::string spill_dir;

  /// Ladder depth: number of engine sizes from smallest to the configured
  /// streaming options.  1 = every tenant starts full-size (no promotion).
  int num_rungs = 3;
  /// max_points divisor between adjacent rungs.
  int rung_scale = 16;
  /// Smallest rung's max_points floor.
  std::int64_t min_rung_points = 1 << 12;
  /// Replay-buffer bound per tenant (events kept for promotion replay);
  /// overflow seals the tenant at its current rung.
  std::size_t replay_capacity = 1 << 16;
};

enum class Admit : std::uint8_t {
  kOk = 0,
  kQuota = 1,        ///< token bucket, sketch bytes, or backlog exceeded
  kInvalidId = 2,    ///< id fails net::valid_tenant_id
  kTooManyTenants = 3,
  kUnknownTenant = 4,  ///< op on an id that was never ingested
  kError = 5,          ///< spill restore failed (state preserved on disk)
};

const char* admit_name(Admit a);

/// Point-in-time per-tenant counters (stats() snapshot order: by id).
struct TenantStats {
  std::string id;
  bool resident = false;
  int rung = 0;
  bool sealed = false;
  std::int64_t events = 0;
  std::int64_t batches = 0;
  std::int64_t queries = 0;
  std::int64_t quota_rejections = 0;
  std::int64_t promotions = 0;
  std::int64_t evictions = 0;
  std::int64_t restores = 0;
  std::int64_t sketch_bytes = 0;  ///< 0 while spilled
  double hll_estimate = 0.0;
  obs::HistogramSnapshot ingest_latency;
  obs::HistogramSnapshot query_latency;
};

struct RegistryStats {
  std::int64_t tenants = 0;
  std::int64_t resident = 0;
  std::int64_t evictions = 0;
  std::int64_t restores = 0;
  std::int64_t spill_failures = 0;
  std::int64_t promotions = 0;
  std::int64_t sealed = 0;
  std::int64_t quota_rejections = 0;
  std::int64_t resident_sketch_bytes = 0;
  std::vector<TenantStats> per_tenant;
};

class TenantRegistry {
 public:
  explicit TenantRegistry(const TenantRegistryOptions& options);
  ~TenantRegistry();

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Admits and ingests one batch for `id` (auto-creating the tenant on
  /// first touch; the empty id is the default tenant).  On kQuota nothing
  /// was enqueued — the caller maps it to the QUOTA_EXCEEDED wire error
  /// and the client backs off.  The batch's dim must be the registry's
  /// (checked).
  Admit submit(std::string_view id, const EventBatch& batch);
  /// The Stream entry: flattens once (checking every point's length) and
  /// submits the result.
  Admit submit(std::string_view id, const Stream& batch);

  /// Clustering query against one tenant's engine.  kUnknownTenant for an
  /// id that never ingested (queries do not create tenants).
  Admit query(std::string_view id, const EngineQuery& q,
              EngineQueryResult& result);

  /// Checkpoints one tenant's engine to `path` (engine save_state format).
  Admit checkpoint(std::string_view id, const std::string& path);

  /// Epoch barrier over every RESIDENT tenant (spilled tenants are already
  /// quiesced by construction).
  void flush();

  bool exists(std::string_view id) const;
  std::int64_t tenant_count() const;
  std::int64_t resident_count() const {
    return resident_count_.load(std::memory_order_acquire);
  }

  RegistryStats stats() const;
  /// stats() as one JSON object (stable key order), the TENANT_STATS reply.
  std::string stats_json() const;
  /// One tenant's stats as a JSON object; false for an unknown id.
  bool tenant_stats_json(std::string_view id, std::string& out) const;

  const TenantRegistryOptions& options() const { return options_; }
  /// The resolved ladder (index 0 = smallest rung; back() = configured).
  const std::vector<StreamingOptions>& rungs() const { return rungs_; }

 private:
  struct Tenant;

  Tenant* find_or_create(std::string_view id, Admit& verdict);
  Tenant* find(std::string_view id) const;

  /// All four run with t.mu held.
  bool ensure_resident_locked(Tenant& t);
  bool spill_locked(Tenant& t);
  bool restore_locked(Tenant& t);
  void maybe_promote_locked(Tenant& t);

  /// The tenant's engine at `rung`: empty, or holding `state` (a
  /// save_state() frame) parsed into its own shard builders, null if the
  /// state is refused.
  std::unique_ptr<ClusteringEngine> make_engine(
      const Tenant& t, int rung, std::optional<std::string_view> state = std::nullopt) const;
  std::string spill_path(const std::string& id) const;
  /// Spills LRU victims until the resident set fits max_resident.
  void enforce_residency();

  TenantRegistryOptions options_;
  std::vector<StreamingOptions> rungs_;
  std::unique_ptr<class ThreadPool> pool_;

  mutable std::mutex reg_mu_;
  std::map<std::string, std::unique_ptr<Tenant>, std::less<>> tenants_;

  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::int64_t> resident_count_{0};
  std::atomic<std::int64_t> evictions_{0};
  std::atomic<std::int64_t> restores_{0};
  std::atomic<std::int64_t> spill_failures_{0};
};

}  // namespace skc::tenant
