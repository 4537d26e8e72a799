#include "skc/cluster/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "skc/common/check.h"
#include "skc/common/random.h"
#include "skc/common/serial.h"
#include "skc/common/timer.h"
#include "skc/grid/hierarchical_grid.h"
#include "skc/obs/flight_recorder.h"
#include "skc/obs/trace.h"

namespace skc::cluster {

namespace {

/// host:port label for registry entries and metrics.
std::string address_label(const WorkerAddress& a) {
  return a.host + ":" + std::to_string(a.port);
}

/// Sends `events` over `client` as one INSERT/DELETE_BATCH per run of equal
/// ops, in order, stopping at the first failure; `acked(i, j)` runs after
/// each acknowledged run [i, j).  Returns the number of events acknowledged.
template <typename Acked>
std::size_t send_runs(net::SkcClient& client, const EventBatch& events,
                      Acked&& acked) {
  const auto dim = static_cast<std::size_t>(events.dim());
  std::size_t i = 0;
  while (i < events.size()) {
    std::size_t j = i;
    while (j < events.size() && events.op(j) == events.op(i)) ++j;
    const std::span<const Coord> coords =
        events.coords().subspan(i * dim, (j - i) * dim);
    net::BatchReply ack;
    const bool ok = events.op(i) == StreamOp::kInsert
                        ? client.insert_batch(events.dim(), coords, &ack)
                        : client.delete_batch(events.dim(), coords, &ack);
    if (!ok) break;
    acked(i, j);
    i = j;
  }
  return i;
}

}  // namespace

ClusterCoordinator::ClusterCoordinator(const CoordinatorOptions& options)
    : net::FrameServer(
          options.server,
          // The front door speaks version 2, but each worker hosts one
          // single-tenant engine, so only the default tenant has storage
          // behind it (the routing layer — owner_of(tenant, point) — is
          // already tenant-aware for deployments that put multi-tenant
          // servers behind the coordinator).
          net::FrontDoor{options.dim, options.streaming.log_delta,
                         "cluster workers host only the default tenant",
                         "unsupported message type at the coordinator"}),
      options_(options),
      protocol_net_(static_cast<int>(options.workers.size()) + 1),
      ingest_net_(static_cast<int>(options.workers.size()) + 1) {
  SKC_CHECK(options_.dim >= 1);
  // The query finalizes the workers' sketches here; refuse a dimension the
  // walk cannot enumerate before any worker is dialled.
  SKC_CHECK_MSG(options_.dim <= HierarchicalGrid::kMaxWalkDim,
                "the finalize walk enumerates 2^d children; dimension too large");
  fingerprint_ = engine_config_fingerprint(options_.dim, options_.params,
                                           options_.streaming);
  // Same derivation discipline as the engine's shard routing: key the point
  // hash off the configured seed so the worker split is reproducible.
  std::uint64_t state = options_.params.seed ^ 0x636c757374657231ULL;
  route_key_ = splitmix64(state);
}

ClusterCoordinator::~ClusterCoordinator() {
  // Drain the front door while this subclass (and its links) is still
  // alive — the base destructor's stop() would run after our state is gone.
  stop();
  stop_heartbeat();
}

bool ClusterCoordinator::connect(std::string& error) {
  SKC_CHECK_MSG(!connected_, "ClusterCoordinator::connect called twice");
  if (options_.workers.empty()) {
    error = "no workers configured";
    return false;
  }
  links_.reserve(options_.workers.size());
  for (std::size_t i = 0; i < options_.workers.size(); ++i) {
    auto link = std::make_unique<WorkerLink>();
    link->id = static_cast<int>(i);
    link->replay = EventBatch(options_.dim);
    link->address = options_.workers[i];
    const std::string label = address_label(link->address);
    if (!link->data.connect(link->address.host, link->address.port)) {
      error = "worker " + label + ": " + link->data.last_error();
      return false;
    }
    if (!link->heartbeat.connect(link->address.host, link->address.port)) {
      error = "worker " + label + " (heartbeat): " +
              link->heartbeat.last_error();
      return false;
    }
    net::WorkerHello hello;
    hello.worker_id = link->id;
    hello.dim = options_.dim;
    hello.k = options_.params.k;
    hello.log_delta = options_.streaming.log_delta;
    hello.fingerprint = fingerprint_;
    net::WorkerHelloReply reply;
    if (!link->data.worker_hello(hello, reply)) {
      error = "worker " + label + " hello failed: " + link->data.last_error();
      return false;
    }
    account(protocol_net_, link->id, link->data.last_request_payload(),
            link->data.last_reply_payload());
    if (!reply.ok) {
      error = "worker " + label + " refused registration: " + reply.message;
      return false;
    }
    registry_.add(link->id, label);
    registry_.mark_alive(link->id, /*backlog=*/0, reply.net_points,
                         /*events_applied=*/0);
    links_.push_back(std::move(link));
  }
  {
    std::lock_guard<std::mutex> lock(topo_mu_);
    slot_owner_.resize(links_.size());
    for (std::size_t i = 0; i < slot_owner_.size(); ++i) {
      slot_owner_[i] = static_cast<int>(i);
    }
  }
  connected_ = true;
  heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });
  return true;
}

void ClusterCoordinator::stop_heartbeat() {
  {
    std::lock_guard<std::mutex> lock(hb_stop_mu_);
    if (hb_stop_) {
      // Already stopped; fall through to the join below (idempotent).
    }
    hb_stop_ = true;
  }
  hb_stop_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
}

void ClusterCoordinator::account(Network& net, int id,
                                 std::size_t request_payload,
                                 std::size_t reply_payload) {
  net.send(0, id + 1, request_payload);
  net.send(id + 1, 0, reply_payload);
}

std::size_t ClusterCoordinator::slot_of(std::uint64_t tenant_hash,
                                        std::span<const Coord> p) const {
  // tenant_hash 0 (the default tenant) leaves the legacy point-only route
  // untouched; any other stream id perturbs the key so tenants spread
  // independently while one tenant's identical points still co-locate.
  std::uint64_t h = route_key_ ^ tenant_hash;
  for (Coord c : p) {
    std::uint64_t state =
        h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(c));
    h = splitmix64(state);
  }
  return static_cast<std::size_t>(h % links_.size());
}

int ClusterCoordinator::owner_of(std::string_view tenant,
                                 std::span<const Coord> p) const {
  std::uint64_t tenant_hash = 0;
  if (!tenant.empty()) {
    std::uint64_t state = 0x74656e616e743031ULL;  // "tenant01"
    for (const char ch : tenant) {
      state ^= static_cast<std::uint64_t>(static_cast<unsigned char>(ch));
      state = splitmix64(state);
    }
    tenant_hash = state == 0 ? 1 : state;  // never collapse onto the default
  }
  const std::size_t slot = slot_of(tenant_hash, p);
  const std::vector<int> owners = owners_snapshot();
  return owners[slot];
}

std::vector<int> ClusterCoordinator::owners_snapshot() const {
  std::lock_guard<std::mutex> lock(topo_mu_);
  return slot_owner_;
}

bool ClusterCoordinator::forward_to(int owner, const EventBatch& events,
                                    EventBatch& leftover) {
  WorkerLink& link = *links_[static_cast<std::size_t>(owner)];
  std::lock_guard<std::mutex> lock(link.mu);
  const std::size_t acked =
      send_runs(link.data, events, [&](std::size_t i, std::size_t j) {
        account(ingest_net_, link.id, link.data.last_request_payload(),
                link.data.last_reply_payload());
        link.replay.append(events, i, j);
        const auto n = static_cast<std::int64_t>(j - i);
        events_forwarded_.fetch_add(n, std::memory_order_relaxed);
        registry_.record_forwarded(link.id, n,
                                   static_cast<std::int64_t>(link.replay.size()));
      });
  if (acked < events.size()) {
    leftover.append(events, acked, events.size());
    return false;
  }
  if (link.replay.size() > options_.replay_capacity) {
    // Bound coordinator-side state: refresh the member checkpoint (which
    // clears the replay buffer) instead of buffering without limit.  A
    // failure here is a transport failure — report it so the caller runs
    // failover; every event above was acknowledged, so leftover stays
    // empty.
    if (!checkpoint_locked(link)) return false;
  }
  return true;
}

bool ClusterCoordinator::submit(const EventBatch& batch) {
  SKC_CHECK_MSG(connected_, "submit before connect");
  SKC_CHECK_MSG(batch.dim() == options_.dim,
                "event dimension does not match the cluster");
  obs::LatencyRecorder latency(forward_latency_);
  batches_.fetch_add(1, std::memory_order_relaxed);
  EventBatch pending = batch;
  // One re-route attempt per possible failover, plus the initial pass.
  int attempts = static_cast<int>(links_.size()) + 1;
  while (!pending.empty() && attempts-- > 0) {
    const std::vector<int> owners = owners_snapshot();
    // Part links_.size() collects the events of slots no survivor owns.
    const std::size_t unowned = links_.size();
    std::vector<EventBatch> buckets =
        pending.split(unowned + 1, [&](std::span<const Coord> p) {
          const int owner = owners[slot_of(/*tenant_hash=*/0, p)];
          return owner < 0 ? unowned : static_cast<std::size_t>(owner);
        });
    if (!buckets[unowned].empty()) return false;
    pending.clear();
    for (std::size_t owner = 0; owner < unowned; ++owner) {
      if (buckets[owner].empty()) continue;
      EventBatch leftover(options_.dim);
      if (forward_to(static_cast<int>(owner), buckets[owner], leftover)) {
        continue;
      }
      // Persistent BUSY is backpressure, not death: surface it to the
      // caller instead of failing over a healthy worker.
      {
        WorkerLink& link = *links_[owner];
        std::lock_guard<std::mutex> lock(link.mu);
        if (link.data.last_status() == net::Status::kBusy) return false;
      }
      handle_worker_failure(static_cast<int>(owner));
      pending.append(leftover, 0, leftover.size());
    }
  }
  return pending.empty();
}

void ClusterCoordinator::flush() {
  SKC_CHECK_MSG(connected_, "flush before connect");
  // Every forward was acknowledged post-enqueue, so "backlog == 0" on a
  // worker means everything this coordinator sent it has been applied.
  for (auto& link : links_) {
    while (registry_.alive(link->id)) {
      net::HeartbeatReply r;
      bool ok = false;
      {
        std::lock_guard<std::mutex> lock(link->hb_mu);
        ok = link->heartbeat.heartbeat(r);
        if (ok) {
          account(protocol_net_, link->id,
                  link->heartbeat.last_request_payload(),
                  link->heartbeat.last_reply_payload());
        }
      }
      if (!ok || r.backlog == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

bool ClusterCoordinator::checkpoint_locked(WorkerLink& link) {
  net::SketchSnapshot snap;
  {
    obs::LatencyRecorder rec(link.merge_latency);
    if (!link.data.merge_sketch(snap)) return false;
  }
  account(protocol_net_, link.id, link.data.last_request_payload(),
          link.data.last_reply_payload());
  link.snapshot = std::move(snap);
  link.replay.clear();
  member_snapshots_.fetch_add(1, std::memory_order_relaxed);
  registry_.record_snapshot(link.id, link.snapshot.events_applied);
  return true;
}

bool ClusterCoordinator::checkpoint_members() {
  SKC_CHECK_MSG(connected_, "checkpoint before connect");
  bool all_ok = true;
  for (auto& link : links_) {
    if (!registry_.alive(link->id)) continue;
    bool ok = false;
    {
      std::lock_guard<std::mutex> lock(link->mu);
      ok = checkpoint_locked(*link);
    }
    if (!ok) {
      handle_worker_failure(link->id);
      all_ok = false;
    }
  }
  return all_ok;
}

void ClusterCoordinator::handle_worker_failure(int id) {
  if (!registry_.mark_dead(id)) return;  // another detector already claimed it
  failovers_.fetch_add(1, std::memory_order_relaxed);
  WorkerLink& dead = *links_[static_cast<std::size_t>(id)];
  net::SketchSnapshot snap;
  EventBatch replay;
  {
    std::lock_guard<std::mutex> lock(dead.mu);
    snap = std::move(dead.snapshot);
    replay = std::move(dead.replay);
    dead.snapshot = net::SketchSnapshot{};
    dead.replay.clear();
    dead.data.close();
  }
  {
    std::lock_guard<std::mutex> lock(dead.hb_mu);
    dead.heartbeat.close();
  }

  while (true) {
    const int survivor = registry_.pick_survivor(id);
    {
      // Re-point every slot the dead worker owned; do this before shipping
      // state so new ingest already routes to the survivor (the replay
      // below lands behind it on the same serialized data connection).
      std::lock_guard<std::mutex> lock(topo_mu_);
      for (int& owner : slot_owner_) {
        if (owner == id) owner = survivor;
      }
    }
    if (survivor < 0) return;  // cluster is out of workers; slots now -1

    WorkerLink& s = *links_[static_cast<std::size_t>(survivor)];
    bool ok = true;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      if (!snap.blob.empty()) {
        // The member checkpoint summarizes every event the dead worker had
        // applied at its watermark; the linear merge makes adoption one
        // sketch addition on the survivor.
        ok = s.data.ship_snapshot(snap);
        if (ok) {
          account(protocol_net_, s.id, s.data.last_request_payload(),
                  s.data.last_reply_payload());
          snap = net::SketchSnapshot{};  // adopted; do not re-ship
        }
      }
      if (ok) {
        // Replay the tail forwarded past the watermark, preserving op order,
        // and keep any unacknowledged rest for the next survivor.
        const std::size_t acked =
            send_runs(s.data, replay, [&](std::size_t i, std::size_t j) {
              account(protocol_net_, s.id, s.data.last_request_payload(),
                      s.data.last_reply_payload());
              replayed_events_.fetch_add(static_cast<std::int64_t>(j - i),
                                         std::memory_order_relaxed);
              s.replay.append(replay, i, j);
            });
        ok = acked == replay.size();
        EventBatch rest(options_.dim);
        rest.append(replay, acked, replay.size());
        replay = std::move(rest);
      }
      if (ok && s.replay.size() > options_.replay_capacity) {
        checkpoint_locked(s);  // best effort; a failure surfaces below
      }
    }
    if (ok) {
      registry_.record_failover_absorbed(survivor);
      return;
    }
    // The survivor failed during adoption: cascade (bounded by the worker
    // count), then loop to place the remaining state elsewhere.
    handle_worker_failure(survivor);
  }
}

EngineQueryResult ClusterCoordinator::query(const EngineQuery& q) {
  SKC_CHECK_MSG(connected_, "query before connect");
  // Flight-recorder arm: if this fan-out runs past the slow threshold, its
  // full span tree (merge RPCs included) lands in the recorder even with
  // tracing off.
  obs::QueryCapture capture("cluster_query",
                            "workers=" + std::to_string(workers()));
  SKC_TRACE_SPAN("cluster_query");
  obs::LatencyRecorder latency(query_latency_);
  queries_.fetch_add(1, std::memory_order_relaxed);

  EngineQueryResult result;
  // One retry: a worker killed mid-round costs one failover plus a second
  // merge round, never an error (as long as a survivor remains).
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::vector<int> owners = owners_snapshot();
    std::sort(owners.begin(), owners.end());
    owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
    if (!owners.empty() && owners.front() < 0) owners.erase(owners.begin());
    if (owners.empty()) {
      result.error = "no live workers";
      return result;
    }

    const Timer merge_timer;
    bool round_failed = false;
    int failed_owner = -1;
    // One builder per worker sketch, finalized together below: the sum is
    // read in place, never merged into one builder.
    std::vector<std::unique_ptr<StreamingCoresetBuilder>> sketches;
    {
      SKC_TRACE_SPAN("cluster_merge");
      for (const int owner : owners) {
        WorkerLink& link = *links_[static_cast<std::size_t>(owner)];
        net::SketchSnapshot snap;
        {
          std::lock_guard<std::mutex> lock(link.mu);
          bool ok = false;
          {
            obs::LatencyRecorder rec(link.merge_latency);
            ok = link.data.merge_sketch(snap);
          }
          if (!ok) {
            round_failed = true;
            failed_owner = owner;
          } else {
            account(protocol_net_, link.id, link.data.last_request_payload(),
                    link.data.last_reply_payload());
            merge_rounds_.fetch_add(1, std::memory_order_relaxed);
            // The fetched sketch IS the member checkpoint: everything the
            // worker has applied, including the replay buffer's events.
            link.snapshot = snap;
            link.replay.clear();
            member_snapshots_.fetch_add(1, std::memory_order_relaxed);
            registry_.record_snapshot(link.id, snap.events_applied);
          }
        }
        if (round_failed) break;
        serial::Reader in(snap.blob);
        sketches.push_back(std::make_unique<StreamingCoresetBuilder>(
            options_.dim, options_.params, options_.streaming));
        if (!sketches.back()->load(in) || !in.done()) {
          result.error = "worker sketch failed to decode";
          return result;
        }
      }
    }
    if (round_failed) {
      handle_worker_failure(failed_owner);
      continue;
    }
    // The same two steps a single engine runs over its shards, so a cluster
    // query over a partitioned stream matches one engine fed the union.
    std::vector<const StreamingCoresetBuilder*> parts;
    for (const auto& sketch : sketches) parts.push_back(sketch.get());
    result = finalize_merged(parts, merge_timer);
    solve_merged(result, q, options_.params, options_.streaming.log_delta);
    return result;
  }
  result.error = "query failed after failover retry";
  return result;
}

void ClusterCoordinator::shutdown_workers() {
  for (auto& link : links_) {
    if (!registry_.alive(link->id)) continue;
    std::lock_guard<std::mutex> lock(link->mu);
    if (link->data.shutdown_server()) {
      account(protocol_net_, link->id, link->data.last_request_payload(),
              link->data.last_reply_payload());
    }
  }
}

void ClusterCoordinator::heartbeat_loop() {
  std::unique_lock<std::mutex> lock(hb_stop_mu_);
  while (!hb_stop_) {
    hb_stop_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.heartbeat_interval_ms),
        [&] { return hb_stop_; });
    if (hb_stop_) return;
    lock.unlock();
    for (auto& link : links_) {
      if (registry_.status(link->id).state == WorkerState::kDead) continue;
      net::HeartbeatReply r;
      bool ok = false;
      {
        std::lock_guard<std::mutex> hb_lock(link->hb_mu);
        const std::int64_t t0 = obs::Tracer::instance().now_micros();
        ok = link->heartbeat.connected() && link->heartbeat.heartbeat(r);
        const std::int64_t t1 = obs::Tracer::instance().now_micros();
        if (ok) {
          account(protocol_net_, link->id,
                  link->heartbeat.last_request_payload(),
                  link->heartbeat.last_reply_payload());
          if (r.tracer_now_micros != 0) {
            // NTP midpoint: the worker read its tracer clock somewhere
            // inside [t0, t1], so (t0+t1)/2 - worker_now estimates the
            // coordinator-minus-worker offset with error bounded by RTT/2.
            // The lowest-RTT probe so far carries the tightest bound.
            const std::int64_t rtt = t1 - t0;
            const std::int64_t best =
                link->best_rtt_micros.load(std::memory_order_relaxed);
            if (best < 0 || rtt < best) {
              link->best_rtt_micros.store(rtt, std::memory_order_relaxed);
              link->clock_offset_micros.store(
                  (t0 + t1) / 2 - r.tracer_now_micros,
                  std::memory_order_relaxed);
            }
          }
        }
      }
      if (ok) {
        registry_.mark_alive(link->id, r.backlog, r.net_points,
                             r.events_applied);
      } else if (registry_.mark_missed(link->id,
                                       options_.heartbeat_miss_limit)) {
        handle_worker_failure(link->id);
      }
    }
    lock.lock();
  }
}

ClusterMetrics ClusterCoordinator::metrics() const {
  ClusterMetrics m;
  m.workers = static_cast<int>(links_.size());
  m.workers_alive = registry_.alive_count();
  m.batches = batches_.load(std::memory_order_relaxed);
  m.events_forwarded = events_forwarded_.load(std::memory_order_relaxed);
  m.queries = queries_.load(std::memory_order_relaxed);
  m.merge_rounds = merge_rounds_.load(std::memory_order_relaxed);
  m.member_snapshots = member_snapshots_.load(std::memory_order_relaxed);
  m.failovers = failovers_.load(std::memory_order_relaxed);
  m.replayed_events = replayed_events_.load(std::memory_order_relaxed);

  const Network::Stats protocol = protocol_net_.total();
  m.protocol_bytes = static_cast<std::int64_t>(protocol.bytes);
  m.protocol_messages = static_cast<std::int64_t>(protocol.messages);
  const Network::Stats ingest = ingest_net_.total();
  m.ingest_bytes = static_cast<std::int64_t>(ingest.bytes);
  m.ingest_messages = static_cast<std::int64_t>(ingest.messages);

  m.worker_protocol_bytes.reserve(links_.size());
  m.worker_ingest_bytes.reserve(links_.size());
  m.worker_wire_bytes.reserve(links_.size());
  m.worker_merge_latency.reserve(links_.size());
  for (auto& link : links_) {
    m.worker_protocol_bytes.push_back(
        static_cast<std::int64_t>(protocol_net_.machine_bytes(link->id + 1)));
    m.worker_ingest_bytes.push_back(
        static_cast<std::int64_t>(ingest_net_.machine_bytes(link->id + 1)));
    std::int64_t wire = 0;
    {
      std::lock_guard<std::mutex> lock(link->mu);
      wire += link->data.wire_bytes_sent() + link->data.wire_bytes_received();
    }
    {
      std::lock_guard<std::mutex> lock(link->hb_mu);
      wire += link->heartbeat.wire_bytes_sent() +
              link->heartbeat.wire_bytes_received();
    }
    m.worker_wire_bytes.push_back(wire);
    m.worker_merge_latency.push_back(link->merge_latency.snapshot());
  }
  m.worker_status = registry_.all();
  m.query_latency = query_latency_.snapshot();
  m.forward_latency = forward_latency_.snapshot();
  static_cast<TransportMetrics&>(m) = transport_metrics();
  return m;
}

FleetStats ClusterCoordinator::fleet_stats() {
  FleetStats f;
  f.workers.reserve(links_.size());
  for (auto& link : links_) {
    FleetWorker w;
    w.id = link->id;
    w.address = address_label(link->address);
    w.clock_offset_micros =
        link->clock_offset_micros.load(std::memory_order_relaxed);
    w.best_rtt_micros = link->best_rtt_micros.load(std::memory_order_relaxed);
    w.alive = registry_.alive(link->id);
    if (w.alive) {
      std::lock_guard<std::mutex> lock(link->mu);
      if (link->data.worker_stats(w.stats)) {
        account(protocol_net_, link->id, link->data.last_request_payload(),
                link->data.last_reply_payload());
      } else {
        // A failed pull is a scrape gap, not a failover trigger — the
        // heartbeat prober owns liveness.
        w.alive = false;
      }
    }
    f.workers.push_back(std::move(w));
  }
  return f;
}

namespace {

/// Extracts the "droppedSpans" count from a worker's local dump (our own
/// dump_chrome_json layout); 0 when absent.
std::int64_t dump_dropped_spans(const std::string& dump) {
  const std::string_view key = "\"droppedSpans\":";
  const std::size_t at = dump.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoll(dump.c_str() + at + key.size(), nullptr, 10);
}

}  // namespace

std::string ClusterCoordinator::cluster_trace_json() {
  obs::Tracer& tracer = obs::Tracer::instance();

  struct Lane {
    int pid = 0;
    std::string name;
    std::string events;  ///< rebased, comma-joined chrome items (may be "")
    std::int64_t offset_micros = 0;
    std::int64_t rtt_micros = -1;
    std::int64_t dropped = 0;
  };
  std::vector<Lane> lanes;
  lanes.reserve(links_.size() + 1);
  {
    Lane own;
    own.pid = 0;
    own.name = "coordinator";
    own.rtt_micros = 0;
    own.events = obs::rebase_trace_events(tracer.dump_chrome_json(), 0, 0);
    own.dropped = tracer.total_dropped();
    lanes.push_back(std::move(own));
  }
  for (auto& link : links_) {
    Lane lane;
    lane.pid = link->id + 1;
    lane.name =
        "worker" + std::to_string(link->id) + " " + address_label(link->address);
    lane.offset_micros =
        link->clock_offset_micros.load(std::memory_order_relaxed);
    lane.rtt_micros = link->best_rtt_micros.load(std::memory_order_relaxed);
    if (registry_.alive(link->id)) {
      std::string dump;
      std::lock_guard<std::mutex> lock(link->mu);
      if (link->data.trace_json(dump)) {
        account(protocol_net_, link->id, link->data.last_request_payload(),
                link->data.last_reply_payload());
        // Shift the worker's timestamps onto the coordinator's tracer
        // clock: coordinator_time = worker_time + offset.
        lane.events =
            obs::rebase_trace_events(dump, lane.pid, lane.offset_micros);
        lane.dropped = dump_dropped_spans(dump);
      }
    }
    lanes.push_back(std::move(lane));
  }

  std::int64_t dropped_total = 0;
  for (const Lane& lane : lanes) dropped_total += lane.dropped;

  std::string out;
  out.reserve(1 << 16);
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
                "\"droppedSpans\":%" PRId64 ",\"workerClockOffsetsMicros\":[",
                dropped_total);
  out += buf;
  for (std::size_t i = 1; i < lanes.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%" PRId64, i > 1 ? "," : "",
                  lanes[i].offset_micros);
    out += buf;
  }
  out += "],\"workerHeartbeatRttMicros\":[";
  for (std::size_t i = 1; i < lanes.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%" PRId64, i > 1 ? "," : "",
                  lanes[i].rtt_micros);
    out += buf;
  }
  out += "]},\"traceEvents\":[";
  bool first = true;
  for (const Lane& lane : lanes) {
    // One chrome://tracing process lane per node, named via metadata.
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",", lane.pid, lane.name.c_str());
    out += buf;
    first = false;
    if (!lane.events.empty()) {
      out += ',';
      out += lane.events;
    }
  }
  out += "]}";
  return out;
}

net::Status ClusterCoordinator::ingest(std::string_view /*tenant*/,
                                       const EventBatch& events,
                                       std::string& reply) {
  if (submit(events)) return net::Status::kOk;
  reply = net::encode_text("cluster could not accept the batch");
  return net::Status::kEngineError;
}

net::Status ClusterCoordinator::answer_query(std::string_view /*tenant*/,
                                             const EngineQuery& q,
                                             EngineQueryResult& result,
                                             std::string& /*reply*/) {
  result = query(q);
  return net::Status::kOk;  // a cluster-level miss travels in result.ok/error
}

net::Status ClusterCoordinator::serve(net::MsgType type,
                                      std::string_view /*tenant*/,
                                      std::string_view /*body*/,
                                      std::string& reply) {
  using net::MsgType;
  using net::Status;
  switch (type) {
    case MsgType::kMetrics:
      reply = net::encode_text(cluster_metrics_json(metrics()));
      return Status::kOk;

    case MsgType::kCheckpoint: {
      // The coordinator's durable state is its members' checkpoints; the
      // request path is ignored (blobs stay coordinator-side).
      if (draining()) return Status::kShuttingDown;
      if (!checkpoint_members()) {
        reply = net::encode_text("a member checkpoint failed (failover ran)");
        return Status::kEngineError;
      }
      return Status::kOk;
    }

    case MsgType::kPrometheus:
      // Coordinator-local families plus the skc_cluster_* fleet section
      // merged from every worker's WORKER_STATS pull.
      reply = net::encode_text(cluster_prometheus_text(metrics()) +
                               fleet_prometheus_text(fleet_stats()));
      return Status::kOk;

    case MsgType::kWorkerStats: {
      // The coordinator's own lane of the fleet scrape: fan-out ops map
      // onto the shared op vocabulary (forward = submit_batch, query =
      // query); there is no local checkpoint histogram.
      const TransportMetrics transport = transport_metrics();
      net::WorkerStatsReply out;
      out.submit = net::HistogramWire::from(forward_latency_.snapshot());
      out.query = net::HistogramWire::from(query_latency_.snapshot());
      out.net_request = net::HistogramWire::from(transport.net_request_latency);
      out.trace_dropped_spans = transport.trace_dropped_spans;
      reply = out.encode();
      return Status::kOk;
    }

    default:
      // Worker-side RPCs (a coordinator is not a worker) and TENANT_STATS
      // (its workers are single-tenant engines).
      return unsupported(reply);
  }
}

}  // namespace skc::cluster
