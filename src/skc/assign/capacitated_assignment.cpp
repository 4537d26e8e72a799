#include "skc/assign/capacitated_assignment.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <utility>

#include "skc/common/check.h"
#include "skc/geometry/metric.h"

namespace skc {

double CapacitatedAssignment::max_load() const {
  double m = 0.0;
  for (double l : loads) m = std::max(m, l);
  return m;
}

namespace {

std::vector<std::int64_t> integral_weights(const WeightedPointSet& points) {
  SKC_CHECK_MSG(points.integral_weights(),
                "capacitated assignment requires integral weights");
  std::vector<std::int64_t> w(static_cast<std::size_t>(points.size()));
  for (PointIndex i = 0; i < points.size(); ++i) {
    w[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(std::llround(points.weight(i)));
  }
  return w;
}

/// Candidate moves along the center-graph edge a -> b: the points p carrying
/// flow on a, keyed by cost(p, b) - cost(p, a), as a min-heap.  Keys are true
/// costs, so a potential update never rekeys a heap; entries whose point has
/// since left a are dropped lazily when they reach the top.
using MoveHeap = std::vector<std::pair<double, PointIndex>>;

/// Exact min-cost transportation of the point weights into `center_cap` by
/// successive shortest paths on the k-node center graph (see the header).
CapacitatedAssignment solve_flow(const WeightedPointSet& points,
                                 const PointSet& centers,
                                 const std::vector<std::int64_t>& center_cap,
                                 LrOrder r) {
  const PointIndex n = points.size();
  const int k = static_cast<int>(centers.size());
  const auto kk = static_cast<std::size_t>(k);
  CapacitatedAssignment out;
  out.assignment.assign(static_cast<std::size_t>(n), kUnassigned);
  out.loads.assign(kk, 0.0);

  const std::vector<std::int64_t> w = integral_weights(points);
  const std::int64_t total =
      std::accumulate(w.begin(), w.end(), std::int64_t{0});
  const std::int64_t cap_total =
      std::accumulate(center_cap.begin(), center_cap.end(), std::int64_t{0});
  if (total > cap_total) return out;  // infeasible by counting

  // cost[at(p, j)] = dist(p, z_j)^r and flow[at(p, j)] = weight of p routed to j.
  auto at = [kk](PointIndex p, std::size_t j) {
    return static_cast<std::size_t>(p) * kk + j;
  };
  std::vector<double> cost(static_cast<std::size_t>(n) * kk);
  for (PointIndex i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) {
      cost[at(i, static_cast<std::size_t>(j))] = dist_pow(points.point(i), centers[j], r);
    }
  }
  std::vector<std::int64_t> flow(cost.size(), 0);

  std::vector<MoveHeap> heaps(kk * kk);
  auto add_flow = [&](PointIndex p, std::size_t a, std::int64_t x) {
    if (flow[at(p, a)] == 0) {  // p starts carrying flow on a: a -> b moves open
      for (std::size_t b = 0; b < kk; ++b) {
        if (b == a) continue;
        MoveHeap& h = heaps[a * kk + b];
        h.emplace_back(cost[at(p, b)] - cost[at(p, a)], p);
        std::push_heap(h.begin(), h.end(), std::greater<>());
      }
    }
    flow[at(p, a)] += x;
  };

  std::vector<std::int64_t> room(center_cap);
  std::vector<double> potential(kk, 0.0), dist(kk);
  std::vector<int> prev(kk);
  std::vector<PointIndex> via(kk);
  std::vector<char> done(kk);
  for (PointIndex q = 0; q < n; ++q) {
    std::int64_t rest = w[static_cast<std::size_t>(q)];
    while (rest > 0) {
      // Dense Dijkstra from q over the centers on reduced costs, which the
      // potentials keep nonnegative on every center-graph edge.
      for (std::size_t j = 0; j < kk; ++j) {
        dist[j] = cost[at(q, j)] - potential[j];
        prev[j] = -1;
        done[j] = 0;
      }
      for (int step = 0; step < k; ++step) {
        std::size_t a = kk;
        for (std::size_t j = 0; j < kk; ++j) {
          if (!done[j] && (a == kk || dist[j] < dist[a])) a = j;
        }
        done[a] = 1;
        for (std::size_t b = 0; b < kk; ++b) {
          if (done[b]) continue;
          MoveHeap& h = heaps[a * kk + b];
          while (!h.empty() && flow[at(h.front().second, a)] == 0) {
            std::pop_heap(h.begin(), h.end(), std::greater<>());
            h.pop_back();
          }
          if (h.empty()) continue;
          // Clamp floating-point noise below zero.
          const double rc = std::max(0.0, h.front().first + potential[a] - potential[b]);
          if (dist[a] + rc < dist[b]) {
            dist[b] = dist[a] + rc;
            prev[b] = static_cast<int>(a);
            via[b] = h.front().second;
          }
        }
      }
      // New potentials are the true distances from q; the path ends at the
      // closest center with room (lowest index on ties).
      std::size_t t = kk;
      for (std::size_t j = 0; j < kk; ++j) {
        potential[j] += dist[j];
        if (room[j] > 0 && (t == kk || potential[j] < potential[t])) t = j;
      }
      SKC_CHECK(t < kk);  // total <= cap_total leaves room while q has weight

      // Push the bottleneck: q's remaining weight, t's room, and the flow of
      // each point the path moves off its center.
      std::int64_t push = std::min(rest, room[t]);
      std::size_t b = t;
      for (; prev[b] >= 0; b = static_cast<std::size_t>(prev[b])) {
        push = std::min(push, flow[at(via[b], static_cast<std::size_t>(prev[b]))]);
      }
      SKC_CHECK(push > 0);
      for (b = t; prev[b] >= 0; b = static_cast<std::size_t>(prev[b])) {
        add_flow(via[b], b, push);
        flow[at(via[b], static_cast<std::size_t>(prev[b]))] -= push;
      }
      add_flow(q, b, push);  // b is now the path's first center
      room[t] -= push;
      rest -= push;
    }
  }

  out.feasible = true;
  out.cost = 0.0;
  for (PointIndex i = 0; i < n; ++i) {
    // An optimal transportation basis splits at most k-1 points across two
    // centers; each point is labeled with the center carrying the plurality
    // of its weight while the cost/loads account the true (split) flow.
    std::int64_t best_flow = -1;
    for (std::size_t j = 0; j < kk; ++j) {
      const std::int64_t f = flow[at(i, j)];
      if (f > 0) {
        out.loads[j] += static_cast<double>(f);
        out.cost += static_cast<double>(f) * cost[at(i, j)];
        if (f > best_flow) {
          best_flow = f;
          out.assignment[static_cast<std::size_t>(i)] = static_cast<CenterIndex>(j);
        }
      }
    }
  }
  return out;
}

}  // namespace

CapacitatedAssignment optimal_capacitated_assignment(const WeightedPointSet& points,
                                                     const PointSet& centers,
                                                     double t, LrOrder r) {
  SKC_CHECK(!centers.empty());
  SKC_CHECK(centers.dim() == points.dim() || points.empty());
  SKC_CHECK_MSG(!std::isnan(t), "capacity t must not be NaN");
  // A capacity at or above the total weight never binds; clamping before the
  // integer cast keeps huge and infinite t defined.
  const double bounded = std::min(std::max(t, 0.0), points.total_weight());
  const auto cap = static_cast<std::int64_t>(std::floor(bounded + 1e-9));
  std::vector<std::int64_t> caps(static_cast<std::size_t>(centers.size()), cap);
  return solve_flow(points, centers, caps, r);
}

CapacitatedAssignment exact_size_assignment(const WeightedPointSet& points,
                                            const PointSet& centers,
                                            const std::vector<std::int64_t>& sizes,
                                            LrOrder r) {
  SKC_CHECK(static_cast<PointIndex>(sizes.size()) == centers.size());
  const double total = points.total_weight();
  const std::int64_t size_sum =
      std::accumulate(sizes.begin(), sizes.end(), std::int64_t{0});
  SKC_CHECK_MSG(std::llround(total) == size_sum,
                "prescribed sizes must sum to the total weight");
  return solve_flow(points, centers, sizes, r);
}

}  // namespace skc
