// Min-cost max-flow on a general graph.  Capacitated k-center uses it for
// its radius-feasibility flows, and the tests use it as the differential
// oracle for capacitated assignment.  The assignment itself (§3.3 of the
// paper reduces it to minimum-cost flow) does not go through this class:
// it solves the same flow by shortest paths on the k-node center graph
// (assign/capacitated_assignment.h).
//
// Successive shortest augmenting paths with Johnson potentials: edge costs
// are nonnegative reals (dist^r), so Dijkstra applies from the start and
// reduced costs stay nonnegative throughout.  Each augmentation pushes the
// full bottleneck of the shortest path; on the bipartite transportation
// graphs we build (points -> centers) the number of augmentations is
// O(#points + #centers) in practice.
//
// Capacities and flows are int64 (the library keeps coreset weights
// integral precisely so this solver is exact); costs are double.
#pragma once

#include <cstdint>
#include <vector>

namespace skc {

class MinCostMaxFlow {
 public:
  explicit MinCostMaxFlow(int num_nodes);

  int num_nodes() const { return static_cast<int>(adj_.size()); }

  /// Adds a node, returns its id.
  int add_node();

  /// Adds a directed edge; returns an id usable with flow_on().
  int add_edge(int from, int to, std::int64_t capacity, double cost);

  struct Result {
    std::int64_t flow = 0;
    double cost = 0.0;
  };

  /// Computes a maximum s-t flow of minimum cost.  May be called once.
  Result solve(int source, int sink);

  /// Flow routed through edge `id` after solve().
  std::int64_t flow_on(int id) const;

 private:
  struct Edge {
    int to;
    int rev;  // index of the reverse edge in edges_[to]
    std::int64_t cap;
    double cost;
  };

  bool dijkstra(int source, int sink, std::vector<double>& dist,
                std::vector<int>& prev_edge, std::vector<int>& prev_node) const;

  std::vector<std::vector<Edge>> adj_;
  std::vector<std::pair<int, int>> edge_index_;  // public id -> (node, slot)
  std::vector<std::int64_t> initial_cap_;        // public id -> capacity
  std::vector<double> potential_;
};

}  // namespace skc
