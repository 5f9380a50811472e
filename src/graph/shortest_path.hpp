// Shortest-path algorithms over Graph: Dijkstra (primary) and Bellman-Ford
// (used as a test oracle). Both operate on edge weights.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace eend::graph {

/// Result of a single-source shortest-path computation.
struct ShortestPathTree {
  NodeId source = kInvalidNode;
  std::vector<double> distance;   ///< kInfCost when unreachable
  std::vector<NodeId> parent;     ///< kInvalidNode for source/unreachable

  bool reachable(NodeId v) const { return distance[v] < kInfCost; }

  /// Reconstruct source -> v as a node sequence (empty if unreachable).
  std::vector<NodeId> path_to(NodeId v) const;
  /// The same into `out`, reusing its capacity.
  void path_to(NodeId v, std::vector<NodeId>& out) const;
};

/// The one Dijkstra loop: graph::dijkstra, the design search's masked
/// demand routing and Klein-Ravi's spider search all run on it. The tree
/// and the heap are reused; a run resets only the distances the last one
/// reached. The heap is std::priority_queue's push/pop over (dist, node),
/// so ties settle in its order. Callers own a workspace and run one search
/// at a time on it (concurrent searches each need their own).
///
/// The order in which one node's neighbours are offered never matters:
/// the heap pops distinct (dist, node) pairs in strict order and a parent
/// is replaced only on a strictly shorter offer, so the settle sequence,
/// every parent and `settled` depend only on the set of offers — zero
/// weights and parallel edges included. A neighbour source may therefore
/// list a node's arcs in any order and leave out every arc whose offer
/// would be kInfCost.
class SpWorkspace {
 public:
  explicit SpWorkspace(std::size_t node_count)
      : tree{kInvalidNode, std::vector<double>(node_count, kInfCost),
             std::vector<NodeId>(node_count, kInvalidNode)} {
    touched_.reserve(node_count);
  }

  /// The last run's tree; parents of nodes it did not reach may be stale.
  ShortestPathTree tree;
  std::uint64_t settled = 0;  ///< nodes settled over every run so far

  /// Dijkstra from `source`. `neighbors(u)` returns the range of u's arcs
  /// (each with a `neighbor` member); `relax(d, arc)` returns the
  /// candidate distance of arc.neighbor through a node settled at `d`
  /// (kInfCost skips the neighbour), so each caller keeps its own float
  /// expression. `on_settle(d, u)` runs once per settled node, before u's
  /// neighbours are relaxed; returning false stops the search there.
  template <class Neighbors, class Relax, class OnSettle>
  void run(NodeId source, Neighbors&& neighbors, Relax&& relax,
           OnSettle&& on_settle) {
    auto& dist = tree.distance;
    EEND_REQUIRE(source < dist.size());
    for (NodeId v : touched_) dist[v] = kInfCost;
    touched_.assign(1, source);
    tree.source = source;
    dist[source] = 0.0;
    heap_.assign(1, {0.0, source});
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const auto [d, u] = heap_.back();
      heap_.pop_back();
      if (d > dist[u]) continue;  // stale entry
      ++settled;
      if (!on_settle(d, u)) return;
      for (const auto& a : neighbors(u)) {
        const NodeId v = a.neighbor;
        const double nd = relax(d, a);
        if (!(nd < dist[v])) continue;
        if (dist[v] == kInfCost) touched_.push_back(v);
        dist[v] = nd;
        tree.parent[v] = u;
        heap_.emplace_back(nd, v);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      }
    }
  }

  /// The same over g's adjacency lists.
  template <class Relax, class OnSettle>
  void run(const Graph& g, NodeId source, Relax&& relax,
           OnSettle&& on_settle) {
    EEND_REQUIRE(tree.distance.size() == g.node_count());
    run(
        source, [&g](NodeId u) { return g.neighbors(u); },
        std::forward<Relax>(relax), std::forward<OnSettle>(on_settle));
  }

 private:
  std::vector<NodeId> touched_;  // entries of dist to reset next run
  std::vector<std::pair<double, NodeId>> heap_;
};

/// Dijkstra from `source`. Edge weights must be non-negative; throws
/// CheckError otherwise (checked lazily as edges are relaxed).
ShortestPathTree dijkstra(const Graph& g, NodeId source);

/// Bellman-Ford oracle; O(VE), tolerant of zero weights, used in tests to
/// validate Dijkstra on random graphs.
ShortestPathTree bellman_ford(const Graph& g, NodeId source);

/// Total edge weight of a node path (kInfCost if any hop is missing).
double path_cost(const Graph& g, std::span<const NodeId> path);

/// Hop count convenience: number of edges in the path.
inline std::size_t path_hops(std::span<const NodeId> path) {
  return path.empty() ? 0 : path.size() - 1;
}

}  // namespace eend::graph
