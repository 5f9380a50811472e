// The energy-efficient network design problem (Section 3) as a first-class
// object, with the centralized solvers the paper discusses:
//
//   * node-weighted Steiner tree via Klein-Ravi (the Ω(log n) family);
//   * MPC-style reduction [Xing et al.]: push node weights onto edges and
//     run an edge-weighted Steiner approximation (KMB);
//   * Eq. 5 evaluation of any routing over the instance.
//
// These are the analysis-side tools; the distributed heuristics live in
// routing/ and are exercised through net::Network.
#pragma once

#include <optional>
#include <vector>

#include "analytical/design_eval.hpp"
#include "energy/radio_card.hpp"
#include "graph/shortest_path.hpp"
#include "graph/steiner.hpp"
#include "phy/position.hpp"

namespace eend::core {

/// A design-problem instance: connectivity graph with communication edge
/// weights w(e) and idling node weights c(v), plus traffic demands.
/// Contract, checked where the parts come in: node weights finite and >= 0,
/// edge weights finite and > 0, demand endpoints node ids and rates finite
/// and > 0. With w > 0 searches settle in (distance, id) order, which the
/// cached routing and the move evaluator's screens rely on.
class NetworkDesignProblem {
 public:
  /// The problem over connectivity_graph(positions, card), no demands.
  static NetworkDesignProblem from_positions(
      const std::vector<phy::Position>& positions,
      const energy::RadioCard& card);

  /// Nodes within transmission range are connected; w(e) = Ptx(d) + Prx
  /// (per unit data time) and c(v) = Pidle (per unit idle time), the
  /// Section 3 weighting. Neighbor discovery goes through a
  /// spatial::GridIndex, so construction is O(N·k) in the node count — the
  /// same predicate and arithmetic as the historical all-pairs scan,
  /// byte-identical edge lists included (design_problem_test pins the
  /// equivalence). Nodes marked in `isolated` (a mask over node ids, or
  /// empty) get no edges: churn/ builds its live topologies with its
  /// failed nodes marked.
  static graph::Graph connectivity_graph(
      const std::vector<phy::Position>& positions,
      const energy::RadioCard& card, std::span<const char> isolated = {});

  /// Build directly from an explicit graph (weights already assigned).
  /// Throws CheckError naming the first node or edge whose weight breaks
  /// the contract. The graph is fixed from here on, and so is its
  /// ArcIndex, built once.
  explicit NetworkDesignProblem(graph::Graph g);

  /// Empty problem (no nodes, no demands) — pre-sized result slots in the
  /// parallel engines are filled in place.
  NetworkDesignProblem() = default;

  const graph::Graph& graph() const { return graph_; }
  /// The graph's ranked arcs: every Eq. 5 score and every routing search
  /// of this instance reads its pair ranks and lightest weights here.
  const graph::ArcIndex& arcs() const { return arcs_; }

  void add_demand(graph::Demand d) {
    require_demand(demands_.size(), d);
    demands_.push_back(d);
  }
  /// Replace the whole demand set (the churn/ subsystem evolves demands
  /// across epochs over a fixed node id space). Both throw CheckError on a
  /// demand that breaks the contract.
  void set_demands(std::vector<graph::Demand> d);
  const std::vector<graph::Demand>& demands() const { return demands_; }

  /// Terminals = all demand endpoints (deduplicated, sorted).
  std::vector<graph::NodeId> terminals() const;

  /// Node-weighted Steiner tree over the demand terminals (Klein-Ravi).
  graph::SteinerTree solve_node_weighted() const;

  /// MPC-style reduction: ignore node weights, run edge-weighted KMB with
  /// w'(e) = c(u) (the "edge weights equal to c(u)" reduction of §3).
  graph::SteinerTree solve_mpc_reduction() const;

  /// Plain edge-weighted KMB on w(e) (communication-cost-only design).
  graph::SteinerTree solve_edge_weighted() const;

  /// Route all demands along shortest paths *within* the given tree and
  /// evaluate Eq. 5.
  analytical::Eq5Breakdown evaluate_tree(
      const graph::SteinerTree& tree, const analytical::Eq5Params& p) const;

  /// Route all demands along global shortest paths (no tree restriction)
  /// and evaluate Eq. 5 — the "routing-aware" comparison point.
  analytical::Eq5Breakdown evaluate_shortest_paths(
      const analytical::Eq5Params& p) const;

  /// Evaluate Eq. 5 over routes of this instance, reading each hop's pair
  /// rank and weight from arcs().
  analytical::Eq5Breakdown evaluate_routes(
      std::span<const analytical::RoutedDemand> routes,
      const analytical::Eq5Params& p) const;

  /// Route all demands along shortest paths restricted to `allowed_nodes`
  /// (empty = no restriction). Returns nullopt when any demand is
  /// unroutable within the set — the non-throwing twin the search layer
  /// (opt/) probes candidate designs with; the evaluate_* entry points
  /// above are built on it. On failure, `failed_demand` (when non-null)
  /// receives the index of the first unroutable demand.
  std::optional<std::vector<analytical::RoutedDemand>> try_route_in_subgraph(
      const std::vector<graph::NodeId>& allowed_nodes,
      std::size_t* failed_demand = nullptr) const;

  /// Cached twin of try_route_in_subgraph for incremental re-evaluation:
  /// `cached_routes` must be the routes this problem produced for
  /// `cached_allowed` (same graph, same demand endpoints; rates may have
  /// changed — paths are rate-independent). When `allowed_nodes` is a
  /// subset of `cached_allowed`, a cached path that avoids every removed
  /// node is still a shortest path (removing options can only lengthen
  /// paths) and is reused verbatim; only demands whose cached path touches
  /// a removed node — or whose endpoints changed — re-run Dijkstra. Falls
  /// back to the uncached routine whenever the subset precondition fails
  /// (e.g. nodes were *added*, which can create shorter paths). Exact ties
  /// re-break identically: with positive weights nodes settle in (distance,
  /// id) order, and a shrink only removes or delays the neighbours a cached
  /// path's nodes chose among (design_problem_test pins the equality with
  /// and without exact ties).
  std::optional<std::vector<analytical::RoutedDemand>>
  try_route_in_subgraph_cached(
      const std::vector<graph::NodeId>& allowed_nodes,
      const std::vector<graph::NodeId>& cached_allowed,
      const std::vector<analytical::RoutedDemand>& cached_routes,
      std::size_t* failed_demand = nullptr) const;

  /// The one demand-routing loop behind both twins above and the opt/
  /// move evaluator. `allowed` is a membership mask over node ids. Demand
  /// i takes `*keep[i]` verbatim when `keep` is non-empty and that entry
  /// is non-null — the caller vouches that it is still the shortest path
  /// inside `allowed` — and otherwise runs one masked Dijkstra on `ws`
  /// that stops when the destination settles. Relaxation and heap order
  /// are graph::dijkstra's with a +inf entry cost on forbidden nodes, so
  /// paths match it bit for bit. `routes` is overwritten, reusing its path
  /// buffers. Returns false at the first unroutable demand, whose index
  /// goes to `failed_demand` when non-null (`routes` is then partial).
  bool route_demands(std::span<const char> allowed,
                     std::span<const std::vector<graph::NodeId>* const> keep,
                     graph::SpWorkspace& ws,
                     std::vector<analytical::RoutedDemand>& routes,
                     std::size_t* failed_demand = nullptr) const {
    EEND_REQUIRE(allowed.size() == graph_.node_count());
    return route_demands(
        allowed, [this](graph::NodeId u) { return arcs_.of(u); }, keep, ws,
        routes, failed_demand);
  }

  /// The same loop over another neighbour source for the searches (see
  /// graph::SpWorkspace::run): `neighbors(u)` returns u's
  /// graph::RankedArc entries. It must list every arc from u to an
  /// allowed node with that pair's lightest weight, as arcs() does; arcs
  /// to forbidden nodes may be left out. The move evaluator passes its
  /// design's induced view, which leaves out all but a few.
  template <class Neighbors>
  bool route_demands(std::span<const char> allowed, Neighbors&& neighbors,
                     std::span<const std::vector<graph::NodeId>* const> keep,
                     graph::SpWorkspace& ws,
                     std::vector<analytical::RoutedDemand>& routes,
                     std::size_t* failed_demand = nullptr) const {
    EEND_REQUIRE(keep.empty() || keep.size() == demands_.size());
    const std::uint64_t settled_before = ws.settled;
    std::uint64_t searches = 0;
    std::optional<std::size_t> failed;
    routes.resize(demands_.size());
    for (std::size_t i = 0; i < demands_.size(); ++i) {
      const graph::Demand& d = demands_[i];
      analytical::RoutedDemand& r = routes[i];
      r.demand = d;
      r.packets = d.rate;
      if (!allowed[d.source] || !allowed[d.destination]) {
        failed = i;
        break;
      }
      if (!keep.empty() && keep[i]) {
        r.path = *keep[i];
        continue;
      }
      ++searches;
      const graph::NodeId t = d.destination;
      ws.run(
          d.source, neighbors,
          [&](double dist, const graph::RankedArc& a) {
            return allowed[a.neighbor] ? dist + a.weight : graph::kInfCost;
          },
          [t](double, graph::NodeId u) { return u != t; });
      ws.tree.path_to(t, r.path);  // t's parent chain was all set by this run
      if (r.path.empty()) {
        failed = i;
        break;
      }
    }
    publish_routing(searches, ws.settled - settled_before);
    if (!failed) return true;
    if (failed_demand) *failed_demand = *failed;
    return false;
  }

 private:
  std::vector<analytical::RoutedDemand> route_in_subgraph(
      const std::vector<graph::NodeId>& allowed_nodes) const;
  void require_demand(std::size_t i, const graph::Demand& d) const;
  /// opt.route.searches / settled_nodes, when `searches` is non-zero.
  static void publish_routing(std::uint64_t searches, std::uint64_t settled);

  graph::Graph graph_;
  graph::ArcIndex arcs_;  ///< graph_'s; declared after it, built from it
  std::vector<graph::Demand> demands_;
};

}  // namespace eend::core
