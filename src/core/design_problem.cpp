#include "core/design_problem.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>

#include "graph/shortest_path.hpp"
#include "obs/counters.hpp"
#include "spatial/grid_index.hpp"

namespace eend::core {

namespace {

/// `g`, once every weight keeps the instance contract.
graph::Graph checked(graph::Graph g) {
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    const double c = g.node_weight(v);
    EEND_REQUIRE_MSG(std::isfinite(c) && c >= 0.0,
                     "design problem: node " << v << " has weight " << c
                     << " (needs finite and >= 0)");
  }
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    const graph::Edge& ed = g.edge(e);
    EEND_REQUIRE_MSG(std::isfinite(ed.weight) && ed.weight > 0.0,
                     "design problem: edge " << e << " (" << ed.u << "-"
                     << ed.v << ") has weight " << ed.weight
                     << " (needs finite and > 0)");
  }
  return g;
}

}  // namespace

NetworkDesignProblem::NetworkDesignProblem(graph::Graph g)
    : graph_(checked(std::move(g))), arcs_(graph_) {}

void NetworkDesignProblem::require_demand(std::size_t i,
                                          const graph::Demand& d) const {
  const std::size_t n = graph_.node_count();
  EEND_REQUIRE_MSG(d.source < n && d.destination < n &&
                       std::isfinite(d.rate) && d.rate > 0.0,
                   "design problem: demand " << i << " (" << d.source << "->"
                   << d.destination << ", rate " << d.rate
                   << ") needs endpoints below " << n
                   << " and a finite rate > 0");
}

void NetworkDesignProblem::set_demands(std::vector<graph::Demand> d) {
  for (std::size_t i = 0; i < d.size(); ++i) require_demand(i, d[i]);
  demands_ = std::move(d);
}

NetworkDesignProblem NetworkDesignProblem::from_positions(
    const std::vector<phy::Position>& positions,
    const energy::RadioCard& card) {
  return NetworkDesignProblem(connectivity_graph(positions, card));
}

graph::Graph NetworkDesignProblem::connectivity_graph(
    const std::vector<phy::Position>& positions,
    const energy::RadioCard& card, std::span<const char> isolated) {
  EEND_REQUIRE_MSG(card.max_range_m > 0.0, "card range must be positive");
  EEND_REQUIRE(isolated.empty() || isolated.size() == positions.size());
  const auto linked = [&](std::size_t v) {
    return isolated.empty() || !isolated[v];
  };
  graph::Graph g(positions.size());
  for (graph::NodeId v = 0; v < positions.size(); ++v)
    g.set_node_weight(v, card.p_idle);

  // Spatial index instead of the O(N²) all-pairs scan. The index's exact
  // boundary predicate computes the same distance expression as
  // phy::distance, so edge sets AND weights match the brute scan bitwise;
  // sorting each node's candidates by id restores the (i, j-ascending)
  // edge order the scan produced, keeping EdgeIds stable.
  spatial::GridIndex idx;
  idx.build(positions, card.max_range_m / 2.0);
  std::vector<std::pair<graph::NodeId, double>> above;  // neighbors j > i
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (!linked(i)) continue;
    above.clear();
    idx.for_each_within(i, card.max_range_m, [&](std::size_t j, double d) {
      if (j > i && linked(j))
        above.emplace_back(static_cast<graph::NodeId>(j), d);
    });
    std::sort(above.begin(), above.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [j, d] : above)
      g.add_edge(static_cast<graph::NodeId>(i), j,
                 card.transmit_power(d) + card.p_rx);
  }
  return g;
}

std::vector<graph::NodeId> NetworkDesignProblem::terminals() const {
  std::set<graph::NodeId> t;
  for (const auto& d : demands_) {
    t.insert(d.source);
    t.insert(d.destination);
  }
  return {t.begin(), t.end()};
}

graph::SteinerTree NetworkDesignProblem::solve_node_weighted() const {
  return graph::klein_ravi_steiner(graph_, terminals());
}

graph::SteinerTree NetworkDesignProblem::solve_mpc_reduction() const {
  // Re-weight every edge with the idle cost of its (max-weight) endpoint:
  // the MPC trick of folding node weights into edges, valid when link
  // weights are bounded by node weights.
  graph::Graph g2(graph_.node_count());
  for (const auto& e : graph_.edges())
    g2.add_edge(e.u, e.v, std::max(graph_.node_weight(e.u),
                                   graph_.node_weight(e.v)));
  graph::SteinerTree t = graph::kmb_steiner_tree(g2, terminals());
  // Report costs against the *original* instance.
  graph::SteinerTree out = t;
  out.edge_cost = 0.0;
  out.node_cost = 0.0;
  const auto terms = terminals();
  for (graph::EdgeId e : t.edges) out.edge_cost += graph_.edge(e).weight;
  for (graph::NodeId v : t.nodes)
    if (std::find(terms.begin(), terms.end(), v) == terms.end())
      out.node_cost += graph_.node_weight(v);
  return out;
}

graph::SteinerTree NetworkDesignProblem::solve_edge_weighted() const {
  return graph::kmb_steiner_tree(graph_, terminals());
}

namespace {

std::vector<char> allowed_mask(std::size_t n,
                               const std::vector<graph::NodeId>& nodes) {
  std::vector<char> allowed(n, nodes.empty());
  for (graph::NodeId v : nodes) allowed[v] = 1;
  return allowed;
}

}  // namespace

std::optional<std::vector<analytical::RoutedDemand>>
NetworkDesignProblem::try_route_in_subgraph(
    const std::vector<graph::NodeId>& allowed_nodes,
    std::size_t* failed_demand) const {
  // Scratch belongs to the call: portfolio starts route concurrently.
  graph::SpWorkspace ws(graph_.node_count());
  std::vector<analytical::RoutedDemand> routes;
  if (!route_demands(allowed_mask(graph_.node_count(), allowed_nodes), {},
                     ws, routes, failed_demand))
    return std::nullopt;
  return routes;
}

std::optional<std::vector<analytical::RoutedDemand>>
NetworkDesignProblem::try_route_in_subgraph_cached(
    const std::vector<graph::NodeId>& allowed_nodes,
    const std::vector<graph::NodeId>& cached_allowed,
    const std::vector<analytical::RoutedDemand>& cached_routes,
    std::size_t* failed_demand) const {
  const std::vector<char> allowed =
      allowed_mask(graph_.node_count(), allowed_nodes);
  // Subset precondition: every node allowed now must have been allowed when
  // the cache was built (an empty list means "all nodes"). Otherwise the
  // cache could hide a newly-created shorter path — route uncached rather
  // than risk a stale reuse.
  const bool usable = [&] {
    if (cached_routes.size() != demands_.size()) return false;
    if (cached_allowed.empty()) return true;
    if (allowed_nodes.empty()) return false;
    const std::vector<char> in_cache =
        allowed_mask(graph_.node_count(), cached_allowed);
    return std::all_of(allowed_nodes.begin(), allowed_nodes.end(),
                       [&](graph::NodeId v) { return in_cache[v] != 0; });
  }();
  // A cached path whose nodes are all still allowed stays shortest: the
  // allowed set only shrank, which can only lengthen the other paths.
  std::vector<const std::vector<graph::NodeId>*> keep;
  if (usable) {
    keep.resize(demands_.size(), nullptr);
    for (std::size_t i = 0; i < demands_.size(); ++i) {
      const analytical::RoutedDemand& c = cached_routes[i];
      if (c.demand.source == demands_[i].source &&
          c.demand.destination == demands_[i].destination &&
          !c.path.empty() &&
          std::all_of(c.path.begin(), c.path.end(),
                      [&](graph::NodeId v) { return allowed[v] != 0; }))
        keep[i] = &c.path;
    }
  }
  graph::SpWorkspace ws(graph_.node_count());
  std::vector<analytical::RoutedDemand> routes;
  std::size_t failed = demands_.size();
  const bool ok = route_demands(allowed, keep, ws, routes, &failed);
  if (usable) {
    // Count the demands the loop reached, the failing one included.
    const std::size_t reached = ok ? demands_.size() : failed + 1;
    const auto hits = static_cast<std::uint64_t>(std::count_if(
        keep.begin(), keep.begin() + static_cast<std::ptrdiff_t>(reached),
        [](const auto* p) { return p != nullptr; }));
    if (hits) obs::count("opt.cache.route_hits", hits);
    if (reached > hits) obs::count("opt.cache.route_misses", reached - hits);
  }
  if (ok) return routes;
  if (failed_demand) *failed_demand = failed;
  return std::nullopt;
}

void NetworkDesignProblem::publish_routing(std::uint64_t searches,
                                           std::uint64_t settled) {
  if (!searches) return;
  obs::count("opt.route.searches", searches);
  obs::count("opt.route.settled_nodes", settled);
}

std::vector<analytical::RoutedDemand>
NetworkDesignProblem::route_in_subgraph(
    const std::vector<graph::NodeId>& allowed_nodes) const {
  std::size_t failed = 0;
  auto routes = try_route_in_subgraph(allowed_nodes, &failed);
  EEND_REQUIRE_MSG(routes.has_value(),
                   "demand " << demands_[failed].source << "->"
                             << demands_[failed].destination
                             << " unroutable within the allowed node set");
  return std::move(*routes);
}

analytical::Eq5Breakdown NetworkDesignProblem::evaluate_routes(
    std::span<const analytical::RoutedDemand> routes,
    const analytical::Eq5Params& p) const {
  analytical::Eq5Scratch scratch;
  return analytical::evaluate_eq5(graph_, arcs_, routes, p, scratch);
}

analytical::Eq5Breakdown NetworkDesignProblem::evaluate_tree(
    const graph::SteinerTree& tree, const analytical::Eq5Params& p) const {
  EEND_REQUIRE_MSG(tree.feasible, "cannot evaluate an infeasible tree");
  return evaluate_routes(route_in_subgraph(tree.nodes), p);
}

analytical::Eq5Breakdown NetworkDesignProblem::evaluate_shortest_paths(
    const analytical::Eq5Params& p) const {
  return evaluate_routes(route_in_subgraph({}), p);
}

}  // namespace eend::core
