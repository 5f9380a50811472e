#include "analytical/design_eval.hpp"

#include <algorithm>
#include <tuple>

namespace eend::analytical {

namespace {

void sort_unique(std::vector<graph::NodeId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

Eq5Breakdown evaluate_eq5(const graph::Graph& g,
                          std::span<const RoutedDemand> routes,
                          const Eq5Params& params) {
  Eq5Scratch scratch;
  return evaluate_eq5(g, routes, params, scratch);
}

Eq5Breakdown evaluate_eq5(const graph::Graph& g,
                          std::span<const RoutedDemand> routes,
                          const Eq5Params& params, Eq5Scratch& scratch) {
  Eq5Breakdown out;
  auto& active = scratch.active;
  auto& endpoints = scratch.endpoints;
  auto& hops = scratch.hops;
  active.clear();
  endpoints.clear();
  hops.clear();

  for (const RoutedDemand& r : routes) {
    EEND_REQUIRE_MSG(r.path.size() >= 1, "empty path");
    EEND_REQUIRE(r.path.front() == r.demand.source &&
                 r.path.back() == r.demand.destination);
    endpoints.push_back(r.demand.source);
    endpoints.push_back(r.demand.destination);
    active.insert(active.end(), r.path.begin(), r.path.end());
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      const auto [lo, hi] = std::minmax(r.path[i], r.path[i + 1]);
      hops.push_back({lo, hi, static_cast<std::uint32_t>(hops.size()),
                      r.packets});
    }
  }
  sort_unique(active);
  sort_unique(endpoints);
  // Sorting on (lo, hi, route order) groups each edge's hops in route
  // order: every edge sums its packets in route order, and the edges add
  // their data costs in ascending (lo, hi) order. The float result depends
  // on both orders (analytical_test pins them against an ordered-map
  // reference).
  std::sort(hops.begin(), hops.end(),
            [](const Eq5Scratch::Hop& a, const Eq5Scratch::Hop& b) {
              return std::tie(a.lo, a.hi, a.seq) < std::tie(b.lo, b.hi, b.seq);
            });

  out.active_nodes = active.size();
  for (graph::NodeId v : active) {
    const bool endpoint =
        std::binary_search(endpoints.begin(), endpoints.end(), v);
    if (!endpoint) ++out.relay_nodes;
    if (endpoint && !params.include_endpoint_idle) continue;
    out.idle += params.t_idle * g.node_weight(v);
  }
  for (std::size_t i = 0; i < hops.size();) {
    const graph::NodeId lo = hops[i].lo, hi = hops[i].hi;
    double pkts = 0.0;
    for (; i < hops.size() && hops[i].lo == lo && hops[i].hi == hi; ++i)
      pkts += hops[i].packets;
    // Every hop is checked here, once per distinct edge.
    const double w = g.edge_weight_between(lo, hi);
    EEND_REQUIRE_MSG(w < graph::kInfCost,
                     "path hop " << lo << "-" << hi << " is not an edge");
    out.data += params.t_data_per_packet * pkts * w;
  }
  return out;
}

}  // namespace eend::analytical
