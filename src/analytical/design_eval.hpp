// Generic evaluator for the simplified network-energy objective of
// Section 3 (Eq. 5):
//
//   E_network = sum_{u in F} t_idle(u) * c(u) + sum_{e in F} t_data(e) * w(e)
//
// given a subgraph F implied by a set of routed demands. Sources and
// destinations have c = 0 by definition ("since all (si, di) are required
// to be in F, c(si) = 0 and c(di) = 0"); an option re-includes them for the
// paper's 3k/(2k+1) observation about SF1 vs SF2.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace eend::analytical {

/// One demand together with the path assigned to it and how many packets it
/// injects over the evaluation horizon.
struct RoutedDemand {
  graph::Demand demand;
  std::vector<graph::NodeId> path;  ///< node sequence source..destination
  double packets = 1.0;
};

struct Eq5Params {
  double t_idle = 1.0;             ///< idle duration charged per active node
  double t_data_per_packet = 1.0;  ///< airtime per packet per hop
  /// When true, sources/destinations also pay their idle weight (used to
  /// reproduce the 3k/(2k+1) constant-ratio observation for SF1 vs SF2).
  bool include_endpoint_idle = false;
};

struct Eq5Breakdown {
  double idle = 0.0;
  double data = 0.0;
  double total() const { return idle + data; }
  std::size_t active_nodes = 0;  ///< |F| (nodes carrying or relaying flows)
  std::size_t relay_nodes = 0;   ///< active nodes that are not endpoints
};

/// Reusable buffers for evaluate_eq5, for callers that score many designs
/// (the opt/ move evaluator keeps one and skips per-call allocations).
/// After a call, `active` holds F — every node on some route — ascending.
struct Eq5Scratch {
  struct PairLoad {
    double packets;  ///< summed in route order
    double weight;
  };
  std::vector<graph::NodeId> active;
  std::vector<std::uint64_t> in_f, endpoint;  ///< bitsets over node ids
  std::vector<std::uint64_t> used;            ///< bitset over pair ranks
  std::vector<PairLoad> load;                 ///< per pair rank
};

/// Evaluate Eq. 5 for the subgraph induced by the routed demands.
/// Node weights come from Graph::node_weight (c(u)); edge traversal cost
/// per packet comes from the lightest edge between a hop's endpoints
/// (w(e)). Builds the graph's ArcIndex for this one call.
/// Every path must be a valid walk in g (consecutive nodes adjacent).
Eq5Breakdown evaluate_eq5(const graph::Graph& g,
                          std::span<const RoutedDemand> routes,
                          const Eq5Params& params);

/// The Eq. 5 kernel, on caller-owned buffers. Each hop's pair rank and
/// weight come from `arcs` — g's ArcIndex (a design problem's arcs()), or
/// any index with g's ranks that lists every hop (the move evaluator
/// passes its design's induced view). No sort: F and the endpoints are
/// bitsets read in ascending node order, where the idle costs sum; each
/// pair's packets sum in route order, and the pairs' data costs in
/// ascending rank — that is, ascending (min, max) — order.
Eq5Breakdown evaluate_eq5(const graph::Graph& g, const graph::ArcIndex& arcs,
                          std::span<const RoutedDemand> routes,
                          const Eq5Params& params, Eq5Scratch& scratch);

}  // namespace eend::analytical
