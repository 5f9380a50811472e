// Connectivity queries used by scenario builders (reject disconnected
// placements) and by the design-problem solvers (feasibility checks).
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace eend::graph {

/// Component label per node; labels are dense in [0, #components).
struct Components {
  std::vector<NodeId> label;
  std::size_t count = 0;

  bool same(NodeId u, NodeId v) const { return label[u] == label[v]; }
};

/// BFS-based connected components of the graph without the nodes marked in
/// `masked` (a mask over node ids, or empty). Masked nodes keep the label
/// kInvalidNode and are not counted.
Components connected_components(const Graph& g,
                                std::span<const char> masked = {});

/// Is the whole graph one component? (Empty graphs count as connected.)
bool is_connected(const Graph& g);

/// Does every demand's source share a component with its destination once
/// the nodes marked in `masked` (over node ids, or empty) are left out? A
/// masked endpoint fails its demand. One components pass.
bool demands_satisfiable(const Graph& g, std::span<const Demand> demands,
                         std::span<const char> masked = {});

/// BFS hop distance (unweighted) from source; kInvalidNode-distance encoded
/// as std::numeric_limits<std::uint32_t>::max() for unreachable nodes.
std::vector<std::uint32_t> bfs_hops(const Graph& g, NodeId source);

}  // namespace eend::graph
