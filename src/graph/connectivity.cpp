#include "graph/connectivity.hpp"

#include <algorithm>
#include <queue>

namespace eend::graph {

Components connected_components(const Graph& g,
                                std::span<const char> masked) {
  EEND_REQUIRE(masked.empty() || masked.size() == g.node_count());
  const auto skip = [&](NodeId v) { return !masked.empty() && masked[v]; };
  Components c;
  c.label.assign(g.node_count(), kInvalidNode);
  for (NodeId start = 0; start < g.node_count(); ++start) {
    if (c.label[start] != kInvalidNode || skip(start)) continue;
    const auto id = static_cast<NodeId>(c.count++);
    std::queue<NodeId> q;
    q.push(start);
    c.label[start] = id;
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop();
      for (const auto& [v, e] : g.neighbors(u)) {
        (void)e;
        if (c.label[v] == kInvalidNode && !skip(v)) {
          c.label[v] = id;
          q.push(v);
        }
      }
    }
  }
  return c;
}

bool is_connected(const Graph& g) {
  if (g.node_count() == 0) return true;
  return connected_components(g).count == 1;
}

bool demands_satisfiable(const Graph& g, std::span<const Demand> demands,
                         std::span<const char> masked) {
  const Components c = connected_components(g, masked);
  return std::all_of(demands.begin(), demands.end(), [&](const Demand& d) {
    return c.label[d.source] != kInvalidNode &&
           c.same(d.source, d.destination);
  });
}

std::vector<std::uint32_t> bfs_hops(const Graph& g, NodeId source) {
  EEND_REQUIRE(g.valid_node(source));
  constexpr auto kUnreached = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(g.node_count(), kUnreached);
  std::queue<NodeId> q;
  dist[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (const auto& [v, e] : g.neighbors(u)) {
      (void)e;
      if (dist[v] == kUnreached) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
    }
  }
  return dist;
}

}  // namespace eend::graph
