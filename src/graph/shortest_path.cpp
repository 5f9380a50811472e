#include "graph/shortest_path.hpp"

#include <algorithm>

namespace eend::graph {

std::vector<NodeId> ShortestPathTree::path_to(NodeId v) const {
  std::vector<NodeId> out;
  path_to(v, out);
  return out;
}

void ShortestPathTree::path_to(NodeId v, std::vector<NodeId>& out) const {
  out.clear();
  if (!reachable(v)) return;
  for (NodeId cur = v; cur != kInvalidNode; cur = parent[cur]) {
    out.push_back(cur);
    if (cur == source) break;
  }
  std::reverse(out.begin(), out.end());
  EEND_CHECK(!out.empty() && out.front() == source);
}

namespace {
ShortestPathTree make_tree(const Graph& g, NodeId source) {
  EEND_REQUIRE(g.valid_node(source));
  ShortestPathTree t;
  t.source = source;
  t.distance.assign(g.node_count(), kInfCost);
  t.parent.assign(g.node_count(), kInvalidNode);
  t.distance[source] = 0.0;
  return t;
}

}  // namespace

ShortestPathTree dijkstra(const Graph& g, NodeId source) {
  EEND_REQUIRE(g.valid_node(source));
  SpWorkspace ws(g.node_count());
  ws.run(
      g, source,
      [&](double d, const Adjacency& a) {
        const double w = g.edge(a.edge).weight;
        EEND_CHECK_MSG(w >= 0.0, "Dijkstra requires non-negative weights");
        return d + w;
      },
      [](double, NodeId) { return true; });
  return std::move(ws.tree);
}

ShortestPathTree bellman_ford(const Graph& g, NodeId source) {
  ShortestPathTree t = make_tree(g, source);
  const std::size_t n = g.node_count();
  for (std::size_t round = 0; round + 1 < n; ++round) {
    bool changed = false;
    for (const Edge& e : g.edges()) {
      auto relax = [&](NodeId from, NodeId to) {
        if (t.distance[from] == kInfCost) return;
        const double nd = t.distance[from] + e.weight;
        if (nd < t.distance[to]) {
          t.distance[to] = nd;
          t.parent[to] = from;
          changed = true;
        }
      };
      relax(e.u, e.v);
      relax(e.v, e.u);
    }
    if (!changed) break;
  }
  return t;
}

double path_cost(const Graph& g, std::span<const NodeId> path) {
  if (path.size() < 2) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const double w = g.edge_weight_between(path[i], path[i + 1]);
    if (w == kInfCost) return kInfCost;
    total += w;
  }
  return total;
}

}  // namespace eend::graph
