#include "graph/graph.hpp"

#include <algorithm>
#include <utility>

namespace eend::graph {

NodeId Graph::add_node(double weight) {
  adjacency_.emplace_back();
  node_weight_.push_back(weight);
  return static_cast<NodeId>(adjacency_.size() - 1);
}

EdgeId Graph::add_edge(NodeId u, NodeId v, double weight) {
  EEND_REQUIRE(valid_node(u) && valid_node(v));
  EEND_REQUIRE_MSG(weight >= 0.0, "edge weight must be non-negative");
  EEND_REQUIRE_MSG(u != v, "self-loops are not allowed");
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v, weight});
  adjacency_[u].push_back(Adjacency{v, id});
  adjacency_[v].push_back(Adjacency{u, id});
  return id;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  EEND_REQUIRE(valid_node(u) && valid_node(v));
  const auto& smaller =
      adjacency_[u].size() <= adjacency_[v].size() ? adjacency_[u]
                                                   : adjacency_[v];
  const NodeId target = adjacency_[u].size() <= adjacency_[v].size() ? v : u;
  return std::any_of(smaller.begin(), smaller.end(),
                     [&](const Adjacency& a) { return a.neighbor == target; });
}

double Graph::edge_weight_between(NodeId u, NodeId v) const {
  EEND_REQUIRE(valid_node(u) && valid_node(v));
  // Every parallel u-v edge is in both lists: scan the shorter one.
  if (adjacency_[v].size() < adjacency_[u].size()) std::swap(u, v);
  double best = kInfCost;
  for (const auto& a : adjacency_[u])
    if (a.neighbor == v) best = std::min(best, edges_[a.edge].weight);
  return best;
}

ArcIndex::ArcIndex(const Graph& g) {
  // Pairs in ascending (min, max) order: each node's edges to higher ids,
  // sorted by that id, with parallel edges adjacent.
  std::vector<std::uint32_t> rank(g.edge_count());
  std::vector<double> weight;  // per rank
  std::vector<std::pair<NodeId, EdgeId>> up;
  for (NodeId lo = 0; lo < g.node_count(); ++lo) {
    up.clear();
    for (const Adjacency& a : g.neighbors(lo))
      if (a.neighbor > lo) up.emplace_back(a.neighbor, a.edge);
    std::sort(up.begin(), up.end());
    for (std::size_t i = 0; i < up.size(); ++i) {
      const double w = g.edge(up[i].second).weight;
      if (i == 0 || up[i - 1].first != up[i].first)
        weight.push_back(w);
      else
        weight.back() = std::min(weight.back(), w);
      rank[up[i].second] = static_cast<std::uint32_t>(weight.size() - 1);
    }
  }
  rank_count = weight.size();
  first.resize(g.node_count());
  last.resize(g.node_count());
  arcs.reserve(2 * g.edge_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    first[v] = static_cast<std::uint32_t>(arcs.size());
    for (const Adjacency& a : g.neighbors(v))
      arcs.push_back({a.neighbor, rank[a.edge], weight[rank[a.edge]]});
    last[v] = static_cast<std::uint32_t>(arcs.size());
  }
}

}  // namespace eend::graph
