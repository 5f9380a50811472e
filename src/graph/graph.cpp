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

}  // namespace eend::graph
