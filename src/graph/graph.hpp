// Undirected weighted graph with optional node weights.
//
// This is the substrate for the design-problem formulation of Section 3:
// edge weights model communication cost (w(e) from Ptx + Prx) and node
// weights model idling cost (c(v) = Pidle or Psleep). The same structure
// backs connectivity graphs derived from radio range in the simulator.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace eend::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr double kInfCost = std::numeric_limits<double>::infinity();

/// One endpoint record in an adjacency list.
struct Adjacency {
  NodeId neighbor;
  EdgeId edge;
};

/// Undirected edge with a non-negative weight.
struct Edge {
  NodeId u;
  NodeId v;
  double weight;

  NodeId other(NodeId x) const {
    EEND_REQUIRE(x == u || x == v);
    return x == u ? v : u;
  }
};

/// Undirected graph. Nodes are dense ids [0, node_count). Parallel edges are
/// permitted (the design problem never needs them, but nothing breaks).
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t node_count)
      : adjacency_(node_count), node_weight_(node_count, 0.0) {}

  std::size_t node_count() const { return adjacency_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  /// Append a new node, returning its id.
  NodeId add_node(double weight = 0.0);

  /// Add an undirected edge; returns its id. Weight must be >= 0.
  EdgeId add_edge(NodeId u, NodeId v, double weight = 1.0);

  const Edge& edge(EdgeId e) const { return edges_[e]; }
  Edge& edge(EdgeId e) { return edges_[e]; }

  double node_weight(NodeId v) const { return node_weight_[v]; }
  void set_node_weight(NodeId v, double w) { node_weight_[v] = w; }

  std::span<const Adjacency> neighbors(NodeId v) const {
    return adjacency_[v];
  }

  std::size_t degree(NodeId v) const { return adjacency_[v].size(); }

  const std::vector<Edge>& edges() const { return edges_; }

  bool valid_node(NodeId v) const { return v < adjacency_.size(); }

  /// Does an edge (u,v) exist (in either direction)?
  bool has_edge(NodeId u, NodeId v) const;

  /// Find the minimum-weight edge between u and v, or kInfCost if none.
  double edge_weight_between(NodeId u, NodeId v) const;

 private:
  std::vector<std::vector<Adjacency>> adjacency_;
  std::vector<Edge> edges_;
  std::vector<double> node_weight_;
};

/// One arc of an ArcIndex: the neighbour, the rank of the endpoint pair
/// and the pair's weight.
struct RankedArc {
  NodeId neighbor;
  std::uint32_t rank;
  double weight;
};

/// Per-node arc lists whose arcs carry their pair rank and weight, in
/// O(N + E) memory (no N×N table). Ranks number the graph's distinct
/// (min, max) endpoint pairs in ascending order; a pair's weight is the
/// minimum over its parallel edges, as in Graph::edge_weight_between.
/// ArcIndex(g) lists every node's arcs in adjacency order. A
/// core::NetworkDesignProblem builds its graph's index once and owns it
/// (arcs()); the design search's move surface fills one with the arcs
/// inside a design (its induced view, opt/move_evaluator.hpp) and keeps
/// the instance's ranks.
struct ArcIndex {
  ArcIndex() = default;
  explicit ArcIndex(const Graph& g);

  /// Node v's arcs are arcs[first[v] .. last[v]).
  std::vector<std::uint32_t> first, last;
  std::vector<RankedArc> arcs;
  std::size_t rank_count = 0;  ///< distinct endpoint pairs of the graph

  std::span<const RankedArc> of(NodeId v) const {
    return {arcs.data() + first[v], arcs.data() + last[v]};
  }
  /// The first listed arc a -> b, or nullptr when there is none (or a is
  /// not a node of the index).
  const RankedArc* find(NodeId a, NodeId b) const {
    if (a >= first.size()) return nullptr;
    for (const RankedArc& x : of(a))
      if (x.neighbor == b) return &x;
    return nullptr;
  }
};

/// A source-destination traffic demand (si, di, ri) from the Section 3
/// problem definition.
struct Demand {
  NodeId source;
  NodeId destination;
  double rate = 1.0;  ///< non-negative demand r_i
};

}  // namespace eend::graph
