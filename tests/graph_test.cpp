// Unit tests: graph container, shortest paths, MST, connectivity.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>

#include "graph/connectivity.hpp"
#include "graph/graph.hpp"
#include "graph/mst.hpp"
#include "graph/shortest_path.hpp"
#include "util/rng.hpp"

namespace eend::graph {
namespace {

Graph triangle() {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 4.0);
  return g;
}

TEST(Graph, BasicConstruction) {
  Graph g(3);
  EXPECT_EQ(g.node_count(), 3u);
  const EdgeId e = g.add_edge(0, 1, 2.5);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 2.5);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(Graph, AddNodeGrows) {
  Graph g;
  const NodeId a = g.add_node(1.5);
  const NodeId b = g.add_node();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_DOUBLE_EQ(g.node_weight(a), 1.5);
  EXPECT_DOUBLE_EQ(g.node_weight(b), 0.0);
  g.set_node_weight(b, 3.0);
  EXPECT_DOUBLE_EQ(g.node_weight(b), 3.0);
}

TEST(Graph, EdgeOther) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1);
  EXPECT_EQ(g.edge(e).other(0), 1u);
  EXPECT_EQ(g.edge(e).other(1), 0u);
}

TEST(Graph, InvalidEdgesThrow) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0), CheckError);         // self loop
  EXPECT_THROW(g.add_edge(0, 5), CheckError);         // bad node
  EXPECT_THROW(g.add_edge(0, 1, -1.0), CheckError);   // negative weight
}

TEST(Graph, ParallelEdgesPickMinWeight) {
  Graph g(2);
  g.add_edge(0, 1, 5.0);
  g.add_edge(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(g.edge_weight_between(0, 1), 2.0);
}

TEST(Dijkstra, TriangleShortestPath) {
  const Graph g = triangle();
  const auto t = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(t.distance[2], 3.0);  // 0->1->2 beats direct 4.0
  EXPECT_EQ(t.path_to(2), (std::vector<NodeId>{0, 1, 2}));
}

TEST(Dijkstra, UnreachableNodes) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const auto t = dijkstra(g, 0);
  EXPECT_FALSE(t.reachable(2));
  EXPECT_TRUE(t.path_to(2).empty());
}

TEST(BellmanFord, MatchesDijkstraOnTriangle) {
  const Graph g = triangle();
  const auto d = dijkstra(g, 0);
  const auto b = bellman_ford(g, 0);
  for (NodeId v = 0; v < 3; ++v)
    EXPECT_DOUBLE_EQ(d.distance[v], b.distance[v]);
}

TEST(PathCost, SumsEdges) {
  const Graph g = triangle();
  const std::vector<NodeId> path{0, 1, 2};
  EXPECT_DOUBLE_EQ(path_cost(g, path), 3.0);
  EXPECT_EQ(path_hops(path), 2u);
  const std::vector<NodeId> broken{2, 0, 1};
  EXPECT_DOUBLE_EQ(path_cost(g, broken), 5.0);
}

TEST(SpWorkspace, FilteredShuffledNeighbourSourceMatchesMaskedRun) {
  // A search over a neighbour source that lists only the allowed arcs, in
  // any order, settles the same nodes in the same order with the same
  // distance bits and parents as the masked search over g.neighbors —
  // on graphs with zero-weight edges, exact ties and parallel edges.
  Rng rng(5150);
  std::size_t zero_edges = 0, parallel_edges = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + rng.next_below(60);
    Graph g(n);
    for (std::size_t c = n + rng.next_below(3 * n); c > 0; --c) {
      const auto a = static_cast<NodeId>(rng.next_below(n));
      const auto b = static_cast<NodeId>(rng.next_below(n));
      if (a == b) continue;
      // Half-unit weights tie often; a fifth of the edges weigh nothing.
      const double w =
          rng.bernoulli(0.2) ? 0.0 : std::round(rng.uniform(0.0, 4.0) * 2) / 2;
      zero_edges += w == 0.0;
      g.add_edge(a, b, w);
      if (rng.bernoulli(0.2)) {
        g.add_edge(b, a, std::max(0.0, w + rng.uniform(-1.0, 1.0)));
        ++parallel_edges;
      }
    }
    std::vector<char> allowed(n);
    for (char& x : allowed) x = rng.bernoulli(0.7);
    // Two searches per workspace pair, so the reset between runs is
    // covered too; either may stop early at a target.
    const std::array<NodeId, 2> sources{
        static_cast<NodeId>(rng.next_below(n)),
        static_cast<NodeId>(rng.next_below(n))};
    for (NodeId s : sources) allowed[s] = 1;
    std::vector<std::vector<Adjacency>> lists(n);
    for (NodeId v = 0; v < n; ++v) {
      for (const Adjacency& a : g.neighbors(v))
        if (allowed[a.neighbor]) lists[v].push_back(a);
      rng.shuffle(lists[v]);
    }
    const auto relax = [&](double d, const Adjacency& a) {
      return allowed[a.neighbor] ? d + g.edge(a.edge).weight : kInfCost;
    };
    SpWorkspace masked(n), filtered(n);
    for (const NodeId source : sources) {
      const NodeId stop = rng.bernoulli(0.5)
                              ? static_cast<NodeId>(rng.next_below(n))
                              : kInvalidNode;
      std::vector<NodeId> want, got;
      masked.run(g, source, relax, [&](double, NodeId u) {
        want.push_back(u);
        return u != stop;
      });
      filtered.run(
          source,
          [&](NodeId u) { return std::span<const Adjacency>(lists[u]); },
          relax, [&](double, NodeId u) {
            got.push_back(u);
            return u != stop;
          });
      const std::string where = "trial " + std::to_string(trial);
      EXPECT_EQ(got, want) << where;
      EXPECT_EQ(filtered.settled, masked.settled) << where;
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(filtered.tree.distance[v]),
                  std::bit_cast<std::uint64_t>(masked.tree.distance[v]))
            << where << " node " << v;
        EXPECT_EQ(filtered.tree.parent[v], masked.tree.parent[v])
            << where << " node " << v;
      }
    }
  }
  EXPECT_GT(zero_edges, 500u);
  EXPECT_GT(parallel_edges, 500u);
}

TEST(Mst, TriangleTakesCheapEdges) {
  const Graph g = triangle();
  const auto m = prim_mst(g);
  EXPECT_TRUE(m.connected);
  EXPECT_EQ(m.edges.size(), 2u);
  EXPECT_DOUBLE_EQ(m.total_weight, 3.0);
}

TEST(Mst, DisconnectedGraphReported) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const auto m = prim_mst(g, 0);
  EXPECT_FALSE(m.connected);
  EXPECT_EQ(m.edges.size(), 1u);
}

TEST(Mst, EmptyGraph) {
  Graph g;
  const auto m = prim_mst(g);
  EXPECT_TRUE(m.connected);
  EXPECT_TRUE(m.edges.empty());
}

TEST(Connectivity, Components) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  const auto c = connected_components(g);
  EXPECT_EQ(c.count, 2u);
  EXPECT_TRUE(c.same(0, 2));
  EXPECT_FALSE(c.same(0, 3));
  EXPECT_FALSE(is_connected(g));
  g.add_edge(2, 3);
  EXPECT_TRUE(is_connected(g));
}

TEST(Connectivity, DemandsSatisfiableRespectsActiveSet) {
  Graph g(4);  // chain 0-1-2-3
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const std::vector<Demand> demands{{0, 3, 1.0}};
  EXPECT_TRUE(demands_satisfiable(g, demands));
  std::vector<char> cut(4, 0);
  cut[2] = 1;  // relay masked
  EXPECT_FALSE(demands_satisfiable(g, demands, cut));
  const std::vector<Demand> self{{1, 1, 1.0}};  // a self-loop
  EXPECT_TRUE(demands_satisfiable(g, self, cut));
  cut[1] = 1;  // a masked endpoint fails its demand
  EXPECT_FALSE(demands_satisfiable(g, self, cut));
}

TEST(Connectivity, BfsHops) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto d = bfs_hops(g, 0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[3], 3u);
}

}  // namespace
}  // namespace eend::graph
