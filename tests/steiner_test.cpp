// Unit tests: Steiner-tree approximations (KMB edge-weighted, Klein-Ravi
// node-weighted) against hand-built instances and the exact oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <queue>
#include <set>
#include <string>

#include "graph/mst.hpp"
#include "graph/steiner.hpp"
#include "obs/counters.hpp"
#include "opt/design_instance.hpp"
#include "util/rng.hpp"

namespace eend::graph {
namespace {

/// Reference leaf pruning: the original fixed-point sweep that rebuilds the
/// full incident map per pass. Kept here verbatim as the oracle for the
/// worklist implementation in steiner.cpp — same unique fixed point, O(E²)
/// instead of O(E).
void prune_leaves_reference(const Graph& g,
                            std::span<const NodeId> terminals,
                            std::set<EdgeId>& edges) {
  const auto is_term = [&](NodeId v) {
    return std::find(terminals.begin(), terminals.end(), v) !=
           terminals.end();
  };
  bool changed = true;
  while (changed) {
    changed = false;
    std::map<NodeId, std::vector<EdgeId>> incident;
    for (EdgeId e : edges) {
      incident[g.edge(e).u].push_back(e);
      incident[g.edge(e).v].push_back(e);
    }
    for (const auto& [v, inc] : incident) {
      if (inc.size() == 1 && !is_term(v)) {
        edges.erase(inc[0]);
        changed = true;
      }
    }
  }
}

bool is_terminal(std::span<const NodeId> terminals, NodeId v) {
  return std::find(terminals.begin(), terminals.end(), v) != terminals.end();
}

/// Build the result record from a set of tree edges in g.
SteinerTree assemble_reference(const Graph& g,
                               std::span<const NodeId> terminals,
                               const std::set<EdgeId>& edges) {
  SteinerTree t;
  std::set<NodeId> nodes(terminals.begin(), terminals.end());
  for (EdgeId e : edges) {
    nodes.insert(g.edge(e).u);
    nodes.insert(g.edge(e).v);
    t.edge_cost += g.edge(e).weight;
  }
  t.edges.assign(edges.begin(), edges.end());
  t.nodes.assign(nodes.begin(), nodes.end());
  for (NodeId v : t.nodes)
    if (!is_terminal(terminals, v)) t.node_cost += g.node_weight(v);

  // Feasibility: all terminals in one component of the tree subgraph.
  std::map<NodeId, std::vector<std::pair<NodeId, EdgeId>>> adj;
  for (EdgeId e : edges) {
    adj[g.edge(e).u].push_back({g.edge(e).v, e});
    adj[g.edge(e).v].push_back({g.edge(e).u, e});
  }
  if (terminals.empty()) {
    t.feasible = true;
    return t;
  }
  std::set<NodeId> seen;
  std::queue<NodeId> q;
  q.push(terminals[0]);
  seen.insert(terminals[0]);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (const auto& [v, e] : adj[u]) {
      (void)e;
      if (seen.insert(v).second) q.push(v);
    }
  }
  t.feasible = std::all_of(terminals.begin(), terminals.end(),
                           [&](NodeId v) { return seen.count(v) > 0; });
  return t;
}

/// Reference Klein-Ravi: the solver that preceded the bounded spider search
/// in steiner.cpp, kept as the oracle that kernel reproduces bit for bit.
/// It keeps that solver's structure — a full, unpruned Dijkstra from every
/// centre in every merge round, an argmin over all centres — and its float
/// expressions; its lookups are flat (a `selected` mask, a per-node entry
/// cost, touch-points indexed by component) and its buffers are reused
/// across centres. `searches`, when non-null, counts its spider searches.
SteinerTree klein_ravi_reference(const Graph& g,
                                std::span<const NodeId> terminals,
                                std::uint64_t* searches = nullptr) {
  EEND_REQUIRE(!terminals.empty());
  for (NodeId t : terminals) EEND_REQUIRE(g.valid_node(t));
  const std::size_t n = g.node_count();
  // A negative entry cost could keep a search going back and forth on an
  // edge forever; the kernel refuses it the same way.
  for (NodeId v = 0; v < n; ++v)
    EEND_REQUIRE_MSG(g.node_weight(v) >= 0.0, "negative weight on node " << v);

  // Entering node v costs entry[v]: its weight, except that terminals are
  // free (c(si) = c(di) = 0 per the paper) and selected nodes are already
  // paid for.
  std::vector<char> selected(n, 0);
  std::vector<double> entry(n);
  for (NodeId v = 0; v < n; ++v) entry[v] = g.node_weight(v);
  for (NodeId t : terminals) {
    selected[t] = 1;
    entry[t] = 0.0;
  }

  // Components: start with each terminal alone. We track, per node, which
  // component it belongs to (kInvalidNode = none yet). Selected nodes form
  // the growing solution.
  std::vector<NodeId> comp(n, kInvalidNode);
  NodeId next_comp = 0;
  for (NodeId t : terminals)
    if (comp[t] == kInvalidNode) comp[t] = next_comp++;
  std::size_t active_components = next_comp;

  // Node-weighted shortest paths FROM a candidate spider center to every
  // node: weight of a path = sum of entry costs of the nodes after the
  // center (the center is charged separately).
  std::vector<double> dist(n);
  std::vector<NodeId> par(n);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  auto spider_paths = [&](NodeId center) {
    if (searches) ++*searches;
    std::fill(dist.begin(), dist.end(), kInfCost);
    std::fill(par.begin(), par.end(), kInvalidNode);
    dist[center] = 0.0;
    pq.emplace(0.0, center);
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (const auto& [v, e] : g.neighbors(u)) {
        (void)e;
        const double nd = d + entry[v];
        if (nd < dist[v]) {
          dist[v] = nd;
          par[v] = u;
          pq.emplace(nd, v);
        }
      }
    }
  };

  // Cheapest touch-point per component, (dist, node); node kInvalidNode =
  // not reached.
  std::vector<Item> comp_best(next_comp);
  std::vector<Item> legs;
  while (active_components > 1) {
    double best_ratio = kInfCost;
    NodeId best_center = kInvalidNode;
    std::vector<NodeId> best_targets;  // one representative node per comp

    for (NodeId center = 0; center < n; ++center) {
      spider_paths(center);
      std::fill(comp_best.begin(), comp_best.end(),
                Item{kInfCost, kInvalidNode});
      for (NodeId v = 0; v < n; ++v) {
        if (comp[v] == kInvalidNode || dist[v] == kInfCost) continue;
        Item& best = comp_best[comp[v]];
        if (best.second == kInvalidNode || dist[v] < best.first)
          best = {dist[v], v};
      }
      legs.clear();
      for (const Item& leg : comp_best)
        if (leg.second != kInvalidNode) legs.push_back(leg);
      if (legs.size() < 2) continue;
      std::sort(legs.begin(), legs.end());
      // Try spider degrees 2..all, pick the best cost/#components ratio.
      double acc = entry[center];
      for (std::size_t i = 0; i < legs.size(); ++i) {
        acc += legs[i].first;
        const std::size_t deg = i + 1;
        if (deg < 2) continue;
        const double ratio = acc / static_cast<double>(deg);
        if (ratio < best_ratio) {
          best_ratio = ratio;
          best_center = center;
          best_targets.clear();
          for (std::size_t j = 0; j <= i; ++j)
            best_targets.push_back(legs[j].second);
        }
      }
    }

    if (best_center == kInvalidNode) {
      // Cannot merge further — terminals are disconnected.
      break;
    }

    // Re-derive the winning spider's parent links with one extra Dijkstra
    // (`entry` is unchanged since the argmin scan, so the run is identical).
    spider_paths(best_center);

    // Apply the spider: select center and all path nodes; merge components.
    const NodeId merged = comp[best_targets[0]];
    auto select_node = [&](NodeId v) {
      selected[v] = 1;
      entry[v] = 0.0;
      if (comp[v] == kInvalidNode) comp[v] = merged;
    };
    select_node(best_center);
    for (NodeId target : best_targets) {
      for (NodeId cur = target; cur != kInvalidNode && cur != best_center;
           cur = par[cur])
        select_node(cur);
    }
    // Relabel all nodes of merged components.
    std::vector<char> merging(next_comp, 0);
    std::size_t merged_count = 0;
    for (NodeId target : best_targets)
      if (!merging[comp[target]]) {
        merging[comp[target]] = 1;
        ++merged_count;
      }
    for (NodeId v = 0; v < n; ++v)
      if (comp[v] != kInvalidNode && merging[comp[v]]) comp[v] = merged;
    active_components -= merged_count - 1;
  }

  // Materialize tree edges: run an MST restricted to selected nodes (any
  // spanning structure works; MST keeps edge cost tidy), then prune.
  std::set<EdgeId> edges;
  {
    std::vector<NodeId> remap(n, kInvalidNode);
    Graph sub;
    std::vector<EdgeId> back;
    for (NodeId v = 0; v < n; ++v)
      if (selected[v]) remap[v] = sub.add_node();
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Edge& ed = g.edge(static_cast<EdgeId>(e));
      if (remap[ed.u] != kInvalidNode && remap[ed.v] != kInvalidNode) {
        sub.add_edge(remap[ed.u], remap[ed.v], ed.weight);
        back.push_back(static_cast<EdgeId>(e));
      }
    }
    if (sub.node_count() > 0) {
      const MstResult mst = prim_mst(sub, 0);
      for (EdgeId se : mst.edges) edges.insert(back[se]);
    }
  }
  prune_leaves(g, terminals, edges);
  return assemble_reference(g, terminals, edges);
}


TEST(Kmb, TwoTerminalsIsShortestPath) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 3, 5.0);
  g.add_edge(3, 2, 5.0);
  const std::vector<NodeId> terms{0, 2};
  const auto t = kmb_steiner_tree(g, terms);
  EXPECT_TRUE(t.feasible);
  EXPECT_DOUBLE_EQ(t.edge_cost, 2.0);
}

TEST(Kmb, StarSteinerPoint) {
  // Three terminals around a cheap hub; best tree uses the hub.
  Graph g(4);
  g.add_edge(0, 3, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(0, 1, 3.0);
  g.add_edge(1, 2, 3.0);
  const std::vector<NodeId> terms{0, 1, 2};
  const auto t = kmb_steiner_tree(g, terms);
  EXPECT_TRUE(t.feasible);
  EXPECT_DOUBLE_EQ(t.edge_cost, 3.0);
  EXPECT_EQ(t.edges.size(), 3u);
}

TEST(Kmb, DisconnectedTerminalsInfeasible) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const std::vector<NodeId> terms{0, 3};
  const auto t = kmb_steiner_tree(g, terms);
  EXPECT_FALSE(t.feasible);
}

TEST(Kmb, SingleTerminalTrivial) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  const std::vector<NodeId> terms{0};
  const auto t = kmb_steiner_tree(g, terms);
  EXPECT_TRUE(t.feasible);
  EXPECT_TRUE(t.edges.empty());
}

TEST(KleinRavi, PrefersCheapRelay) {
  // Terminals 0,1; relays 2 (cheap) and 3 (expensive), both connect them.
  Graph g(4);
  g.set_node_weight(2, 1.0);
  g.set_node_weight(3, 10.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 1, 1.0);
  g.add_edge(0, 3, 1.0);
  g.add_edge(3, 1, 1.0);
  const std::vector<NodeId> terms{0, 1};
  const auto t = klein_ravi_steiner(g, terms);
  EXPECT_TRUE(t.feasible);
  EXPECT_DOUBLE_EQ(t.node_cost, 1.0);
}

TEST(KleinRavi, SharedRelayBeatsDedicatedRelays) {
  // The SF1/SF2 structure: k pairs can each use a dedicated relay (cost k)
  // or all share the center (cost 1). Node-weighted Steiner on the union
  // of terminals must pick the shared center.
  const int k = 4;
  Graph g;
  const NodeId center = g.add_node(1.0);
  std::vector<NodeId> terms;
  for (int i = 0; i < k; ++i) {
    const NodeId s = g.add_node(0.0);
    const NodeId d = g.add_node(0.0);
    const NodeId r = g.add_node(1.0);
    g.add_edge(s, r, 1.0);
    g.add_edge(r, d, 1.0);
    g.add_edge(s, center, 1.0);
    g.add_edge(center, d, 1.0);
    terms.push_back(s);
    terms.push_back(d);
  }
  const auto t = klein_ravi_steiner(g, terms);
  EXPECT_TRUE(t.feasible);
  EXPECT_DOUBLE_EQ(t.node_cost, 1.0);  // only the center pays
}

TEST(ExactOracle, MatchesHandAnalysis) {
  Graph g(5);
  g.set_node_weight(2, 5.0);
  g.set_node_weight(3, 1.0);
  g.set_node_weight(4, 1.0);
  // 0-2-1 (one relay cost 5) vs 0-3-4-1 (two relays cost 2).
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 1, 1.0);
  g.add_edge(0, 3, 1.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(4, 1, 1.0);
  const std::vector<NodeId> terms{0, 1};
  const auto t = exact_node_weighted_steiner(g, terms);
  EXPECT_TRUE(t.feasible);
  EXPECT_DOUBLE_EQ(t.node_cost, 2.0);
}

TEST(KleinRavi, WithinLogFactorOfExactOnRandomGraphs) {
  Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 10;
    Graph g(n);
    for (NodeId v = 0; v < n; ++v)
      g.set_node_weight(v, rng.uniform(0.5, 3.0));
    // Random connected-ish graph: ring + chords.
    for (NodeId v = 0; v < n; ++v)
      g.add_edge(v, static_cast<NodeId>((v + 1) % n), 1.0);
    for (int c = 0; c < 6; ++c) {
      const auto a = static_cast<NodeId>(rng.next_below(n));
      const auto b = static_cast<NodeId>(rng.next_below(n));
      if (a != b) g.add_edge(a, b, 1.0);
    }
    const std::vector<NodeId> terms{0, static_cast<NodeId>(n / 2),
                                    static_cast<NodeId>(n - 2)};
    const auto approx = klein_ravi_steiner(g, terms);
    const auto exact = exact_node_weighted_steiner(g, terms);
    ASSERT_TRUE(approx.feasible);
    ASSERT_TRUE(exact.feasible);
    // 2 ln(3) ~ 2.2; allow the proven bound.
    EXPECT_LE(approx.node_cost, exact.node_cost * 2.2 + 1e-9)
        << "trial " << trial;
    EXPECT_GE(approx.node_cost, exact.node_cost - 1e-9);
  }
}

TEST(Kmb, TreeHasNoNonTerminalLeaves) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 12;
    Graph g(n);
    for (NodeId v = 0; v < n; ++v)
      g.add_edge(v, static_cast<NodeId>((v + 1) % n), rng.uniform(1.0, 4.0));
    for (int c = 0; c < 8; ++c) {
      const auto a = static_cast<NodeId>(rng.next_below(n));
      const auto b = static_cast<NodeId>(rng.next_below(n));
      if (a != b) g.add_edge(a, b, rng.uniform(1.0, 4.0));
    }
    const std::vector<NodeId> terms{1, 5, 9};
    const auto t = kmb_steiner_tree(g, terms);
    ASSERT_TRUE(t.feasible);
    // Count degrees within the tree.
    std::map<NodeId, int> deg;
    for (EdgeId e : t.edges) {
      deg[g.edge(e).u]++;
      deg[g.edge(e).v]++;
    }
    for (const auto& [v, d] : deg) {
      if (std::find(terms.begin(), terms.end(), v) == terms.end()) {
        EXPECT_GE(d, 2) << "non-terminal leaf " << v << " in trial " << trial;
      }
    }
  }
}

TEST(PruneLeaves, MatchesReferenceSweepBitIdentically) {
  // Randomized trees-with-hair plus general subgraphs: the worklist
  // implementation must reach exactly the reference fixed point (satellite
  // of the O(E²)-per-sweep fix).
  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 20;
    Graph g(n);
    // Random spanning-tree-ish skeleton + chords, then a random subset of
    // edges as the working set (the shape KMB hands prune_leaves).
    for (NodeId v = 1; v < n; ++v)
      g.add_edge(v, static_cast<NodeId>(rng.next_below(v)),
                 rng.uniform(1.0, 4.0));
    for (int c = 0; c < 10; ++c) {
      const auto a = static_cast<NodeId>(rng.next_below(n));
      const auto b = static_cast<NodeId>(rng.next_below(n));
      if (a != b) g.add_edge(a, b, rng.uniform(1.0, 4.0));
    }
    std::set<EdgeId> subset;
    for (EdgeId e = 0; e < g.edge_count(); ++e)
      if (rng.next_below(4) != 0) subset.insert(e);
    const std::vector<NodeId> terms{0, static_cast<NodeId>(n / 2)};

    std::set<EdgeId> got = subset, want = subset;
    prune_leaves(g, terms, got);
    prune_leaves_reference(g, terms, want);
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

TEST(PruneLeaves, DeepChainPrunesToEmpty) {
  // A bare path with only one terminal endpoint collapses entirely; the
  // worklist must chase the retreating leaf the whole way down.
  const std::size_t n = 64;
  Graph g(n);
  std::set<EdgeId> edges;
  for (NodeId v = 0; v + 1 < n; ++v)
    edges.insert(g.add_edge(v, v + 1, 1.0));
  const std::vector<NodeId> terms{0};
  prune_leaves(g, terms, edges);
  EXPECT_TRUE(edges.empty());
}

TEST(ExactOracle, IsolatedCheapOptionalNodeBelowFirstTerminal) {
  // Regression for the prim_mst(sub, 0) rooting bug: node 0 is a cheap
  // optional node disconnected from the terminals {1, 2}. Any mask that
  // activates it makes it the lowest remapped id; rooting the MST there
  // spanned the wrong component and silently rejected the candidate. The
  // optimum (bridge relay 3) must come back feasible and junk-free.
  Graph g(4);
  g.set_node_weight(0, 0.01);
  g.set_node_weight(3, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(3, 2, 1.0);
  const std::vector<NodeId> terms{1, 2};
  const auto t = exact_node_weighted_steiner(g, terms);
  ASSERT_TRUE(t.feasible);
  EXPECT_DOUBLE_EQ(t.node_cost, 1.0);
  EXPECT_EQ(t.nodes, (std::vector<NodeId>{1, 2, 3}));
}

/// Random instance for the Klein-Ravi differential: `n` nodes scattered in
/// a square, linked within `range`, edge weight growing with distance.
/// Uniform node weights reproduce from_positions (every node idles at the
/// same power), which makes spider costs tie everywhere.
Graph random_field(Rng& rng, std::size_t n, double range) {
  Graph g(n);
  std::vector<std::pair<double, double>> pos(n);
  for (auto& [x, y] : pos) {
    x = rng.uniform(0.0, 1.0);
    y = rng.uniform(0.0, 1.0);
  }
  for (NodeId u = 0; u < n; ++u) {
    g.set_node_weight(u, 0.83);
    for (NodeId v = u + 1; v < n; ++v) {
      const double dx = pos[u].first - pos[v].first;
      const double dy = pos[u].second - pos[v].second;
      const double d2 = dx * dx + dy * dy;
      if (d2 <= range * range) g.add_edge(u, v, 1.1 + 3.0 * d2);
    }
  }
  return g;
}

void expect_same_tree(const SteinerTree& got, const SteinerTree& want,
                      int trial) {
  EXPECT_EQ(got.feasible, want.feasible) << "trial " << trial;
  EXPECT_EQ(got.nodes, want.nodes) << "trial " << trial;
  EXPECT_EQ(got.edges, want.edges) << "trial " << trial;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.edge_cost),
            std::bit_cast<std::uint64_t>(want.edge_cost))
      << "trial " << trial;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.node_cost),
            std::bit_cast<std::uint64_t>(want.node_cost))
      << "trial " << trial;
}

TEST(KleinRavi, MatchesReferenceImplementationBitIdentically) {
  // Four instance families, 80 trials each: uniform node weights (ties
  // everywhere), the weight jitter random_klein_ravi applies (factor
  // 1 ± 0.3), a terminal set split over two unlinked fields, and a single
  // terminal. Terminal lists are unsorted and may repeat ids.
  Rng rng(20240917);
  std::size_t merged_trees = 0;
  std::size_t split_trees = 0;
  for (int trial = 0; trial < 320; ++trial) {
    const int family = trial % 4;
    const std::size_t n = 6 + rng.next_below(45);
    Graph g = random_field(rng, n, family == 2 ? 0.45 : 0.35);
    if (family == 1)
      for (NodeId v = 0; v < n; ++v)
        g.set_node_weight(
            v, g.node_weight(v) * (1.0 + 0.3 * (2.0 * rng.uniform() - 1.0)));
    if (family == 2) {
      // A second field with no link to the first: terminals on both sides
      // can never merge into one tree.
      const Graph other = random_field(rng, 4 + rng.next_below(10), 0.45);
      const auto offset = static_cast<NodeId>(g.node_count());
      for (NodeId v = 0; v < other.node_count(); ++v)
        g.add_node(other.node_weight(v));
      for (const Edge& e : other.edges())
        g.add_edge(e.u + offset, e.v + offset, e.weight);
    }
    const auto total = static_cast<NodeId>(g.node_count());
    std::vector<NodeId> terms;
    const std::size_t k = family == 3 ? 1 : 2 + rng.next_below(7);
    for (std::size_t i = 0; i < k; ++i)
      terms.push_back(static_cast<NodeId>(rng.next_below(total)));
    if (family == 2) terms.push_back(total - 1);  // surely in the 2nd field
    if (rng.bernoulli(0.3)) terms.push_back(terms.front());  // repeated id

    const SteinerTree got = klein_ravi_steiner(g, terms);
    const SteinerTree want = klein_ravi_reference(g, terms);
    expect_same_tree(got, want, trial);
    if (want.feasible && want.nodes.size() > 2) ++merged_trees;
    if (!want.feasible) ++split_trees;
  }
  // The sweep must exercise real multi-spider merges and disconnected
  // terminal sets, not only trivia.
  EXPECT_GT(merged_trees, 100u);
  EXPECT_GT(split_trees, 40u);
}

TEST(KleinRavi, BoundPruningMatchesReferenceOnDesignInstances) {
  // Design-scale instances (N = 100, 6-8 demands), each with the uniform
  // idle weights from_positions gives and with the 1 ± 0.3 jitter
  // random_klein_ravi applies. Here the ratio bound stops most spider
  // searches early; trees must still match the unpruned reference bit for
  // bit, and every stopped search still counts as one. Seeds 7-18 include
  // an instance (seed 10, uniform weights) whose tree changes if the bound
  // drops its acc / m term.
  Rng rng(16016);
  for (int trial = 0; trial < 24; ++trial) {
    opt::DesignInstanceSpec spec;
    spec.node_count = 100;
    spec.demand_count = 6 + static_cast<std::size_t>(trial / 2 % 3);
    spec.seed = 7 + static_cast<std::uint64_t>(trial / 2);
    const opt::DesignInstance inst = opt::make_design_instance(spec);
    Graph g = inst.problem.graph();
    const std::vector<NodeId> terms = inst.problem.terminals();
    if (trial % 2 == 1)
      for (NodeId v = 0; v < g.node_count(); ++v)
        g.set_node_weight(
            v, g.node_weight(v) * (1.0 + 0.3 * (2.0 * rng.uniform() - 1.0)));

    obs::CounterRegistry reg;
    SteinerTree got;
    {
      obs::ScopedRegistry scope(&reg);
      got = klein_ravi_steiner(g, terms);
    }
    std::uint64_t want_searches = 0;
    const SteinerTree want = klein_ravi_reference(g, terms, &want_searches);
    expect_same_tree(got, want, trial);
    EXPECT_TRUE(want.feasible) << "trial " << trial;
    if (!obs::kEnabled) continue;
    auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters["graph.klein_ravi.spider_searches"],
              want_searches)
        << "trial " << trial;
    EXPECT_GT(snap.counters["graph.klein_ravi.pruned_searches"], 0u)
        << "trial " << trial;
  }
}

TEST(KleinRavi, ScreenMatchesReferenceBitIdentically) {
  // The centre screen skips every spider centre whose leg-row ratio is
  // above the round's smallest; trees and the spider-search count must
  // still match the unscreened reference. Seven families, 30 trials each:
  // N = 50-70 design instances with 10-12 demands (many merges, so many
  // incremental row updates) and uniform weights (dense ties), 1 +- 0.3
  // jitter, jittered weights rounded to integers (exact ties) or to tenths
  // (ties whose float sums depend on the order), and a quarter of the
  // non-terminals at weight 0; an extra isolated node of weight 0; and a
  // terminal set split over two unlinked fields.
  Rng rng(19019);
  std::size_t screened_trees = 0;
  for (int trial = 0; trial < 210; ++trial) {
    const int family = trial % 7;
    Graph g;
    std::vector<NodeId> terms;
    if (family < 6) {
      opt::DesignInstanceSpec spec;
      spec.node_count = 50 + 10 * static_cast<std::size_t>(trial / 7 % 3);
      spec.demand_count = 10 + static_cast<std::size_t>(trial / 21 % 3);
      spec.seed = 100 + static_cast<std::uint64_t>(trial / 7);
      const opt::DesignInstance inst = opt::make_design_instance(spec);
      g = inst.problem.graph();
      terms = inst.problem.terminals();
      const double unit = g.node_weight(0);  // every node idles alike
      for (NodeId v = 0; v < g.node_count() && family > 0; ++v) {
        double w = g.node_weight(v) * (1.0 + 0.3 * (2.0 * rng.uniform() - 1.0));
        if (family == 2) w = unit * std::round(4.0 * w / unit);
        if (family == 3) w = std::round(10.0 * w / unit) / 10.0;
        if (family == 4 && rng.bernoulli(0.25)) w = 0.0;
        g.set_node_weight(v, w);
      }
      if (family == 5) g.add_node(0.0);
    } else {
      g = random_field(rng, 30 + rng.next_below(40), 0.3);
      const Graph other = random_field(rng, 10 + rng.next_below(20), 0.45);
      const auto offset = static_cast<NodeId>(g.node_count());
      for (NodeId v = 0; v < other.node_count(); ++v)
        g.add_node(other.node_weight(v));
      for (const Edge& e : other.edges())
        g.add_edge(e.u + offset, e.v + offset, e.weight);
      for (int i = 0; i < 6; ++i)
        terms.push_back(
            static_cast<NodeId>(rng.next_below(g.node_count())));
      terms.push_back(static_cast<NodeId>(g.node_count() - 1));
    }

    obs::CounterRegistry reg;
    SteinerTree got;
    {
      obs::ScopedRegistry scope(&reg);
      got = klein_ravi_steiner(g, terms);
    }
    std::uint64_t want_searches = 0;
    const SteinerTree want = klein_ravi_reference(g, terms, &want_searches);
    expect_same_tree(got, want, trial);
    EXPECT_EQ(want.feasible, family != 6) << "trial " << trial;
    if (!obs::kEnabled) continue;
    auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters["graph.klein_ravi.spider_searches"],
              want_searches)
        << "trial " << trial;
    const std::uint64_t rows = snap.counters["graph.klein_ravi.screen_settled"];
    if (family < 6) {
      EXPECT_GT(rows, 0u) << "trial " << trial;
    }
    if (rows > 0) ++screened_trees;
  }
  if (obs::kEnabled) {
    EXPECT_GE(screened_trees, 150u);
  }
}

TEST(KleinRavi, SpiderDegreeBoundIsSoundAndTight) {
  // The bound the spider search prunes by, against exact ratios in long
  // double. A centre of cost c >= 0 with sorted legs L_1 <= ... <= L_k has
  // degree-m ratio (c + L_1 + ... + L_m) / m. After m legs, settling d in
  // [L_m, L_{m+1}], the bound may not exceed the ratio of any degree
  // m' > m, m' >= 2 (sound); and it must be the infimum of those ratios
  // when every unseen leg equals d (tight): no larger value is sound.
  // Four leg families: random doubles, small integers (ties and zeros),
  // doubles with many zeros, and multiples of one float weight.
  Rng rng(25025);
  std::size_t next_degree = 0, sound_checks = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const int family = trial % 4;
    const auto draw = [&] {
      switch (family) {
        case 0: return rng.uniform(0.0, 10.0);
        case 1: return static_cast<double>(rng.next_below(4));
        case 2: return rng.bernoulli(0.4) ? 0.0 : rng.uniform(0.0, 1.0);
        default: return 0.83 * static_cast<double>(1 + rng.next_below(5));
      }
    };
    const double centre = draw();
    std::vector<double> legs(2 + rng.next_below(12));
    for (double& leg : legs) leg = draw();
    std::sort(legs.begin(), legs.end());

    double acc = centre;  // the search's running sum: c + legs 1..m
    for (std::size_t m = 0; m < legs.size(); ++m) {
      if (m > 0) acc += legs[m - 1];
      const double lo = m == 0 ? 0.0 : legs[m - 1];
      const double hi = legs[m];
      for (const double d : {lo, hi, lo + (hi - lo) * rng.uniform()}) {
        const double bound = spider_degree_bound(acc, m, d);
        long double exact = centre;
        for (std::size_t i = 0; i < legs.size(); ++i) {
          exact += legs[i];
          const std::size_t deg = i + 1;
          if (deg <= m || deg < 2) continue;
          const long double ratio = exact / static_cast<long double>(deg);
          EXPECT_LE(bound, ratio * (1.0L + 1e-12L))
              << "trial " << trial << " m " << m << " d " << d << " deg "
              << deg;
          ++sound_checks;
        }
        // Every unseen leg at d: degree m' costs d + (acc - m·d) / m',
        // monotone in m', so the infimum is at m' = m + 1 when that term
        // is negative (then m >= 1, as acc >= 0) and d (m' -> infinity)
        // otherwise.
        const long double excess =
            static_cast<long double>(acc) - static_cast<long double>(m) * d;
        const long double inf =
            excess < 0 ? d + excess / static_cast<long double>(m + 1)
                       : static_cast<long double>(d);
        if (excess < 0) ++next_degree;
        EXPECT_LE(std::abs(bound - inf), 1e-12L * inf)
            << "trial " << trial << " m " << m << " d " << d;
      }
    }
  }
  // Both branches must be exercised, the next-degree one often.
  EXPECT_GT(next_degree, 5000u);
  EXPECT_GT(sound_checks, 100000u);
}

TEST(KleinRavi, NegativeNodeWeightIsRejectedAtEntry) {
  // A negative entry cost can make a spider search loop forever, so both
  // solvers refuse a negative node weight before searching, naming the
  // node. First: a design instance with a non-terminal next to a terminal
  // at -0.3 times the unit idle weight.
  opt::DesignInstanceSpec spec;
  spec.node_count = 40;
  spec.demand_count = 4;
  spec.seed = 3;
  const opt::DesignInstance inst = opt::make_design_instance(spec);
  Graph g = inst.problem.graph();
  const std::vector<NodeId> terms = inst.problem.terminals();
  const auto relay = std::find_if(
      g.neighbors(terms[0]).begin(), g.neighbors(terms[0]).end(),
      [&](const Adjacency& a) { return !is_terminal(terms, a.neighbor); });
  ASSERT_NE(relay, g.neighbors(terms[0]).end());
  g.set_node_weight(relay->neighbor, -0.3 * g.node_weight(relay->neighbor));
  const std::string node = "node " + std::to_string(relay->neighbor) + " ";
  try {
    klein_ravi_steiner(g, terms);
    ADD_FAILURE() << "negative node weight accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(node), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(klein_ravi_reference(g, terms), CheckError);

  // Second: node 3 at -0.3 sits one hop off the first spider (0-1-2), so
  // no edge's entry costs sum below 0 until relay 1 is selected; the scan
  // at entry refuses it all the same.
  Graph h(7);
  h.set_node_weight(1, 1.0);
  h.set_node_weight(3, -0.3);
  h.set_node_weight(4, 5.0);
  h.set_node_weight(5, 5.0);
  for (const auto& [u, v] : {std::pair<NodeId, NodeId>{0, 1}, {1, 2}, {1, 3},
                             {2, 4}, {4, 5}, {5, 6}})
    h.add_edge(u, v, 1.0);
  const std::vector<NodeId> three{0, 2, 6};
  EXPECT_THROW(klein_ravi_steiner(h, three), CheckError);
  EXPECT_THROW(klein_ravi_reference(h, three), CheckError);
}

TEST(KleinRavi, ClusteredTerminalsMatchReferenceBitIdentically) {
  // 14-20 terminals packed into 2-4 clusters of an N = 40-60 field, so
  // large components form early and their centres win most later rounds:
  // these are the centres whose legs are read off the screen rows. Trees
  // and the spider-search count must match the reference, which searches
  // from every centre; every tree must score some centre from the rows.
  // Uniform weights (dense ties) alternate with the 1 +- 0.3 jitter.
  Rng rng(26026);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 40 + rng.next_below(21);
    Graph g(n);
    std::vector<std::pair<double, double>> pos(n);
    for (auto& [x, y] : pos) {
      x = rng.uniform(0.0, 1.0);
      y = rng.uniform(0.0, 1.0);
    }
    const auto d2 = [&](NodeId u, NodeId v) {
      const double dx = pos[u].first - pos[v].first;
      const double dy = pos[u].second - pos[v].second;
      return dx * dx + dy * dy;
    };
    for (NodeId u = 0; u < n; ++u) {
      double w = 0.83;
      if (trial % 2 == 1) w *= 1.0 + 0.3 * (2.0 * rng.uniform() - 1.0);
      g.set_node_weight(u, w);
      for (NodeId v = u + 1; v < n; ++v)
        if (d2(u, v) <= 0.3 * 0.3) g.add_edge(u, v, 1.1 + 3.0 * d2(u, v));
    }
    const std::size_t k = 14 + rng.next_below(7);
    const std::size_t clusters = 2 + rng.next_below(3);
    std::vector<char> taken(n, 0);
    std::vector<NodeId> terms;
    for (std::size_t c = 0; c < clusters; ++c) {
      // The free nodes nearest a random seed node join the terminal set.
      const auto seed = static_cast<NodeId>(rng.next_below(n));
      std::vector<NodeId> by_distance;
      for (NodeId v = 0; v < n; ++v)
        if (!taken[v]) by_distance.push_back(v);
      std::sort(by_distance.begin(), by_distance.end(),
                [&](NodeId a, NodeId b) {
                  return std::pair(d2(seed, a), a) < std::pair(d2(seed, b), b);
                });
      const std::size_t size = (k - terms.size()) / (clusters - c);
      for (std::size_t i = 0; i < size; ++i) {
        taken[by_distance[i]] = 1;
        terms.push_back(by_distance[i]);
      }
    }
    for (std::size_t i = terms.size(); i > 1; --i)  // unsorted ids
      std::swap(terms[i - 1], terms[rng.next_below(i)]);

    obs::CounterRegistry reg;
    SteinerTree got;
    {
      obs::ScopedRegistry scope(&reg);
      got = klein_ravi_steiner(g, terms);
    }
    std::uint64_t want_searches = 0;
    const SteinerTree want = klein_ravi_reference(g, terms, &want_searches);
    expect_same_tree(got, want, trial);
    if (!obs::kEnabled) continue;
    auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters["graph.klein_ravi.spider_searches"],
              want_searches)
        << "trial " << trial;
    EXPECT_GT(snap.counters["graph.klein_ravi.row_centres"], 0u)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace eend::graph
