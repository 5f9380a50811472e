// Unit tests: the centralized design-problem facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "arc_index_check.hpp"
#include "core/design_problem.hpp"
#include "graph/shortest_path.hpp"
#include "obs/counters.hpp"
#include "util/rng.hpp"

namespace eend::core {
namespace {

std::vector<phy::Position> cross_positions() {
  // A center hub with four arms, each within Cabletron range of the hub
  // but not of each other.
  return {{250, 250}, {250, 50}, {250, 450}, {50, 250}, {450, 250}};
}

/// What the CheckError that `fn` throws says, or "" when it throws none.
template <class Fn>
std::string check_message(Fn&& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(DesignProblem, RejectsInstancesOutsideTheContract) {
  // Node weights must be finite and >= 0, edge weights finite and > 0,
  // demand endpoints node ids and rates finite and > 0. The constructor
  // and add_demand / set_demands refuse anything else with a CheckError
  // that names the element.
  const auto chain = [] {  // 0 - 1 - 2; node 0 weighs 0, the rest 1
    graph::Graph g(3);
    g.set_node_weight(1, 1.0);
    g.set_node_weight(2, 1.0);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    return g;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double w : {0.0, nan, inf}) {
    graph::Graph g = chain();
    g.edge(1).weight = w;
    const std::string what =
        check_message([&] { NetworkDesignProblem p(std::move(g)); });
    EXPECT_NE(what.find("edge 1 (1-2) has weight"), std::string::npos)
        << w << ": " << what;
  }
  for (const double c : {-0.5, nan, inf}) {
    graph::Graph g = chain();
    g.set_node_weight(2, c);
    const std::string what =
        check_message([&] { NetworkDesignProblem p(std::move(g)); });
    EXPECT_NE(what.find("node 2 has weight"), std::string::npos)
        << c << ": " << what;
  }

  NetworkDesignProblem p(chain());
  p.add_demand({0, 2, 1.0});
  p.add_demand({1, 1, 1.0});  // a self-loop is allowed
  for (const graph::Demand& d :
       {graph::Demand{0, 3, 1.0}, graph::Demand{3, 0, 1.0},
        graph::Demand{0, 2, 0.0}, graph::Demand{0, 2, -1.0},
        graph::Demand{0, 2, nan}, graph::Demand{0, 2, inf}}) {
    const std::string label = std::to_string(d.source) + "->" +
                              std::to_string(d.destination) + " rate " +
                              std::to_string(d.rate);
    std::string what = check_message([&] { p.add_demand(d); });
    EXPECT_NE(what.find("demand 2 (" + std::to_string(d.source) + "->"),
              std::string::npos)
        << label << ": " << what;
    what = check_message([&] { p.set_demands({{0, 1, 1.0}, d}); });
    EXPECT_NE(what.find("demand 1 (" + std::to_string(d.source) + "->"),
              std::string::npos)
        << label << ": " << what;
  }
  EXPECT_EQ(p.demands().size(), 2u);  // a refused demand changes nothing
}

TEST(DesignProblem, FromPositionsBuildsRangeGraph) {
  const auto p = NetworkDesignProblem::from_positions(cross_positions(),
                                                      energy::cabletron());
  const auto& g = p.graph();
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 4u);  // only hub-arm pairs are within 250 m
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 2));  // 400 m apart
  // w(e) = Ptx(200) + Prx; c(v) = Pidle.
  const auto card = energy::cabletron();
  EXPECT_NEAR(g.edge_weight_between(0, 1),
              card.transmit_power(200.0) + card.p_rx, 1e-12);
  EXPECT_DOUBLE_EQ(g.node_weight(0), card.p_idle);
}

TEST(DesignProblem, FromPositionsMatchesBruteForceScan) {
  // from_positions now discovers neighbors through spatial::GridIndex; the
  // contract is *bitwise* equivalence with the historical O(N²) scan —
  // same edges, in the same order (stable EdgeIds), with identical weights.
  const auto card = energy::cabletron();
  Rng field_rng(20260726);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + field_rng.next_below(120);
    const double side = 200.0 + field_rng.uniform(0.0, 1500.0);
    std::vector<phy::Position> pts(n);
    for (auto& p : pts)
      p = {field_rng.uniform(0.0, side), field_rng.uniform(0.0, side)};
    // Exercise the boundary predicate: plant one pair at exactly max range.
    if (n >= 2) {
      pts[0] = {10.0, 10.0};
      pts[1] = {10.0 + card.max_range_m, 10.0};
    }

    graph::Graph brute(n);
    for (graph::NodeId v = 0; v < n; ++v)
      brute.set_node_weight(v, card.p_idle);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d = phy::distance(pts[i], pts[j]);
        if (d <= card.max_range_m)
          brute.add_edge(static_cast<graph::NodeId>(i),
                         static_cast<graph::NodeId>(j),
                         card.transmit_power(d) + card.p_rx);
      }

    const auto p = NetworkDesignProblem::from_positions(pts, card);
    const auto& g = p.graph();
    ASSERT_EQ(g.node_count(), brute.node_count()) << "trial " << trial;
    ASSERT_EQ(g.edge_count(), brute.edge_count()) << "trial " << trial;
    for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
      EXPECT_EQ(g.edge(e).u, brute.edge(e).u) << "trial " << trial;
      EXPECT_EQ(g.edge(e).v, brute.edge(e).v) << "trial " << trial;
      // Bitwise, not approximate: both paths must compute the identical
      // distance expression.
      EXPECT_EQ(g.edge(e).weight, brute.edge(e).weight) << "trial " << trial;
    }
    for (graph::NodeId v = 0; v < n; ++v)
      EXPECT_EQ(g.node_weight(v), brute.node_weight(v));
    expect_owned_index(p, "trial " + std::to_string(trial));
  }
}

TEST(DesignProblem, TryRouteInSubgraphReportsInfeasibility) {
  auto p = NetworkDesignProblem::from_positions(cross_positions(),
                                                energy::cabletron());
  p.add_demand({1, 2, 1.0});
  // Without the hub, arms 1 and 2 cannot reach each other.
  EXPECT_FALSE(p.try_route_in_subgraph({1, 2}).has_value());
  // Endpoints missing from the set is infeasible, not "unrestricted".
  EXPECT_FALSE(p.try_route_in_subgraph({0, 2}).has_value());
  const auto routes = p.try_route_in_subgraph({0, 1, 2});
  ASSERT_TRUE(routes.has_value());
  ASSERT_EQ(routes->size(), 1u);
  EXPECT_EQ(routes->front().path,
            (std::vector<graph::NodeId>{1, 0, 2}));
}

TEST(DesignProblem, TerminalsDeduplicated) {
  auto p = NetworkDesignProblem::from_positions(cross_positions(),
                                                energy::cabletron());
  p.add_demand({1, 2, 1.0});
  p.add_demand({1, 3, 1.0});
  EXPECT_EQ(p.terminals().size(), 3u);
}

TEST(DesignProblem, NodeWeightedSolverUsesHub) {
  auto p = NetworkDesignProblem::from_positions(cross_positions(),
                                                energy::cabletron());
  p.add_demand({1, 2, 1.0});
  const auto t = p.solve_node_weighted();
  ASSERT_TRUE(t.feasible);
  // Only route: 1 - hub - 2. One non-terminal (the hub).
  EXPECT_NEAR(t.node_cost, energy::cabletron().p_idle, 1e-12);
}

TEST(DesignProblem, McpReductionFeasible) {
  auto p = NetworkDesignProblem::from_positions(cross_positions(),
                                                energy::cabletron());
  p.add_demand({1, 2, 1.0});
  p.add_demand({3, 4, 1.0});
  const auto t = p.solve_mpc_reduction();
  EXPECT_TRUE(t.feasible);
  // MPC's tree must contain the hub (the only connector).
  EXPECT_NE(std::find(t.nodes.begin(), t.nodes.end(), 0u), t.nodes.end());
}

TEST(DesignProblem, EvaluateTreeAccountsIdleAndData) {
  auto p = NetworkDesignProblem::from_positions(cross_positions(),
                                                energy::cabletron());
  p.add_demand({1, 2, 2.0});  // 2 packets
  const auto tree = p.solve_node_weighted();
  analytical::Eq5Params ep;
  ep.t_idle = 10.0;
  ep.t_data_per_packet = 1.0;
  const auto ev = p.evaluate_tree(tree, ep);
  const auto card = energy::cabletron();
  EXPECT_NEAR(ev.idle, 10.0 * card.p_idle, 1e-12);  // hub only
  const double hop_w = card.transmit_power(200.0) + card.p_rx;
  EXPECT_NEAR(ev.data, 2.0 * 2.0 * hop_w, 1e-12);  // 2 hops x 2 packets
}

TEST(DesignProblem, ShortestPathEvaluationUnrestricted) {
  auto p = NetworkDesignProblem::from_positions(cross_positions(),
                                                energy::cabletron());
  p.add_demand({1, 2, 1.0});
  const auto ev = p.evaluate_shortest_paths({});
  EXPECT_GT(ev.total(), 0.0);
  EXPECT_EQ(ev.active_nodes, 3u);
}

TEST(DesignProblem, St1St2IndifferenceShowsPaperSection3Point) {
  // The §3 argument on the solver side: k sources, one sink, a chain
  // relay i (ST1) and a star relay j (ST2). Both trees cost exactly one
  // relay, so a node-weighted Steiner solver is *indifferent* — yet the
  // communication cost deviates by (k+3)/4. This is why the paper argues
  // tree structure must be communication-aware.
  const int k = 4;
  graph::Graph g;
  const auto sink = g.add_node(0.0);
  std::vector<graph::NodeId> src;
  for (int s = 0; s < k; ++s) src.push_back(g.add_node(0.0));
  const auto ri = g.add_node(1.0);
  const auto rj = g.add_node(1.0);
  for (int s = 0; s + 1 < k; ++s) g.add_edge(src[s], src[s + 1], 1.0);
  g.add_edge(src[0], ri, 1.0);
  g.add_edge(ri, sink, 1.0);
  for (int s = 0; s < k; ++s) g.add_edge(src[s], rj, 1.0);
  g.add_edge(rj, sink, 1.0);

  NetworkDesignProblem p(std::move(g));
  for (int s = 0; s < k; ++s) p.add_demand({src[s], sink, 1.0});
  const auto t = p.solve_node_weighted();
  ASSERT_TRUE(t.feasible);
  EXPECT_NEAR(t.node_cost, 1.0, 1e-12);  // either relay: same node cost

  analytical::Eq5Params ep;
  const auto ev = p.evaluate_tree(t, ep);
  const double st2_data = 2.0 * k;                    // Eq. 7 term
  const double st1_data = k * (k + 3.0) / 2.0;        // Eq. 6 term
  EXPECT_TRUE(std::abs(ev.data - st2_data) < 1e-9 ||
              std::abs(ev.data - st1_data) < 1e-9)
      << "data=" << ev.data;

  // Communication-aware routing (global shortest paths) always achieves
  // the ST2 cost — the deviation the solver cannot see is (k+3)/4.
  const auto sp = p.evaluate_shortest_paths(ep);
  EXPECT_NEAR(sp.data, st2_data, 1e-9);
  EXPECT_NEAR(st1_data / st2_data, (k + 3.0) / 4.0, 1e-12);
}

TEST(DesignProblem, InfeasibleTreeEvaluationThrows) {
  auto p = NetworkDesignProblem::from_positions(cross_positions(),
                                                energy::cabletron());
  p.add_demand({1, 2, 1.0});
  graph::SteinerTree bogus;  // infeasible by default
  EXPECT_THROW(p.evaluate_tree(bogus, {}), CheckError);
}

/// Random routing instance: `n` nodes, a spanning-ish random edge set
/// (sparse enough to leave some pairs disconnected), and `k` demands that
/// may start and end at the same node. `tie_weights` draws integer weights
/// 1..3 so equal-length paths are common.
NetworkDesignProblem random_routing_problem(Rng& rng, std::size_t n,
                                            bool tie_weights) {
  graph::Graph g(n);
  const std::size_t m = n + rng.next_below(2 * n);
  for (std::size_t i = 0; i < m; ++i) {
    const auto a = static_cast<graph::NodeId>(rng.next_below(n));
    const auto b = static_cast<graph::NodeId>(rng.next_below(n));
    if (a == b) continue;
    g.add_edge(a, b,
               tie_weights ? static_cast<double>(1 + rng.next_below(3))
                           : rng.uniform(0.5, 4.0));
  }
  NetworkDesignProblem p(std::move(g));
  const std::size_t k = 1 + rng.next_below(6);
  for (std::size_t i = 0; i < k; ++i) {
    const auto s = static_cast<graph::NodeId>(rng.next_below(n));
    const auto t = rng.bernoulli(0.15)
                       ? s
                       : static_cast<graph::NodeId>(rng.next_below(n));
    p.add_demand({s, t, rng.uniform(0.5, 3.0)});
  }
  return p;
}

/// Random allowed-node list: empty (= every node) a quarter of the time,
/// otherwise each node kept with probability `keep`.
std::vector<graph::NodeId> random_mask(Rng& rng, std::size_t n, double keep) {
  std::vector<graph::NodeId> out;
  if (rng.bernoulli(0.25)) return out;
  for (graph::NodeId v = 0; v < n; ++v)
    if (rng.bernoulli(keep)) out.push_back(v);
  if (out.empty()) out.push_back(0);
  return out;
}

enum class RouteOutcome { kRouted, kBlockedEndpoint, kUnreachable };

/// Oracle: one plain graph::dijkstra per demand on a copy of the graph that
/// keeps only the edges between allowed nodes (same node ids, same relative
/// edge order); the first unroutable demand fails the whole call.
RouteOutcome reference_routes(const NetworkDesignProblem& p,
                              const std::vector<graph::NodeId>& allowed_nodes,
                              std::vector<std::vector<graph::NodeId>>& paths,
                              std::size_t& failed) {
  const auto& full = p.graph();
  std::vector<bool> allowed(full.node_count(), allowed_nodes.empty());
  for (graph::NodeId v : allowed_nodes) allowed[v] = true;
  graph::Graph g(full.node_count());
  for (const graph::Edge& e : full.edges())
    if (allowed[e.u] && allowed[e.v]) g.add_edge(e.u, e.v, e.weight);
  paths.clear();
  for (std::size_t i = 0; i < p.demands().size(); ++i) {
    const auto& d = p.demands()[i];
    failed = i;
    if (!allowed[d.source] || !allowed[d.destination])
      return RouteOutcome::kBlockedEndpoint;
    paths.push_back(
        graph::dijkstra(g, d.source).path_to(d.destination));
    if (paths.back().empty()) return RouteOutcome::kUnreachable;
  }
  return RouteOutcome::kRouted;
}

void expect_same_routes(
    const std::optional<std::vector<analytical::RoutedDemand>>& got,
    const std::optional<std::vector<analytical::RoutedDemand>>& want,
    int trial) {
  ASSERT_EQ(got.has_value(), want.has_value()) << "trial " << trial;
  if (!got) return;
  ASSERT_EQ(got->size(), want->size()) << "trial " << trial;
  for (std::size_t i = 0; i < got->size(); ++i) {
    EXPECT_EQ((*got)[i].path, (*want)[i].path) << "trial " << trial;
    EXPECT_EQ((*got)[i].packets, (*want)[i].packets) << "trial " << trial;
  }
}

TEST(DesignProblem, RestrictedRoutingMatchesMaskedDijkstra) {
  Rng rng(77031);
  std::size_t outcomes[3] = {0, 0, 0};
  std::size_t self_demands = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = 2 + rng.next_below(40);
    const auto p = random_routing_problem(rng, n, trial % 2 == 0);
    const auto mask = random_mask(rng, n, rng.uniform(0.4, 1.0));

    std::vector<std::vector<graph::NodeId>> want;
    std::size_t want_failed = 0;
    const RouteOutcome outcome = reference_routes(p, mask, want, want_failed);
    ++outcomes[static_cast<int>(outcome)];

    std::size_t got_failed = p.demands().size();
    const auto got = p.try_route_in_subgraph(mask, &got_failed);
    ASSERT_EQ(got.has_value(), outcome == RouteOutcome::kRouted)
        << "trial " << trial;
    if (!got) {
      EXPECT_EQ(got_failed, want_failed) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(got->size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const auto& rd = (*got)[i];
      EXPECT_EQ(rd.path, want[i]) << "trial " << trial << " demand " << i;
      EXPECT_EQ(rd.demand.source, p.demands()[i].source);
      EXPECT_EQ(rd.packets, p.demands()[i].rate);
      if (rd.demand.source == rd.demand.destination) {
        EXPECT_EQ(rd.path, std::vector<graph::NodeId>{rd.demand.source});
        ++self_demands;
      }
    }
  }
  // Every branch of the contract is exercised many times over.
  EXPECT_GT(outcomes[0], 100u);
  EXPECT_GT(outcomes[1], 100u);
  EXPECT_GT(outcomes[2], 50u);
  EXPECT_GT(self_demands, 20u);
}

/// Shrinking the allowed set keeps the subset precondition, so cached
/// paths that avoid the removed nodes are reused; growing it breaks the
/// precondition and must route exactly as the uncached call does.
void expect_cache_matches_uncached(bool tie_weights) {
  Rng rng(5150);
  std::size_t compared = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 4 + rng.next_below(36);
    const auto p = random_routing_problem(rng, n, tie_weights);
    const auto before = random_mask(rng, n, 0.9);
    const auto cached = p.try_route_in_subgraph(before);
    if (!cached) continue;

    std::vector<graph::NodeId> after;
    for (graph::NodeId v = 0; v < n; ++v) {
      const bool was = before.empty() ||
                       std::binary_search(before.begin(), before.end(), v);
      if (was && !rng.bernoulli(0.2)) after.push_back(v);
    }
    if (after.empty()) continue;
    std::size_t plain_failed = n;
    std::size_t fast_failed = n;
    const auto plain = p.try_route_in_subgraph(after, &plain_failed);
    const auto fast =
        p.try_route_in_subgraph_cached(after, before, *cached, &fast_failed);
    expect_same_routes(fast, plain, trial);
    EXPECT_EQ(fast_failed, plain_failed) << "trial " << trial;
    // Reversed roles: `before` is not a subset of `after` unless equal.
    if (fast) {
      const auto grown = p.try_route_in_subgraph_cached(before, after, *fast);
      expect_same_routes(grown, cached, trial);
    }
    ++compared;
  }
  EXPECT_GT(compared, 150u);
}

TEST(DesignProblem, CachedRoutingMatchesUncachedAfterShrink) {
  expect_cache_matches_uncached(/*tie_weights=*/false);
}

TEST(DesignProblem, CachedRoutingMatchesUncachedUnderTies) {
  // Integer weights 1..3 make equal-length paths common. With strictly
  // positive weights nodes settle in (distance, id) order, so removing an
  // off-path node cannot re-break a tie on the cached path.
  expect_cache_matches_uncached(/*tie_weights=*/true);
}

TEST(DesignProblem, RoutingCountsSearchesAndCacheHits) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  auto p = NetworkDesignProblem::from_positions(cross_positions(),
                                                energy::cabletron());
  p.add_demand({1, 2, 1.0});
  p.add_demand({3, 4, 1.0});
  p.add_demand({3, 3, 1.0});
  const std::vector<graph::NodeId> all{0, 1, 2, 3, 4};

  obs::CounterRegistry reg;
  std::optional<std::vector<analytical::RoutedDemand>> routes;
  {
    obs::ScopedRegistry scope(&reg);
    routes = p.try_route_in_subgraph(all);
  }
  ASSERT_TRUE(routes.has_value());
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters["opt.route.searches"], 3u);
  // The arms tie behind the hub and settle in id order: 1->2 settles
  // {1, 0, 2}, 3->4 settles {3, 0, 1, 2, 4}, 3->3 settles only {3}.
  EXPECT_EQ(snap.counters["opt.route.settled_nodes"], 9u);
  EXPECT_EQ(snap.counters.count("opt.cache.route_hits"), 0u);

  obs::CounterRegistry reg2;
  {
    obs::ScopedRegistry scope(&reg2);
    ASSERT_TRUE(p.try_route_in_subgraph_cached(all, all, *routes));
  }
  snap = reg2.snapshot();
  EXPECT_EQ(snap.counters["opt.cache.route_hits"], 3u);
  EXPECT_EQ(snap.counters.count("opt.cache.route_misses"), 0u);
  EXPECT_EQ(snap.counters.count("opt.route.searches"), 0u);
}

}  // namespace
}  // namespace eend::core
