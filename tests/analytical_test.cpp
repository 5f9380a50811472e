// Unit tests: the closed-form analyses of §3 (Eqs. 5-9) and §5.1
// (Eqs. 13-15, characteristic hop count / Fig. 7 claims).
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>

#include "analytical/design_eval.hpp"
#include "analytical/route_energy.hpp"
#include "analytical/steiner_cases.hpp"
#include "graph/shortest_path.hpp"
#include "util/rng.hpp"

namespace eend::analytical {
namespace {

// ----------------------------------------------- Eq. 15 / Fig. 7 claims ---

TEST(RouteEnergy, MoptMatchesPaperFormula) {
  const auto card = energy::cabletron();
  // Hand-computed: R/B = 0.5 kills the idle term; denominator = Pbase+Prx.
  const double expect =
      250.0 * std::pow(3.0 * card.alpha2 / (card.p_base + card.p_rx), 0.25);
  EXPECT_NEAR(mopt_continuous(card, 250.0, 0.5), expect, 1e-12);
}

TEST(RouteEnergy, Fig7RealCardsNeverFavorRelays) {
  // The paper's headline analytical result: m_opt < 2 for every real card
  // at every utilization, so relays between two nodes in range never pay.
  for (const auto& card : {energy::aironet350(), energy::cabletron(),
                           energy::mica2(), energy::leach_n4(),
                           energy::leach_n2()}) {
    for (double rb = 0.1; rb <= 0.5 + 1e-9; rb += 0.05) {
      EXPECT_LT(mopt_continuous(card, card.max_range_m, rb), 2.0)
          << card.name << " rb=" << rb;
      EXPECT_FALSE(relays_save_energy(card, card.max_range_m, rb));
    }
  }
}

TEST(RouteEnergy, Fig7HypotheticalCardCrossesAtQuarterUtilization) {
  const auto h = energy::hypothetical_cabletron();
  // Paper: alpha2 >= 5.16e-6 satisfies m_opt >= 2 for R/B = 0.25.
  EXPECT_GE(mopt_continuous(h, 250.0, 0.25), 2.0);
  EXPECT_TRUE(relays_save_energy(h, 250.0, 0.25));
}

TEST(RouteEnergy, BruteForceAgreesWithClosedForm) {
  for (const auto& card : energy::fig7_cards()) {
    for (double rb : {0.1, 0.25, 0.4, 0.5}) {
      const int analytic =
          std::max(1, characteristic_hop_count(card, card.max_range_m, rb));
      const int brute = brute_force_best_hops(card, card.max_range_m, rb);
      // Integer rounding of a convex minimum: at most one hop apart.
      EXPECT_NEAR(analytic, brute, 1.0) << card.name << " rb=" << rb;
    }
  }
}

TEST(RouteEnergy, RoutePowerConvexAroundOptimum) {
  const auto h = energy::hypothetical_cabletron();
  const double rb = 0.25;
  const int best = brute_force_best_hops(h, 250.0, rb);
  const double pb = route_power(h, best, 250.0, rb);
  EXPECT_LE(pb, route_power(h, best + 1, 250.0, rb));
  if (best > 1) {
    EXPECT_LE(pb, route_power(h, best - 1, 250.0, rb));
  }
}

TEST(RouteEnergy, CeilingFloorRounding) {
  const auto card = energy::cabletron();
  // m_opt in (0, 1) must round up to 1 (a route has at least one hop).
  const double m = mopt_continuous(card, 250.0, 0.5);
  ASSERT_LT(m, 1.0);
  EXPECT_EQ(characteristic_hop_count(card, 250.0, 0.5), 1);
}

TEST(RouteEnergy, InvalidUtilizationThrows) {
  const auto card = energy::cabletron();
  EXPECT_THROW(mopt_continuous(card, 250.0, 0.0), CheckError);
  EXPECT_THROW(mopt_continuous(card, 250.0, 0.6), CheckError);
  EXPECT_THROW(route_power(card, 0, 250.0, 0.25), CheckError);
}

// ---------------------------------------------------- §3 worked examples --

TEST(SteinerCases, St1MatchesEq6) {
  for (int k : {1, 2, 4, 8}) {
    CaseParams p;
    p.k = k;
    p.alpha = 2.0;
    p.z = 1.5;
    const auto c = make_st1(p);
    Eq5Params ep;
    ep.t_idle = 3.0;
    ep.t_data_per_packet = 0.5;
    const auto ev = evaluate_eq5(c.g, c.routes, ep);
    EXPECT_NEAR(ev.total(), est1_closed(p, ep.t_idle, ep.t_data_per_packet),
                1e-9)
        << "k=" << k;
    EXPECT_EQ(ev.relay_nodes, 1u);
  }
}

TEST(SteinerCases, St2MatchesEq7) {
  for (int k : {1, 3, 7}) {
    CaseParams p;
    p.k = k;
    const auto c = make_st2(p);
    Eq5Params ep;
    ep.t_idle = 1.0;
    ep.t_data_per_packet = 1.0;
    const auto ev = evaluate_eq5(c.g, c.routes, ep);
    EXPECT_NEAR(ev.total(), est2_closed(p, 1.0, 1.0), 1e-9);
  }
}

TEST(SteinerCases, St1DeviationGrowsWithK) {
  // The paper: communication costs deviate by (k+3)/4 between ST1 and ST2.
  CaseParams p;
  p.k = 8;
  Eq5Params ep;
  const auto e1 = evaluate_eq5(make_st1(p).g, make_st1(p).routes, ep);
  const auto e2 = evaluate_eq5(make_st2(p).g, make_st2(p).routes, ep);
  EXPECT_NEAR(e1.data / e2.data, (p.k + 3.0) / 4.0, 1e-9);
  EXPECT_NEAR(e1.idle, e2.idle, 1e-12);  // same idling cost
}

TEST(SteinerCases, Sf1Sf2MatchEq8Eq9) {
  CaseParams p;
  p.k = 5;
  Eq5Params ep;
  const auto e1 = evaluate_eq5(make_sf1(p).g, make_sf1(p).routes, ep);
  const auto e2 = evaluate_eq5(make_sf2(p).g, make_sf2(p).routes, ep);
  EXPECT_NEAR(e1.total(), esf1_closed(p, 1.0, 1.0), 1e-9);
  EXPECT_NEAR(e2.total(), esf2_closed(p, 1.0, 1.0), 1e-9);
  EXPECT_NEAR(e1.data, e2.data, 1e-12);  // same communication cost
  EXPECT_EQ(evaluate_eq5(make_sf1(p).g, make_sf1(p).routes, ep).relay_nodes,
            static_cast<std::size_t>(p.k));
  EXPECT_EQ(e2.idle, 1.0);  // one shared relay
}

TEST(SteinerCases, EndpointIdleGivesConstantRatio) {
  // "If the idling costs of source and destination were included, then a
  // constant ratio of 3k/(2k+1) would be obtained."
  for (int k : {1, 2, 5, 20}) {
    CaseParams p;
    p.k = k;
    Eq5Params ep;
    ep.include_endpoint_idle = true;
    ep.t_data_per_packet = 0.0;  // isolate idling
    const auto e1 = evaluate_eq5(make_sf1(p).g, make_sf1(p).routes, ep);
    const auto e2 = evaluate_eq5(make_sf2(p).g, make_sf2(p).routes, ep);
    EXPECT_NEAR(e1.idle / e2.idle, sf_idle_ratio_closed(k), 1e-9) << k;
  }
}

TEST(DesignEval, RejectsInvalidPaths) {
  graph::Graph g(3);
  g.add_edge(0, 1, 1.0);
  RoutedDemand rd;
  rd.demand = {0, 2, 1.0};
  rd.path = {0, 2};  // no such edge
  EXPECT_THROW(evaluate_eq5(g, std::vector<RoutedDemand>{rd}, Eq5Params{}),
               CheckError);
}

TEST(DesignEval, SharedEdgeAccumulatesPackets) {
  graph::Graph g(3);
  g.set_node_weight(1, 1.0);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 2.0);
  RoutedDemand a{{0, 2, 1.0}, {0, 1, 2}, 3.0};
  RoutedDemand b{{2, 0, 1.0}, {2, 1, 0}, 2.0};
  Eq5Params ep;
  const auto ev = evaluate_eq5(g, std::vector<RoutedDemand>{a, b}, ep);
  // Both edges carry 5 packets at weight 2.
  EXPECT_NEAR(ev.data, 2.0 * 5.0 * 2.0, 1e-12);
  EXPECT_NEAR(ev.idle, 1.0, 1e-12);
}

/// The ordered-container Eq. 5 evaluator evaluate_eq5 replaced, kept as
/// the oracle: std::set for F and the endpoints, std::map for per-edge
/// packet totals.
Eq5Breakdown ordered_reference_eq5(const graph::Graph& g,
                                   const std::vector<RoutedDemand>& routes,
                                   const Eq5Params& params) {
  Eq5Breakdown out;
  std::set<graph::NodeId> active;
  std::set<graph::NodeId> endpoints;
  std::map<std::pair<graph::NodeId, graph::NodeId>, double> edge_packets;
  for (const RoutedDemand& r : routes) {
    endpoints.insert(r.demand.source);
    endpoints.insert(r.demand.destination);
    for (std::size_t i = 0; i < r.path.size(); ++i) {
      active.insert(r.path[i]);
      if (i + 1 < r.path.size()) {
        const auto key = std::minmax(r.path[i], r.path[i + 1]);
        edge_packets[std::pair{key.first, key.second}] += r.packets;
      }
    }
  }
  out.active_nodes = active.size();
  for (graph::NodeId v : active) {
    const bool endpoint = endpoints.count(v) > 0;
    if (!endpoint) ++out.relay_nodes;
    if (endpoint && !params.include_endpoint_idle) continue;
    out.idle += params.t_idle * g.node_weight(v);
  }
  for (const auto& [uv, pkts] : edge_packets)
    out.data += params.t_data_per_packet * pkts *
                g.edge_weight_between(uv.first, uv.second);
  return out;
}

/// Bitwise comparison of evaluate_eq5 — the per-call overload and the
/// kernel on a reused scratch — against the ordered reference.
void expect_matches_reference(const graph::Graph& g,
                              const std::vector<RoutedDemand>& routes,
                              const Eq5Params& p, Eq5Scratch& scratch,
                              const std::string& where) {
  const Eq5Breakdown want = ordered_reference_eq5(g, routes, p);
  for (const Eq5Breakdown& got :
       {evaluate_eq5(g, routes, p),
        evaluate_eq5(g, graph::ArcIndex(g), routes, p, scratch)}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.idle),
              std::bit_cast<std::uint64_t>(want.idle))
        << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.data),
              std::bit_cast<std::uint64_t>(want.data))
        << where;
    EXPECT_EQ(got.active_nodes, want.active_nodes) << where;
    EXPECT_EQ(got.relay_nodes, want.relay_nodes) << where;
  }
}

RoutedDemand routed(std::vector<graph::NodeId> path, double packets) {
  RoutedDemand r;
  r.demand = {path.front(), path.back(), 1.0};
  r.path = std::move(path);
  r.packets = packets;
  return r;
}

TEST(EvaluateEq5, FlatAccumulationMatchesOrderedReferenceBitwise) {
  Eq5Scratch scratch;  // reused across cases: no state may leak
  Eq5Params fixed;
  fixed.t_data_per_packet = 1.1;
  {
    // Parallel edges: each pair costs its lightest edge, whichever edge
    // id comes first.
    graph::Graph g(4);
    for (graph::NodeId v = 0; v < 4; ++v) g.set_node_weight(v, 0.3 + v);
    g.add_edge(0, 1, 2.5);
    g.add_edge(1, 2, 1.3);
    g.add_edge(1, 0, 1.7);  // lighter than the first 0-1 edge
    g.add_edge(2, 3, 0.9);
    g.add_edge(2, 1, 3.1);  // heavier than the first 1-2 edge
    g.add_edge(3, 2, 0.9);  // as heavy as the first 2-3 edge
    expect_matches_reference(
        g, {routed({0, 1, 2, 3}, 1.3), routed({3, 2, 1}, 2.2)}, fixed,
        scratch, "parallel edges");
  }
  {
    // Edges shared across routes, in both directions, with edge ids in
    // descending pair order: every pair sums its packets in route order
    // and the pairs add up in ascending (min, max) order.
    graph::Graph g(5);
    for (graph::NodeId v = 0; v < 5; ++v) g.set_node_weight(v, 0.7 * v);
    g.add_edge(3, 4, 0.7);
    g.add_edge(2, 3, 1.1);
    g.add_edge(1, 2, 0.3);
    g.add_edge(0, 4, 1.9);
    g.add_edge(0, 1, 2.9);
    expect_matches_reference(
        g,
        {routed({0, 1, 2, 3, 4}, 0.1), routed({1, 2, 3}, 0.7),
         routed({4, 3, 2}, 3.3), routed({0, 4}, 0.2),
         routed({3, 2, 1, 0}, 0.6)},
        fixed, scratch, "shared edges");
  }

  Rng rng(90210);
  std::size_t shared_edges = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // A connected random graph: a random spanning chain plus chords, with
    // non-round weights so summation order shows in the low bits.
    const std::size_t n = 3 + rng.next_below(40);
    graph::Graph g(n);
    for (graph::NodeId v = 0; v < n; ++v)
      g.set_node_weight(v, rng.uniform(0.1, 3.0));
    for (graph::NodeId v = 1; v < n; ++v)
      g.add_edge(static_cast<graph::NodeId>(rng.next_below(v)), v,
                 rng.uniform(0.1, 4.0));
    for (std::size_t c = rng.next_below(2 * n); c > 0; --c) {
      const auto a = static_cast<graph::NodeId>(rng.next_below(n));
      const auto b = static_cast<graph::NodeId>(rng.next_below(n));
      if (a != b) g.add_edge(a, b, rng.uniform(0.1, 4.0));
    }
    // Shortest-path routes from a few hubs, so demands share edges, with
    // unequal packet counts; some demands start and end at one node.
    std::vector<RoutedDemand> routes;
    const std::size_t k = 1 + rng.next_below(12);
    for (std::size_t i = 0; i < k; ++i) {
      const auto s = static_cast<graph::NodeId>(rng.next_below(3));
      const auto t = rng.bernoulli(0.1)
                         ? s
                         : static_cast<graph::NodeId>(rng.next_below(n));
      RoutedDemand r;
      r.demand = {s, t, 1.0};
      r.path = graph::dijkstra(g, s).path_to(t);
      r.packets = rng.uniform(0.1, 7.0);
      if (rng.bernoulli(0.5)) {  // either direction of the same edges
        std::swap(r.demand.source, r.demand.destination);
        std::reverse(r.path.begin(), r.path.end());
      }
      routes.push_back(std::move(r));
    }
    std::set<std::pair<graph::NodeId, graph::NodeId>> seen;
    for (const RoutedDemand& r : routes)
      for (std::size_t i = 0; i + 1 < r.path.size(); ++i)
        if (!seen.insert(std::minmax(r.path[i], r.path[i + 1])).second)
          ++shared_edges;

    Eq5Params p;
    p.t_idle = rng.uniform(0.5, 2.0);
    p.t_data_per_packet = rng.uniform(0.5, 2.0);
    p.include_endpoint_idle = rng.bernoulli(0.5);
    expect_matches_reference(g, routes, p, scratch,
                             "trial " + std::to_string(trial));
  }
  EXPECT_GT(shared_edges, 1000u);  // the order-sensitive case is common
}

}  // namespace
}  // namespace eend::analytical
