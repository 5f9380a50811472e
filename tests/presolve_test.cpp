// Unit + soundness tests for the presolve subsystem: per-reduction hand
// graphs (dead ends, chains, terminal-free components, degenerates), trace
// un-mapping, the routing term against plain Dijkstra, compact-optimum
// preservation against the exact oracle, and the certified lower bound
// against an exhaustive design oracle on small instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/shortest_path.hpp"
#include "graph/steiner.hpp"
#include "opt/design_heuristic.hpp"
#include "opt/design_instance.hpp"
#include "presolve/presolve.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace eend::presolve {
namespace {

using graph::Graph;
using graph::NodeId;

core::NetworkDesignProblem problem_of(Graph g,
                                      std::vector<graph::Demand> demands) {
  core::NetworkDesignProblem p(std::move(g));
  for (const auto& d : demands) p.add_demand(d);
  return p;
}

/// Exhaustive design oracle: minimum Eq. 5 total over every active-node
/// superset of the terminals. Exponential — tiny instances only.
double oracle_min_total(const core::NetworkDesignProblem& p,
                        const analytical::Eq5Params& eval) {
  const std::vector<NodeId> terminals = p.terminals();
  std::vector<NodeId> optional;
  for (NodeId v = 0; v < p.graph().node_count(); ++v)
    if (std::find(terminals.begin(), terminals.end(), v) == terminals.end())
      optional.push_back(v);
  EEND_REQUIRE(optional.size() <= 12);
  double best = graph::kInfCost;
  for (std::size_t mask = 0; mask < (std::size_t{1} << optional.size());
       ++mask) {
    std::vector<NodeId> nodes(terminals.begin(), terminals.end());
    for (std::size_t i = 0; i < optional.size(); ++i)
      if (mask & (std::size_t{1} << i)) nodes.push_back(optional[i]);
    const opt::CandidateDesign cand =
        opt::evaluate_design(p, nodes, opt::DesignObjective(eval));
    if (cand.feasible) best = std::min(best, cand.score.total());
  }
  return best;
}

// ------------------------------------------------------- hand instances ---

TEST(Presolve, DeadEndChainsAreMaskedNotSearched) {
  // Square 0-1-2-3 with a pendant tail 2-4-5; demand 0 -> 2.
  Graph g(6);
  for (NodeId v = 0; v < 6; ++v) g.set_node_weight(v, 1.0 + v);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 0, 1.0);
  g.add_edge(2, 4, 1.0);
  g.add_edge(4, 5, 1.0);
  const auto pr = presolve_design(problem_of(g, {{0, 2, 1.0}}));

  EXPECT_EQ(pr.trace.count(ReductionKind::kDeadEndNode), 2u);
  // The tail peels from its leaf inwards: 5, then 4.
  ASSERT_GE(pr.trace.steps.size(), 2u);
  EXPECT_EQ(pr.trace.steps[0].node, 5u);
  EXPECT_EQ(pr.trace.steps[1].node, 4u);
  EXPECT_EQ(pr.trace.compact_of[4], graph::kInvalidNode);
  EXPECT_EQ(pr.trace.compact_of[5], graph::kInvalidNode);
  // compact additionally contracts the two parallel 0-x-2 chains.
  EXPECT_EQ(pr.trace.count(ReductionKind::kChainContraction), 2u);
  EXPECT_EQ(pr.compact.graph().node_count(), 4u);
  EXPECT_EQ(pr.compact.graph().edge_count(), 4u);
  EXPECT_EQ(pr.reduced_nodes, 2u);
  EXPECT_EQ(pr.reduced_edges, 2u);
  // Two parallel routes: nothing is forced.
  EXPECT_TRUE(pr.forced_nodes.empty());
}

TEST(Presolve, ChainContractionFoldsInteriorWeights) {
  // Path 0-1-2-3, demand 0 -> 3: interior {1, 2} folds into one synthetic
  // node carrying both weights, and that node is forced (articulation).
  Graph g(4);
  g.set_node_weight(0, 1.0);
  g.set_node_weight(1, 2.0);
  g.set_node_weight(2, 3.0);
  g.set_node_weight(3, 1.0);
  g.add_edge(0, 1, 1.5);
  g.add_edge(1, 2, 2.5);
  g.add_edge(2, 3, 3.5);
  const auto pr = presolve_design(problem_of(g, {{0, 3, 2.0}}));

  ASSERT_EQ(pr.compact.graph().node_count(), 3u);
  ASSERT_EQ(pr.compact.graph().edge_count(), 2u);
  const NodeId syn = pr.trace.compact_of[1];
  EXPECT_EQ(pr.trace.compact_of[2], syn);
  EXPECT_DOUBLE_EQ(pr.compact.graph().node_weight(syn), 5.0);
  EXPECT_EQ(pr.trace.unmap_nodes(std::vector<NodeId>{syn}),
            (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(pr.forced_nodes, (std::vector<NodeId>{1, 2}));

  // Both bound terms are exact here: the idle bound is the forced interior
  // weight, the routing bound the rate-weighted path length.
  EXPECT_DOUBLE_EQ(pr.idle_lb_raw, 5.0);
  EXPECT_DOUBLE_EQ(pr.data_lb_raw, 2.0 * (1.5 + 2.5 + 3.5));
  analytical::Eq5Params eval;
  eval.t_idle = 2.0;
  eval.t_data_per_packet = 0.5;
  EXPECT_DOUBLE_EQ(pr.lower_bound(eval),
                   2.0 * 5.0 + 0.5 * 2.0 * 7.5);
  // On a path instance the bound is tight: it equals the only design.
  EXPECT_DOUBLE_EQ(pr.lower_bound(eval), oracle_min_total(pr.compact, eval));
}

TEST(Presolve, TerminalFreeComponentDroppedFromCompact) {
  // Demand square plus a disjoint non-terminal triangle (cycle, so dead-end
  // elimination cannot touch it).
  Graph g(7);
  for (NodeId v = 0; v < 7; ++v) g.set_node_weight(v, 1.0);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 0, 1.0);
  g.add_edge(4, 5, 1.0);
  g.add_edge(5, 6, 1.0);
  g.add_edge(6, 4, 1.0);
  const auto pr = presolve_design(problem_of(g, {{0, 2, 1.0}}));
  EXPECT_EQ(pr.trace.count(ReductionKind::kTerminalFreeComponent), 3u);
  EXPECT_EQ(pr.compact.graph().node_count(), 4u);  // 0, 2 + two chain nodes
  std::vector<NodeId> dropped;
  for (const ReductionStep& s : pr.trace.steps)
    if (s.kind == ReductionKind::kTerminalFreeComponent)
      dropped.push_back(s.node);
  std::sort(dropped.begin(), dropped.end());
  EXPECT_EQ(dropped, (std::vector<NodeId>{4, 5, 6}));
  for (const NodeId v : dropped)
    EXPECT_EQ(pr.trace.compact_of[v], graph::kInvalidNode);
  // The triangle's three edges go with it; the square's four survive.
  EXPECT_EQ(pr.compact.graph().edge_count(), 4u);
  EXPECT_EQ(pr.reduced_edges, 3u);
}

TEST(Presolve, NoOpInstanceIsUntouched) {
  // Complete terminal square with uniform weights: nothing is reducible.
  Graph g(4);
  for (NodeId v = 0; v < 4; ++v) g.set_node_weight(v, 1.0);
  for (NodeId u = 0; u < 4; ++u)
    for (NodeId v = u + 1; v < 4; ++v) g.add_edge(u, v, 1.0);
  const auto pr = presolve_design(
      problem_of(g, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 0, 1.0}}));
  EXPECT_TRUE(pr.trace.steps.empty());
  EXPECT_EQ(pr.reduced_nodes, 0u);
  EXPECT_EQ(pr.reduced_edges, 0u);
  EXPECT_EQ(pr.compact.graph().node_count(), 4u);
  EXPECT_EQ(pr.compact.graph().edge_count(), 6u);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(pr.trace.compact_of[v], v);
}

TEST(Presolve, FullyReducibleInstanceCollapsesToTerminals) {
  // Direct demand edge plus a pendant tree: everything else vanishes.
  Graph g(6);
  for (NodeId v = 0; v < 6; ++v) g.set_node_weight(v, 1.0);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);  // pendant fan off the source
  g.add_edge(2, 3, 1.0);
  g.add_edge(2, 4, 1.0);
  g.add_edge(1, 5, 1.0);  // pendant leaf off the destination
  const auto pr = presolve_design(problem_of(g, {{0, 1, 1.0}}));
  EXPECT_EQ(pr.trace.count(ReductionKind::kDeadEndNode), 4u);
  EXPECT_EQ(pr.compact.graph().node_count(), 2u);
  EXPECT_EQ(pr.compact.graph().edge_count(), 1u);
  EXPECT_EQ(pr.reduced_nodes, 4u);
  EXPECT_EQ(pr.reduced_edges, 4u);
  EXPECT_DOUBLE_EQ(pr.idle_lb_raw, 0.0);   // endpoints carry no idle bound
  EXPECT_DOUBLE_EQ(pr.data_lb_raw, 1.0);
}

TEST(Presolve, PendantCycleInteriorIsDropped) {
  // A cycle hanging off one anchor: the walk returns to its own anchor, so
  // the interior can never help any connection and is dropped outright.
  Graph g(5);
  for (NodeId v = 0; v < 5; ++v) g.set_node_weight(v, 1.0);
  g.add_edge(0, 1, 1.0);  // demand edge
  g.add_edge(0, 2, 1.0);  // cycle 0-2-3-4-0
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(4, 0, 1.0);
  const auto pr = presolve_design(problem_of(g, {{0, 1, 1.0}}));
  EXPECT_EQ(pr.trace.count(ReductionKind::kChainContraction), 3u);
  EXPECT_EQ(pr.compact.graph().node_count(), 2u);
  EXPECT_EQ(pr.compact.graph().edge_count(), 1u);
}

TEST(Presolve, ForcedNodeAtTerminalSeparatingArticulation) {
  // Two triangles sharing the cut node 2: every 0 -> 1 route crosses it.
  Graph g(5);
  for (NodeId v = 0; v < 5; ++v) g.set_node_weight(v, 1.0 + v);
  g.add_edge(0, 3, 1.0);
  g.add_edge(3, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 4, 1.0);
  g.add_edge(4, 1, 1.0);
  g.add_edge(2, 1, 1.0);
  const auto pr = presolve_design(problem_of(g, {{0, 1, 1.0}}));
  EXPECT_EQ(pr.forced_nodes, (std::vector<NodeId>{2}));
  // The forced weight enters the idle bound on top of the dual ascent.
  EXPECT_GE(pr.idle_lb_raw, g.node_weight(2));
}

TEST(Presolve, RequiresStrictlyPositiveWeightsAndDemands) {
  Graph ok(2);
  ok.set_node_weight(0, 1.0);
  ok.set_node_weight(1, 1.0);
  ok.add_edge(0, 1, 1.0);
  EXPECT_THROW(presolve_design(problem_of(ok, {})), CheckError);

  Graph zero_node = ok;
  zero_node.set_node_weight(1, 0.0);
  EXPECT_THROW(presolve_design(problem_of(zero_node, {{0, 1, 1.0}})),
               CheckError);

  Graph zero_edge(2);
  zero_edge.set_node_weight(0, 1.0);
  zero_edge.set_node_weight(1, 1.0);
  zero_edge.add_edge(0, 1, 0.0);
  // The problem's own constructor refuses the zero edge weight.
  EXPECT_THROW(problem_of(zero_edge, {{0, 1, 1.0}}), CheckError);
}

// ---------------------------------------------- randomized invariance ---

/// Random reducible instance: a ring core with chords, pendant chains
/// hanging off it, one deliberately heavy chord between terminals (never
/// on a shortest path) and a disjoint non-terminal triangle.
core::NetworkDesignProblem random_reducible_problem(Rng& rng,
                                                    std::size_t core_n) {
  Graph g;
  for (std::size_t v = 0; v < core_n; ++v)
    g.add_node(rng.uniform(0.5, 3.0));
  for (NodeId v = 0; v < core_n; ++v)
    g.add_edge(v, static_cast<NodeId>((v + 1) % core_n),
               rng.uniform(1.0, 2.0));
  for (int c = 0; c < 4; ++c) {
    const auto a = static_cast<NodeId>(rng.next_below(core_n));
    const auto b = static_cast<NodeId>(rng.next_below(core_n));
    if (a != b) g.add_edge(a, b, rng.uniform(1.0, 2.0));
  }
  // Heavy terminal-terminal chord, strictly beaten by the ring arc.
  g.add_edge(0, 1, 50.0);
  // Pendant chains.
  for (int chain = 0; chain < 3; ++chain) {
    NodeId at = static_cast<NodeId>(rng.next_below(core_n));
    const std::size_t len = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < len; ++i) {
      const NodeId leaf = g.add_node(rng.uniform(0.5, 3.0));
      g.add_edge(at, leaf, rng.uniform(1.0, 2.0));
      at = leaf;
    }
  }
  // Disjoint non-terminal triangle.
  const NodeId t0 = g.add_node(1.0), t1 = g.add_node(1.0),
               t2 = g.add_node(1.0);
  g.add_edge(t0, t1, 1.0);
  g.add_edge(t1, t2, 1.0);
  g.add_edge(t2, t0, 1.0);

  return problem_of(std::move(g),
                    {{0, 1, 1.0},
                     {static_cast<NodeId>(2), static_cast<NodeId>(core_n / 2),
                      rng.uniform(0.5, 2.0)}});
}

TEST(Presolve, RoutingTermIsDijkstraOnTheInstanceGraph) {
  Rng rng(777);
  std::size_t total_dead_ends = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const auto p = random_reducible_problem(rng, 10);
    const auto pr = presolve_design(p);
    total_dead_ends += pr.trace.count(ReductionKind::kDeadEndNode);

    // Bit-identical, not merely close: the bound's routing term is the
    // rate-weighted sum of plain Dijkstra distances, in demand order.
    double want = 0.0;
    for (const graph::Demand& d : p.demands()) {
      const auto spt = graph::dijkstra(p.graph(), d.source);
      ASSERT_TRUE(spt.reachable(d.destination)) << "trial " << trial;
      want += d.rate * spt.distance[d.destination];
    }
    EXPECT_EQ(pr.data_lb_raw, want) << "trial " << trial;
  }
  // The family must actually exercise the reductions, or the equality
  // above says nothing about presolve leaving the routing term alone.
  EXPECT_GT(total_dead_ends, 0u);
}

// --------------------------------------------------- certified bounds ---

TEST(Presolve, CompactOptimumEqualsOriginalOptimum) {
  Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    const auto p = random_reducible_problem(rng, 8);
    const auto pr = presolve_design(p);
    const auto exact_full =
        graph::exact_node_weighted_steiner(p.graph(), p.terminals());
    const auto exact_compact = graph::exact_node_weighted_steiner(
        pr.compact.graph(), pr.compact.terminals());
    ASSERT_EQ(exact_full.feasible, exact_compact.feasible)
        << "trial " << trial;
    if (!exact_full.feasible) continue;
    // Chain contraction re-associates weight sums; allow float slack only.
    EXPECT_NEAR(exact_compact.node_cost, exact_full.node_cost,
                1e-9 * (1.0 + exact_full.node_cost))
        << "trial " << trial;
    // Un-mapping the compact optimum lands on original ids.
    for (const NodeId v :
         pr.trace.unmap_nodes(std::vector<NodeId>(
             exact_compact.nodes.begin(), exact_compact.nodes.end())))
      EXPECT_LT(v, p.graph().node_count());
  }
}

TEST(Presolve, LowerBoundNeverExceedsExhaustiveOracle) {
  analytical::Eq5Params plain;
  analytical::Eq5Params endpoint_idle;
  endpoint_idle.t_idle = 3.0;
  endpoint_idle.t_data_per_packet = 0.25;
  endpoint_idle.include_endpoint_idle = true;

  Rng rng(9001);
  int checked = 0;
  for (int trial = 0; trial < 12; ++trial) {
    // <= 10 nodes total so the exhaustive oracle stays instant.
    const std::size_t core_n = 5 + rng.next_below(3);
    Graph g;
    for (std::size_t v = 0; v < core_n; ++v)
      g.add_node(rng.uniform(0.5, 4.0));
    for (NodeId v = 0; v < core_n; ++v)
      g.add_edge(v, static_cast<NodeId>((v + 1) % core_n),
                 rng.uniform(0.5, 3.0));
    for (int c = 0; c < 3; ++c) {
      const auto a = static_cast<NodeId>(rng.next_below(core_n));
      const auto b = static_cast<NodeId>(rng.next_below(core_n));
      if (a != b) g.add_edge(a, b, rng.uniform(0.5, 3.0));
    }
    const NodeId leaf = g.add_node(rng.uniform(0.5, 4.0));
    g.add_edge(static_cast<NodeId>(rng.next_below(core_n)), leaf, 1.0);

    const auto p = problem_of(
        std::move(g),
        {{0, static_cast<NodeId>(core_n / 2), 1.0},
         {1, static_cast<NodeId>(core_n - 1), rng.uniform(0.5, 2.0)}});
    if (p.terminals().size() < 3) continue;
    const auto pr = presolve_design(p);

    for (const auto& eval : {plain, endpoint_idle}) {
      const double opt = oracle_min_total(p, eval);
      ASSERT_LT(opt, graph::kInfCost);
      EXPECT_LE(pr.lower_bound(eval), opt * (1.0 + 1e-9))
          << "trial " << trial;
      EXPECT_GT(pr.lower_bound(eval), 0.0);
      ++checked;
    }
  }
  EXPECT_GE(checked, 16);
}

TEST(Presolve, InstanceSpecPresolveFlagPopulatesTheInstance) {
  opt::DesignInstanceSpec spec;
  spec.node_count = 60;
  spec.demand_count = 4;
  spec.seed = 5;
  const auto plain = opt::make_design_instance(spec);
  EXPECT_EQ(plain.presolve, nullptr);

  spec.presolve = true;
  const auto reduced = opt::make_design_instance(spec);
  ASSERT_NE(reduced.presolve, nullptr);
  EXPECT_GT(reduced.presolve->lower_bound(analytical::Eq5Params{}), 0.0);
  // compact keeps every demand and accounts for every removed node.
  EXPECT_EQ(reduced.presolve->compact.demands().size(),
            reduced.problem.demands().size());
  EXPECT_EQ(reduced.presolve->compact.graph().node_count() +
                reduced.presolve->reduced_nodes,
            reduced.problem.graph().node_count());
  EXPECT_EQ(reduced.presolve->trace.original_of.size(),
            reduced.presolve->compact.graph().node_count());
  // compact_of covers every node.
  EXPECT_EQ(reduced.presolve->trace.compact_of.size(),
            reduced.problem.graph().node_count());
}

}  // namespace
}  // namespace eend::presolve
