// Unit tests: the design search's move-evaluation kernel
// (opt/move_evaluator.hpp).
//
// The load-bearing guarantee: for every removal, insertion and exchange
// around an incumbent, MoveEvaluator::score returns exactly what
// evaluate_design returns for the candidate node set — bit for bit, on
// instances with exact path-length ties, float-inexact ties and parallel
// edges, under the plain and the lifetime objective.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "arc_index_check.hpp"
#include "obs/counters.hpp"
#include "opt/design_instance.hpp"
#include "opt/move_evaluator.hpp"
#include "util/rng.hpp"

namespace eend::opt {
namespace {

enum class Weights { kUniform, kJitter, kInteger, kDecimal, kParallel };

/// A make_design_instance graph with its edge weights rewritten:
/// kJitter scales each by a factor in [0.7, 1.3); kInteger rounds to whole
/// units (every Cabletron hop becomes 2: exact ties everywhere); kDecimal
/// rounds to tenths (real ties whose float sums depend on the order);
/// kParallel duplicates every seventh
/// edge once lighter and once heavier (the duplicates get the highest
/// edge ids, out of endpoint-pair order).
core::NetworkDesignProblem instance(std::size_t n, Weights w,
                                    std::uint64_t seed) {
  DesignInstanceSpec spec;
  spec.node_count = n;
  spec.demand_count = 6;
  spec.seed = seed;
  spec.demand_weights = {0.5, 1.0, 3.0};
  const core::NetworkDesignProblem base = make_design_instance(spec).problem;
  Rng rng = Rng(seed).fork(0x3E16);
  graph::Graph g = base.graph();
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    double& weight = g.edge(e).weight;
    if (w == Weights::kJitter)
      weight *= 1.0 + 0.3 * (2.0 * rng.uniform() - 1.0);
    else if (w == Weights::kInteger)
      weight = std::round(weight);
    else if (w == Weights::kDecimal)
      weight = std::round(weight * 10.0) / 10.0;
  }
  if (w == Weights::kParallel) {
    const std::size_t m = g.edge_count();
    for (graph::EdgeId e = 0; e < m; e += 7) {
      const graph::Edge edge = g.edge(e);
      g.add_edge(edge.v, edge.u, edge.weight * 0.75);
      g.add_edge(edge.u, edge.v, edge.weight * 1.25);
    }
  }
  core::NetworkDesignProblem p(std::move(g));
  p.set_demands(base.demands());
  return p;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_identical(const CandidateDesign& got, const CandidateDesign& want,
                      const std::string& where) {
  ASSERT_EQ(got.feasible, want.feasible) << where;
  EXPECT_EQ(got.nodes, want.nodes) << where;
  EXPECT_EQ(bits(got.score.idle), bits(want.score.idle)) << where;
  EXPECT_EQ(bits(got.score.data), bits(want.score.data)) << where;
  EXPECT_EQ(got.score.active_nodes, want.score.active_nodes) << where;
  EXPECT_EQ(got.score.relay_nodes, want.score.relay_nodes) << where;
  EXPECT_EQ(bits(got.lifetime_penalty), bits(want.lifetime_penalty)) << where;
  EXPECT_EQ(bits(got.max_node_load), bits(want.max_node_load)) << where;
}

std::vector<graph::NodeId> apply(std::vector<graph::NodeId> nodes, Move m) {
  if (m.close != graph::kInvalidNode)
    nodes.erase(std::find(nodes.begin(), nodes.end(), m.close));
  if (m.open != graph::kInvalidNode) nodes.push_back(m.open);
  return nodes;
}

struct Tally {
  std::size_t moves = 0;
  std::size_t infeasible = 0;
};

/// Scores every move around several incumbents — the Klein-Ravi design,
/// then a chain of adopted moves — against evaluate_design. Returns the
/// evaluator's opt.move.reused_routes total.
std::uint64_t check_every_move(const core::NetworkDesignProblem& p,
                               const DesignObjective& obj,
                               const std::string& label, Tally& tally) {
  obs::CounterRegistry reg;
  {
    obs::ScopedRegistry scope(&reg);
    // A superset incumbent's RouteCache seeds the evaluator, as warm
    // start's stage 1 does: the KR tree plus two extra nodes.
    std::vector<graph::NodeId> seed_nodes = p.solve_node_weighted().nodes;
    for (graph::NodeId v = 0; v < 2; ++v) seed_nodes.push_back(v);
    std::sort(seed_nodes.begin(), seed_nodes.end());
    seed_nodes.erase(std::unique(seed_nodes.begin(), seed_nodes.end()),
                     seed_nodes.end());
    RouteCache cache;
    const CandidateDesign start =
        evaluate_design(p, seed_nodes, obj, nullptr, &cache);
    EXPECT_TRUE(start.feasible) << label;
    if (!start.feasible) return 0;

    Rng rng(7);
    for (const bool with_routes : {true, false}) {
      MoveEvaluator ev(p, obj, start, with_routes ? &cache.routes : nullptr);
      MoveEvaluator::Scored cand, pick;
      for (int step = 0; step < 4; ++step) {
        std::size_t feasible = 0;
        for_each_move(ev.surface(), nullptr, [&](Move m) {
          ev.score(m, cand);
          const CandidateDesign want =
              evaluate_design(p, apply(ev.incumbent().nodes, m), obj);
          expect_identical(cand.design, want,
                           label + " step " + std::to_string(step) +
                               " close " + std::to_string(m.close) +
                               " open " + std::to_string(m.open));
          ++tally.moves;
          if (!cand.design.feasible) {
            ++tally.infeasible;
            return;
          }
          // Reservoir-pick the next incumbent among feasible moves.
          if (rng.next_below(++feasible) == 0) std::swap(pick, cand);
        });
        if (feasible == 0) break;
        ev.adopt(pick);
        // The adopted routes are the incumbent's: re-evaluating its node
        // set reproduces it.
        expect_identical(ev.incumbent(),
                         evaluate_design(p, ev.incumbent().nodes, obj),
                         label + " adopted at step " + std::to_string(step));
      }
    }
  }
  const auto snap = reg.snapshot();
  const auto it = snap.counters.find("opt.move.reused_routes");
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(MoveEvaluator, MatchesEvaluateDesignOnEveryMove) {
  Tally tally;
  for (const std::size_t n : {20u, 50u, 100u}) {
    for (const Weights w :
         {Weights::kUniform, Weights::kJitter, Weights::kInteger,
          Weights::kDecimal, Weights::kParallel}) {
      const auto p = instance(n, w, 11 + n);
      if (w == Weights::kParallel)
        expect_owned_index(p, "n=" + std::to_string(n));
      DesignObjective lifetime(analytical::Eq5Params{});
      lifetime.battery_budget_j = 3.0;  // binds on the busiest relays
      for (const bool life : {false, true}) {
        const std::string label = "n=" + std::to_string(n) + " weights=" +
                                  std::to_string(static_cast<int>(w)) +
                                  (life ? " lifetime" : " plain");
        const std::uint64_t reused = check_every_move(
            p, life ? lifetime : DesignObjective{}, label, tally);
        // Most demands keep their incumbent path.
        if (obs::kEnabled) {
          EXPECT_GT(reused, 0u) << label;
        }
      }
    }
  }
  // Node ids spanning five 64-bit words of Eq. 5's bitsets.
  const auto wide = instance(300, Weights::kParallel, 300);
  expect_owned_index(wide, "n=300");
  check_every_move(wide, DesignObjective{}, "n=300 weights=parallel plain",
                   tally);
  EXPECT_GT(tally.moves, 10000u);
  EXPECT_GT(tally.infeasible, 0u);  // cut relays are covered too
}

TEST(MoveSurface, ListsEveryMoveInCanonicalOrder) {
  // Path 0-1-2-3 with a detour 1-4-2 and a spur 2-5; terminals 0 and 3.
  graph::Graph g(6);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(1, 4, 1.0);
  g.add_edge(4, 2, 1.0);
  g.add_edge(2, 5, 1.0);
  g.add_edge(2, 5, 2.0);  // a parallel edge lists its neighbour once
  MoveSurface s;
  const std::vector<graph::NodeId> nodes{0, 1, 2, 3};
  const std::vector<graph::NodeId> terminals{0, 3};
  s.rebuild(graph::ArcIndex(g), nodes, terminals);
  EXPECT_EQ(s.relays, (std::vector<graph::NodeId>{1, 2}));
  EXPECT_EQ(s.frontier, (std::vector<graph::NodeId>{4, 5}));
  EXPECT_EQ(std::vector<graph::NodeId>(s.swaps_of(0).begin(),
                                       s.swaps_of(0).end()),
            (std::vector<graph::NodeId>{4}));
  EXPECT_EQ(std::vector<graph::NodeId>(s.swaps_of(1).begin(),
                                       s.swaps_of(1).end()),
            (std::vector<graph::NodeId>{4, 5}));

  std::vector<std::pair<graph::NodeId, graph::NodeId>> seen;
  for_each_move(s, nullptr,
                [&](Move m) { seen.emplace_back(m.close, m.open); });
  const graph::NodeId x = graph::kInvalidNode;
  EXPECT_EQ(seen, (std::vector<std::pair<graph::NodeId, graph::NodeId>>{
                      {1, x}, {2, x}, {x, 4}, {x, 5}, {1, 4}, {2, 4}, {2, 5}}));

  // A region admits removals, insertions and exchanged relays inside it;
  // an exchange may open a node outside.
  std::vector<char> region(6, 0);
  region[2] = region[5] = 1;
  seen.clear();
  for_each_move(s, &region,
                [&](Move m) { seen.emplace_back(m.close, m.open); });
  EXPECT_EQ(seen, (std::vector<std::pair<graph::NodeId, graph::NodeId>>{
                      {2, x}, {x, 5}, {2, 4}, {2, 5}}));
}

}  // namespace
}  // namespace eend::opt
