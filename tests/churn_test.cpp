// Unit tests: the churn subsystem (src/churn/ + opt/warm_start.hpp) — the
// serving loop's trace model and incremental re-designer.
//
// The load-bearing guarantees:
//   * a trace is deterministic in its TraceSpec alone — two states advanced
//     under the same spec produce identical deltas and identical problems;
//   * ChurnState only ever exposes routable problems, failed nodes are
//     isolated, and an unperturbed topology is bit-identical to
//     NetworkDesignProblem::from_positions on the same inputs;
//   * explicit schedules apply verbatim (arrive/depart/rate semantics);
//   * warm_start_search returns a feasible design within the fallback
//     threshold of the Klein-Ravi reference, deterministically;
//   * the RouteCache fast path of evaluate_design is bit-identical to the
//     uncached evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "arc_index_check.hpp"
#include "churn/trace.hpp"
#include "opt/design_instance.hpp"
#include "opt/portfolio.hpp"
#include "opt/warm_start.hpp"
#include "util/rng.hpp"

namespace eend::churn {
namespace {

opt::DesignInstanceSpec small_spec() {
  opt::DesignInstanceSpec spec;
  spec.node_count = 40;
  spec.demand_count = 6;
  spec.seed = 7;
  return spec;
}

TraceSpec busy_trace(std::uint64_t seed) {
  TraceSpec t;
  t.epochs = 6;
  t.arrivals_per_epoch = 1;
  t.departures_per_epoch = 1;
  t.swings_per_epoch = 2;
  t.failures_per_epoch = 1;
  t.rate_swing = 0.5;
  t.move_fraction = 0.1;
  t.move_sigma_m = 60.0;
  t.seed = seed;
  return t;
}

std::string fingerprint(const Event& e) {
  std::ostringstream os;
  os << event_op_name(e.op) << '|' << e.node << '|' << e.demand << '|'
     << e.source << '|' << e.destination << '|' << e.weight << '|'
     << e.factor << '|' << e.x << '|' << e.y;
  return os.str();
}

std::string fingerprint(const EpochDelta& d) {
  std::ostringstream os;
  for (const Event& e : d.applied) os << fingerprint(e) << '\n';
  os << "touched:";
  for (const graph::NodeId v : d.touched_nodes) os << ' ' << v;
  os << " topo:" << d.topology_changed;
  return os.str();
}

void expect_same_graph(const graph::Graph& a, const graph::Graph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (graph::NodeId v = 0; v < a.node_count(); ++v)
    EXPECT_EQ(a.node_weight(v), b.node_weight(v)) << "node " << v;
  for (graph::EdgeId e = 0; e < a.edge_count(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u) << "edge " << e;
    EXPECT_EQ(a.edge(e).v, b.edge(e).v) << "edge " << e;
    EXPECT_EQ(a.edge(e).weight, b.edge(e).weight) << "edge " << e;
  }
}

void expect_same_demands(const std::vector<graph::Demand>& a,
                         const std::vector<graph::Demand>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source) << "demand " << i;
    EXPECT_EQ(a[i].destination, b[i].destination) << "demand " << i;
    EXPECT_EQ(a[i].rate, b[i].rate) << "demand " << i;
  }
}

// ------------------------------------------------------------- the trace ---

TEST(ChurnTrace, GeneratedAdvanceIsDeterministic) {
  const auto spec = small_spec();
  const auto inst = opt::make_design_instance(spec);
  const TraceSpec trace = busy_trace(spec.seed);

  ChurnState a(inst, spec);
  ChurnState b(inst, spec);
  for (std::size_t epoch = 1; epoch < trace.epochs; ++epoch) {
    const EpochDelta da = a.advance(trace, epoch);
    const EpochDelta db = b.advance(trace, epoch);
    EXPECT_EQ(fingerprint(da), fingerprint(db)) << "epoch " << epoch;
    expect_same_graph(a.problem().graph(), b.problem().graph());
    expect_same_demands(a.problem().demands(), b.problem().demands());
    EXPECT_EQ(a.failed_nodes(), b.failed_nodes());
  }
}

TEST(ChurnTrace, DifferentSeedsDiverge) {
  const auto spec = small_spec();
  const auto inst = opt::make_design_instance(spec);
  ChurnState a(inst, spec);
  ChurnState b(inst, spec);
  const EpochDelta da = a.advance(busy_trace(1), 1);
  const EpochDelta db = b.advance(busy_trace(2), 1);
  EXPECT_NE(fingerprint(da), fingerprint(db));
}

TEST(ChurnTrace, UnperturbedTopologyMatchesFromPositions) {
  const auto spec = small_spec();
  const auto inst = opt::make_design_instance(spec);
  ChurnState state(inst, spec);
  // A rate swing touches demands only: topology_changed must stay false and
  // the graph bit-identical to the from_positions construction.
  TraceSpec t;
  t.epochs = 2;
  t.arrivals_per_epoch = 0;
  t.departures_per_epoch = 0;
  t.swings_per_epoch = 1;
  t.failures_per_epoch = 0;
  t.seed = spec.seed;
  const EpochDelta d = state.advance(t, 1);
  EXPECT_FALSE(d.topology_changed);
  expect_same_graph(state.problem().graph(), inst.problem.graph());
  expect_same_graph(
      state.problem().graph(),
      core::NetworkDesignProblem::from_positions(inst.positions, spec.card)
          .graph());
}

TEST(ChurnTrace, FeasibilityInvariantsHoldAcrossEpochs) {
  const auto spec = small_spec();
  const auto inst = opt::make_design_instance(spec);
  ChurnState state(inst, spec);
  const TraceSpec trace = busy_trace(spec.seed);
  for (std::size_t epoch = 1; epoch < trace.epochs; ++epoch) {
    const EpochDelta d = state.advance(trace, epoch);
    // The exposed problem is always routable (empty set = full graph).
    EXPECT_TRUE(state.problem().try_route_in_subgraph({}).has_value())
        << "epoch " << epoch;
    // Failed nodes are isolated and never demand endpoints.
    const auto failed = state.failed_nodes();
    EXPECT_TRUE(std::is_sorted(failed.begin(), failed.end()));
    for (const graph::NodeId v : failed)
      EXPECT_EQ(state.problem().graph().degree(v), 0u) << "node " << v;
    for (const graph::Demand& dm : state.problem().demands()) {
      EXPECT_FALSE(std::binary_search(failed.begin(), failed.end(),
                                      dm.source));
      EXPECT_FALSE(std::binary_search(failed.begin(), failed.end(),
                                      dm.destination));
      EXPECT_GT(dm.rate, 0.0);
    }
    // touched_nodes is sorted unique — the warm-start locality contract.
    EXPECT_TRUE(std::is_sorted(d.touched_nodes.begin(),
                               d.touched_nodes.end()));
    EXPECT_EQ(std::adjacent_find(d.touched_nodes.begin(),
                                 d.touched_nodes.end()),
              d.touched_nodes.end());
    EXPECT_FALSE(d.applied.empty()) << "epoch " << epoch;
  }
}

/// The connectivity graph a from-scratch build gives over `positions`
/// with every edge of a failed node dropped.
graph::Graph rebuilt_graph(const std::vector<phy::Position>& positions,
                           const energy::RadioCard& card,
                           const std::vector<char>& failed) {
  const core::NetworkDesignProblem full =
      core::NetworkDesignProblem::from_positions(positions, card);
  graph::Graph g(positions.size());
  for (graph::NodeId v = 0; v < positions.size(); ++v)
    g.set_node_weight(v, full.graph().node_weight(v));
  for (const graph::Edge& e : full.graph().edges())
    if (!failed[e.u] && !failed[e.v]) g.add_edge(e.u, e.v, e.weight);
  return g;
}

TEST(ChurnTrace, GraphMatchesIndependentRebuildAcrossEpochs) {
  // After every epoch the live graph must equal a from-scratch build over
  // the current positions minus the failed nodes' edges — failures filter
  // the live edge list, motion rebuilds, and a rejected failure or motion
  // batch must leave the previous graph in place. On a sparse field cut
  // vertices are common, so both rejections happen. The failure draws are
  // replayed here from the trace's own stream, with routability decided by
  // routing on the rebuilt graph, to count the rejected failures.
  opt::DesignInstanceSpec spec = small_spec();
  spec.field_scale = 1.6;
  const auto inst = opt::make_design_instance(spec);
  ChurnState state(inst, spec);
  TraceSpec trace = busy_trace(spec.seed);
  trace.epochs = 16;
  trace.failures_per_epoch = 2;
  const std::size_t n = inst.positions.size();
  std::size_t rejected_failures = 0, reverted_motion = 0;
  for (std::size_t epoch = 1; epoch < trace.epochs; ++epoch) {
    std::vector<char> failed(n, 0);
    for (const graph::NodeId v : state.failed_nodes()) failed[v] = 1;
    const std::vector<graph::Demand> demands = state.problem().demands();
    const auto endpoint = [&](graph::NodeId v) {
      return std::any_of(demands.begin(), demands.end(),
                         [v](const graph::Demand& d) {
                           return d.source == v || d.destination == v;
                         });
    };
    Rng rng = Rng(trace.seed).fork(0xC42A).fork(epoch);
    for (std::size_t k = 0; k < trace.failures_per_epoch; ++k)
      for (int attempt = 0; attempt < 32; ++attempt) {
        const auto v = static_cast<graph::NodeId>(rng.next_below(n));
        if (failed[v] || endpoint(v)) continue;
        failed[v] = 1;
        core::NetworkDesignProblem probe(
            rebuilt_graph(state.positions(), spec.card, failed));
        probe.set_demands(demands);
        if (probe.try_route_in_subgraph({}).has_value()) break;
        failed[v] = 0;
        ++rejected_failures;
      }

    const EpochDelta d = state.advance(trace, epoch);
    std::vector<graph::NodeId> want_failed;
    for (graph::NodeId v = 0; v < n; ++v)
      if (failed[v]) want_failed.push_back(v);
    EXPECT_EQ(state.failed_nodes(), want_failed) << "epoch " << epoch;
    expect_same_graph(state.problem().graph(),
                      rebuilt_graph(state.positions(), spec.card, failed));
    expect_owned_index(state.problem(), "epoch " + std::to_string(epoch));
    if (std::none_of(d.applied.begin(), d.applied.end(),
                     [](const Event& e) { return e.op == EventOp::Move; }))
      ++reverted_motion;
  }
  EXPECT_GT(rejected_failures, 0u);
  EXPECT_GT(reverted_motion, 0u);
}

TEST(ChurnTrace, ExplicitScheduleAppliesVerbatim) {
  const auto spec = small_spec();
  const auto inst = opt::make_design_instance(spec);
  const std::size_t initial = inst.problem.demands().size();
  const double base0 = inst.problem.demands()[0].rate;

  // Pick endpoints for the arrival that are not already a demand pair.
  graph::NodeId s = 0, d = 0;
  bool found = false;
  for (graph::NodeId u = 0; u < 40 && !found; ++u)
    for (graph::NodeId v = 0; v < 40 && !found; ++v) {
      if (u == v) continue;
      bool dup = false;
      for (const graph::Demand& dm : inst.problem.demands())
        dup = dup || (dm.source == u && dm.destination == v);
      if (!dup) {
        s = u;
        d = v;
        found = true;
      }
    }
  ASSERT_TRUE(found);

  TraceSpec t;
  t.epochs = 3;
  t.seed = spec.seed;
  Event arrive;
  arrive.op = EventOp::Arrive;
  arrive.source = s;
  arrive.destination = d;
  arrive.weight = 2.5;
  Event swing;
  swing.op = EventOp::RateSwing;
  swing.demand = 0;
  swing.factor = 0.25;
  Event depart;
  depart.op = EventOp::Depart;
  depart.demand = 1;
  t.schedule.push_back(EpochEvents{1, {arrive, swing}});
  t.schedule.push_back(EpochEvents{2, {depart}});

  ChurnState state(inst, spec);
  EpochDelta d1 = state.advance(t, 1);
  EXPECT_EQ(d1.applied.size(), 2u);
  ASSERT_EQ(state.problem().demands().size(), initial + 1);
  const graph::Demand& arrived = state.problem().demands().back();
  EXPECT_EQ(arrived.source, s);
  EXPECT_EQ(arrived.destination, d);
  EXPECT_EQ(arrived.rate, 2.5);  // demand_rate defaults to 1.0
  EXPECT_EQ(state.problem().demands()[0].rate, base0 * 0.25);

  state.advance(t, 2);
  ASSERT_EQ(state.problem().demands().size(), initial);
  // Demand 1 was erased; the arrival (previously last) is still live.
  EXPECT_EQ(state.problem().demands().back().source, s);
}

TEST(ChurnTrace, ScheduleGapEpochsAreNoOps) {
  const auto spec = small_spec();
  const auto inst = opt::make_design_instance(spec);
  TraceSpec t;
  t.epochs = 4;
  t.seed = spec.seed;
  Event swing;
  swing.op = EventOp::RateSwing;
  swing.demand = 0;
  swing.factor = 2.0;
  t.schedule.push_back(EpochEvents{2, {swing}});

  ChurnState state(inst, spec);
  const EpochDelta d1 = state.advance(t, 1);
  EXPECT_TRUE(d1.applied.empty());
  expect_same_demands(state.problem().demands(), inst.problem.demands());
  const EpochDelta d2 = state.advance(t, 2);
  EXPECT_EQ(d2.applied.size(), 1u);
}

// ------------------------------------------------------------ warm start ---

TEST(WarmStart, RepairsPerturbationWithinFallbackBound) {
  const auto spec = small_spec();
  const auto inst = opt::make_design_instance(spec);
  const opt::DesignObjective objective;

  opt::PortfolioOptions po;
  po.objective = objective;
  po.starts = 4;
  po.anneal.iterations = 100;
  po.seed = spec.seed;
  const opt::CandidateDesign cold =
      opt::design_portfolio(inst.problem, po).best;
  ASSERT_TRUE(cold.feasible);

  ChurnState state(inst, spec);
  const TraceSpec trace = busy_trace(spec.seed);
  opt::CandidateDesign serving = cold;
  for (std::size_t epoch = 1; epoch < trace.epochs; ++epoch) {
    const EpochDelta delta = state.advance(trace, epoch);
    const auto failed = state.failed_nodes();
    serving.nodes.erase(
        std::remove_if(serving.nodes.begin(), serving.nodes.end(),
                       [&](graph::NodeId v) {
                         return std::binary_search(failed.begin(),
                                                   failed.end(), v);
                       }),
        serving.nodes.end());

    opt::WarmStartOptions wo;
    wo.objective = objective;
    wo.starts = 4;
    wo.anneal_iterations = 100;
    wo.fallback_pct = 5.0;
    const opt::WarmStartResult wr = opt::warm_start_search(
        state.problem(), serving, delta.touched_nodes, wo, spec.seed);
    ASSERT_TRUE(wr.design.feasible) << "epoch " << epoch;

    // Whether the repair held or the fallback fired, the result must land
    // within the threshold of the Klein-Ravi reference (the fallback
    // portfolio is <= Klein-Ravi by construction).
    const opt::CandidateDesign kr = opt::design_from_tree(
        state.problem(), state.problem().solve_node_weighted(), objective);
    ASSERT_TRUE(kr.feasible);
    EXPECT_LE(wr.design.cost(), kr.cost() * 1.05 + 1e-9)
        << "epoch " << epoch;
    serving = wr.design;
  }
}

TEST(WarmStart, IsDeterministic) {
  const auto spec = small_spec();
  const auto inst = opt::make_design_instance(spec);
  const opt::DesignObjective objective;
  const opt::CandidateDesign seed_design = opt::design_from_tree(
      inst.problem, inst.problem.solve_node_weighted(), objective);

  ChurnState state(inst, spec);
  const EpochDelta delta = state.advance(busy_trace(spec.seed), 1);
  opt::CandidateDesign previous = seed_design;
  const auto failed = state.failed_nodes();
  previous.nodes.erase(
      std::remove_if(previous.nodes.begin(), previous.nodes.end(),
                     [&](graph::NodeId v) {
                       return std::binary_search(failed.begin(),
                                                 failed.end(), v);
                     }),
      previous.nodes.end());

  opt::WarmStartOptions wo;
  wo.objective = objective;
  const opt::WarmStartResult a = opt::warm_start_search(
      state.problem(), previous, delta.touched_nodes, wo, 11);
  const opt::WarmStartResult b = opt::warm_start_search(
      state.problem(), previous, delta.touched_nodes, wo, 11);
  EXPECT_EQ(a.design.nodes, b.design.nodes);
  EXPECT_EQ(a.design.cost(), b.design.cost());
  EXPECT_EQ(a.fell_back, b.fell_back);
  EXPECT_EQ(a.rerouted_demands, b.rerouted_demands);
}

// ------------------------------------------------- RouteCache fast path ---

TEST(RouteCache, CachedEvaluationIsBitIdentical) {
  const auto spec = small_spec();
  const auto inst = opt::make_design_instance(spec);
  const opt::DesignObjective objective;

  // Fill the cache from the full node set.
  std::vector<graph::NodeId> all;
  for (graph::NodeId v = 0; v < inst.problem.graph().node_count(); ++v)
    all.push_back(v);
  opt::RouteCache cache;
  const opt::CandidateDesign full =
      opt::evaluate_design(inst.problem, all, objective, nullptr, &cache);
  ASSERT_TRUE(full.feasible);
  ASSERT_FALSE(cache.empty());

  // Remove each non-terminal in turn; the cached evaluation must equal the
  // uncached one bit for bit (score, surviving node set).
  const auto terminals = inst.problem.terminals();
  std::size_t probed = 0;
  for (graph::NodeId victim = 0;
       victim < inst.problem.graph().node_count() && probed < 12; ++victim) {
    if (std::binary_search(terminals.begin(), terminals.end(), victim))
      continue;
    ++probed;
    std::vector<graph::NodeId> subset;
    for (const graph::NodeId v : all)
      if (v != victim) subset.push_back(v);
    const opt::CandidateDesign plain =
        opt::evaluate_design(inst.problem, subset, objective);
    const opt::CandidateDesign cached = opt::evaluate_design(
        inst.problem, subset, objective, &cache, nullptr);
    EXPECT_EQ(plain.feasible, cached.feasible) << "victim " << victim;
    if (!plain.feasible) continue;
    EXPECT_EQ(plain.score.idle, cached.score.idle) << "victim " << victim;
    EXPECT_EQ(plain.score.data, cached.score.data) << "victim " << victim;
    EXPECT_EQ(plain.nodes, cached.nodes) << "victim " << victim;
  }
  EXPECT_GT(probed, 0u);
}

TEST(RouteCache, SubgraphRoutingCachedMatchesUncached) {
  const auto spec = small_spec();
  const auto inst = opt::make_design_instance(spec);
  std::vector<graph::NodeId> all;
  for (graph::NodeId v = 0; v < inst.problem.graph().node_count(); ++v)
    all.push_back(v);
  const auto cached_routes = inst.problem.try_route_in_subgraph(all);
  ASSERT_TRUE(cached_routes.has_value());

  const auto terminals = inst.problem.terminals();
  graph::NodeId victim = 0;
  while (std::binary_search(terminals.begin(), terminals.end(), victim))
    ++victim;
  std::vector<graph::NodeId> subset;
  for (const graph::NodeId v : all)
    if (v != victim) subset.push_back(v);

  const auto plain = inst.problem.try_route_in_subgraph(subset);
  const auto fast = inst.problem.try_route_in_subgraph_cached(
      subset, all, *cached_routes);
  ASSERT_EQ(plain.has_value(), fast.has_value());
  ASSERT_TRUE(plain.has_value());
  ASSERT_EQ(plain->size(), fast->size());
  for (std::size_t i = 0; i < plain->size(); ++i) {
    EXPECT_EQ((*plain)[i].path, (*fast)[i].path) << "demand " << i;
    EXPECT_EQ((*plain)[i].packets, (*fast)[i].packets) << "demand " << i;
  }
}

}  // namespace
}  // namespace eend::churn
