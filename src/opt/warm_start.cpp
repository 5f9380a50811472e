#include "opt/warm_start.hpp"

#include <algorithm>
#include <optional>

#include "graph/shortest_path.hpp"
#include "obs/counters.hpp"
#include "opt/move_evaluator.hpp"
#include "opt/portfolio.hpp"
#include "util/check.hpp"

namespace eend::opt {

namespace {

/// Repair-region mask: the touched nodes plus two rings of graph
/// neighbors — wide enough that an insertion can bridge around a failed or
/// moved relay, small enough that the move budget tracks the perturbation.
std::vector<char> repair_region(const graph::Graph& g,
                                const std::vector<graph::NodeId>& touched) {
  std::vector<char> in(g.node_count(), 0);
  std::vector<graph::NodeId> frontier;
  for (graph::NodeId v : touched)
    if (v < g.node_count() && !in[v]) {
      in[v] = 1;
      frontier.push_back(v);
    }
  for (int ring = 0; ring < 2; ++ring) {
    std::vector<graph::NodeId> next;
    for (graph::NodeId v : frontier)
      for (const auto& [u, e] : g.neighbors(v)) {
        (void)e;
        if (!in[u]) {
          in[u] = 1;
          next.push_back(u);
        }
      }
    frontier = std::move(next);
  }
  return in;
}

}  // namespace

WarmStartResult warm_start_search(
    const core::NetworkDesignProblem& problem,
    const CandidateDesign& previous,
    const std::vector<graph::NodeId>& touched_nodes,
    const WarmStartOptions& options, std::uint64_t seed,
    const RouteCache* previous_routes, RouteCache* out_routes) {
  WarmStartResult out;
  const graph::Graph& g = problem.graph();
  const auto terminals = problem.terminals();  // sorted

  // The terminal rows every evaluator of this call reads: stage 2's and
  // the fallback portfolio's. Computed on first use.
  std::optional<TerminalRows> rows;
  const auto shared_rows = [&]() -> const TerminalRows& {
    return rows ? *rows : rows.emplace(problem);
  };

  RouteCache cur_cache;
  const auto eval = [&](const std::vector<graph::NodeId>& cand,
                        const RouteCache* reuse, RouteCache* fill,
                        std::size_t* failed = nullptr) {
    ++out.evaluations;
    return evaluate_design(problem, cand, options.objective, reuse, fill,
                           failed);
  };

  // ---- stage 1: feasibility. Previous active set + current terminals;
  // every unroutable demand absorbs its full-graph shortest path (adding
  // nodes never hurts another demand, so one round per failing demand
  // suffices and the loop is bounded by the demand count).
  std::vector<graph::NodeId> nodes = previous.nodes;
  nodes.insert(nodes.end(), terminals.begin(), terminals.end());
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  std::size_t failed = 0;
  CandidateDesign cur = eval(nodes, previous_routes, &cur_cache, &failed);
  for (std::size_t round = 0;
       !cur.feasible && round < problem.demands().size() + 1; ++round) {
    const graph::Demand& d = problem.demands()[failed];
    const auto spt = graph::dijkstra(g, d.source);
    const auto path = spt.path_to(d.destination);
    EEND_REQUIRE_MSG(!path.empty(),
                     "warm start on an unroutable instance: demand "
                         << d.source << "->" << d.destination
                         << " has no path even on the full graph");
    nodes.insert(nodes.end(), path.begin(), path.end());
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    cur = eval(nodes, nullptr, &cur_cache, &failed);
  }

  // ---- stage 2: localized steepest descent around the perturbation.
  // Same move set and order as opt/local_search.hpp, but removals,
  // insertions and exchanged relays must lie inside the repair region.
  // The move evaluator starts from stage 1's routes and keeps each
  // winner's routes, so the final evaluation below reuses every path.
  if (cur.feasible && !touched_nodes.empty()) {
    const std::vector<char> region = repair_region(g, touched_nodes);
    obs::observe("opt.warm.repair_region_size",
                 static_cast<std::uint64_t>(
                     std::count(region.begin(), region.end(), char{1})));
    MoveEvaluator ev(problem, options.objective, cur, &cur_cache.routes,
                     &shared_rows());
    MoveEvaluator::Scored best;
    for (std::size_t pass = 0; pass < options.max_repair_passes; ++pass) {
      if (!ev.best_move(&region, best, out.evaluations) ||
          !(best.design.cost() < ev.incumbent().cost()))
        break;
      ++out.evaluations;  // adopting the winner counts as one evaluation
      ev.adopt(best);
    }
    cur = ev.incumbent();
    cur_cache.nodes = cur.nodes;
    cur_cache.routes = ev.routes();
  }

  // ---- stage 3: quality gate. Reference = Klein-Ravi on the perturbed
  // instance (the one-shot baseline a from-scratch run would at least
  // reach); a repair worse than (1 + fallback_pct/100) x reference — or an
  // irreparable one — triggers the full portfolio, and the better design
  // wins.
  const graph::SteinerTree kr_tree = problem.solve_node_weighted();
  const CandidateDesign reference =
      design_from_tree(problem, kr_tree, options.objective);
  EEND_CHECK_MSG(reference.feasible,
                 "Klein-Ravi reference infeasible on a routable instance");
  if (!cur.feasible ||
      cur.cost() >
          (1.0 + options.fallback_pct / 100.0) * reference.cost()) {
    PortfolioOptions po;
    po.objective = options.objective;
    po.starts = options.starts;
    po.jobs = options.jobs;
    po.anneal.iterations = options.anneal_iterations;
    po.seed = seed;
    po.klein_ravi_tree = &kr_tree;
    po.terminal_rows = &shared_rows();
    const PortfolioResult pr = design_portfolio(problem, po);
    if (!cur.feasible || pr.best.cost() < cur.cost()) cur = pr.best;
    out.fell_back = true;
  }

  // ---- final routes: one evaluation fills the outgoing cache and anchors
  // the re-route count against the previous epoch's routes.
  RouteCache final_cache;
  cur = eval(cur.nodes, &cur_cache, &final_cache);
  EEND_CHECK_MSG(cur.feasible, "warm-start result lost feasibility");
  out.rerouted_demands = final_cache.routes.size();
  if (previous_routes &&
      previous_routes->routes.size() == final_cache.routes.size()) {
    std::size_t unchanged = 0;
    for (std::size_t i = 0; i < final_cache.routes.size(); ++i) {
      const analytical::RoutedDemand& a = previous_routes->routes[i];
      const analytical::RoutedDemand& b = final_cache.routes[i];
      if (a.demand.source == b.demand.source &&
          a.demand.destination == b.demand.destination && a.path == b.path)
        ++unchanged;
    }
    out.rerouted_demands -= unchanged;
  }
  if (out_routes) *out_routes = std::move(final_cache);
  out.design = std::move(cur);
  obs::count("opt.warm.calls");
  obs::count("opt.warm.evaluations", out.evaluations);
  obs::count("opt.warm.rerouted_demands", out.rerouted_demands);
  if (out.fell_back) obs::count("opt.warm.fallbacks");
  return out;
}

}  // namespace eend::opt
