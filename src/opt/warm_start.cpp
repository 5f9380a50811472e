#include "opt/warm_start.hpp"

#include <algorithm>
#include <set>

#include "graph/shortest_path.hpp"
#include "obs/counters.hpp"
#include "opt/portfolio.hpp"
#include "presolve/presolve.hpp"
#include "util/check.hpp"

namespace eend::opt {

namespace {

std::vector<char> membership(std::size_t n,
                             const std::vector<graph::NodeId>& nodes) {
  std::vector<char> in(n, 0);
  for (graph::NodeId v : nodes) in[v] = 1;
  return in;
}

std::vector<graph::NodeId> without(const std::vector<graph::NodeId>& nodes,
                                   graph::NodeId drop) {
  std::vector<graph::NodeId> out;
  out.reserve(nodes.size() - 1);
  for (graph::NodeId v : nodes)
    if (v != drop) out.push_back(v);
  return out;
}

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
  const auto is_terminal = [&](graph::NodeId v) {
    return std::binary_search(terminals.begin(), terminals.end(), v);
  };

  RouteCache cur_cache;
  const auto eval = [&](const std::vector<graph::NodeId>& cand,
                        const RouteCache* reuse, RouteCache* fill) {
    ++out.evaluations;
    return evaluate_design(problem, cand, options.objective, reuse, fill);
  };

  // ---- stage 1: feasibility. Previous active set + current terminals;
  // every unroutable demand absorbs its full-graph shortest path (adding
  // nodes never hurts another demand, so one round per failing demand
  // suffices and the loop is bounded by the demand count).
  std::set<graph::NodeId> seed_set(previous.nodes.begin(),
                                   previous.nodes.end());
  seed_set.insert(terminals.begin(), terminals.end());
  std::vector<graph::NodeId> nodes(seed_set.begin(), seed_set.end());

  CandidateDesign cur = eval(nodes, previous_routes, &cur_cache);
  for (std::size_t round = 0;
       !cur.feasible && round < problem.demands().size() + 1; ++round) {
    std::size_t failed = 0;
    if (problem.try_route_in_subgraph(nodes, &failed)) break;
    const graph::Demand& d = problem.demands()[failed];
    const auto spt = graph::dijkstra(g, d.source);
    const auto path = spt.path_to(d.destination);
    EEND_REQUIRE_MSG(!path.empty(),
                     "warm start on an unroutable instance: demand "
                         << d.source << "->" << d.destination
                         << " has no path even on the full graph");
    std::set<graph::NodeId> widened(nodes.begin(), nodes.end());
    widened.insert(path.begin(), path.end());
    nodes.assign(widened.begin(), widened.end());
    cur = eval(nodes, nullptr, &cur_cache);
  }

  // ---- stage 2: localized steepest descent around the perturbation.
  // Same move set as opt/local_search.hpp, but removal / insertion probes
  // only fire inside the repair region, and every candidate evaluation
  // goes through the RouteCache fast path against the incumbent's routes.
  if (cur.feasible && !touched_nodes.empty()) {
    const std::vector<char> region = repair_region(g, touched_nodes);
    obs::observe("opt.warm.repair_region_size",
                 static_cast<std::uint64_t>(
                     std::count(region.begin(), region.end(), char{1})));
    for (std::size_t pass = 0; pass < options.max_repair_passes; ++pass) {
      const std::vector<char> in_cur = membership(g.node_count(), cur.nodes);
      CandidateDesign best;
      std::vector<graph::NodeId> best_allowed;
      const auto consider = [&](std::vector<graph::NodeId> cand) {
        CandidateDesign c = eval(cand, &cur_cache, nullptr);
        if (!c.feasible) return;
        if (!best.feasible || c.cost() < best.cost()) {
          best = std::move(c);
          best_allowed = std::move(cand);
        }
      };

      for (graph::NodeId v : cur.nodes) {
        if (!region[v] || is_terminal(v)) continue;
        consider(without(cur.nodes, v));
      }

      std::set<graph::NodeId> frontier;
      for (graph::NodeId v : cur.nodes)
        for (const auto& [u, e] : g.neighbors(v)) {
          (void)e;
          if (!in_cur[u] && region[u]) frontier.insert(u);
        }
      for (graph::NodeId u : frontier) {
        std::vector<graph::NodeId> cand = cur.nodes;
        cand.push_back(u);
        consider(std::move(cand));
      }

      for (graph::NodeId v : cur.nodes) {
        if (!region[v] || is_terminal(v)) continue;
        std::set<graph::NodeId> swaps;
        for (const auto& [u, e] : g.neighbors(v)) {
          (void)e;
          if (!in_cur[u]) swaps.insert(u);
        }
        for (graph::NodeId u : swaps) {
          std::vector<graph::NodeId> cand = without(cur.nodes, v);
          cand.push_back(u);
          consider(std::move(cand));
        }
      }

      if (!best.feasible || !(best.cost() < cur.cost())) break;
      // Re-evaluate the winner with a cache fill so the next pass (and the
      // final route diff) reuse its routes — one extra evaluation per
      // accepted move, all of it cache-accelerated.
      RouteCache next_cache;
      cur = eval(best_allowed, &cur_cache, &next_cache);
      cur_cache = std::move(next_cache);
    }
  }

  // ---- stage 3: quality gate. Reference = Klein-Ravi on the perturbed
  // instance (the one-shot baseline a from-scratch run would at least
  // reach); a repair worse than (1 + fallback_pct/100) x reference — or an
  // irreparable one — triggers the full portfolio, and the better design
  // wins.
  const graph::SteinerTree kr_tree =
      (options.presolve ? options.presolve->node_reduced : problem)
          .solve_node_weighted();
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
    po.presolve = options.presolve;
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
