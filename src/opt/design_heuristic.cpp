#include "opt/design_heuristic.hpp"

#include <algorithm>

#include "opt/annealing.hpp"
#include "opt/local_search.hpp"
#include "opt/portfolio.hpp"
#include "util/check.hpp"

namespace eend::opt {

std::vector<double> node_energy_loads(
    const graph::Graph& g,
    std::span<const analytical::RoutedDemand> routes,
    const analytical::Eq5Params& eval) {
  std::vector<double> load(g.node_count(), 0.0);
  std::vector<char> active(g.node_count(), 0);
  for (const analytical::RoutedDemand& r : routes) {
    for (std::size_t i = 0; i < r.path.size(); ++i) {
      active[r.path[i]] = 1;
      if (i + 1 < r.path.size()) {
        const double w = g.edge_weight_between(r.path[i], r.path[i + 1]);
        EEND_CHECK(w < graph::kInfCost);
        const double half = 0.5 * eval.t_data_per_packet * r.packets * w;
        load[r.path[i]] += half;
        load[r.path[i + 1]] += half;
      }
    }
  }
  // Idle is charged to every active node — simulated endpoints drain their
  // batteries too, so the lifetime proxy must not zero them out the way the
  // Eq. 5 idle term does.
  for (graph::NodeId v = 0; v < g.node_count(); ++v)
    if (active[v]) load[v] += eval.t_idle * g.node_weight(v);
  return load;
}

void score_routes(const graph::Graph& g, const graph::ArcIndex& arcs,
                  std::span<const analytical::RoutedDemand> routes,
                  const DesignObjective& objective,
                  analytical::Eq5Scratch& scratch, CandidateDesign& out) {
  out.score =
      analytical::evaluate_eq5(g, arcs, routes, objective.eval, scratch);
  out.max_node_load = 0.0;
  out.lifetime_penalty = 0.0;
  // The load scan is O(N + route length) per evaluation and only the
  // lifetime objective consumes it; the plain mode — the innermost loop of
  // every design-kind search — must not pay for it.
  if (objective.battery_budget_j > 0.0) {
    const std::vector<double> loads =
        node_energy_loads(g, routes, objective.eval);
    double overload = 0.0;
    for (const double l : loads) {
      out.max_node_load = std::max(out.max_node_load, l);
      overload += std::max(0.0, l - objective.battery_budget_j);
    }
    out.lifetime_penalty = objective.overload_penalty * overload;
  }
  // Normalize the state to the nodes the routing actually uses (Eq. 5's F,
  // which the scratch holds sorted and deduplicated): allowed-but-unused
  // nodes contribute nothing to Eq. 5 and would make equal-cost designs
  // compare unequal.
  out.nodes.assign(scratch.active.begin(), scratch.active.end());
  out.feasible = true;
}

CandidateDesign evaluate_design(const core::NetworkDesignProblem& problem,
                                const std::vector<graph::NodeId>& nodes,
                                const DesignObjective& objective) {
  return evaluate_design(problem, nodes, objective, nullptr, nullptr);
}

CandidateDesign evaluate_design(const core::NetworkDesignProblem& problem,
                                const std::vector<graph::NodeId>& nodes,
                                const DesignObjective& objective,
                                const RouteCache* reuse, RouteCache* fill,
                                std::size_t* failed_demand) {
  EEND_REQUIRE_MSG(!nodes.empty(), "a design needs at least one node");
  CandidateDesign out;
  const auto routes =
      reuse && !reuse->empty()
          ? problem.try_route_in_subgraph_cached(nodes, reuse->nodes,
                                                 reuse->routes, failed_demand)
          : problem.try_route_in_subgraph(nodes, failed_demand);
  if (!routes) {
    out.nodes = nodes;
    std::sort(out.nodes.begin(), out.nodes.end());
    out.feasible = false;
    return out;
  }
  analytical::Eq5Scratch scratch;
  score_routes(problem.graph(), problem.arcs(), *routes, objective, scratch,
               out);
  if (fill) {
    // Memoize against the *allowed* set (pre-normalization): the subset
    // test in the cached routing twin compares allowed sets, not the
    // route-used subset the CandidateDesign keeps.
    fill->nodes = nodes;
    std::sort(fill->nodes.begin(), fill->nodes.end());
    fill->routes = *routes;
  }
  return out;
}

CandidateDesign design_from_tree(const core::NetworkDesignProblem& problem,
                                 const graph::SteinerTree& tree,
                                 const DesignObjective& objective) {
  if (!tree.feasible || tree.nodes.empty()) {
    CandidateDesign out;
    out.nodes = tree.nodes;
    out.feasible = false;
    return out;
  }
  return evaluate_design(problem, tree.nodes, objective);
}

namespace {

/// The shared Klein-Ravi seed: the caller-provided tree when present,
/// otherwise solved fresh.
graph::SteinerTree klein_ravi_tree(const core::NetworkDesignProblem& p,
                                   const HeuristicOptions& o) {
  if (o.klein_ravi_tree) return *o.klein_ravi_tree;
  return p.solve_node_weighted();
}

/// The objective a heuristic scores under: plain Eq. 5 for the base
/// variants, battery-penalized for the `*_lifetime` twins (which require a
/// positive budget — running one without a battery would silently reduce to
/// the base heuristic and mislabel its series).
DesignObjective objective_of(const HeuristicOptions& o, bool lifetime,
                             const std::string& name) {
  DesignObjective obj(o.eval);
  if (lifetime) {
    EEND_REQUIRE_MSG(o.battery_budget_j > 0.0,
                     "heuristic \"" << name
                     << "\" needs HeuristicOptions::battery_budget_j > 0 "
                        "(the per-node battery that defines overload)");
    obj.battery_budget_j = o.battery_budget_j;
    obj.overload_penalty = o.overload_penalty;
  }
  return obj;
}

// ---------------------------------------------------------------- registry ---

class KleinRaviHeuristic final : public DesignHeuristic {
 public:
  const std::string& name() const override {
    static const std::string n = "klein_ravi";
    return n;
  }
  CandidateDesign run(const core::NetworkDesignProblem& p,
                      const HeuristicOptions& o,
                      std::uint64_t) const override {
    return design_from_tree(p, klein_ravi_tree(p, o), o.eval);
  }
};

class MpcHeuristic final : public DesignHeuristic {
 public:
  const std::string& name() const override {
    static const std::string n = "mpc";
    return n;
  }
  CandidateDesign run(const core::NetworkDesignProblem& p,
                      const HeuristicOptions& o,
                      std::uint64_t) const override {
    return design_from_tree(p, p.solve_mpc_reduction(), o.eval);
  }
};

class KmbHeuristic final : public DesignHeuristic {
 public:
  const std::string& name() const override {
    static const std::string n = "kmb";
    return n;
  }
  CandidateDesign run(const core::NetworkDesignProblem& p,
                      const HeuristicOptions& o,
                      std::uint64_t) const override {
    return design_from_tree(p, p.solve_edge_weighted(), o.eval);
  }
};

class LocalSearchHeuristic final : public DesignHeuristic {
 public:
  explicit LocalSearchHeuristic(bool lifetime)
      : lifetime_(lifetime),
        name_(lifetime ? "local_search_lifetime" : "local_search") {}
  const std::string& name() const override { return name_; }
  CandidateDesign run(const core::NetworkDesignProblem& p,
                      const HeuristicOptions& o,
                      std::uint64_t) const override {
    const DesignObjective obj = objective_of(o, lifetime_, name_);
    const CandidateDesign seed =
        design_from_tree(p, klein_ravi_tree(p, o), obj);
    if (!seed.feasible) return seed;
    return local_search(p, seed, obj);
  }

 private:
  bool lifetime_;
  std::string name_;
};

class AnnealingHeuristic final : public DesignHeuristic {
 public:
  explicit AnnealingHeuristic(bool lifetime)
      : lifetime_(lifetime),
        name_(lifetime ? "annealing_lifetime" : "annealing") {}
  const std::string& name() const override { return name_; }
  CandidateDesign run(const core::NetworkDesignProblem& p,
                      const HeuristicOptions& o,
                      std::uint64_t seed) const override {
    const DesignObjective obj = objective_of(o, lifetime_, name_);
    const CandidateDesign start =
        design_from_tree(p, klein_ravi_tree(p, o), obj);
    if (!start.feasible) return start;
    AnnealingSchedule sched;
    sched.iterations = o.anneal_iterations;
    return simulated_annealing(p, start, obj, sched, seed);
  }

 private:
  bool lifetime_;
  std::string name_;
};

class PortfolioHeuristic final : public DesignHeuristic {
 public:
  explicit PortfolioHeuristic(bool lifetime)
      : lifetime_(lifetime),
        name_(lifetime ? "portfolio_lifetime" : "portfolio") {}
  const std::string& name() const override { return name_; }
  CandidateDesign run(const core::NetworkDesignProblem& p,
                      const HeuristicOptions& o,
                      std::uint64_t seed) const override {
    const DesignObjective obj = objective_of(o, lifetime_, name_);
    PortfolioOptions po;
    po.objective = obj;
    po.starts = o.starts;
    po.jobs = o.jobs;
    po.anneal.iterations = o.anneal_iterations;
    po.seed = seed;
    po.klein_ravi_tree = o.klein_ravi_tree;
    return design_portfolio(p, po).best;
  }

 private:
  bool lifetime_;
  std::string name_;
};

const DesignHeuristic* const kRegistry[] = {
    new KleinRaviHeuristic,
    new MpcHeuristic,
    new KmbHeuristic,
    new LocalSearchHeuristic(false),
    new AnnealingHeuristic(false),
    new PortfolioHeuristic(false),
    new LocalSearchHeuristic(true),
    new AnnealingHeuristic(true),
    new PortfolioHeuristic(true),
};

}  // namespace

const std::vector<std::string>& heuristic_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const DesignHeuristic* h : kRegistry) out.push_back(h->name());
    return out;
  }();
  return names;
}

const DesignHeuristic& heuristic_by_name(const std::string& name) {
  for (const DesignHeuristic* h : kRegistry)
    if (h->name() == name) return *h;
  std::string valid;
  for (const auto& n : heuristic_names()) {
    if (!valid.empty()) valid += ", ";
    valid += n;
  }
  EEND_REQUIRE_MSG(false, "unknown design heuristic \"" << name
                          << "\" (valid: " << valid << ")");
  throw CheckError("unreachable");
}

bool heuristic_uses_battery_budget(const std::string& name) {
  heuristic_by_name(name);  // throws on unknown names
  const std::string suffix = "_lifetime";
  return name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

}  // namespace eend::opt
