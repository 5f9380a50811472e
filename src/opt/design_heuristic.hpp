// Metaheuristic design search over the Section 3 (Eq. 5) network design
// problem — the subsystem the paper's title promises.
//
// A *design* is a set of active nodes F (always containing every demand
// endpoint). Scoring a design routes each demand along its shortest
// communication-cost path restricted to F and evaluates Eq. 5 on the
// resulting flows: restricting routing to a small F forces demands to share
// relays (lower idle cost) at some data-cost premium — exactly the
// trade-off the paper's one-shot approximations (Klein-Ravi, the MPC
// edge-weight reduction) strike once, and that the search layers here
// (local_search.hpp, annealing.hpp, portfolio.hpp) keep improving.
//
// DesignHeuristic is the uniform interface: a name, plus run(problem,
// options, seed) -> CandidateDesign. Every heuristic is deterministic in
// (problem, options, seed); the registry (heuristic_names /
// heuristic_by_name) is what manifests and benches validate against.
//
// Two scoring modes share one objective type: the plain Eq. 5 total, and —
// when DesignObjective::battery_budget_j > 0 — a lifetime-constrained mode
// that adds a penalty for every unit by which a node's idle + routed energy
// share exceeds the per-node battery budget. The `*_lifetime` registry
// variants run the same searches under the penalized objective, steering
// them toward designs whose most-loaded node survives longest (the
// replay/ subsystem validates exactly that against simulated first-death).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/design_problem.hpp"

namespace eend::opt {

/// One candidate design: the active node set with its Eq. 5 score.
struct CandidateDesign {
  /// Active nodes, sorted ascending, endpoints included. After evaluation
  /// this is exactly the set of nodes carrying flows (allowed-but-unused
  /// nodes are dropped — they cost nothing and would bloat the state).
  std::vector<graph::NodeId> nodes;
  analytical::Eq5Breakdown score;
  bool feasible = false;
  /// Lifetime-constrained scoring only (both 0 under the plain objective,
  /// whose hot search loops skip the load scan): the largest per-node
  /// energy share (see node_energy_loads), and
  /// penalty_weight · Σ_v max(0, load(v) − battery_budget_j).
  double max_node_load = 0.0;
  double lifetime_penalty = 0.0;

  double cost() const { return score.total() + lifetime_penalty; }
};

/// Search objective: Eq. 5, optionally penalized by per-node battery
/// overload. Implicitly constructible from bare Eq5Params so existing
/// plain-objective call sites read unchanged (budget 0 ⇒ identical cost).
struct DesignObjective {
  analytical::Eq5Params eval;
  /// Per-node energy budget in the same units Eq. 5 produces (joules when
  /// t_idle/t_data_per_packet carry seconds). 0 = plain Eq. 5 scoring.
  double battery_budget_j = 0.0;
  /// Cost added per unit of per-node overload. Large enough by default
  /// that a fraction of a joule of overload outweighs the ~100 J idle cost
  /// of opening another relay — the budget acts as a near-hard constraint
  /// whenever a compliant design is reachable.
  double overload_penalty = 1024.0;

  DesignObjective() = default;
  DesignObjective(const analytical::Eq5Params& e) : eval(e) {}
};

/// Per-node energy shares of a routed design, in Eq. 5 units: every node on
/// a route is charged t_idle · c(v) (endpoints included — unlike the Eq. 5
/// idle term, a simulated endpoint idles and drains its battery too) plus
/// half the data cost of each incident route edge (w(e) lumps the
/// transmitter's and receiver's draw; the half/half split attributes it
/// symmetrically). Indexed by NodeId over the whole graph; non-active nodes
/// read 0.
std::vector<double> node_energy_loads(
    const graph::Graph& g,
    std::span<const analytical::RoutedDemand> routes,
    const analytical::Eq5Params& eval);

/// The scoring tail every design evaluation shares: Eq. 5 over `routes`
/// (on `scratch`'s buffers, with hop ranks and weights from `arcs`, the
/// problem's arcs() or an induced view of them; see
/// analytical::evaluate_eq5), the overload penalty when the objective
/// carries a battery budget, and `out.nodes` normalized to the nodes the
/// routes use. Overwrites every field of `out` and marks it feasible.
void score_routes(const graph::Graph& g, const graph::ArcIndex& arcs,
                  std::span<const analytical::RoutedDemand> routes,
                  const DesignObjective& objective,
                  analytical::Eq5Scratch& scratch, CandidateDesign& out);

/// Score the design implied by `nodes`: route every demand along its
/// shortest path within the set, drop nodes no route uses, evaluate Eq. 5
/// and (when the objective carries a battery budget) the overload penalty.
/// Infeasible sets (some demand unroutable) come back with feasible=false
/// and an infinite-cost-like empty score — callers compare via cost() only
/// on feasible candidates.
CandidateDesign evaluate_design(const core::NetworkDesignProblem& problem,
                                const std::vector<graph::NodeId>& nodes,
                                const DesignObjective& objective);

/// Route memo for incremental re-evaluation (the churn/ warm-start loop):
/// the allowed node set an evaluation routed within, plus the routes it
/// produced — valid only for the graph and demand endpoints it was filled
/// against (rates may change; paths are rate-independent).
struct RouteCache {
  std::vector<graph::NodeId> nodes;  ///< allowed set at fill time
  std::vector<analytical::RoutedDemand> routes;

  bool empty() const { return routes.empty(); }
  void clear() {
    nodes.clear();
    routes.clear();
  }
};

/// Path-reuse twin of evaluate_design: when `reuse` holds routes for a
/// superset allowed set on the same graph, demands whose cached path is
/// untouched by the shrink skip Dijkstra entirely (see
/// NetworkDesignProblem::try_route_in_subgraph_cached for the exact validity
/// rule — with strictly positive edge weights the result is bit-identical
/// to the uncached evaluation, exact ties included). When
/// `fill` is non-null it receives this evaluation's allowed set and routes
/// (only on feasible results) for the next round. Either pointer may be
/// null; (nullptr, nullptr) is exactly the plain overload. On an
/// infeasible result `failed_demand`, when non-null, receives the index of
/// the first unroutable demand. Routing and Eq. 5 read the problem's
/// arcs().
CandidateDesign evaluate_design(const core::NetworkDesignProblem& problem,
                                const std::vector<graph::NodeId>& nodes,
                                const DesignObjective& objective,
                                const RouteCache* reuse, RouteCache* fill,
                                std::size_t* failed_demand = nullptr);

/// Evaluate a constructive solver's tree as a design seed.
CandidateDesign design_from_tree(const core::NetworkDesignProblem& problem,
                                 const graph::SteinerTree& tree,
                                 const DesignObjective& objective);

/// Knobs shared by every heuristic (each uses the subset it needs).
struct HeuristicOptions {
  analytical::Eq5Params eval;
  std::size_t starts = 8;             ///< portfolio: multi-start count
  std::size_t anneal_iterations = 300;///< annealing moves per (re)start
  std::size_t jobs = 1;               ///< portfolio: ParallelRunner width
  /// Lifetime variants only: per-node energy budget (must be > 0 when a
  /// `*_lifetime` heuristic runs) and the overload penalty weight. Base
  /// heuristics ignore both and score plain Eq. 5.
  double battery_budget_j = 0.0;
  double overload_penalty = 1024.0;
  /// Optional precomputed Klein-Ravi tree for this problem. The tree is
  /// deterministic in the instance alone, and it seeds klein_ravi,
  /// local_search, annealing AND the portfolio's start 0 — callers running
  /// several heuristics on one instance (ExperimentEngine::run_design,
  /// bench) solve it once and share it here. Must outlive the run() call;
  /// nullptr = each heuristic solves its own.
  const graph::SteinerTree* klein_ravi_tree = nullptr;
};

class DesignHeuristic {
 public:
  virtual ~DesignHeuristic() = default;
  virtual const std::string& name() const = 0;
  /// Deterministic in (problem, opts, seed) — byte-identical results for
  /// any jobs value (parallel fan-outs merge in seed order).
  virtual CandidateDesign run(const core::NetworkDesignProblem& problem,
                              const HeuristicOptions& opts,
                              std::uint64_t seed) const = 0;
};

/// Registry names in canonical order: "klein_ravi", "mpc", "kmb",
/// "local_search", "annealing", "portfolio", then the lifetime-constrained
/// twins "local_search_lifetime", "annealing_lifetime",
/// "portfolio_lifetime".
const std::vector<std::string>& heuristic_names();

/// Lookup by manifest name; throws CheckError listing the valid names.
const DesignHeuristic& heuristic_by_name(const std::string& name);

/// True for the `*_lifetime` variants, which require
/// HeuristicOptions::battery_budget_j > 0 (manifests reject them where no
/// battery provides the budget). Throws on unknown names.
bool heuristic_uses_battery_budget(const std::string& name);

}  // namespace eend::opt
