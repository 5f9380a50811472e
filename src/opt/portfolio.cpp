#include "opt/portfolio.hpp"

#include <algorithm>
#include <optional>

#include "core/parallel_runner.hpp"
#include "opt/local_search.hpp"
#include "opt/move_evaluator.hpp"
#include "util/rng.hpp"

namespace eend::opt {

namespace {

const char* seed_kind_for(std::size_t start) {
  switch (start) {
    case 0: return "klein_ravi";
    case 1: return "mpc";
    case 2: return "kmb";
    default: return (start - 3) % 2 == 0 ? "random_klein_ravi"
                                         : "random_kmb";
  }
}

/// Multiplicative jitter factor in [1 - amp, 1 + amp).
double jitter(Rng& rng, double amp) {
  return 1.0 + amp * (2.0 * rng.uniform() - 1.0);
}

graph::SteinerTree construct_seed(const core::NetworkDesignProblem& p,
                                  const PortfolioOptions& o,
                                  std::size_t start) {
  const std::string kind = seed_kind_for(start);
  if (kind == "klein_ravi")
    return o.klein_ravi_tree ? *o.klein_ravi_tree : p.solve_node_weighted();
  if (kind == "mpc") return p.solve_mpc_reduction();
  if (kind == "kmb") return p.solve_edge_weighted();

  // GRASP randomization: rebuild the greedy tree on a weight-jittered copy
  // of the instance, then score it on the true instance. The amplitude
  // keeps weights positive for any grasp_jitter < 1.
  const double amp = std::min(o.grasp_jitter, 0.95);
  Rng rng = Rng(o.seed).fork(0x6EA5).fork(start);
  graph::Graph jittered = p.graph();
  if (kind == "random_klein_ravi") {
    for (graph::NodeId v = 0; v < jittered.node_count(); ++v)
      jittered.set_node_weight(v, jittered.node_weight(v) * jitter(rng, amp));
    return graph::klein_ravi_steiner(jittered, p.terminals());
  }
  for (graph::EdgeId e = 0; e < jittered.edge_count(); ++e)
    jittered.edge(e).weight *= jitter(rng, amp);
  return graph::kmb_steiner_tree(jittered, p.terminals());
}

PortfolioStart run_start(const core::NetworkDesignProblem& p,
                         const PortfolioOptions& o, const TerminalRows& rows,
                         std::size_t start) {
  PortfolioStart out;
  out.seed_kind = seed_kind_for(start);
  out.seeded = design_from_tree(p, construct_seed(p, o, start), o.objective);
  if (!out.seeded.feasible) {
    out.improved = out.seeded;
    return out;
  }
  CandidateDesign cur = out.seeded;
  if (o.anneal.iterations > 0)
    cur = simulated_annealing(p, cur, o.objective, o.anneal,
                              Rng(o.seed).fork(0x5A17).fork(start).seed(),
                              &rows);
  out.improved = local_search(p, cur, o.objective, 64, nullptr, &rows);
  return out;
}

}  // namespace

PortfolioResult design_portfolio(const core::NetworkDesignProblem& problem,
                                 const PortfolioOptions& options) {
  const std::size_t n = std::max<std::size_t>(1, options.starts);

  // Every start's evaluators read one set of terminal rows.
  std::optional<TerminalRows> own_rows;
  const TerminalRows& rows = options.terminal_rows
                                 ? *options.terminal_rows
                                 : own_rows.emplace(problem);

  PortfolioResult result;
  result.starts.resize(n);
  core::ParallelRunner pool(options.jobs);
  pool.set_span_label("portfolio.start");
  pool.for_each_index(n, [&](std::size_t i) {
    result.starts[i] = run_start(problem, options, rows, i);
  });

  // Seed-order merge: lowest cost wins, lowest start index breaks ties —
  // independent of which worker finished first.
  std::size_t best = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (!result.starts[i].improved.feasible) continue;
    if (best == n ||
        result.starts[i].improved.cost() < result.starts[best].improved.cost())
      best = i;
  }
  if (best == n) {  // no feasible start (disconnected terminals)
    result.best = result.starts[0].improved;
    result.best_start = 0;
    return result;
  }
  result.best = result.starts[best].improved;
  result.best_start = best;
  return result;
}

}  // namespace eend::opt
