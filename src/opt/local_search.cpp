#include "opt/local_search.hpp"

#include "obs/counters.hpp"
#include "opt/move_evaluator.hpp"

namespace eend::opt {

CandidateDesign local_search(const core::NetworkDesignProblem& problem,
                             const CandidateDesign& start,
                             const DesignObjective& objective,
                             std::size_t max_passes,
                             LocalSearchStats* stats,
                             const TerminalRows* rows) {
  EEND_REQUIRE_MSG(start.feasible, "local search needs a feasible seed");
  MoveEvaluator ev(problem, objective, start, nullptr, rows);
  MoveEvaluator::Scored best;
  LocalSearchStats local;
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    if (!ev.best_move(nullptr, best, local.evaluations) ||
        !(best.design.cost() < ev.incumbent().cost()))
      break;
    ev.adopt(best);
    ++local.passes;
  }
  if (stats) *stats = local;
  obs::count("opt.ls.calls");
  obs::count("opt.ls.evaluations", local.evaluations);
  obs::count("opt.ls.moves_accepted", local.passes);  // one move per pass
  return ev.incumbent();
}

}  // namespace eend::opt
