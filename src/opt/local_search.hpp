// Tree-local improvement over a candidate design: steepest-descent search
// with three operator families, all evaluated under the true Eq. 5
// objective (demands route inside the candidate set, so every move is a
// "path reroute within the connectivity graph" as a side effect):
//
//   * relay removal     — drop one non-endpoint active node; surviving
//                         routes re-route around it;
//   * Steiner insertion — open one inactive node adjacent to the design;
//                         routes may shortcut through it;
//   * relay exchange    — close relay v and open one of its inactive
//                         neighbors in the same move (the reroute operator:
//                         a swap neither single move can reach, because
//                         removal alone would disconnect and insertion
//                         alone would not force the reroute).
//
// Each pass evaluates every candidate move and applies the single best
// strict improvement; enumeration order is sorted-node-id, so the descent
// is deterministic. The result is never worse than the seed: when no move
// improves, the seed is returned unchanged (bit-identical cost).
//
// The search is a policy over opt/move_evaluator.hpp: the MoveSurface
// lists the moves and the MoveEvaluator scores each one exactly as
// evaluate_design would, rerouting only the demands the move can change.
#pragma once

#include "opt/design_heuristic.hpp"

namespace eend::opt {

struct TerminalRows;

struct LocalSearchStats {
  std::size_t passes = 0;       ///< improvement rounds applied
  std::size_t evaluations = 0;  ///< candidate designs scored
};

/// Steepest descent from `start` (which must be feasible). `max_passes`
/// bounds the improvement rounds. A pass scores every move: Eq. 5 over the
/// candidate's routes plus one masked Dijkstra per demand the move can
/// change (those crossing a closed relay, or that an opened node could
/// shorten) — most insertion candidates reroute none.
/// The objective implicitly converts from bare Eq5Params (plain scoring).
/// `rows`, when non-null, are `problem`'s TerminalRows (a portfolio's
/// shared ones); otherwise the evaluator computes its own.
CandidateDesign local_search(const core::NetworkDesignProblem& problem,
                             const CandidateDesign& start,
                             const DesignObjective& objective,
                             std::size_t max_passes = 64,
                             LocalSearchStats* stats = nullptr,
                             const TerminalRows* rows = nullptr);

}  // namespace eend::opt
