// Deterministic simulated annealing over the design space, using the same
// move families as local_search.hpp but sampled (uniformly over the three
// families, then over their candidates) from a seeded Rng instead of
// enumerated — so the walk can cross cost barriers a pure descent cannot.
//
// Schedule: geometric cooling T_i = T0 · cooling^i with T0 scaled off the
// seed design's cost (initial_temp_frac), the standard parametrization for
// instances whose cost magnitude varies by orders of magnitude with N.
// Worsening moves are accepted with probability exp(-Δ/T); infeasible
// proposals are rejected outright. The best design ever visited is tracked
// and returned, so the result is never worse than the seed for any
// schedule or seed value — the determinism/monotonicity contract
// tests/opt_search_test.cpp pins.
//
// Proposals are drawn from the MoveSurface and scored by the MoveEvaluator
// of opt/move_evaluator.hpp, so a proposal costs Eq. 5 plus a Dijkstra per
// demand the move can change; an accepted proposal's routes become the
// incumbent's without rerouting, and the surface is rebuilt only then.
#pragma once

#include "opt/design_heuristic.hpp"

namespace eend::opt {

struct TerminalRows;

struct AnnealingSchedule {
  std::size_t iterations = 300;
  double initial_temp_frac = 0.02;  ///< T0 = frac · cost(seed design)
  double cooling = 0.97;            ///< geometric decay per iteration
};

/// The objective implicitly converts from bare Eq5Params (plain scoring).
/// `rows` as for local_search.
CandidateDesign simulated_annealing(const core::NetworkDesignProblem& problem,
                                    const CandidateDesign& start,
                                    const DesignObjective& objective,
                                    const AnnealingSchedule& schedule,
                                    std::uint64_t seed,
                                    const TerminalRows* rows = nullptr);

}  // namespace eend::opt
