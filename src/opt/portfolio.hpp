// GRASP-style multi-start portfolio: diversified constructive seeds, each
// refined by annealing + local search, fanned out across a
// core::ParallelRunner and merged in start order.
//
// Start 0 is always the deterministic Klein-Ravi tree followed by pure
// descent — since local search never worsens its seed, the portfolio's
// Eq. 5 cost is ≤ the Klein-Ravi baseline's *by construction*, on every
// instance (the acceptance bar the design_portfolio golden family pins).
// Starts 1/2 are the MPC reduction and plain KMB trees; further starts are
// randomized greedy constructions (Klein-Ravi on multiplicatively jittered
// node weights, KMB on jittered edge weights — the GRASP recipe), each
// scored and refined on the *true* instance.
//
// Determinism: every start's work depends only on (problem, options, start
// index), results land in pre-sized slots, and the winner is the lowest
// cost with lowest-start-index tie-break — byte-identical for any jobs.
#pragma once

#include "opt/annealing.hpp"
#include "opt/design_heuristic.hpp"

namespace eend::opt {

struct TerminalRows;

struct PortfolioOptions {
  /// Scoring objective for seeds, anneal walks and descents alike — plain
  /// Eq. 5, or lifetime-penalized when battery_budget_j > 0.
  DesignObjective objective;
  std::size_t starts = 8;    ///< total starts (>= 1; 0 is clamped to 1)
  std::size_t jobs = 1;      ///< ParallelRunner width (0 = auto)
  AnnealingSchedule anneal;  ///< iterations = 0 disables the anneal stage
  double grasp_jitter = 0.35;///< weight noise amplitude for random starts
  std::uint64_t seed = 1;
  /// Optional precomputed Klein-Ravi tree (start 0's seed); see
  /// HeuristicOptions::klein_ravi_tree. Must outlive the call.
  const graph::SteinerTree* klein_ravi_tree = nullptr;
  /// Optional TerminalRows of `problem` (opt/move_evaluator.hpp); computed
  /// once per call when null. Must outlive the call.
  const TerminalRows* terminal_rows = nullptr;
};

struct PortfolioStart {
  std::string seed_kind;    ///< "klein_ravi" | "mpc" | "kmb" |
                            ///< "random_klein_ravi" | "random_kmb"
  CandidateDesign seeded;   ///< the constructive seed, evaluated
  CandidateDesign improved; ///< after annealing + local search
};

struct PortfolioResult {
  CandidateDesign best;
  std::size_t best_start = 0;
  std::vector<PortfolioStart> starts;  ///< in start order
};

PortfolioResult design_portfolio(const core::NetworkDesignProblem& problem,
                                 const PortfolioOptions& options);

}  // namespace eend::opt
