#include "opt/annealing.hpp"

#include <cmath>
#include <cstdint>

#include "obs/counters.hpp"
#include "opt/move_evaluator.hpp"
#include "util/rng.hpp"

namespace eend::opt {

CandidateDesign simulated_annealing(const core::NetworkDesignProblem& problem,
                                    const CandidateDesign& start,
                                    const DesignObjective& objective,
                                    const AnnealingSchedule& schedule,
                                    std::uint64_t seed,
                                    const TerminalRows* rows) {
  EEND_REQUIRE_MSG(start.feasible, "annealing needs a feasible seed");
  Rng rng = Rng(seed).fork(0xA44E);
  MoveEvaluator ev(problem, objective, start, nullptr, rows);
  MoveEvaluator::Scored cand;
  CandidateDesign best = start;
  const double t0 = schedule.initial_temp_frac * start.cost();
  double temp = t0;
  std::uint64_t proposals = 0, accepted = 0, improved = 0;

  for (std::size_t it = 0; it < schedule.iterations;
       ++it, temp *= schedule.cooling) {
    // Draw a family, then a move from the incumbent's surface: relays
    // (closable), frontier (openable), per-relay inactive neighbours
    // (exchangeable).
    const MoveSurface& s = ev.surface();
    Move m;
    const std::uint64_t family = rng.next_below(3);
    if (family == 0) {  // relay removal
      if (s.relays.empty()) continue;
      m.close = s.relays[rng.next_below(s.relays.size())];
    } else if (family == 1) {  // Steiner insertion
      if (s.frontier.empty()) continue;
      m.open = s.frontier[rng.next_below(s.frontier.size())];
    } else {  // relay exchange
      if (s.relays.empty()) continue;
      const std::size_t k = rng.next_below(s.relays.size());
      const auto swaps = s.swaps_of(k);
      if (swaps.empty()) continue;
      m.close = s.relays[k];
      m.open = swaps[rng.next_below(swaps.size())];
    }

    ev.score(m, cand);
    if (!cand.design.feasible) continue;
    ++proposals;
    const double delta = cand.design.cost() - ev.incumbent().cost();
    const bool accept =
        delta <= 0.0 ||
        (temp > 0.0 && rng.uniform() < std::exp(-delta / temp));
    if (!accept) continue;
    ++accepted;
    // Acceptance curve: which schedule decile accepted moves land in (the
    // histogram shape shows whether cooling freezes the walk too early).
    obs::observe("opt.sa.accept_decile",
                 schedule.iterations == 0 ? 0 : it * 10 / schedule.iterations);
    ev.adopt(cand);  // the candidate's routes become the incumbent's
    if (ev.incumbent().cost() < best.cost()) {
      best = ev.incumbent();
      ++improved;
    }
  }
  obs::count("opt.sa.calls");
  obs::count("opt.sa.proposals", proposals);
  obs::count("opt.sa.accepted", accepted);
  obs::count("opt.sa.improved", improved);
  return best;
}

}  // namespace eend::opt
