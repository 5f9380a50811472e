// Random design-problem instances at the paper's §5.2.2 density.
//
// The instance family behind the `design` manifest kind and
// bench_design_portfolio: N nodes placed uniformly in a square field whose
// side follows the huge_field density law (side = 1300 · sqrt(N / 200), so
// per-node neighborhoods match the 200-node large network at every scale),
// re-drawn until connected at max power — the same deterministic placement
// net::place_nodes gives the simulator. The connectivity graph is built
// through the spatial::GridIndex-backed from_positions (O(N·k)), and
// `demand_count` distinct (source, destination) pairs are sampled from a
// forked Rng stream.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/design_problem.hpp"
#include "energy/radio_card.hpp"
#include "phy/position.hpp"

namespace eend::presolve {
struct PresolveResult;
}

namespace eend::opt {

struct DesignInstanceSpec {
  std::size_t node_count = 200;
  std::size_t demand_count = 8;
  std::uint64_t seed = 1;
  double demand_rate = 1.0;    ///< packets per demand over the horizon
  /// Heterogeneous demand weights: demand j carries rate
  /// demand_rate · demand_weights[j % size] (mixed_rate-style cycling).
  /// Empty = homogeneous. These multipliers are the single source of truth
  /// for per-demand load: Eq. 5 scores them through RoutedDemand::packets
  /// and replay/ derives the CBR rate_multipliers from the same values.
  std::vector<double> demand_weights;
  energy::RadioCard card;      ///< defaults to Cabletron
  /// Field side in meters; 0 = the §5.2.2 density law (1300·sqrt(N/200)).
  double field_side = 0.0;
  /// Multiplier on the density-law side when field_side == 0. Values > 1
  /// make instances sparser at every node count — the regime where the
  /// presolve reductions (dead ends, chains) actually fire.
  double field_scale = 1.0;
  /// Run presolve::presolve_design on the built problem. Search is
  /// unaffected; the result feeds the certified lower bound / gap and the
  /// shrink counts of every design row.
  bool presolve = false;

  DesignInstanceSpec();
};

struct DesignInstance {
  core::NetworkDesignProblem problem;
  std::vector<phy::Position> positions;
  double field_side = 0.0;
  /// Non-null iff the spec asked for presolve (shared so cells can copy
  /// instances cheaply; the result is immutable after construction).
  std::shared_ptr<const presolve::PresolveResult> presolve;
};

/// Deterministic in every spec field. Throws CheckError on degenerate specs
/// (node_count < 2, demand_count 0 or more than the distinct pairs).
DesignInstance make_design_instance(const DesignInstanceSpec& spec);

}  // namespace eend::opt
