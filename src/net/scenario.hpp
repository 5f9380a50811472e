// Scenario configuration and node/flow placement.
//
// Placement is deterministic per (seed, node index): node i's position is
// drawn from an rng stream forked on i, so growing a 300-node network to
// 400 nodes leaves the first 300 positions — and any flow endpoints chosen
// among them — untouched. This is exactly the paper's Table 2 methodology
// ("without changing the positions of source and destination nodes").
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "energy/radio_card.hpp"
#include "mac/mac.hpp"
#include "phy/position.hpp"
#include "phy/propagation.hpp"
#include "traffic/cbr.hpp"
#include "util/rng.hpp"

namespace eend::net {

enum class Placement { UniformRandom, Grid };

struct ScenarioConfig {
  // topology
  std::size_t node_count = 50;
  double field_w = 500.0;
  double field_h = 500.0;
  Placement placement = Placement::UniformRandom;
  std::size_t grid_cols = 7;  ///< for Placement::Grid
  std::size_t grid_rows = 7;
  energy::RadioCard card;     ///< defaults to Cabletron (set in ctor)
  phy::PropagationConfig prop;

  // traffic
  std::size_t flow_count = 10;
  double rate_pps = 2.0;             ///< packets/s (paper: Kbit/s == pkt/s)
  std::uint32_t payload_bits = 1024; ///< 128-byte packets
  double flow_start_min_s = 20.0;
  double flow_start_max_s = 25.0;
  /// When > 0, flow endpoints are sampled only from the first K node ids
  /// (density-sweep consistency). 0 = all nodes.
  std::size_t flow_endpoint_pool = 0;
  /// Heterogeneous traffic: flow j sends at rate_pps * rate_multipliers[j %
  /// size]. Empty = homogeneous (every flow at rate_pps, the paper's setup).
  /// Rate sweeps scale the whole mix, so "rate" stays the x-axis.
  std::vector<double> rate_multipliers;
  /// Grid studies: flow j runs from the left edge of row j to its right
  /// edge (paper §5.2.3) instead of random endpoints.
  bool flows_left_right = false;
  /// Design-driven traffic (the replay/ subsystem): when non-empty, flow j
  /// is exactly (source, destination) = flow_endpoints[j] — one CBR flow
  /// per design demand, in demand order — instead of randomly sampled
  /// endpoints. Rates still come from rate_pps · rate_multipliers[j % size]
  /// and start times from the usual seeded window, so a replayed design
  /// shares every traffic knob with the organic scenarios. flow_count is
  /// ignored (the endpoint list defines the flows).
  std::vector<std::pair<std::size_t, std::size_t>> flow_endpoints;

  // topology, continued
  /// Authoritative node positions (the churn/ subsystem maps a perturbed —
  /// possibly moved — topology here): when non-empty, place_nodes returns
  /// them verbatim instead of drawing from the seed, so a scenario can
  /// replay a field whose positions no seeded draw reproduces. Size must
  /// equal node_count; connectivity is the caller's responsibility (churn
  /// traces only emit routable topologies).
  std::vector<phy::Position> explicit_positions;
  /// Nodes powered off for the whole run (the replay/ subsystem maps a
  /// design's inactive node set here): their radios are failed before t=0,
  /// they are excluded from energy metering entirely (a powered-off
  /// interface draws nothing — unlike sleep), and they never count toward
  /// battery deaths. Ids must be in range and unique; no flow may end at
  /// one (explicit flow_endpoints and left->right grid flows are rejected
  /// by validate(), randomly sampled endpoints skip them in the draw).
  std::vector<std::size_t> powered_off_nodes;

  // execution
  double duration_s = 900.0;
  std::uint64_t seed = 1;
  mac::MacConfig mac;

  // --- lifetime extension (paper future work: "incorporating lifetime
  // constraints"). With a finite per-node battery, a node whose consumed
  // energy reaches the capacity dies (radio goes dark); RunResult reports
  // first-death time and the depleted-node count. 0 = infinite battery.
  double battery_capacity_j = 0.0;
  double battery_check_interval_s = 1.0;

  ScenarioConfig();

  bool operator==(const ScenarioConfig&) const = default;

  /// Throws CheckError on nonsensical configurations (non-positive rates,
  /// durations, fields, zero-size grids, flow windows outside the run…).
  /// Network's constructor calls this; harness code may call it earlier.
  void validate() const;

  // ---- paper scenario presets ----
  static ScenarioConfig small_network();   ///< §5.2.1: 50 nodes, 500x500
  static ScenarioConfig large_network();   ///< §5.2.2: 200 nodes, 1300x1300
  static ScenarioConfig density_network(std::size_t nodes);  ///< Table 2
  static ScenarioConfig hypothetical_grid();  ///< §5.2.3: 7x7, 300x300
  /// Beyond the paper: 1k-10k nodes with the field scaled to hold the
  /// large-network density constant (side = 1300 * sqrt(nodes / 200)), so
  /// the per-node neighborhood — and hence the MAC contention regime —
  /// matches §5.2.2 while the topology grows. Requires the channel's
  /// spatial index to be tractable.
  static ScenarioConfig huge_field(std::size_t nodes);
};

/// Deterministic node placement for a scenario. Uniform-random placements
/// are retried with a salted seed until the max-power connectivity graph is
/// connected (disconnected layouts cannot satisfy arbitrary demands).
std::vector<phy::Position> place_nodes(const ScenarioConfig& cfg);

/// Deterministic flow selection (random distinct endpoints, or left->right
/// pairs for grid scenarios).
std::vector<traffic::FlowSpec> make_flows(const ScenarioConfig& cfg);

}  // namespace eend::net
