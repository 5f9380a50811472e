// The §5.2.3 hypothetical-card study (Figs. 13-16).
//
// Paper methodology: simulate the 7x7 grid at a low base rate until routes
// stabilize, then freeze those routes and compute E_network analytically
// for higher rates ("we find the time when the routes stabilize for the
// 2 Kbit/s and use these routes to calculate E_network for higher rates"),
// under two sleep-scheduling models:
//   * perfect sleep — every node pays sleep power whenever it is not
//     transmitting or receiving;
//   * ODPM          — nodes on routes idle (in expectation of traffic);
//     all other nodes follow the PSM beacon/ATIM duty cycle;
//   * always-active — the DSR-Active baseline: everyone idles.
//
// The base-rate simulation (freeze_routes) is the expensive half, and it
// depends only on (scenario, stack) — never on the rate axis. The analytic
// re-costing (grid_series_from_freeze) is pure, so one freeze serves any
// number of rate axes. ExperimentEngine keeps the freezes it has made,
// keyed by the (ScenarioConfig, StackSpec) pair under their defaulted
// operator==, so the four Fig 13-16 experiments of one manifest share one
// simulation per pair. grid_series() shares nothing: one call, one
// simulation.
#pragma once

#include <string>
#include <vector>

#include "net/network.hpp"

namespace eend::core {

struct GridPoint {
  double rate_pps = 0.0;
  double goodput_bit_per_j = 0.0;
  double network_power_w = 0.0;  ///< E_network per second at this rate
  double data_power_w = 0.0;
  double passive_power_w = 0.0;
};

struct GridSeries {
  std::string label;
  std::vector<mac::NodeId> active_nodes;  ///< nodes on frozen routes
  std::vector<GridPoint> points;
};

/// One frozen hop with the data transmit power in use on it.
struct FrozenHop {
  mac::NodeId from;
  mac::NodeId to;
  double tx_power_w;
};

/// The frozen outcome of one base-rate simulation.
struct RouteFreeze {
  std::string label;                      ///< stack label
  std::vector<mac::NodeId> active_nodes;  ///< nodes on frozen routes
  std::vector<FrozenHop> hops;
  std::size_t routed_flows = 0;
};

/// Run the base-rate simulation for `stack` and freeze its routes.
RouteFreeze freeze_routes(const net::ScenarioConfig& scenario,
                          const net::StackSpec& stack);

/// Analytic goodput series over `rates_pps` for an existing freeze. Pure
/// (no simulation); the sleep-scheduling model derives from stack.power.
GridSeries grid_series_from_freeze(const RouteFreeze& freeze,
                                   const net::ScenarioConfig& scenario,
                                   const net::StackSpec& stack,
                                   const std::vector<double>& rates_pps);

/// freeze_routes + grid_series_from_freeze: one simulation per call.
GridSeries grid_series(const net::ScenarioConfig& scenario,
                       const net::StackSpec& stack,
                       const std::vector<double>& rates_pps);

}  // namespace eend::core
