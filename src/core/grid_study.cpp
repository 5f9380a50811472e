#include "core/grid_study.hpp"

#include <map>
#include <set>

#include "routing/messages.hpp"

namespace eend::core {

RouteFreeze freeze_routes(const net::ScenarioConfig& scenario,
                          const net::StackSpec& stack) {
  // Base-rate simulation to let routes stabilize.
  net::Network network(scenario, stack);
  const metrics::RunResult base = network.run();

  RouteFreeze out;
  out.label = stack.label;

  const auto positions = net::place_nodes(scenario);
  const auto& card = scenario.card;
  const phy::Propagation prop(card, scenario.prop);

  std::set<mac::NodeId> active;
  for (const auto& [flow, route] : base.flow_routes) {
    (void)flow;
    if (route.size() < 2) continue;
    ++out.routed_flows;
    for (mac::NodeId v : route) active.insert(v);
    for (std::size_t i = 0; i + 1 < route.size(); ++i) {
      const double d = phy::distance(positions[route[i]],
                                     positions[route[i + 1]]);
      const double p =
          stack.tpc ? prop.required_power(d) : card.max_transmit_power();
      out.hops.push_back(FrozenHop{route[i], route[i + 1], p});
    }
  }
  out.active_nodes.assign(active.begin(), active.end());
  return out;
}

GridSeries grid_series_from_freeze(const RouteFreeze& freeze,
                                   const net::ScenarioConfig& scenario,
                                   const net::StackSpec& stack,
                                   const std::vector<double>& rates_pps) {
  GridSeries out;
  out.label = freeze.label;
  out.active_nodes = freeze.active_nodes;

  const std::set<mac::NodeId> active(freeze.active_nodes.begin(),
                                     freeze.active_nodes.end());
  const auto& card = scenario.card;
  const double duty = stack.psm.atim_window_s / stack.psm.beacon_interval_s;

  for (double rate : rates_pps) {
    // Per-hop airtime of one data frame (payload + source-route header +
    // MAC header + PHY/ACK overhead), matching the simulator's accounting.
    GridPoint pt;
    pt.rate_pps = rate;

    std::map<mac::NodeId, double> busy_frac;  // tx+rx time per second
    double data_w = 0.0;
    for (const FrozenHop& h : freeze.hops) {
      const std::uint32_t route_len_bits =
          routing::kRouteEntryBits * 4;  // average source-route header
      const double t = card.tx_duration(scenario.payload_bits +
                                        route_len_bits +
                                        scenario.mac.mac_header_bits) +
                       scenario.mac.frame_overhead_s;
      const double air = rate * t;  // seconds of airtime per second
      data_w += air * (h.tx_power_w + card.p_rx);
      busy_frac[h.from] += air;
      busy_frac[h.to] += air;
    }
    pt.data_power_w = data_w;

    // Passive power by scheduling model.
    double passive_w = 0.0;
    auto busy = [&](mac::NodeId v) {
      const auto it = busy_frac.find(v);
      return it == busy_frac.end() ? 0.0 : std::min(1.0, it->second);
    };
    switch (stack.power) {
      case net::PowerKind::PerfectSleep:
        for (mac::NodeId v = 0; v < scenario.node_count; ++v)
          passive_w += card.p_sleep * (1.0 - busy(v));
        break;
      case net::PowerKind::AlwaysActive:
        for (mac::NodeId v = 0; v < scenario.node_count; ++v)
          passive_w += card.p_idle * (1.0 - busy(v));
        break;
      case net::PowerKind::Odpm:
      case net::PowerKind::AlwaysPsm:
        for (mac::NodeId v = 0; v < scenario.node_count; ++v) {
          if (active.count(v) > 0) {
            passive_w += card.p_idle * (1.0 - busy(v));
          } else {
            passive_w += card.p_idle * duty + card.p_sleep * (1.0 - duty);
          }
        }
        break;
    }
    pt.passive_power_w = passive_w;
    pt.network_power_w = data_w + passive_w;

    const double delivered_bits_per_s =
        static_cast<double>(freeze.routed_flows) * rate *
        static_cast<double>(scenario.payload_bits);
    pt.goodput_bit_per_j = pt.network_power_w > 0.0
                               ? delivered_bits_per_s / pt.network_power_w
                               : 0.0;
    out.points.push_back(pt);
  }
  return out;
}

GridSeries grid_series(const net::ScenarioConfig& scenario,
                       const net::StackSpec& stack,
                       const std::vector<double>& rates_pps) {
  return grid_series_from_freeze(freeze_routes(scenario, stack), scenario,
                                 stack, rates_pps);
}

}  // namespace eend::core
