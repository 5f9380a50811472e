#include "replay/realization.hpp"

#include <algorithm>

#include "analytical/design_eval.hpp"

namespace eend::replay {

ReplaySettings::ReplaySettings() : stack(net::StackSpec::dsr_active()) {}

analytical::Eq5Params replay_eq5_params(const ReplaySettings& settings,
                                        const energy::RadioCard& card) {
  EEND_REQUIRE_MSG(settings.duration_s > 0.0, "duration must be positive");
  EEND_REQUIRE_MSG(settings.rate_pps > 0.0, "rate must be positive");
  EEND_REQUIRE_MSG(card.bandwidth_bps > 0.0, "bandwidth must be positive");
  const double mean_start =
      0.5 * (settings.flow_start_min_s + settings.flow_start_max_s);
  const double active_window =
      std::max(0.0, settings.duration_s - mean_start);
  analytical::Eq5Params p;
  p.t_idle = settings.duration_s;
  p.t_data_per_packet = (static_cast<double>(settings.payload_bits) /
                         card.bandwidth_bps) *
                        settings.rate_pps * active_window;
  p.include_endpoint_idle = true;
  return p;
}

namespace {

/// Shared tail of both realization entry points: traffic wiring, power
/// masking, validation, the demand/flow cross-check and the analytic side.
/// `sc` arrives with topology + execution knobs set; `card` is the radio
/// the analytic parameters scale against.
DesignRealization finish_realization(net::ScenarioConfig sc,
                                     const core::NetworkDesignProblem& problem,
                                     const opt::CandidateDesign& design,
                                     const ReplaySettings& settings,
                                     const energy::RadioCard& card) {
  EEND_REQUIRE_MSG(design.feasible,
                   "cannot realize an infeasible design (some demand was "
                   "unroutable in its node set)");
  DesignRealization out;

  // ---- traffic: one CBR flow per demand, in demand order. The demand's
  // rate multiplier is the single source of truth — it already drove the
  // Eq. 5 data term through RoutedDemand::packets, and here it becomes the
  // mixed_rate-style multiplier the generators cycle through.
  const auto& demands = problem.demands();
  EEND_REQUIRE_MSG(!demands.empty(), "instance has no demands to realize");
  sc.flow_count = demands.size();
  sc.flow_endpoints.reserve(demands.size());
  sc.rate_multipliers.reserve(demands.size());
  for (const graph::Demand& d : demands) {
    sc.flow_endpoints.emplace_back(d.source, d.destination);
    sc.rate_multipliers.push_back(d.rate);
  }

  // ---- power: everything outside the design's active set goes dark.
  std::vector<char> active(sc.node_count, 0);
  for (const graph::NodeId v : design.nodes) {
    EEND_REQUIRE_MSG(v < sc.node_count, "design node " << v
                     << " out of range for node_count " << sc.node_count);
    active[v] = 1;
  }
  for (std::size_t id = 0; id < sc.node_count; ++id)
    if (!active[id]) sc.powered_off_nodes.push_back(id);
  out.active_nodes = design.nodes.size();
  out.powered_off_nodes = sc.powered_off_nodes.size();

  sc.validate();

  // ---- cross-check: the realized flows must agree with the demands 1:1,
  // or the simulation would silently meter different traffic than the one
  // the search optimized.
  const std::vector<traffic::FlowSpec> flows = net::make_flows(sc);
  EEND_CHECK_MSG(flows.size() == demands.size(),
                 "realized " << flows.size() << " flows for "
                             << demands.size() << " demands");
  for (std::size_t j = 0; j < demands.size(); ++j) {
    EEND_CHECK_MSG(flows[j].source == demands[j].source &&
                       flows[j].destination == demands[j].destination,
                   "flow " << j << " endpoints (" << flows[j].source << " -> "
                           << flows[j].destination
                           << ") disagree with demand (" << demands[j].source
                           << " -> " << demands[j].destination << ")");
    EEND_CHECK_MSG(flows[j].packets_per_s ==
                       settings.rate_pps * demands[j].rate,
                   "flow " << j << " rate " << flows[j].packets_per_s
                           << " != rate_pps * demand multiplier "
                           << settings.rate_pps * demands[j].rate);
  }

  // ---- analytic side under the joule-scaled parameters.
  const analytical::Eq5Params eq5 = replay_eq5_params(settings, card);
  auto routes = problem.try_route_in_subgraph(design.nodes);
  EEND_CHECK_MSG(routes.has_value(),
                 "feasible design failed to re-route during realization");
  out.routes = std::move(*routes);
  out.analytic = problem.evaluate_routes(out.routes, eq5);
  const std::vector<double> loads =
      opt::node_energy_loads(problem.graph(), out.routes, eq5);
  for (const double l : loads)
    out.max_node_load_j = std::max(out.max_node_load_j, l);

  out.scenario = std::move(sc);
  return out;
}

}  // namespace

DesignRealization realize_design(const opt::DesignInstanceSpec& spec,
                                 const opt::DesignInstance& instance,
                                 const opt::CandidateDesign& design,
                                 const ReplaySettings& settings) {
  EEND_REQUIRE_MSG(instance.positions.size() == spec.node_count,
                   "instance/spec mismatch: " << instance.positions.size()
                   << " positions for node_count " << spec.node_count);

  // ---- scenario skeleton: same placement inputs as make_design_instance,
  // so place_nodes reproduces the instance field exactly.
  net::ScenarioConfig sc;
  sc.node_count = spec.node_count;
  sc.field_w = sc.field_h = instance.field_side;
  sc.card = spec.card;
  sc.seed = spec.seed;
  sc.duration_s = settings.duration_s;
  sc.rate_pps = settings.rate_pps;
  sc.payload_bits = settings.payload_bits;
  sc.flow_start_min_s = settings.flow_start_min_s;
  sc.flow_start_max_s = settings.flow_start_max_s;
  sc.battery_capacity_j = settings.battery_capacity_j;

  // ---- cross-check: the realized scenario must regenerate the instance
  // bit-for-bit, or the simulation would silently measure a different
  // network than the one the search optimized.
  const std::vector<phy::Position> placed = net::place_nodes(sc);
  EEND_CHECK_MSG(placed.size() == instance.positions.size(),
                 "realized placement has " << placed.size()
                 << " nodes, instance has " << instance.positions.size());
  for (std::size_t i = 0; i < placed.size(); ++i)
    EEND_CHECK_MSG(placed[i].x == instance.positions[i].x &&
                       placed[i].y == instance.positions[i].y,
                   "realized position of node "
                       << i << " (" << placed[i].x << ", " << placed[i].y
                       << ") != instance position ("
                       << instance.positions[i].x << ", "
                       << instance.positions[i].y
                       << ") — seed/field/card drift between the design "
                          "instance and its realization");

  return finish_realization(std::move(sc), instance.problem, design,
                            settings, spec.card);
}

DesignRealization realize_design_at(
    const std::vector<phy::Position>& positions, double field_side,
    const energy::RadioCard& card, std::uint64_t seed,
    const core::NetworkDesignProblem& problem,
    const opt::CandidateDesign& design, const ReplaySettings& settings) {
  EEND_REQUIRE_MSG(!positions.empty(), "no positions to realize");
  EEND_REQUIRE_MSG(positions.size() == problem.graph().node_count(),
                   "positions/problem mismatch: " << positions.size()
                   << " positions for a " << problem.graph().node_count()
                   << "-node graph");
  EEND_REQUIRE_MSG(field_side > 0.0, "field side must be positive");

  net::ScenarioConfig sc;
  sc.node_count = positions.size();
  sc.field_w = sc.field_h = field_side;
  sc.card = card;
  sc.seed = seed;
  sc.explicit_positions = positions;
  sc.duration_s = settings.duration_s;
  sc.rate_pps = settings.rate_pps;
  sc.payload_bits = settings.payload_bits;
  sc.flow_start_min_s = settings.flow_start_min_s;
  sc.flow_start_max_s = settings.flow_start_max_s;
  sc.battery_capacity_j = settings.battery_capacity_j;

  return finish_realization(std::move(sc), problem, design, settings, card);
}

}  // namespace eend::replay
