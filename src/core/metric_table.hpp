// Per-kind metric tables: the single registry of every metric a manifest
// can request. An entry names the metric (manifest and sink key), gives its
// table-banner label, reads its value from one run's record, and says which
// experiment switch it needs. Manifest parsing validates names and needs
// against these arrays, TableSink prints their labels, and ExperimentEngine
// aggregates every metric through its accessor, so a metric added here is
// complete.
#pragma once

#include "analytical/route_energy.hpp"
#include "core/grid_study.hpp"
#include "core/manifest.hpp"
#include "energy/radio_card.hpp"
#include "metrics/run_metrics.hpp"
#include "replay/replay.hpp"

namespace eend::core {

/// The experiment switch a metric needs; without it the value is never
/// computed, so the parser rejects the request.
enum class MetricNeeds { Nothing, Presolve, ReplayEpochs };

/// nullptr when `e` provides `needs`, else the missing setting as manifest
/// text.
inline const char* unmet_need(const Experiment& e, MetricNeeds needs) {
  switch (needs) {
    case MetricNeeds::Nothing: return nullptr;
    case MetricNeeds::Presolve:
      return e.presolve ? nullptr : "\"presolve\": true";
    case MetricNeeds::ReplayEpochs:
      return e.replay_every > 0 ? nullptr : "\"replay_every\" > 0";
  }
  return nullptr;
}

/// One metric of a kind whose per-run record is a `Run`.
template <class Run>
struct Metric {
  const char* name;
  const char* display;
  double (*get)(const Run&);
  MetricNeeds needs = MetricNeeds::Nothing;
};

template <class C, class T>
C class_of(T C::*);

/// Accessor reading the member `M` of a run record as a double.
template <auto M>
double member(const decltype(class_of(M))& run) {
  return static_cast<double>(run.*M);
}

// Per-run records of the kinds whose results are not a library type.

/// One frozen-route grid point (a single analytic "run").
struct GridCell {
  const GridSeries& series;
  const GridPoint& point;
};

/// One Fig. 7 curve point.
struct MoptCell {
  const energy::RadioCard& card;
  double distance_m;
  double rb;
};

/// One searched instance of one design heuristic.
struct DesignSample {
  double total = 0.0, data = 0.0, idle = 0.0, gap = 0.0, relays = 0.0,
         wall = 0.0;
  // Filled only when presolve ran (MetricNeeds::Presolve).
  double lb = 0.0, cert_gap = 0.0, rnodes = 0.0, redges = 0.0;
};

/// One epoch of one churn trace.
struct ChurnSample {
  double warm = 0.0, cold = 0.0, gap = 0.0, events = 0.0, rerouted = 0.0,
         fellback = 0.0, active = 0.0, live = 0.0, warm_wall = 0.0,
         cold_wall = 0.0, replay_gap = 0.0;
};

using SimRun = metrics::RunResult;

/// sweep and density kinds.
inline constexpr Metric<SimRun> kSimMetrics[] = {
    {"delivery_ratio", "delivery ratio", member<&SimRun::delivery_ratio>},
    {"goodput_bit_per_j", "energy goodput (bit/J)",
     member<&SimRun::goodput_bit_per_j>},
    {"transmit_energy_j", "transmit energy (J)",
     member<&SimRun::transmit_energy_j>},
    {"total_energy_j", "total energy (J)", member<&SimRun::total_energy_j>},
    {"control_energy_j", "control energy (J)",
     member<&SimRun::control_energy_j>},
    {"passive_energy_j", "passive energy (J)",
     member<&SimRun::passive_energy_j>},
    {"nodes_carrying_data", "nodes carrying data",
     member<&SimRun::nodes_carrying_data>},
    {"rreq_transmissions", "RREQ transmissions",
     member<&SimRun::rreq_transmissions>},
    {"mac_collisions", "MAC collisions", member<&SimRun::mac_collisions>},
    {"mac_cs_drops", "carrier-sense drops", member<&SimRun::mac_cs_drops>},
    {"mac_defers_exhausted", "MAC defers exhausted",
     member<&SimRun::mac_defers_exhausted>},
    {"mac_stale_bcast_drops", "stale broadcast drops",
     member<&SimRun::mac_stale_bcast_drops>},
    {"mac_unicast_failures", "unicast failures",
     member<&SimRun::mac_unicast_failures>},
    {"average_delay_s", "average delay (s)", member<&SimRun::average_delay_s>},
};

inline constexpr Metric<GridCell> kGridMetrics[] = {
    {"goodput_kbit_per_j", "energy goodput (Kbit/J)",
     [](const GridCell& c) { return c.point.goodput_bit_per_j / 1e3; }},
    {"network_power_w", "network power (W)",
     [](const GridCell& c) { return c.point.network_power_w; }},
    {"data_power_w", "data power (W)",
     [](const GridCell& c) { return c.point.data_power_w; }},
    {"passive_power_w", "passive power (W)",
     [](const GridCell& c) { return c.point.passive_power_w; }},
    {"active_nodes", "active nodes",
     [](const GridCell& c) {
       return static_cast<double>(c.series.active_nodes.size());
     }},
};

inline constexpr Metric<MoptCell> kMoptMetrics[] = {
    {"mopt", "m_opt",
     [](const MoptCell& c) {
       return analytical::mopt_continuous(c.card, c.distance_m, c.rb);
     }},
};

inline constexpr Metric<DesignSample> kDesignMetrics[] = {
    {"eq5_total", "Eq. 5 total cost", member<&DesignSample::total>},
    {"eq5_data", "Eq. 5 data cost", member<&DesignSample::data>},
    {"eq5_idle", "Eq. 5 passive (idle) cost", member<&DesignSample::idle>},
    {"gap_vs_klein_ravi", "gap vs Klein-Ravi (%)", member<&DesignSample::gap>},
    {"relay_nodes", "relay nodes", member<&DesignSample::relays>},
    // Wall time is real elapsed time and therefore NOT covered by the
    // determinism contract — keep it out of golden-pinned manifests.
    {"wall_time_s", "wall time (s)", member<&DesignSample::wall>},
    {"lb", "certified Eq. 5 lower bound",
     member<&DesignSample::lb>, MetricNeeds::Presolve},
    {"certified_gap_pct", "certified gap vs lower bound (%)",
     member<&DesignSample::cert_gap>, MetricNeeds::Presolve},
    {"reduced_nodes", "presolve-removed nodes",
     member<&DesignSample::rnodes>, MetricNeeds::Presolve},
    {"reduced_edges", "presolve-removed edges",
     member<&DesignSample::redges>, MetricNeeds::Presolve},
};

using ReplayRun = replay::ReplayReport;

inline constexpr Metric<ReplayRun> kReplayMetrics[] = {
    {"analytic_eq5_j", "Eq. 5 analytic energy (J)",
     member<&ReplayRun::analytic_energy_j>},
    {"sim_energy_j", "simulated energy (J)", member<&ReplayRun::sim_energy_j>},
    {"analytic_gap_pct", "simulated vs Eq. 5 gap (%)",
     member<&ReplayRun::gap_pct>},
    {"sim_j_per_kbit", "simulated J per delivered Kbit",
     member<&ReplayRun::sim_j_per_kbit>},
    {"delivery_ratio", "delivery ratio", member<&ReplayRun::delivery_ratio>},
    {"first_death_s", "first battery death (s; horizon = none)",
     member<&ReplayRun::first_death_s>},
    {"depleted_nodes", "battery-depleted nodes",
     member<&ReplayRun::depleted_nodes>},
    {"active_nodes", "active nodes", member<&ReplayRun::active_nodes>},
    {"max_node_load_j", "max per-node analytic load (J)",
     member<&ReplayRun::max_node_load_j>},
};

inline constexpr Metric<ChurnSample> kChurnMetrics[] = {
    {"warm_score", "warm-start Eq. 5 score", member<&ChurnSample::warm>},
    {"cold_score", "from-scratch Eq. 5 score", member<&ChurnSample::cold>},
    {"gap_vs_cold_pct", "warm vs from-scratch gap (%)",
     member<&ChurnSample::gap>},
    {"events_applied", "churn events applied", member<&ChurnSample::events>},
    {"rerouted_demands", "demands re-routed", member<&ChurnSample::rerouted>},
    {"fallbacks", "portfolio fallbacks", member<&ChurnSample::fellback>},
    {"active_nodes", "active nodes (warm design)",
     member<&ChurnSample::active>},
    {"live_demands", "live demands", member<&ChurnSample::live>},
    // Wall times are real elapsed time and therefore NOT covered by the
    // determinism contract — keep them out of golden-pinned manifests.
    {"warm_wall_s", "warm re-design latency (s)",
     member<&ChurnSample::warm_wall>},
    {"cold_wall_s", "from-scratch latency (s)",
     member<&ChurnSample::cold_wall>},
    // Zero on epochs that skip the replay validation.
    {"replay_gap_pct", "replayed sim vs Eq. 5 gap (%)",
     member<&ChurnSample::replay_gap>,
     MetricNeeds::ReplayEpochs},
};

}  // namespace eend::core
