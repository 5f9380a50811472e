// Churn traces: deterministic time-varying perturbations of a design
// instance — the serving-loop workload (ROADMAP: "dynamic scenarios +
// incremental re-design").
//
// A trace is a schedule of perturbation events over discrete epochs. Epoch
// 0 is the untouched instance (the cold design); every later epoch applies
// a batch of events — demand arrivals and departures, piecewise rate swings
// layered onto the demand weights, scheduled node failures, and waypoint
// node motion — and yields a perturbed NetworkDesignProblem for the
// incremental designer (opt/warm_start.hpp) to repair against.
//
// Two sources of events share one application path:
//   * generated — drawn per epoch from a core::Rng stream forked on
//     (seed, epoch), so a trace is deterministic in its TraceSpec alone and
//     independent of --jobs or evaluation order;
//   * explicit — a validated schedule from the manifest (`schedule` key),
//     applied verbatim.
//
// Feasibility contract: ChurnState only ever exposes routable problems.
// Generated failures/moves that would strand a demand are redrawn or
// skipped; explicit events that do so throw CheckError (the manifest layer
// statically rejects what it can — endpoint failures, bad indices — and
// this runtime check catches graph-dependent breakage).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/design_problem.hpp"
#include "energy/radio_card.hpp"
#include "opt/design_instance.hpp"
#include "phy/position.hpp"

namespace eend::churn {

enum class EventOp { Arrive, Depart, RateSwing, Fail, Move };

const char* event_op_name(EventOp op);
EventOp event_op_from_name(const std::string& name);

/// One perturbation. Only the fields its op reads are meaningful:
///   Arrive    source, destination, weight (rate = demand_rate · weight)
///   Depart    demand (index into the live demand list at application time)
///   RateSwing demand, factor (rate = demand_rate · base weight · factor)
///   Fail      node (radio dark: isolated in the graph, fed to
///             powered_off_nodes on replay epochs)
///   Move      node, x, y (absolute position; topology rebuilt through the
///             spatial::GridIndex-backed construction)
struct Event {
  EventOp op = EventOp::Arrive;
  graph::NodeId node = 0;
  std::size_t demand = 0;
  graph::NodeId source = 0;
  graph::NodeId destination = 0;
  double weight = 1.0;
  double factor = 1.0;
  double x = 0.0;
  double y = 0.0;
};

/// Explicit-schedule entry: the events applied when epoch `at` begins.
struct EpochEvents {
  std::size_t at = 0;  ///< epoch index, in [1, epochs)
  std::vector<Event> events;
};

/// Full trace description — the generator knobs, or an explicit schedule
/// (non-empty `schedule` makes the generator knobs inert; the manifest
/// layer rejects manifests that set both).
struct TraceSpec {
  std::size_t epochs = 8;           ///< total epochs incl. epoch 0
  std::size_t arrivals_per_epoch = 1;
  std::size_t departures_per_epoch = 1;
  std::size_t swings_per_epoch = 1;
  std::size_t failures_per_epoch = 0;
  double rate_swing = 0.5;          ///< factor drawn in [1−s, 1+s]
  double move_fraction = 0.0;       ///< fraction of nodes moved per epoch
  double move_sigma_m = 50.0;       ///< Gaussian waypoint step (meters)
  std::uint64_t seed = 1;
  std::vector<EpochEvents> schedule;  ///< explicit; sorted by `at`
};

/// What one epoch did to the instance — the warm-start locality signal.
struct EpochDelta {
  std::vector<Event> applied;
  /// Nodes the events referenced (failed, moved, endpoints of arrived /
  /// departed / swung demands), sorted unique. The incremental designer
  /// grows its repair region from these.
  std::vector<graph::NodeId> touched_nodes;
  /// True when the connectivity graph changed (failure or motion) — route
  /// caches over the previous graph are then invalid.
  bool topology_changed = false;
};

/// The live, mutable instance a churn trace evolves: current positions,
/// failed set and demand list, with the connectivity graph (failed nodes
/// isolated, ids stable) kept equal to a from-scratch build over them. A
/// failure drops the node's edges from the live graph (positions have not
/// moved, so that is the rebuild's edge list); motion rebuilds through the
/// spatial index. A topology change is taken only when every live demand
/// stays routable (one graph::demands_satisfiable pass: on the live graph
/// with the failing node masked, or on the rebuilt graph for motion), so
/// a rejected failure or motion batch leaves the live problem as it was.
/// With no failures and untouched positions the graph is bit-identical to
/// NetworkDesignProblem::from_positions on the same inputs.
class ChurnState {
 public:
  /// Start from an untouched instance (epoch 0). `spec` supplies the card,
  /// base demand rate and the weight cycle future arrivals continue.
  ChurnState(const opt::DesignInstance& instance,
             const opt::DesignInstanceSpec& spec);

  /// Apply epoch `epoch` (>= 1): the explicit schedule's events when
  /// `trace.schedule` is non-empty, otherwise generated events from the
  /// (trace.seed, epoch)-forked stream. Deterministic; returns the delta.
  EpochDelta advance(const TraceSpec& trace, std::size_t epoch);

  /// Current perturbed problem: graph over the live topology plus the live
  /// demand list. Always routable.
  const core::NetworkDesignProblem& problem() const { return problem_; }
  const std::vector<phy::Position>& positions() const { return positions_; }
  /// Failed node ids, sorted ascending (feeds powered_off_nodes on replay
  /// epochs alongside the design's inactive complement).
  std::vector<graph::NodeId> failed_nodes() const;
  double field_side() const { return field_side_; }
  const energy::RadioCard& card() const { return card_; }

 private:
  void apply(const Event& ev, EpochDelta& delta);
  graph::Graph build_graph() const;
  void adopt(graph::Graph g);
  bool adopt_if_routable(graph::Graph g);
  bool try_fail(graph::NodeId v);
  bool is_endpoint(graph::NodeId v) const;
  void touch(EpochDelta& delta, graph::NodeId v) const;

  core::NetworkDesignProblem problem_;
  std::vector<phy::Position> positions_;
  std::vector<char> failed_;
  /// Per-live-demand base weight (demand j's swing-free rate is
  /// demand_rate_ · base_weights_[j]); erased in lockstep with departures.
  std::vector<double> base_weights_;
  std::vector<double> weight_cycle_;  ///< arrival weights, cycled
  std::size_t arrivals_seen_ = 0;     ///< cycle position (starts past the
                                      ///< instance's initial demands)
  double demand_rate_ = 1.0;
  double field_side_ = 0.0;
  energy::RadioCard card_;
};

}  // namespace eend::churn
