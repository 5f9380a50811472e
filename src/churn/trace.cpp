#include "churn/trace.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "graph/connectivity.hpp"
#include "obs/counters.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace eend::churn {

const char* event_op_name(EventOp op) {
  switch (op) {
    case EventOp::Arrive: return "arrive";
    case EventOp::Depart: return "depart";
    case EventOp::RateSwing: return "rate";
    case EventOp::Fail: return "fail";
    case EventOp::Move: return "move";
  }
  EEND_REQUIRE_MSG(false, "unhandled EventOp");
  return "";
}

EventOp event_op_from_name(const std::string& name) {
  if (name == "arrive") return EventOp::Arrive;
  if (name == "depart") return EventOp::Depart;
  if (name == "rate") return EventOp::RateSwing;
  if (name == "fail") return EventOp::Fail;
  if (name == "move") return EventOp::Move;
  EEND_REQUIRE_MSG(false, "unknown churn event op \"" << name
                   << "\" (expected arrive, depart, rate, fail or move)");
  return EventOp::Arrive;
}

ChurnState::ChurnState(const opt::DesignInstance& instance,
                       const opt::DesignInstanceSpec& spec)
    : problem_(instance.problem),
      positions_(instance.positions),
      failed_(instance.positions.size(), 0),
      weight_cycle_(spec.demand_weights),
      arrivals_seen_(spec.demand_count),
      demand_rate_(spec.demand_rate),
      field_side_(instance.field_side),
      card_(spec.card) {
  EEND_REQUIRE_MSG(!problem_.demands().empty(),
                   "churn needs an instance with at least one demand");
  // Mirror make_design_instance's weight cycling so swings can restore a
  // demand's base rate exactly.
  base_weights_.reserve(problem_.demands().size());
  for (std::size_t j = 0; j < problem_.demands().size(); ++j)
    base_weights_.push_back(weight_cycle_.empty()
                                ? 1.0
                                : weight_cycle_[j % weight_cycle_.size()]);
}

std::vector<graph::NodeId> ChurnState::failed_nodes() const {
  std::vector<graph::NodeId> out;
  for (graph::NodeId v = 0; v < failed_.size(); ++v)
    if (failed_[v]) out.push_back(v);
  return out;
}

bool ChurnState::is_endpoint(graph::NodeId v) const {
  for (const graph::Demand& d : problem_.demands())
    if (d.source == v || d.destination == v) return true;
  return false;
}

void ChurnState::touch(EpochDelta& delta, graph::NodeId v) const {
  delta.touched_nodes.push_back(v);
}

/// Take `g`, over the current positions and failed set, as the live graph.
void ChurnState::adopt(graph::Graph g) {
  std::vector<graph::Demand> demands = problem_.demands();
  problem_ = core::NetworkDesignProblem(std::move(g));
  problem_.set_demands(std::move(demands));
}

/// adopt(g) when every live demand stays routable on it; otherwise keep
/// the current problem untouched. The check runs on `g` itself, so a
/// rejected graph never becomes a problem (whose constructor indexes it).
bool ChurnState::adopt_if_routable(graph::Graph g) {
  if (!graph::demands_satisfiable(g, problem_.demands())) return false;
  adopt(std::move(g));
  return true;
}

/// The connectivity graph over the current positions with failed nodes
/// isolated. An empty failed set gives from_positions' graph bit-for-bit
/// (churn_test pins this).
graph::Graph ChurnState::build_graph() const {
  return core::NetworkDesignProblem::connectivity_graph(positions_, card_,
                                                        failed_);
}

/// Fail `v` unless that strands a live demand, asked on the live graph
/// with the failed set masked. Positions are those the live graph was
/// built over, so build_graph() would give exactly its edges minus v's, in
/// the same order with the same weights: an accepted failure filters them.
bool ChurnState::try_fail(graph::NodeId v) {
  const graph::Graph& live = problem_.graph();
  failed_[v] = 1;
  if (!graph::demands_satisfiable(live, problem_.demands(), failed_)) {
    failed_[v] = 0;
    return false;
  }
  graph::Graph g(live.node_count());
  for (graph::NodeId u = 0; u < live.node_count(); ++u)
    g.set_node_weight(u, live.node_weight(u));
  for (const graph::Edge& e : live.edges())
    if (e.u != v && e.v != v) g.add_edge(e.u, e.v, e.weight);
  adopt(std::move(g));
  return true;
}

/// Apply one *validated-at-runtime* event: explicit-schedule events land
/// here directly (throwing CheckError on graph-dependent breakage the
/// manifest could not see), and the generator only feeds events it already
/// proved feasible.
void ChurnState::apply(const Event& ev, EpochDelta& delta) {
  const std::size_t n = positions_.size();
  std::vector<graph::Demand> demands = problem_.demands();
  switch (ev.op) {
    case EventOp::Fail: {
      EEND_REQUIRE_MSG(ev.node < n, "fail: node " << ev.node
                       << " out of range for node_count " << n);
      EEND_REQUIRE_MSG(!failed_[ev.node],
                       "fail: node " << ev.node << " is already failed");
      EEND_REQUIRE_MSG(!is_endpoint(ev.node),
                       "fail: node " << ev.node
                       << " is a live demand endpoint");
      EEND_REQUIRE_MSG(try_fail(ev.node), "fail: losing node "
                       << ev.node << " strands a live demand");
      touch(delta, ev.node);
      delta.topology_changed = true;
      break;
    }
    case EventOp::Move: {
      EEND_REQUIRE_MSG(ev.node < n, "move: node " << ev.node
                       << " out of range for node_count " << n);
      EEND_REQUIRE_MSG(!failed_[ev.node],
                       "move: node " << ev.node << " is failed");
      positions_[ev.node] = phy::Position{ev.x, ev.y};
      EEND_REQUIRE_MSG(adopt_if_routable(build_graph()),
                       "move: relocating node "
                       << ev.node << " strands a live demand");
      touch(delta, ev.node);
      delta.topology_changed = true;
      break;
    }
    case EventOp::Arrive: {
      EEND_REQUIRE_MSG(ev.source < n && ev.destination < n,
                       "arrive: endpoint (" << ev.source << ", "
                       << ev.destination << ") out of range for node_count "
                       << n);
      EEND_REQUIRE_MSG(ev.source != ev.destination,
                       "arrive: demand (" << ev.source << ", " << ev.source
                       << ") is a self-loop");
      EEND_REQUIRE_MSG(!failed_[ev.source] && !failed_[ev.destination],
                       "arrive: demand (" << ev.source << ", "
                       << ev.destination << ") uses a failed node");
      EEND_REQUIRE_MSG(ev.weight > 0.0 && std::isfinite(ev.weight),
                       "arrive: weight must be positive and finite, got "
                       << ev.weight);
      for (const graph::Demand& d : demands)
        EEND_REQUIRE_MSG(
            !(d.source == ev.source && d.destination == ev.destination),
            "arrive: demand (" << ev.source << ", " << ev.destination
            << ") already live");
      demands.push_back(graph::Demand{ev.source, ev.destination,
                                      demand_rate_ * ev.weight});
      EEND_REQUIRE_MSG(graph::demands_satisfiable(problem_.graph(), demands),
                       "arrive: demand (" << ev.source << ", "
                       << ev.destination << ") is unroutable");
      base_weights_.push_back(ev.weight);
      problem_.set_demands(std::move(demands));
      touch(delta, ev.source);
      touch(delta, ev.destination);
      break;
    }
    case EventOp::Depart: {
      EEND_REQUIRE_MSG(ev.demand < demands.size(),
                       "depart: demand index " << ev.demand
                       << " out of range (" << demands.size() << " live)");
      EEND_REQUIRE_MSG(demands.size() > 1,
                       "depart: cannot remove the last live demand");
      touch(delta, demands[ev.demand].source);
      touch(delta, demands[ev.demand].destination);
      demands.erase(demands.begin() +
                    static_cast<std::ptrdiff_t>(ev.demand));
      base_weights_.erase(base_weights_.begin() +
                          static_cast<std::ptrdiff_t>(ev.demand));
      problem_.set_demands(std::move(demands));
      break;
    }
    case EventOp::RateSwing: {
      EEND_REQUIRE_MSG(ev.demand < demands.size(),
                       "rate: demand index " << ev.demand
                       << " out of range (" << demands.size() << " live)");
      EEND_REQUIRE_MSG(ev.factor > 0.0 && std::isfinite(ev.factor),
                       "rate: factor must be positive and finite, got "
                       << ev.factor);
      demands[ev.demand].rate =
          demand_rate_ * base_weights_[ev.demand] * ev.factor;
      touch(delta, demands[ev.demand].source);
      touch(delta, demands[ev.demand].destination);
      problem_.set_demands(std::move(demands));
      break;
    }
  }
  delta.applied.push_back(ev);
}

EpochDelta ChurnState::advance(const TraceSpec& trace, std::size_t epoch) {
  EEND_REQUIRE_MSG(epoch >= 1 && epoch < trace.epochs,
                   "epoch " << epoch << " outside [1, " << trace.epochs
                   << ") — epoch 0 is the untouched instance");
  EpochDelta delta;
  const std::size_t n = positions_.size();
  std::uint64_t redrawn = 0;  // rejected candidate draws (generated traces)

  if (!trace.schedule.empty()) {
    for (const EpochEvents& ee : trace.schedule)
      if (ee.at == epoch)
        for (const Event& ev : ee.events) apply(ev, delta);
  } else {
    Rng rng = Rng(trace.seed).fork(0xC42A).fork(epoch);

    // Failures first (they shrink the topology every later draw sees).
    // Candidates that are endpoints, already failed, or whose loss strands
    // a demand are redrawn; a failure slot that finds no viable node after
    // 32 attempts is skipped.
    for (std::size_t k = 0; k < trace.failures_per_epoch; ++k) {
      for (int attempt = 0; attempt < 32; ++attempt) {
        const auto v = static_cast<graph::NodeId>(rng.next_below(n));
        if (failed_[v] || is_endpoint(v)) {
          ++redrawn;
          continue;
        }
        if (try_fail(v)) {
          Event ev;
          ev.op = EventOp::Fail;
          ev.node = v;
          delta.applied.push_back(ev);
          touch(delta, v);
          delta.topology_changed = true;
          break;
        }
        ++redrawn;  // this node is a cut vertex right now
      }
    }

    // Waypoint motion: a fixed fraction of live nodes takes one Gaussian
    // step, clamped to the field. Applied as a batch — if the moved
    // topology strands any demand, the whole epoch's motion is reverted.
    const auto moves = static_cast<std::size_t>(
        trace.move_fraction * static_cast<double>(n));
    if (moves > 0) {
      std::set<graph::NodeId> seen;
      std::vector<Event> moved;
      const std::vector<phy::Position> before = positions_;
      for (std::size_t k = 0; k < moves; ++k) {
        for (int attempt = 0; attempt < 32; ++attempt) {
          const auto v = static_cast<graph::NodeId>(rng.next_below(n));
          if (failed_[v] || seen.count(v)) {
            ++redrawn;
            continue;
          }
          seen.insert(v);
          Event ev;
          ev.op = EventOp::Move;
          ev.node = v;
          ev.x = std::clamp(
              positions_[v].x + trace.move_sigma_m * rng.normal(), 0.0,
              field_side_);
          ev.y = std::clamp(
              positions_[v].y + trace.move_sigma_m * rng.normal(), 0.0,
              field_side_);
          positions_[v] = phy::Position{ev.x, ev.y};
          moved.push_back(ev);
          break;
        }
      }
      if (!moved.empty()) {
        if (adopt_if_routable(build_graph())) {
          for (const Event& ev : moved) {
            delta.applied.push_back(ev);
            touch(delta, ev.node);
          }
          delta.topology_changed = true;
        } else {
          positions_ = before;
        }
      }
    }

    // Departures (never below one live demand).
    for (std::size_t k = 0; k < trace.departures_per_epoch; ++k) {
      if (problem_.demands().size() <= 1) break;
      Event ev;
      ev.op = EventOp::Depart;
      ev.demand = rng.next_below(problem_.demands().size());
      apply(ev, delta);
    }

    // Arrivals: distinct live (s, d) pairs between non-failed nodes, the
    // weight cycle continuing where the instance's initial demands left
    // off. A draw whose demand is unroutable (failures can disconnect the
    // live graph) is retried.
    for (std::size_t k = 0; k < trace.arrivals_per_epoch; ++k) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        const auto s = static_cast<graph::NodeId>(rng.next_below(n));
        const auto d = static_cast<graph::NodeId>(rng.next_below(n));
        if (s == d || failed_[s] || failed_[d]) {
          ++redrawn;
          continue;
        }
        bool dup = false;
        for (const graph::Demand& live : problem_.demands())
          dup |= live.source == s && live.destination == d;
        if (dup) {
          ++redrawn;
          continue;
        }
        const double weight =
            weight_cycle_.empty()
                ? 1.0
                : weight_cycle_[arrivals_seen_ % weight_cycle_.size()];
        std::vector<graph::Demand> demands = problem_.demands();
        demands.push_back(graph::Demand{s, d, demand_rate_ * weight});
        if (!graph::demands_satisfiable(problem_.graph(), demands)) {
          ++redrawn;
          continue;
        }
        problem_.set_demands(std::move(demands));
        base_weights_.push_back(weight);
        ++arrivals_seen_;
        Event ev;
        ev.op = EventOp::Arrive;
        ev.source = s;
        ev.destination = d;
        ev.weight = weight;
        delta.applied.push_back(ev);
        touch(delta, s);
        touch(delta, d);
        break;
      }
    }

    // Piecewise rate swings: factor in [1−s, 1+s] of the demand's base
    // (weighted) rate — absolute, not cumulative, so a later swing of the
    // same demand replaces the earlier factor.
    for (std::size_t k = 0; k < trace.swings_per_epoch; ++k) {
      if (problem_.demands().empty()) break;
      Event ev;
      ev.op = EventOp::RateSwing;
      ev.demand = rng.next_below(problem_.demands().size());
      ev.factor =
          rng.uniform(1.0 - trace.rate_swing, 1.0 + trace.rate_swing);
      apply(ev, delta);
    }
  }

  std::sort(delta.touched_nodes.begin(), delta.touched_nodes.end());
  delta.touched_nodes.erase(
      std::unique(delta.touched_nodes.begin(), delta.touched_nodes.end()),
      delta.touched_nodes.end());
  obs::count("churn.events_applied", delta.applied.size());
  obs::count("churn.events_redrawn", redrawn);
  return delta;
}

}  // namespace eend::churn
