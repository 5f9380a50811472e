// The four bench_e2e workloads, header-only.
//
// A workload is a closed loop of *groups*: one set-up (a Network build, a
// design instance, a churn trace's epoch-0 design) followed by the timed
// units that use it (one run, one cold search, 24 warm repairs). Group g
// of a run with seed S uses seed S+g, so a seed fixes every input.
//
// Timing wraps only the bench's own calls into public layer functions —
// the net::Network constructor, Network::run, opt::make_design_instance,
// NetworkDesignProblem::solve_node_weighted, opt::design_portfolio, and
// churn::ChurnState::advance + opt::warm_start_search — each in an
// obs::PhaseTimer span on trace pid 3, lane tid = group index + 1, nested
// under an `e2e.setup` or `e2e.unit` parent span. The spans are emitted
// only while a TraceCollector is installed; elapsed time is always kept.
//
// Every unit's output is checked (the Lane::fail calls); a failed check
// counts the unit as failed and is never fatal.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "churn/trace.hpp"
#include "graph/shortest_path.hpp"
#include "net/network.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "opt/design_instance.hpp"
#include "opt/portfolio.hpp"
#include "opt/warm_start.hpp"

namespace eend::e2e {

/// Trace process row for the benchmark's own spans (0-2 are the engine's).
inline constexpr std::uint32_t kPidE2e = 3;

/// Sampled sim-core spans in the traced run: one per this many events.
inline constexpr std::uint64_t kSimTraceEvery = 65536;

/// FNV-1a over the deterministic outputs of a group.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::vector<graph::NodeId>& nodes) {
    add(static_cast<std::uint64_t>(nodes.size()));
    for (const graph::NodeId v : nodes) add(static_cast<std::uint64_t>(v));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Seconds and call count of one span name, summed over a run.
struct SpanStat {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};

/// What one group produced.
struct GroupResult {
  double setup_s = 0.0;
  std::vector<double> unit_s;  ///< one per timed unit that completed
  std::size_t attempted = 0;   ///< units started
  std::size_t failed = 0;      ///< units that threw or failed a check
  std::string first_failure;
  std::uint64_t digest = 0;
  double quality_sum = 0.0;  ///< per-unit quality, summed (see Workload)
  std::map<std::string, SpanStat> spans;
};

/// Timing lane for one group: every call goes through time(), which
/// spans it on (kPidE2e, tid) and adds its seconds to the group's totals.
class Lane {
 public:
  Lane(std::uint32_t tid, GroupResult& out) : tid_(tid), out_(out) {}

  template <typename F>
  double time(const char* name, F&& fn) {
    obs::PhaseTimer span(name, kPidE2e, tid_);
    fn();
    const double s = span.stop();
    SpanStat& st = out_.spans[name];
    st.seconds += s;
    ++st.calls;
    return s;
  }

  /// Record a failed unit; keeps the first message for the report.
  void fail(const std::string& why) {
    ++out_.failed;
    if (out_.first_failure.empty()) out_.first_failure = why;
  }

 private:
  std::uint32_t tid_;
  GroupResult& out_;
};

/// Probes run only in the traced run: per-layer costs on each unit's
/// result, outside the unit spans.
inline constexpr int kEvaluateProbeRepeats = 20;

inline void probe_design(Lane& lane, const core::NetworkDesignProblem& p,
                         const std::vector<graph::NodeId>& nodes,
                         const opt::DesignObjective& objective) {
  for (int i = 0; i < kEvaluateProbeRepeats; ++i)
    lane.time("probe.opt.evaluate",
              [&] { (void)opt::evaluate_design(p, nodes, objective); });
  for (const graph::Demand& d : p.demands())
    lane.time("probe.graph.dijkstra",
              [&] { (void)graph::dijkstra(p.graph(), d.source); });
}

// ------------------------------------------------------------- simulator ---

/// One replication: build (set-up), run (the unit), check. Quality is the
/// delivery ratio.
inline GroupResult run_sim_group(net::ScenarioConfig sc,
                                 const net::StackSpec& stack,
                                 std::uint64_t seed, std::uint32_t tid,
                                 bool traced) {
  GroupResult g;
  Lane lane(tid, g);
  sc.seed = seed;
  g.attempted = 1;

  std::unique_ptr<net::Network> network;
  g.setup_s = lane.time("e2e.setup", [&] {
    lane.time("net.build",
              [&] { network = std::make_unique<net::Network>(sc, stack); });
  });
  if (traced)
    network->simulator().set_trace_sampling(kSimTraceEvery, kPidE2e, tid);
  metrics::RunResult r;
  const double unit_s = lane.time("e2e.unit", [&] {
    lane.time("net.run", [&] { r = network->run(); });
  });
  g.unit_s.push_back(unit_s);

  const std::uint64_t events = network->simulator().executed_events();
  // Bench-side counts for the routing layer, whose totals live only in
  // RunResult (no-ops unless the traced run installed a registry).
  obs::count("routing.rreq_transmissions", r.rreq_transmissions);
  obs::count("routing.update_transmissions", r.update_transmissions);

  const double expect_goodput =
      r.total_energy_j > 0.0 ? static_cast<double>(r.delivered) *
                                   sc.payload_bits / r.total_energy_j
                             : 0.0;
  if (r.sent == 0)
    lane.fail("sim: nothing sent");
  else if (r.delivered > r.sent)
    lane.fail("sim: delivered > sent");
  else if (std::abs(r.goodput_bit_per_j - expect_goodput) >
           1e-12 * std::max(1.0, expect_goodput))
    lane.fail("sim: goodput != delivered * payload_bits / total_energy_j");
  else if (events == 0)
    lane.fail("sim: no events executed");

  Digest d;
  d.add(r.sent);
  d.add(r.delivered);
  d.add(r.total_energy_j);
  d.add(r.goodput_bit_per_j);
  d.add(events);
  d.add(r.channel_transmissions);
  d.add(r.mac_collisions);
  g.digest = d.value();
  g.quality_sum = r.delivery_ratio;
  return g;
}

// ---------------------------------------------------------------- design ---

/// One cold design with the design_portfolio.json knobs (N=100, 8
/// demands, 8 starts, 300 anneal iterations, presolve off): instance
/// (set-up), then Klein-Ravi + portfolio (the unit), then checks. Quality
/// is Klein-Ravi cost / portfolio cost.
inline GroupResult run_design_group(std::uint64_t seed, std::uint32_t tid,
                                    bool traced) {
  GroupResult g;
  Lane lane(tid, g);
  g.attempted = 1;
  opt::DesignInstanceSpec spec;
  spec.node_count = 100;
  spec.demand_count = 8;
  spec.seed = seed;
  const opt::DesignObjective objective;

  opt::DesignInstance inst;
  g.setup_s = lane.time("e2e.setup", [&] {
    lane.time("opt.instance", [&] { inst = opt::make_design_instance(spec); });
  });
  const core::NetworkDesignProblem& problem = inst.problem;

  graph::SteinerTree kr;
  opt::PortfolioResult pr;
  g.unit_s.push_back(lane.time("e2e.unit", [&] {
    lane.time("core.klein_ravi", [&] { kr = problem.solve_node_weighted(); });
    lane.time("opt.portfolio", [&] {
      opt::PortfolioOptions po;
      po.objective = objective;
      po.starts = 8;
      po.jobs = 1;
      po.anneal.iterations = 300;
      po.seed = seed;
      po.klein_ravi_tree = &kr;
      pr = opt::design_portfolio(problem, po);
    });
  }));

  const opt::CandidateDesign& best = pr.best;
  const opt::CandidateDesign baseline =
      opt::design_from_tree(problem, kr, objective);
  const std::vector<graph::NodeId> terminals = problem.terminals();
  if (!best.feasible || !baseline.feasible)
    lane.fail("design: infeasible result");
  else if (!std::includes(best.nodes.begin(), best.nodes.end(),
                          terminals.begin(), terminals.end()))
    lane.fail("design: a terminal is missing from the design");
  else if (opt::evaluate_design(problem, best.nodes, objective).cost() !=
           best.cost())
    lane.fail("design: re-evaluation does not reproduce cost()");
  else if (best.cost() > baseline.cost())
    lane.fail("design: portfolio costs more than Klein-Ravi");

  if (traced) probe_design(lane, problem, best.nodes, objective);

  Digest d;
  d.add(best.nodes);
  d.add(best.cost());
  d.add(baseline.cost());
  g.digest = d.value();
  if (best.feasible && baseline.feasible)
    g.quality_sum = baseline.cost() / best.cost();
  return g;
}

// ----------------------------------------------------------------- churn ---

/// The design_churn.json generator knobs at N=100, 6 demands; 25 epochs,
/// so each trace times 24 repairs.
inline constexpr std::size_t kChurnEpochs = 25;
inline constexpr double kChurnFallbackPct = 5.0;

/// One churn trace: instance + ChurnState + epoch-0 cold design (set-up),
/// then advance + warm_start_search per epoch (the units). Each epoch is
/// checked against a fresh Klein-Ravi reference — the one warm_start_search
/// computes in its stage 3 — which is also the per-epoch Klein-Ravi probe.
/// Quality is reference cost / repaired cost.
inline GroupResult run_churn_group(std::uint64_t seed, std::uint32_t tid,
                                   bool traced) {
  GroupResult g;
  Lane lane(tid, g);
  opt::DesignInstanceSpec spec;
  spec.node_count = 100;
  spec.demand_count = 6;
  spec.seed = seed;
  spec.demand_weights = {0.5, 1.0, 3.0};
  const opt::DesignObjective objective;

  churn::TraceSpec trace;
  trace.epochs = kChurnEpochs;
  trace.arrivals_per_epoch = 1;
  trace.departures_per_epoch = 1;
  trace.swings_per_epoch = 2;
  trace.failures_per_epoch = 1;
  trace.rate_swing = 0.5;
  trace.move_fraction = 0.1;
  trace.move_sigma_m = 60.0;
  trace.seed = seed;

  opt::WarmStartOptions wo;
  wo.objective = objective;
  wo.starts = 6;
  wo.anneal_iterations = 200;
  wo.jobs = 1;
  wo.fallback_pct = kChurnFallbackPct;

  opt::DesignInstance inst;
  std::unique_ptr<churn::ChurnState> state;
  opt::CandidateDesign serving;
  opt::RouteCache serving_routes;
  g.setup_s = lane.time("e2e.setup", [&] {
    lane.time("opt.instance", [&] { inst = opt::make_design_instance(spec); });
    lane.time("churn.state",
              [&] { state = std::make_unique<churn::ChurnState>(inst, spec); });
    graph::SteinerTree kr;
    lane.time("core.klein_ravi",
              [&] { kr = inst.problem.solve_node_weighted(); });
    lane.time("opt.portfolio", [&] {
      opt::PortfolioOptions po;
      po.objective = objective;
      po.starts = wo.starts;
      po.jobs = 1;
      po.anneal.iterations = wo.anneal_iterations;
      po.seed = seed;
      po.klein_ravi_tree = &kr;
      serving = opt::design_portfolio(inst.problem, po).best;
    });
    // Fill the route cache the first repair reuses (the serving loop's
    // epoch-0 bookkeeping).
    serving = opt::evaluate_design(inst.problem, serving.nodes, objective,
                                   nullptr, &serving_routes);
  });

  Digest d;
  d.add(serving.nodes);
  d.add(serving.cost());
  for (std::size_t epoch = 1; epoch < kChurnEpochs; ++epoch) {
    ++g.attempted;
    churn::EpochDelta delta;
    opt::WarmStartResult wr;
    opt::RouteCache next_routes;
    g.unit_s.push_back(lane.time("e2e.unit", [&] {
      lane.time("churn.advance",
                [&] { delta = state->advance(trace, epoch); });
      // Failed nodes can no longer serve (the warm-start contract), and a
      // changed topology invalidates the route cache.
      const std::vector<graph::NodeId> failed = state->failed_nodes();
      if (!failed.empty())
        std::erase_if(serving.nodes, [&](graph::NodeId v) {
          return std::binary_search(failed.begin(), failed.end(), v);
        });
      if (delta.topology_changed) serving_routes.clear();
      lane.time("opt.warm_start", [&] {
        wr = opt::warm_start_search(
            state->problem(), serving, delta.touched_nodes, wo, seed,
            serving_routes.empty() ? nullptr : &serving_routes, &next_routes);
      });
    }));

    const core::NetworkDesignProblem& problem = state->problem();
    graph::SteinerTree ref_tree;
    lane.time("probe.core.klein_ravi",
              [&] { ref_tree = problem.solve_node_weighted(); });
    const opt::CandidateDesign ref =
        opt::design_from_tree(problem, ref_tree, objective);
    const opt::CandidateDesign& got = wr.design;
    if (!got.feasible || !ref.feasible)
      lane.fail("churn: infeasible repair or reference");
    else if (opt::evaluate_design(problem, got.nodes, objective).cost() !=
             got.cost())
      lane.fail("churn: re-evaluation does not reproduce cost()");
    else if (!wr.fell_back &&
             got.cost() > (1.0 + kChurnFallbackPct / 100.0) * ref.cost())
      lane.fail("churn: repair above the fallback gate without falling back");
    if (got.feasible && ref.feasible) g.quality_sum += ref.cost() / got.cost();

    if (traced) probe_design(lane, problem, got.nodes, objective);

    d.add(got.nodes);
    d.add(got.cost());
    d.add(static_cast<std::uint64_t>(wr.fell_back));
    d.add(static_cast<std::uint64_t>(delta.applied.size()));
    serving = got;
    serving_routes = std::move(next_routes);
  }
  g.digest = d.value();
  return g;
}

// -------------------------------------------------------------- registry ---

struct Workload {
  const char* name;
  /// Groups every run completes, however slow: the digest, the quality
  /// metric and the traced run's counters come from these alone, so they
  /// are a pure function of the seed.
  std::size_t prefix_groups;
  GroupResult (*run_group)(std::uint64_t seed, std::uint32_t tid,
                           bool traced);
};

inline GroupResult run_psm_group(std::uint64_t seed, std::uint32_t tid,
                                 bool traced) {
  net::ScenarioConfig sc = net::ScenarioConfig::small_network();
  sc.rate_pps = 4.0;
  sc.duration_s = 120.0;
  return run_sim_group(sc, net::StackSpec::dsdvh_odpm_psm(), seed, tid,
                       traced);
}

inline GroupResult run_flood_group(std::uint64_t seed, std::uint32_t tid,
                                   bool traced) {
  net::ScenarioConfig sc = net::ScenarioConfig::huge_field(500);
  sc.duration_s = 60.0;
  return run_sim_group(sc, net::StackSpec::dsr_odpm(), seed, tid, traced);
}

inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"sim_psm_small", 64, run_psm_group},
      {"sim_flood_n500", 40, run_flood_group},
      {"design_cold_n100", 36, run_design_group},
      {"churn_warm_n100", 8, run_churn_group},
  };
  return all;
}

}  // namespace eend::e2e
