#include "core/experiment_engine.hpp"

#include <algorithm>
#include <mutex>
#include <ostream>

#include "analytical/route_energy.hpp"
#include "churn/trace.hpp"
#include "core/experiment.hpp"
#include "core/grid_study.hpp"
#include "core/parallel_runner.hpp"
#include "energy/radio_card.hpp"
#include "obs/trace.hpp"
#include "opt/design_heuristic.hpp"
#include "opt/design_instance.hpp"
#include "opt/portfolio.hpp"
#include "opt/warm_start.hpp"
#include "presolve/presolve.hpp"
#include "replay/realization.hpp"
#include "replay/replay.hpp"
#include "util/table.hpp"

namespace eend::core {

namespace {

/// Short simulations used by --quick when the experiment does not specify
/// its own quick.duration_s — matches the bench binaries' --quick.
constexpr double kQuickDurationS = 120.0;

MetricValue sim_metric(const ExperimentResult& r, const std::string& name) {
  MetricValue out;
  out.name = name;
  const auto from_stats = [&](const SampleStats& s) {
    out.mean = s.mean;
    out.ci95 = s.ci95_half_width;
    out.n = s.n;
  };
  const auto from_raw = [&](auto pick) {
    std::vector<double> xs;
    xs.reserve(r.raw.size());
    for (const auto& run : r.raw) xs.push_back(pick(run));
    from_stats(summarize(xs));
  };
  if (name == "delivery_ratio") from_stats(r.delivery_ratio);
  else if (name == "goodput_bit_per_j") from_stats(r.goodput_bit_per_j);
  else if (name == "transmit_energy_j") from_stats(r.transmit_energy_j);
  else if (name == "total_energy_j") from_stats(r.total_energy_j);
  else if (name == "control_energy_j") from_stats(r.control_energy_j);
  else if (name == "passive_energy_j") from_stats(r.passive_energy_j);
  else if (name == "nodes_carrying_data") from_stats(r.nodes_carrying_data);
  else if (name == "rreq_transmissions")
    from_raw([](const metrics::RunResult& x) {
      return static_cast<double>(x.rreq_transmissions);
    });
  else if (name == "mac_collisions")
    from_raw([](const metrics::RunResult& x) {
      return static_cast<double>(x.mac_collisions);
    });
  else if (name == "mac_cs_drops")
    from_raw([](const metrics::RunResult& x) {
      return static_cast<double>(x.mac_cs_drops);
    });
  else if (name == "mac_defers_exhausted")
    from_raw([](const metrics::RunResult& x) {
      return static_cast<double>(x.mac_defers_exhausted);
    });
  else if (name == "mac_stale_bcast_drops")
    from_raw([](const metrics::RunResult& x) {
      return static_cast<double>(x.mac_stale_bcast_drops);
    });
  else if (name == "mac_unicast_failures")
    from_raw([](const metrics::RunResult& x) {
      return static_cast<double>(x.mac_unicast_failures);
    });
  else if (name == "average_delay_s")
    from_raw([](const metrics::RunResult& x) { return x.average_delay_s; });
  else
    EEND_REQUIRE_MSG(false, "unknown sim metric \"" << name << "\"");
  return out;
}

// ------------------------------------------------- design-search cells ---

/// One design-search cell, shared by the design and replay kinds: solve
/// the Klein-Ravi tree once (it seeds klein_ravi, local_search, annealing
/// and the portfolio's start 0, and is the dominant cost on large
/// instances), evaluate it as the baseline, then run every requested
/// heuristic against it. The baseline anchors the design kind's gap metric
/// and the portfolio ≤ Klein-Ravi invariant, which is enforced here — the
/// single point both kinds' results pass through on their way to sinks.
struct CellSearchResult {
  opt::CandidateDesign baseline;
  double baseline_wall = 0.0;
  std::vector<opt::CandidateDesign> designs;  ///< per heuristic, in order
  std::vector<double> walls;                  ///< per heuristic, seconds
};

CellSearchResult search_design_cell(
    const opt::DesignInstance& inst,
    const std::vector<std::string>& heuristics, opt::HeuristicOptions ho,
    std::uint64_t seed, std::size_t n, std::uint32_t trace_tid = 0) {
  const core::NetworkDesignProblem& problem = inst.problem;
  ho.presolve = inst.presolve.get();
  CellSearchResult out;
  obs::PhaseTimer t_base("search:klein_ravi(baseline)", obs::kPidCell, trace_tid);
  // The shared tree comes from the dead-end-masked twin when presolve ran —
  // bit-identical to the full solve (presolve/presolve.hpp), just cheaper.
  const graph::SteinerTree kr_tree =
      (inst.presolve ? inst.presolve->node_reduced : problem)
          .solve_node_weighted();
  ho.klein_ravi_tree = &kr_tree;
  out.baseline = opt::heuristic_by_name("klein_ravi").run(problem, ho, seed);
  out.baseline_wall = t_base.stop();
  EEND_CHECK_MSG(out.baseline.feasible,
                 "Klein-Ravi baseline infeasible on a connected instance "
                 "(n=" << n << ", seed=" << seed << ")");

  out.designs.resize(heuristics.size());
  out.walls.resize(heuristics.size());
  for (std::size_t hi = 0; hi < heuristics.size(); ++hi) {
    const auto& name = heuristics[hi];
    obs::PhaseTimer t0("search:" + name, obs::kPidCell, trace_tid);
    out.designs[hi] =
        name == "klein_ravi"
            ? out.baseline
            : opt::heuristic_by_name(name).run(problem, ho, seed);
    // The baseline's wall time (tree solve included) is attributed to the
    // klein_ravi series when that series is requested.
    out.walls[hi] = name == "klein_ravi" ? out.baseline_wall : t0.stop();
    EEND_CHECK_MSG(out.designs[hi].feasible,
                   "heuristic \"" << name
                   << "\" infeasible on a connected instance (n=" << n
                   << ", seed=" << seed << ")");
    // Soundness of the certified bound, enforced where results become
    // user-visible: no feasible design may score below it (1e-9 relative
    // slack absorbs float re-association between the two computations).
    if (inst.presolve)
      EEND_CHECK_MSG(
          inst.presolve->lower_bound(ho.eval) <=
              out.designs[hi].score.total() * (1.0 + 1e-9),
          "certified lower bound exceeds heuristic \""
              << name << "\" score (n=" << n << ", seed=" << seed << ")");
    // The portfolio's start 0 is Klein-Ravi + descent under the same
    // objective, so it can never cost more than the baseline; enforce the
    // invariant at the point results become user-visible.
    if (name == "portfolio")
      EEND_CHECK_MSG(out.designs[hi].cost() <= out.baseline.cost(),
                     "portfolio worse than Klein-Ravi baseline (n="
                         << n << ", seed=" << seed << ")");
  }
  return out;
}

MetricValue grid_metric(const GridSeries& s, const GridPoint& p,
                        const std::string& name) {
  MetricValue out;
  out.name = name;
  out.n = 1;
  if (name == "goodput_kbit_per_j") out.mean = p.goodput_bit_per_j / 1e3;
  else if (name == "network_power_w") out.mean = p.network_power_w;
  else if (name == "data_power_w") out.mean = p.data_power_w;
  else if (name == "passive_power_w") out.mean = p.passive_power_w;
  else if (name == "active_nodes")
    out.mean = static_cast<double>(s.active_nodes.size());
  else
    EEND_REQUIRE_MSG(false, "unknown grid metric \"" << name << "\"");
  return out;
}

}  // namespace

void ExperimentEngine::run(const Manifest& m) {
  for (const Experiment& e : m.experiments) run(e);
}

void ExperimentEngine::run(const Experiment& e) {
  obs::PhaseTimer exp_span("experiment:" + e.id, 0, 0);
  exp_counters_.clear();
  for (ResultSink* s : sinks_) s->begin_experiment(e);
  switch (e.kind) {
    case ExperimentKind::Sweep: run_sweep(e); break;
    case ExperimentKind::Density: run_density(e); break;
    case ExperimentKind::Grid: run_grid(e); break;
    case ExperimentKind::Mopt: run_mopt(e); break;
    case ExperimentKind::Design: run_design(e); break;
    case ExperimentKind::Replay: run_replay(e); break;
    case ExperimentKind::Churn: run_churn(e); break;
  }
  {
    obs::PhaseTimer flush_span("sink.flush", 0, 0);
    for (ResultSink* s : sinks_) s->end_experiment(e);
  }
  // Counter lines ride outside the sink stream: sinks stay byte-pinned by
  // the goldens, and the counters file is its own deterministic artifact.
  if (opts_.counters) exp_counters_.write_jsonl(*opts_.counters, e.id);
}

void ExperimentEngine::emit(const ResultRow& r) {
  for (ResultSink* s : sinks_) s->row(r);
}

void ExperimentEngine::note(const std::string& line) {
  if (opts_.progress) *opts_.progress << line << '\n';
}

net::ScenarioConfig ExperimentEngine::resolve_scenario(
    const Experiment& e, std::optional<std::size_t> node_count) const {
  ScenarioSpec spec = e.scenario;
  if (node_count) spec.node_count = node_count;
  net::ScenarioConfig sc = spec.resolve();
  if (opts_.quick)
    sc.duration_s =
        std::min(sc.duration_s, e.quick.duration_s.value_or(kQuickDurationS));
  return sc;
}

std::size_t ExperimentEngine::effective_runs(const Experiment& e) const {
  if (opts_.runs_override) return *opts_.runs_override;
  if (opts_.quick) return e.quick.runs.value_or(1);
  return e.runs;
}

std::uint64_t ExperimentEngine::effective_seed(const Experiment& e) const {
  return opts_.seed_override ? *opts_.seed_override : e.seed;
}

std::vector<net::StackSpec> ExperimentEngine::resolve_stacks(
    const Experiment& e) {
  std::vector<net::StackSpec> out;
  out.reserve(e.stacks.size());
  for (const auto& name : e.stacks) out.push_back(net::stack_preset(name));
  return out;
}

void ExperimentEngine::run_sweep(const Experiment& e) {
  ExperimentConfig cfg;
  cfg.scenario = resolve_scenario(e);
  cfg.runs = effective_runs(e);
  cfg.base_seed = effective_seed(e);
  cfg.jobs = opts_.jobs;

  const std::vector<net::StackSpec> stacks = resolve_stacks(e);

  const std::vector<double>& rates =
      (opts_.quick && e.quick.rates_pps) ? *e.quick.rates_pps : e.rates_pps;

  StackProgressFn progress;
  if (opts_.progress)
    progress = [this, &e](const net::StackSpec& s) {
      note("  [" + e.title + "] " + s.label + " done");
    };

  // results[stack][rate]
  const auto results = sweep_grid(cfg, stacks, rates, progress);

  // Cells already merged their replication snapshots in seed order; fold
  // them into the experiment total in (stack, rate) cell order.
  for (const auto& per_stack : results)
    for (const auto& r : per_stack) exp_counters_.merge_from(r.counters);

  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    for (std::size_t si = 0; si < stacks.size(); ++si) {
      ResultRow row;
      row.experiment = e.id;
      row.kind = kind_name(e.kind);
      row.series = stacks[si].label;
      row.x_name = "rate_pps";
      row.x = rates[ri];
      row.runs = cfg.runs;
      row.seed = cfg.base_seed;
      for (const MetricSpec& m : e.metrics)
        row.metrics.push_back(sim_metric(results[si][ri], m.name));
      emit(row);
    }
  }
}

void ExperimentEngine::run_density(const Experiment& e) {
  const std::vector<std::size_t>& nodes =
      (opts_.quick && e.quick.node_counts) ? *e.quick.node_counts
                                           : e.node_counts;
  const std::vector<net::StackSpec> stacks = resolve_stacks(e);

  // All (node count × stack) cells share one pool so wide density tables
  // keep every core busy even at runs=1; emission order (n-major,
  // stack-minor) matches the cell list and never depends on scheduling.
  std::vector<ExperimentConfig> cells;
  for (const std::size_t n : nodes) {
    const net::ScenarioConfig sc = resolve_scenario(e, n);
    for (const auto& stack : stacks) {
      ExperimentConfig cfg;
      cfg.scenario = sc;
      cfg.stack = stack;
      cfg.runs = effective_runs(e);
      cfg.base_seed = effective_seed(e);
      cells.push_back(std::move(cfg));
    }
  }

  std::function<void(std::size_t)> on_cell_done;
  if (opts_.progress)
    on_cell_done = [&](std::size_t i) {
      note("  [" + e.title + "] " + cells[i].stack.label + " n=" +
           std::to_string(cells[i].scenario.node_count) + " done");
    };
  const auto results = run_experiment_cells(cells, opts_.jobs, on_cell_done);

  for (const auto& r : results) exp_counters_.merge_from(r.counters);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    ResultRow row;
    row.experiment = e.id;
    row.kind = kind_name(e.kind);
    row.series = cells[i].stack.label;
    row.x_name = "nodes";
    row.x = static_cast<double>(cells[i].scenario.node_count);
    row.runs = cells[i].runs;
    row.seed = cells[i].base_seed;
    for (const MetricSpec& m : e.metrics)
      row.metrics.push_back(sim_metric(results[i], m.name));
    emit(row);
  }
}

void ExperimentEngine::run_grid(const Experiment& e) {
  net::ScenarioConfig sc = resolve_scenario(e);
  sc.rate_pps = e.base_rate_pps;
  sc.seed = effective_seed(e);

  const std::vector<net::StackSpec> stacks = resolve_stacks(e);

  const std::vector<double>& rates =
      (opts_.quick && e.quick.rates_pps) ? *e.quick.rates_pps : e.rates_pps;

  // One base-rate simulation per stack; fan out, keep stack order.
  std::vector<GridSeries> series(stacks.size());
  std::vector<obs::CounterSnapshot> snaps(stacks.size());
  std::mutex io_m;
  ParallelRunner pool(opts_.jobs);
  pool.set_span_label("grid.series");
  pool.for_each_index(stacks.size(), [&](std::size_t i) {
    obs::CounterRegistry reg;
    const obs::ScopedRegistry scope(&reg);
    series[i] = grid_series(sc, stacks[i], rates);
    snaps[i] = reg.snapshot();
    if (opts_.progress) {
      std::lock_guard<std::mutex> lk(io_m);
      note("  [" + e.title + "] " + stacks[i].label + " done (" +
           std::to_string(series[i].active_nodes.size()) + " active nodes)");
    }
  });
  for (const obs::CounterSnapshot& s : snaps) exp_counters_.merge_from(s);

  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    for (std::size_t si = 0; si < series.size(); ++si) {
      ResultRow row;
      row.experiment = e.id;
      row.kind = kind_name(e.kind);
      row.series = series[si].label;
      row.x_name = "rate_pps";
      row.x = rates[ri];
      row.runs = 1;
      row.seed = sc.seed;
      for (const MetricSpec& m : e.metrics)
        row.metrics.push_back(
            grid_metric(series[si], series[si].points[ri], m.name));
      emit(row);
    }
  }
}

void ExperimentEngine::run_design(const Experiment& e) {
  const std::vector<std::size_t>& nodes =
      (opts_.quick && e.quick.node_counts) ? *e.quick.node_counts
                                           : e.node_counts;
  const std::size_t runs = effective_runs(e);
  const std::uint64_t base_seed = effective_seed(e);

  opt::HeuristicOptions ho;
  ho.starts = e.starts;
  ho.anneal_iterations = e.anneal_iters;

  // All (node count x instance) cells are independent; fan them across the
  // pool into pre-sized slots so --jobs helps even without a portfolio
  // series. With more than one cell the portfolio runs its starts inline;
  // a single cell hands the whole pool to the portfolio's multi-starts.
  // Either way every heuristic is jobs-invariant, so output bytes never
  // depend on the split.
  struct Cell {
    std::size_t n = 0;
    std::size_t run = 0;
  };
  std::vector<Cell> cells;
  for (const std::size_t n : nodes)
    for (std::size_t run = 0; run < runs; ++run) cells.push_back({n, run});
  ho.jobs = cells.size() > 1 ? 1 : opts_.jobs;

  // Per-cell results: [cell][heuristic] -> this instance's metric values.
  struct Sample {
    double total = 0.0, data = 0.0, idle = 0.0, gap = 0.0, relays = 0.0,
           wall = 0.0;
    // Presolve-only columns (e.presolve gates the metrics that read them).
    double lb = 0.0, cert_gap = 0.0, rnodes = 0.0, redges = 0.0;
  };
  std::vector<std::vector<Sample>> samples(cells.size());
  std::vector<obs::CounterSnapshot> snaps(cells.size());

  std::mutex io_m;
  ParallelRunner pool(opts_.jobs);
  pool.set_span_label("design.cell");
  pool.for_each_index(cells.size(), [&](std::size_t ci) {
    const std::uint32_t tid = static_cast<std::uint32_t>(ci) + 1;
    obs::CounterRegistry reg;
    const obs::ScopedRegistry scope(&reg);
    const Cell& cell = cells[ci];
    opt::DesignInstanceSpec spec;
    spec.node_count = cell.n;
    spec.demand_count = e.demands;
    spec.seed = base_seed + cell.run;
    spec.presolve = e.presolve;
    spec.field_scale = e.field_scale;
    obs::PhaseTimer t_build("instance.build", obs::kPidCell, tid);
    const opt::DesignInstance inst = opt::make_design_instance(spec);
    t_build.stop();

    const CellSearchResult sr =
        search_design_cell(inst, e.heuristics, ho, spec.seed, cell.n, tid);
    samples[ci].resize(e.heuristics.size());
    for (std::size_t hi = 0; hi < e.heuristics.size(); ++hi) {
      const opt::CandidateDesign& cand = sr.designs[hi];
      Sample& s = samples[ci][hi];
      s.total = cand.cost();
      s.data = cand.score.data;
      s.idle = cand.score.idle;
      s.gap = 100.0 * (cand.cost() - sr.baseline.cost()) /
              sr.baseline.cost();
      s.relays = static_cast<double>(cand.score.relay_nodes);
      s.wall = sr.walls[hi];
      if (inst.presolve) {
        s.lb = inst.presolve->lower_bound(ho.eval);
        s.cert_gap = 100.0 * (cand.score.total() - s.lb) / s.lb;
        s.rnodes = static_cast<double>(inst.presolve->reduced_nodes);
        s.redges = static_cast<double>(inst.presolve->reduced_edges);
      }
    }
    snaps[ci] = reg.snapshot();
    if (opts_.progress) {
      std::lock_guard<std::mutex> lk(io_m);
      note("  [" + e.title + "] n=" + std::to_string(cell.n) +
           " instance " + std::to_string(cell.run + 1) + "/" +
           std::to_string(runs) + " done");
    }
  });
  for (const obs::CounterSnapshot& s : snaps) exp_counters_.merge_from(s);

  // Aggregate per (n, heuristic) across instances; emission is n-major,
  // heuristic-minor in manifest order, independent of scheduling.
  for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
    for (std::size_t hi = 0; hi < e.heuristics.size(); ++hi) {
      ResultRow row;
      row.experiment = e.id;
      row.kind = kind_name(e.kind);
      row.series = e.heuristics[hi];
      row.x_name = "nodes";
      row.x = static_cast<double>(nodes[ni]);
      row.runs = runs;
      row.seed = base_seed;
      const auto metric_of = [&](const std::string& name) {
        std::vector<double> xs;
        xs.reserve(runs);
        for (std::size_t run = 0; run < runs; ++run) {
          const Sample& s = samples[ni * runs + run][hi];
          if (name == "eq5_total") xs.push_back(s.total);
          else if (name == "eq5_data") xs.push_back(s.data);
          else if (name == "eq5_idle") xs.push_back(s.idle);
          else if (name == "gap_vs_klein_ravi") xs.push_back(s.gap);
          else if (name == "relay_nodes") xs.push_back(s.relays);
          else if (name == "wall_time_s") xs.push_back(s.wall);
          else if (name == "lb" || name == "certified_gap_pct" ||
                   name == "reduced_nodes" || name == "reduced_edges") {
            // parse_metrics already rejects these without presolve; guard
            // against programmatic Experiment structs skipping validation.
            EEND_REQUIRE_MSG(e.presolve, "design metric \""
                                             << name
                                             << "\" requires presolve=true");
            if (name == "lb") xs.push_back(s.lb);
            else if (name == "certified_gap_pct") xs.push_back(s.cert_gap);
            else if (name == "reduced_nodes") xs.push_back(s.rnodes);
            else xs.push_back(s.redges);
          } else
            EEND_REQUIRE_MSG(false,
                             "unknown design metric \"" << name << "\"");
        }
        const SampleStats st = summarize(xs);
        MetricValue mv;
        mv.name = name;
        mv.mean = st.mean;
        mv.ci95 = st.ci95_half_width;
        mv.n = st.n;
        return mv;
      };
      for (const MetricSpec& m : e.metrics)
        row.metrics.push_back(metric_of(m.name));
      emit(row);
    }
  }
}

void ExperimentEngine::run_replay(const Experiment& e) {
  const std::vector<std::size_t>& nodes =
      (opts_.quick && e.quick.node_counts) ? *e.quick.node_counts
                                           : e.node_counts;
  const std::size_t runs = effective_runs(e);
  const std::uint64_t base_seed = effective_seed(e);

  replay::ReplaySettings settings;
  settings.stack = net::stack_preset(e.replay_stack);
  settings.duration_s = e.replay_duration_s;
  if (opts_.quick)
    settings.duration_s = std::min(
        settings.duration_s, e.quick.duration_s.value_or(kQuickDurationS));
  settings.rate_pps = e.replay_rate_pps;
  settings.battery_capacity_j = e.battery_j;

  struct Cell {
    std::size_t n = 0;
    std::size_t run = 0;
  };
  std::vector<Cell> cells;
  for (const std::size_t n : nodes)
    for (std::size_t run = 0; run < runs; ++run) cells.push_back({n, run});

  // Phase 1 — search: one instance per cell (shared Klein-Ravi tree), every
  // requested heuristic run under the joule-scaled replay objective, so the
  // analytic cost, the lifetime budget and the simulated battery all speak
  // the same unit. Phase 2 — simulate: every (cell, heuristic) design is
  // realized and replayed through net::Network, fanned flat across the pool
  // (simulations dominate the wall clock and are independent). Both phases
  // land results in pre-sized slots, so output bytes never depend on --jobs.
  struct CellState {
    opt::DesignInstanceSpec spec;
    opt::DesignInstance instance;
    std::vector<opt::CandidateDesign> designs;  // per heuristic
  };
  std::vector<CellState> state(cells.size());
  std::vector<obs::CounterSnapshot> search_snaps(cells.size());

  std::mutex io_m;
  ParallelRunner pool(opts_.jobs);
  pool.set_span_label("replay.search");
  pool.for_each_index(cells.size(), [&](std::size_t ci) {
    const std::uint32_t tid = static_cast<std::uint32_t>(ci) + 1;
    obs::CounterRegistry reg;
    const obs::ScopedRegistry scope(&reg);
    const Cell& cell = cells[ci];
    CellState& st = state[ci];
    st.spec.node_count = cell.n;
    st.spec.demand_count = e.demands;
    st.spec.seed = base_seed + cell.run;
    st.spec.demand_weights = e.demand_weights;
    st.spec.presolve = e.presolve;
    st.spec.field_scale = e.field_scale;
    obs::PhaseTimer t_build("instance.build", obs::kPidCell, tid);
    st.instance = opt::make_design_instance(st.spec);
    t_build.stop();

    opt::HeuristicOptions ho;
    ho.eval = replay::replay_eq5_params(settings, st.spec.card);
    ho.starts = e.starts;
    ho.anneal_iterations = e.anneal_iters;
    ho.jobs = cells.size() > 1 ? 1 : opts_.jobs;
    ho.battery_budget_j = e.battery_j;
    st.designs = search_design_cell(st.instance, e.heuristics, ho,
                                    st.spec.seed, cell.n, tid)
                     .designs;
    search_snaps[ci] = reg.snapshot();
    if (opts_.progress) {
      std::lock_guard<std::mutex> lk(io_m);
      note("  [" + e.title + "] n=" + std::to_string(cell.n) + " instance " +
           std::to_string(cell.run + 1) + "/" + std::to_string(runs) +
           " searched");
    }
  });

  // reports[cell * heuristics + heuristic]
  std::vector<replay::ReplayReport> reports(cells.size() *
                                            e.heuristics.size());
  std::vector<obs::CounterSnapshot> replay_snaps(reports.size());
  pool.set_span_label("replay.sim");
  pool.for_each_index(reports.size(), [&](std::size_t i) {
    const std::size_t ci = i / e.heuristics.size();
    const std::size_t hi = i % e.heuristics.size();
    obs::CounterRegistry reg;
    const obs::ScopedRegistry scope(&reg);
    const CellState& st = state[ci];
    reports[i] = replay::replay_design(st.spec, st.instance, st.designs[hi],
                                       settings);
    replay_snaps[i] = reg.snapshot();
    if (opts_.progress) {
      std::lock_guard<std::mutex> lk(io_m);
      note("  [" + e.title + "] n=" + std::to_string(cells[ci].n) + " " +
           e.heuristics[hi] + " instance " +
           std::to_string(cells[ci].run + 1) + "/" + std::to_string(runs) +
           " replayed");
    }
  });
  for (const obs::CounterSnapshot& s : search_snaps)
    exp_counters_.merge_from(s);
  for (const obs::CounterSnapshot& s : replay_snaps)
    exp_counters_.merge_from(s);

  for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
    for (std::size_t hi = 0; hi < e.heuristics.size(); ++hi) {
      ResultRow row;
      row.experiment = e.id;
      row.kind = kind_name(e.kind);
      row.series = e.heuristics[hi];
      row.x_name = "nodes";
      row.x = static_cast<double>(nodes[ni]);
      row.runs = runs;
      row.seed = base_seed;
      const auto metric_of = [&](const std::string& name) {
        std::vector<double> xs;
        xs.reserve(runs);
        for (std::size_t run = 0; run < runs; ++run) {
          const replay::ReplayReport& rep =
              reports[(ni * runs + run) * e.heuristics.size() + hi];
          if (name == "analytic_eq5_j") xs.push_back(rep.analytic_energy_j);
          else if (name == "sim_energy_j") xs.push_back(rep.sim_energy_j);
          else if (name == "analytic_gap_pct") xs.push_back(rep.gap_pct);
          else if (name == "sim_j_per_kbit") xs.push_back(rep.sim_j_per_kbit);
          else if (name == "delivery_ratio") xs.push_back(rep.delivery_ratio);
          else if (name == "first_death_s") xs.push_back(rep.first_death_s);
          else if (name == "depleted_nodes")
            xs.push_back(static_cast<double>(rep.depleted_nodes));
          else if (name == "active_nodes")
            xs.push_back(static_cast<double>(rep.active_nodes));
          else if (name == "max_node_load_j")
            xs.push_back(rep.max_node_load_j);
          else
            EEND_REQUIRE_MSG(false,
                             "unknown replay metric \"" << name << "\"");
        }
        const SampleStats st2 = summarize(xs);
        MetricValue mv;
        mv.name = name;
        mv.mean = st2.mean;
        mv.ci95 = st2.ci95_half_width;
        mv.n = st2.n;
        return mv;
      };
      for (const MetricSpec& m : e.metrics)
        row.metrics.push_back(metric_of(m.name));
      emit(row);
    }
  }
}

void ExperimentEngine::run_churn(const Experiment& e) {
  const std::vector<std::size_t>& nodes =
      (opts_.quick && e.quick.node_counts) ? *e.quick.node_counts
                                           : e.node_counts;
  const std::size_t epochs =
      (opts_.quick && e.quick.epochs) ? *e.quick.epochs : e.epochs;
  const std::size_t runs = effective_runs(e);
  const std::uint64_t base_seed = effective_seed(e);

  replay::ReplaySettings settings;
  if (e.replay_every > 0) {
    settings.stack = net::stack_preset(e.replay_stack);
    settings.duration_s = e.replay_duration_s;
    if (opts_.quick)
      settings.duration_s = std::min(settings.duration_s, kQuickDurationS);
    settings.rate_pps = e.replay_rate_pps;
  }

  // (node count x trace) cells are independent; each cell plays its whole
  // serving loop serially (epoch k+1 needs epoch k's design), so the fan
  // is across cells. Pre-sized per-epoch slots + a single emission pass
  // after the pool keep output bytes independent of --jobs.
  struct Cell {
    std::size_t n = 0;
    std::size_t run = 0;
  };
  std::vector<Cell> cells;
  for (const std::size_t n : nodes)
    for (std::size_t run = 0; run < runs; ++run) cells.push_back({n, run});
  const std::size_t inner_jobs = cells.size() > 1 ? 1 : opts_.jobs;

  struct Sample {
    double warm = 0.0, cold = 0.0, gap = 0.0, events = 0.0,
           rerouted = 0.0, fellback = 0.0, active = 0.0, live = 0.0,
           warm_wall = 0.0, cold_wall = 0.0, replay_gap = 0.0;
  };
  // samples[cell][epoch]
  std::vector<std::vector<Sample>> samples(cells.size());
  std::vector<obs::CounterSnapshot> snaps(cells.size());

  std::mutex io_m;
  ParallelRunner pool(opts_.jobs);
  pool.set_span_label("churn.cell");
  pool.for_each_index(cells.size(), [&](std::size_t ci) {
    const std::uint32_t tid = static_cast<std::uint32_t>(ci) + 1;
    obs::CounterRegistry reg;
    const obs::ScopedRegistry scope(&reg);
    const Cell& cell = cells[ci];
    opt::DesignInstanceSpec spec;
    spec.node_count = cell.n;
    spec.demand_count = e.demands;
    spec.seed = base_seed + cell.run;
    spec.demand_weights = e.demand_weights;
    spec.presolve = e.presolve;
    spec.field_scale = e.field_scale;
    obs::PhaseTimer t_build("instance.build", obs::kPidCell, tid);
    const opt::DesignInstance inst = opt::make_design_instance(spec);
    t_build.stop();

    churn::TraceSpec trace;
    trace.epochs = epochs;
    trace.arrivals_per_epoch = e.arrivals_per_epoch;
    trace.departures_per_epoch = e.departures_per_epoch;
    trace.swings_per_epoch = e.swings_per_epoch;
    trace.failures_per_epoch = e.failures_per_epoch;
    trace.rate_swing = e.rate_swing;
    trace.move_fraction = e.move_fraction;
    trace.move_sigma_m = e.move_sigma_m;
    trace.seed = spec.seed;
    trace.schedule = e.churn_schedule;

    churn::ChurnState state(inst, spec);
    const opt::DesignObjective objective;  // plain Eq. 5, like run_design

    // From-scratch portfolio on an arbitrary (possibly perturbed) problem:
    // the per-epoch baseline the warm repair is scored and raced against.
    const auto cold_solve = [&](const core::NetworkDesignProblem& problem,
                                const presolve::PresolveResult* pre)
        -> std::pair<opt::CandidateDesign, double> {
      obs::PhaseTimer t0("churn.cold_solve", obs::kPidCell, tid);
      const graph::SteinerTree kr =
          (pre ? pre->node_reduced : problem).solve_node_weighted();
      opt::PortfolioOptions po;
      po.objective = objective;
      po.starts = e.starts;
      po.jobs = inner_jobs;
      po.anneal.iterations = e.anneal_iters;
      po.seed = spec.seed;
      po.klein_ravi_tree = &kr;
      po.presolve = pre;
      opt::PortfolioResult pr = opt::design_portfolio(problem, po);
      return {std::move(pr.best), t0.stop()};
    };

    samples[ci].resize(epochs);

    // ---- epoch 0: the cold design IS the serving design.
    auto [serving, wall0] = cold_solve(inst.problem, inst.presolve.get());
    EEND_CHECK_MSG(serving.feasible,
                   "cold portfolio infeasible on a connected instance (n="
                       << cell.n << ", seed=" << spec.seed << ")");
    opt::RouteCache serving_routes;
    serving = opt::evaluate_design(inst.problem, serving.nodes, objective,
                                   nullptr, &serving_routes);
    {
      Sample& s = samples[ci][0];
      s.warm = s.cold = serving.cost();
      s.rerouted = static_cast<double>(serving_routes.routes.size());
      s.active = static_cast<double>(serving.nodes.size());
      s.live = static_cast<double>(inst.problem.demands().size());
      s.warm_wall = s.cold_wall = wall0;
    }

    // ---- epochs 1..: perturb, repair, race against from-scratch.
    for (std::size_t epoch = 1; epoch < epochs; ++epoch) {
      const churn::EpochDelta delta = state.advance(trace, epoch);
      const core::NetworkDesignProblem& problem = state.problem();

      // Failed nodes can no longer serve; drop them from the previous
      // design before the repair (the warm-start contract).
      const std::vector<graph::NodeId> failed = state.failed_nodes();
      if (!failed.empty()) {
        std::vector<graph::NodeId> alive;
        alive.reserve(serving.nodes.size());
        for (const graph::NodeId v : serving.nodes)
          if (!std::binary_search(failed.begin(), failed.end(), v))
            alive.push_back(v);
        serving.nodes = std::move(alive);
      }
      // Route caches are only valid over an unchanged graph.
      if (delta.topology_changed) serving_routes.clear();

      std::optional<presolve::PresolveResult> pre;
      if (e.presolve) {
        obs::PhaseTimer t_pre("presolve", obs::kPidCell, tid);
        pre = presolve::presolve_design(problem);
      }
      const presolve::PresolveResult* pre_ptr = pre ? &*pre : nullptr;

      obs::PhaseTimer t_warm("churn.warm_repair", obs::kPidCell, tid);
      opt::WarmStartOptions wo;
      wo.objective = objective;
      wo.starts = e.starts;
      wo.anneal_iterations = e.anneal_iters;
      wo.jobs = inner_jobs;
      wo.fallback_pct = e.fallback_pct;
      wo.presolve = pre_ptr;
      opt::RouteCache next_routes;
      const opt::WarmStartResult wr = opt::warm_start_search(
          problem, serving, delta.touched_nodes, wo, spec.seed,
          serving_routes.empty() ? nullptr : &serving_routes, &next_routes);
      const double warm_wall = t_warm.stop();

      const auto [cold, cold_wall] = cold_solve(problem, pre_ptr);

      Sample& s = samples[ci][epoch];
      s.warm = wr.design.cost();
      s.cold = cold.cost();
      s.gap = 100.0 * (s.warm - s.cold) / s.cold;
      s.events = static_cast<double>(delta.applied.size());
      s.rerouted = static_cast<double>(wr.rerouted_demands);
      s.fellback = wr.fell_back ? 1.0 : 0.0;
      s.active = static_cast<double>(wr.design.nodes.size());
      s.live = static_cast<double>(problem.demands().size());
      s.warm_wall = warm_wall;
      s.cold_wall = cold_wall;

      // Periodic replay validation: the warm design realized over the
      // *current* (moved/failed) topology and re-run through the packet
      // simulator — the serving loop's end-to-end ground truth.
      if (e.replay_every > 0 && epoch % e.replay_every == 0) {
        obs::PhaseTimer t_real("churn.realize", obs::kPidCell, tid);
        const replay::DesignRealization real = replay::realize_design_at(
            state.positions(), state.field_side(), spec.card, spec.seed,
            problem, wr.design, settings);
        t_real.stop();
        obs::PhaseTimer t_replay("churn.replay_sim", obs::kPidCell, tid);
        const replay::ReplayReport rep =
            replay::run_realization(real, settings);
        t_replay.stop();
        s.replay_gap = rep.gap_pct;
      }

      serving = wr.design;
      serving_routes = std::move(next_routes);
    }

    snaps[ci] = reg.snapshot();
    if (opts_.progress) {
      std::lock_guard<std::mutex> lk(io_m);
      note("  [" + e.title + "] n=" + std::to_string(cell.n) + " trace " +
           std::to_string(cell.run + 1) + "/" + std::to_string(runs) +
           " served (" + std::to_string(epochs) + " epochs)");
    }
  });
  for (const obs::CounterSnapshot& s : snaps) exp_counters_.merge_from(s);

  // Aggregate per (n, epoch) across traces; emission is n-major,
  // epoch-minor, independent of scheduling.
  for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
      ResultRow row;
      row.experiment = e.id;
      row.kind = kind_name(e.kind);
      row.series = "n=" + std::to_string(nodes[ni]);
      row.x_name = "epoch";
      row.x = static_cast<double>(epoch);
      row.runs = runs;
      row.seed = base_seed;
      const auto metric_of = [&](const std::string& name) {
        std::vector<double> xs;
        xs.reserve(runs);
        for (std::size_t run = 0; run < runs; ++run) {
          const Sample& s = samples[ni * runs + run][epoch];
          if (name == "warm_score") xs.push_back(s.warm);
          else if (name == "cold_score") xs.push_back(s.cold);
          else if (name == "gap_vs_cold_pct") xs.push_back(s.gap);
          else if (name == "events_applied") xs.push_back(s.events);
          else if (name == "rerouted_demands") xs.push_back(s.rerouted);
          else if (name == "fallbacks") xs.push_back(s.fellback);
          else if (name == "active_nodes") xs.push_back(s.active);
          else if (name == "live_demands") xs.push_back(s.live);
          else if (name == "warm_wall_s") xs.push_back(s.warm_wall);
          else if (name == "cold_wall_s") xs.push_back(s.cold_wall);
          else if (name == "replay_gap_pct") {
            // parse_metrics already rejects this without replay epochs;
            // guard programmatic Experiment structs skipping validation.
            EEND_REQUIRE_MSG(e.replay_every > 0,
                             "churn metric \"replay_gap_pct\" requires "
                             "replay_every > 0");
            xs.push_back(s.replay_gap);
          } else
            EEND_REQUIRE_MSG(false,
                             "unknown churn metric \"" << name << "\"");
        }
        const SampleStats st = summarize(xs);
        MetricValue mv;
        mv.name = name;
        mv.mean = st.mean;
        mv.ci95 = st.ci95_half_width;
        mv.n = st.n;
        return mv;
      };
      for (const MetricSpec& m : e.metrics)
        row.metrics.push_back(metric_of(m.name));
      emit(row);
    }
  }
}

void ExperimentEngine::run_mopt(const Experiment& e) {
  struct Curve {
    energy::RadioCard card;
    double distance;
    std::string legend;
  };
  std::vector<Curve> curves;
  for (const CardSpec& c : e.cards) {
    Curve cv;
    cv.card = energy::card_by_name(c.card);
    cv.distance = c.distance_m;
    cv.legend = cv.card.name + " (D=" + Table::num(c.distance_m, 0) + "m)";
    curves.push_back(std::move(cv));
  }

  for (const double rb : e.rb) {
    for (const Curve& cv : curves) {
      ResultRow row;
      row.experiment = e.id;
      row.kind = kind_name(e.kind);
      row.series = cv.legend;
      row.x_name = "rb";
      row.x = rb;
      row.runs = 1;
      row.seed = 0;
      for (const MetricSpec& m : e.metrics) {
        MetricValue mv;
        mv.name = m.name;
        mv.n = 1;
        EEND_REQUIRE_MSG(m.name == "mopt",
                         "unknown mopt metric \"" << m.name << "\"");
        mv.mean = analytical::mopt_continuous(cv.card, cv.distance, rb);
        row.metrics.push_back(std::move(mv));
      }
      emit(row);
    }
  }
}

}  // namespace eend::core
