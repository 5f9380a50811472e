#include "core/experiment_engine.hpp"

#include <algorithm>
#include <mutex>
#include <ostream>

#include "churn/trace.hpp"
#include "core/experiment.hpp"
#include "core/grid_study.hpp"
#include "core/metric_table.hpp"
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

/// Aggregates each requested metric over a row's `runs` per-run records
/// (`run_at(i)` yields run i's record) through the kind's metric table —
/// the one summarize-over-runs path behind every kind's rows.
template <class Run, std::size_t N, class RunAt>
std::vector<MetricValue> summarize_metrics(const Experiment& e,
                                           const Metric<Run> (&table)[N],
                                           std::size_t runs, RunAt run_at) {
  std::vector<MetricValue> out;
  for (const MetricSpec& spec : e.metrics) {
    const Metric<Run>* m = nullptr;
    for (const Metric<Run>& candidate : table)
      if (spec.name == candidate.name) m = &candidate;
    // The parser rejects both; these guard programmatic Experiment structs.
    EEND_REQUIRE_MSG(m, "unknown " << kind_name(e.kind) << " metric \""
                                   << spec.name << "\"");
    const char* need = unmet_need(e, m->needs);
    EEND_REQUIRE_MSG(!need, kind_name(e.kind) << " metric \"" << spec.name
                                              << "\" requires " << need);
    std::vector<double> xs(runs);
    for (std::size_t i = 0; i < runs; ++i) xs[i] = m->get(run_at(i));
    const SampleStats st = summarize(xs);
    out.push_back({spec.name, st.mean, st.ci95_half_width, st.n});
  }
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
      const std::vector<metrics::RunResult>& raw = results[si][ri].raw;
      row.metrics = summarize_metrics(
          e, kSimMetrics, raw.size(),
          [&](std::size_t run) -> const SimRun& { return raw[run]; });
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
    const std::vector<metrics::RunResult>& raw = results[i].raw;
    row.metrics = summarize_metrics(
        e, kSimMetrics, raw.size(),
        [&](std::size_t run) -> const SimRun& { return raw[run]; });
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
      row.metrics = summarize_metrics(e, kGridMetrics, 1, [&](std::size_t) {
        return GridCell{series[si], series[si].points[ri]};
      });
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
  std::vector<std::vector<DesignSample>> samples(cells.size());
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
      DesignSample& s = samples[ci][hi];
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
      row.metrics = summarize_metrics(
          e, kDesignMetrics, runs, [&](std::size_t run) -> const DesignSample& {
            return samples[ni * runs + run][hi];
          });
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
      row.metrics = summarize_metrics(
          e, kReplayMetrics, runs, [&](std::size_t run) -> const ReplayRun& {
            return reports[(ni * runs + run) * e.heuristics.size() + hi];
          });
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

  // samples[cell][epoch]
  std::vector<std::vector<ChurnSample>> samples(cells.size());
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
      ChurnSample& s = samples[ci][0];
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

      ChurnSample& s = samples[ci][epoch];
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
      row.metrics = summarize_metrics(
          e, kChurnMetrics, runs, [&](std::size_t run) -> const ChurnSample& {
            return samples[ni * runs + run][epoch];
          });
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
      row.metrics = summarize_metrics(e, kMoptMetrics, 1, [&](std::size_t) {
        return MoptCell{cv.card, cv.distance, rb};
      });
      emit(row);
    }
  }
}

}  // namespace eend::core
