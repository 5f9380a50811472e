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
#include "opt/warm_start.hpp"
#include "presolve/presolve.hpp"
#include "replay/realization.hpp"
#include "replay/replay.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace eend::core {

namespace {

/// Short simulations used by --quick when the experiment does not specify
/// its own quick.duration_s — matches the bench binaries' --quick.
constexpr double kQuickDurationS = 120.0;

const std::vector<double>& rate_axis(const Experiment& e, bool quick) {
  return quick && e.quick.rates_pps ? *e.quick.rates_pps : e.rates_pps;
}

const std::vector<std::size_t>& node_axis(const Experiment& e, bool quick) {
  return quick && e.quick.node_counts ? *e.quick.node_counts : e.node_counts;
}

/// The one place a ResultRow is filled: the experiment's identity, the
/// kind's x axis, and each requested metric aggregated over the row's
/// `runs` per-run records (`run_at(i)` yields run i's record) through the
/// kind's metric table.
template <class Run, std::size_t N, class RunAt>
ResultRow make_row(const Experiment& e, std::string series, double x,
                   std::size_t runs, std::uint64_t seed,
                   const Metric<Run> (&table)[N], RunAt run_at) {
  ResultRow row;
  row.experiment = e.id;
  row.kind = kind_name(e.kind);
  row.series = std::move(series);
  row.x_name = kind_axis(e.kind).x_name;
  row.x = x;
  row.runs = runs;
  row.seed = seed;
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
    row.metrics.push_back({spec.name, st.mean, st.ci95_half_width, st.n});
  }
  return row;
}

// ------------------------------------------------- design-search cells ---

opt::DesignInstance build_instance(const opt::DesignInstanceSpec& spec,
                                   std::uint32_t trace_tid) {
  obs::PhaseTimer t_build("instance.build", obs::kPidCell, trace_tid);
  return opt::make_design_instance(spec);
}

/// One design-search cell, shared by the design and replay kinds: solve
/// the Klein-Ravi tree once (it seeds klein_ravi, local_search, annealing
/// and the portfolio's start 0, and is the dominant cost on large
/// instances), evaluate it as the baseline, then run every requested
/// heuristic against it. The baseline anchors the design kind's gap metric
/// and the portfolio ≤ Klein-Ravi invariant, which is enforced here — the
/// single point both kinds' results pass through on their way to sinks.
struct CellSearchResult {
  opt::CandidateDesign baseline;
  std::vector<opt::CandidateDesign> designs;  ///< per heuristic, in order
  std::vector<double> walls;                  ///< per heuristic, seconds
};

CellSearchResult search_design_cell(
    const opt::DesignInstanceSpec& spec, const opt::DesignInstance& inst,
    const std::vector<std::string>& heuristics, opt::HeuristicOptions ho,
    std::uint32_t trace_tid) {
  const core::NetworkDesignProblem& problem = inst.problem;
  const std::size_t n = spec.node_count;
  const std::uint64_t seed = spec.seed;
  CellSearchResult out;
  obs::PhaseTimer t_base("search:klein_ravi(baseline)", obs::kPidCell, trace_tid);
  const graph::SteinerTree kr_tree = problem.solve_node_weighted();
  ho.klein_ravi_tree = &kr_tree;
  out.baseline = opt::heuristic_by_name("klein_ravi").run(problem, ho, seed);
  const double baseline_wall = t_base.stop();
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
    out.walls[hi] = name == "klein_ravi" ? baseline_wall : t0.stop();
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

/// The (node count × run) cells of the design-search kinds (design, replay,
/// churn), n-major: cell `ni * runs + run` is instance `run` of
/// `nodes[ni]`, seeded `seed + run`. Cells are independent and fan across
/// the pool; with more than one cell each search runs its portfolio starts
/// inline, while a single cell hands the whole pool to them. Every
/// heuristic is jobs-invariant, so output bytes never depend on the split.
struct ExperimentEngine::SearchCells {
  std::vector<std::size_t> nodes;
  std::size_t runs = 0;
  std::uint64_t seed = 0;
  std::size_t jobs = 1;  ///< search jobs inside one cell

  std::size_t size() const { return nodes.size() * runs; }

  opt::DesignInstanceSpec spec(const Experiment& e, std::size_t ci) const {
    opt::DesignInstanceSpec s;
    s.node_count = nodes[ci / runs];
    s.demand_count = e.demands;
    s.seed = seed + ci % runs;
    s.demand_weights = e.demand_weights;
    s.presolve = e.presolve;
    s.field_scale = e.field_scale;
    return s;
  }

  opt::HeuristicOptions options(const Experiment& e) const {
    opt::HeuristicOptions ho;
    ho.starts = e.starts;
    ho.anneal_iterations = e.anneal_iters;
    ho.jobs = jobs;
    return ho;
  }

  /// Progress text: "n=40 instance 2/3".
  std::string label(std::size_t ci) const {
    return "n=" + std::to_string(nodes[ci / runs]) + " instance " +
           std::to_string(ci % runs + 1) + "/" + std::to_string(runs);
  }
};

ExperimentEngine::SearchCells ExperimentEngine::search_cells(
    const Experiment& e) const {
  SearchCells c;
  c.nodes = node_axis(e, opts_.quick);
  c.runs = effective_runs(e);
  c.seed = effective_seed(e);
  c.jobs = c.size() > 1 ? 1 : opts_.jobs;
  return c;
}

void ExperimentEngine::run(const Manifest& m) {
  for (const Experiment& e : m.experiments) run(e);
}

void ExperimentEngine::run(const Experiment& e) {
  obs::PhaseTimer exp_span("experiment:" + e.id, 0, 0);
  exp_counters_.clear();
  for (ResultSink* s : sinks_) s->begin_experiment(e);
  switch (e.kind) {
    case ExperimentKind::Sweep:
    case ExperimentKind::Density: run_simulation(e); break;
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

void ExperimentEngine::note(const Experiment& e, const std::string& cell) {
  if (opts_.progress)
    *opts_.progress << "  [" << e.title << "] " << cell << '\n';
}

std::vector<obs::CounterSnapshot> ExperimentEngine::fan_cells(
    const Experiment& e, const char* span, std::size_t count,
    const std::function<std::string(std::size_t)>& cell) {
  std::vector<obs::CounterSnapshot> snaps(count);
  std::mutex io_m;
  ParallelRunner pool(opts_.jobs);
  pool.set_span_label(span);
  pool.for_each_index(count, [&](std::size_t i) {
    obs::CounterRegistry reg;
    const obs::ScopedRegistry scope(&reg);
    const std::string done = cell(i);
    snaps[i] = reg.snapshot();
    const std::lock_guard<std::mutex> lk(io_m);
    note(e, done);
  });
  for (const obs::CounterSnapshot& s : snaps) exp_counters_.merge_from(s);
  return snaps;
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

void ExperimentEngine::run_simulation(const Experiment& e) {
  // The x axis is the flow rate (sweep) or the node count (density); a
  // density cell resolves its scenario per count, since presets such as
  // huge_field derive the field size from it.
  const bool density = e.kind == ExperimentKind::Density;
  std::vector<double> xs;
  if (density)
    for (const std::size_t n : node_axis(e, opts_.quick))
      xs.push_back(static_cast<double>(n));
  else
    xs = rate_axis(e, opts_.quick);
  const std::vector<net::StackSpec> stacks = resolve_stacks(e);

  // All (x × stack) cells share one pool so wide tables keep every core
  // busy even at runs=1; emission order (x-major, stack-minor) matches the
  // cell list and never depends on scheduling.
  std::vector<ExperimentConfig> cells;
  for (const double x : xs) {
    ExperimentConfig cfg;
    cfg.scenario = density ? resolve_scenario(e, static_cast<std::size_t>(x))
                           : resolve_scenario(e);
    if (!density) cfg.scenario.rate_pps = x;
    cfg.runs = effective_runs(e);
    cfg.base_seed = effective_seed(e);
    for (const net::StackSpec& stack : stacks) {
      cfg.stack = stack;
      cells.push_back(cfg);
    }
  }

  std::function<void(std::size_t)> on_cell_done;
  if (opts_.progress)
    on_cell_done = [&](std::size_t i) {
      note(e, cells[i].stack.label + " " + kind_axis(e.kind).x_name + "=" +
                  format_double(xs[i / stacks.size()]) + " done");
    };
  const auto results = run_experiment_cells(cells, opts_.jobs, on_cell_done);

  for (const auto& r : results) exp_counters_.merge_from(r.counters);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::vector<metrics::RunResult>& raw = results[i].raw;
    emit(make_row(e, cells[i].stack.label, xs[i / stacks.size()],
                  cells[i].runs, cells[i].base_seed, kSimMetrics,
                  [&](std::size_t run) -> const SimRun& { return raw[run]; }));
  }
}

void ExperimentEngine::run_grid(const Experiment& e) {
  net::ScenarioConfig sc = resolve_scenario(e);
  sc.rate_pps = e.base_rate_pps;
  sc.seed = effective_seed(e);
  const std::vector<net::StackSpec> stacks = resolve_stacks(e);
  const std::vector<double>& rates = rate_axis(e, opts_.quick);

  const auto done = [](const RouteFreeze& f) {
    return f.label + " done (" + std::to_string(f.active_nodes.size()) +
           " active nodes)";
  };
  const auto memo = [&](const net::StackSpec& stack) {
    return std::find_if(grid_freezes_.begin(), grid_freezes_.end(),
                        [&](const GridFreeze& f) {
                          return f.scenario == sc && f.stack == stack;
                        });
  };

  // The base-rate simulation depends only on (scenario, stack), never on
  // the rate axis: each stack looks in the memo first, only the misses fan
  // out, and their freezes join the memo after the pool is done, so no
  // worker writes it.
  std::vector<GridFreeze> fresh;
  for (const net::StackSpec& stack : stacks) {
    const auto hit = memo(stack);
    if (hit == grid_freezes_.end()) {
      fresh.push_back({sc, stack, {}, {}});
      continue;
    }
    exp_counters_.merge_from(hit->counters);
    note(e, done(hit->freeze));
  }
  std::vector<obs::CounterSnapshot> snaps =
      fan_cells(e, "grid.series", fresh.size(), [&](std::size_t k) {
        fresh[k].freeze = freeze_routes(sc, fresh[k].stack);
        return done(fresh[k].freeze);
      });
  for (std::size_t k = 0; k < fresh.size(); ++k) {
    fresh[k].counters = std::move(snaps[k]);
    grid_freezes_.push_back(std::move(fresh[k]));
  }

  std::vector<GridSeries> series;
  for (const net::StackSpec& stack : stacks)
    series.push_back(
        grid_series_from_freeze(memo(stack)->freeze, sc, stack, rates));
  for (std::size_t ri = 0; ri < rates.size(); ++ri)
    for (const GridSeries& s : series)
      emit(make_row(e, s.label, rates[ri], 1, sc.seed, kGridMetrics,
                    [&](std::size_t) { return GridCell{s, s.points[ri]}; }));
}

void ExperimentEngine::run_design(const Experiment& e) {
  const SearchCells cells = search_cells(e);
  const opt::HeuristicOptions ho = cells.options(e);

  // samples[cell][heuristic]: this instance's metric values.
  std::vector<std::vector<DesignSample>> samples(cells.size());
  fan_cells(e, "design.cell", cells.size(), [&](std::size_t ci) {
    const std::uint32_t tid = static_cast<std::uint32_t>(ci) + 1;
    const opt::DesignInstanceSpec spec = cells.spec(e, ci);
    const opt::DesignInstance inst = build_instance(spec, tid);
    const CellSearchResult sr =
        search_design_cell(spec, inst, e.heuristics, ho, tid);
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
    return cells.label(ci) + " done";
  });

  // Aggregate per (n, heuristic) across instances; emission is n-major,
  // heuristic-minor in manifest order, independent of scheduling.
  for (std::size_t ni = 0; ni < cells.nodes.size(); ++ni)
    for (std::size_t hi = 0; hi < e.heuristics.size(); ++hi)
      emit(make_row(e, e.heuristics[hi],
                    static_cast<double>(cells.nodes[ni]), cells.runs,
                    cells.seed, kDesignMetrics,
                    [&](std::size_t run) -> const DesignSample& {
                      return samples[ni * cells.runs + run][hi];
                    }));
}

void ExperimentEngine::run_replay(const Experiment& e) {
  const SearchCells cells = search_cells(e);
  replay::ReplaySettings settings;
  settings.stack = net::stack_preset(e.replay_stack);
  settings.duration_s = e.replay_duration_s;
  if (opts_.quick)
    settings.duration_s = std::min(
        settings.duration_s, e.quick.duration_s.value_or(kQuickDurationS));
  settings.rate_pps = e.replay_rate_pps;
  settings.battery_capacity_j = e.battery_j;

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
  fan_cells(e, "replay.search", cells.size(), [&](std::size_t ci) {
    const std::uint32_t tid = static_cast<std::uint32_t>(ci) + 1;
    CellState& st = state[ci];
    st.spec = cells.spec(e, ci);
    st.instance = build_instance(st.spec, tid);
    opt::HeuristicOptions ho = cells.options(e);
    ho.eval = replay::replay_eq5_params(settings, st.spec.card);
    ho.battery_budget_j = e.battery_j;
    st.designs =
        search_design_cell(st.spec, st.instance, e.heuristics, ho, tid)
            .designs;
    return cells.label(ci) + " searched";
  });

  // reports[cell * heuristics + heuristic]
  const std::size_t nh = e.heuristics.size();
  std::vector<replay::ReplayReport> reports(cells.size() * nh);
  fan_cells(e, "replay.sim", reports.size(), [&](std::size_t i) {
    const CellState& st = state[i / nh];
    reports[i] = replay::replay_design(st.spec, st.instance,
                                       st.designs[i % nh], settings);
    return cells.label(i / nh) + " " + e.heuristics[i % nh] + " replayed";
  });

  for (std::size_t ni = 0; ni < cells.nodes.size(); ++ni)
    for (std::size_t hi = 0; hi < nh; ++hi)
      emit(make_row(e, e.heuristics[hi],
                    static_cast<double>(cells.nodes[ni]), cells.runs,
                    cells.seed, kReplayMetrics,
                    [&](std::size_t run) -> const ReplayRun& {
                      return reports[(ni * cells.runs + run) * nh + hi];
                    }));
}

void ExperimentEngine::run_churn(const Experiment& e) {
  const SearchCells cells = search_cells(e);
  const opt::HeuristicOptions ho = cells.options(e);  // plain Eq. 5
  const std::size_t epochs =
      (opts_.quick && e.quick.epochs) ? *e.quick.epochs : e.epochs;

  replay::ReplaySettings settings;
  if (e.replay_every > 0) {
    settings.stack = net::stack_preset(e.replay_stack);
    settings.duration_s = e.replay_duration_s;
    if (opts_.quick)
      settings.duration_s = std::min(settings.duration_s, kQuickDurationS);
    settings.rate_pps = e.replay_rate_pps;
  }

  // Each cell plays its whole serving loop serially (epoch k+1 needs epoch
  // k's design) into pre-sized per-epoch slots: samples[cell][epoch].
  std::vector<std::vector<ChurnSample>> samples(cells.size());
  fan_cells(e, "churn.cell", cells.size(), [&](std::size_t ci) {
    const std::uint32_t tid = static_cast<std::uint32_t>(ci) + 1;
    const opt::DesignInstanceSpec spec = cells.spec(e, ci);
    const opt::DesignInstance inst = build_instance(spec, tid);

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
    const opt::DesignObjective objective(ho.eval);

    // From-scratch portfolio on an arbitrary (possibly perturbed) problem:
    // the per-epoch baseline the warm repair is scored and raced against.
    const auto cold_solve = [&](const core::NetworkDesignProblem& problem)
        -> std::pair<opt::CandidateDesign, double> {
      obs::PhaseTimer t0("churn.cold_solve", obs::kPidCell, tid);
      const graph::SteinerTree kr = problem.solve_node_weighted();
      opt::HeuristicOptions cold = ho;
      cold.klein_ravi_tree = &kr;
      opt::CandidateDesign best =
          opt::heuristic_by_name("portfolio").run(problem, cold, spec.seed);
      return {std::move(best), t0.stop()};
    };

    samples[ci].resize(epochs);

    // ---- epoch 0: the cold design IS the serving design.
    auto [serving, wall0] = cold_solve(inst.problem);
    EEND_CHECK_MSG(serving.feasible,
                   "cold portfolio infeasible on a connected instance (n="
                       << spec.node_count << ", seed=" << spec.seed << ")");
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

      obs::PhaseTimer t_warm("churn.warm_repair", obs::kPidCell, tid);
      opt::WarmStartOptions wo;
      wo.objective = objective;
      wo.starts = ho.starts;
      wo.anneal_iterations = ho.anneal_iterations;
      wo.jobs = ho.jobs;
      wo.fallback_pct = e.fallback_pct;
      opt::RouteCache next_routes;
      const opt::WarmStartResult wr = opt::warm_start_search(
          problem, serving, delta.touched_nodes, wo, spec.seed,
          serving_routes.empty() ? nullptr : &serving_routes, &next_routes);
      const double warm_wall = t_warm.stop();

      const auto [cold, cold_wall] = cold_solve(problem);

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
    return cells.label(ci) + " served (" + std::to_string(epochs) +
           " epochs)";
  });

  // Aggregate per (n, epoch) across traces; emission is n-major,
  // epoch-minor, independent of scheduling.
  for (std::size_t ni = 0; ni < cells.nodes.size(); ++ni)
    for (std::size_t epoch = 0; epoch < epochs; ++epoch)
      emit(make_row(e, "n=" + std::to_string(cells.nodes[ni]),
                    static_cast<double>(epoch), cells.runs, cells.seed,
                    kChurnMetrics, [&](std::size_t run) -> const ChurnSample& {
                      return samples[ni * cells.runs + run][epoch];
                    }));
}

void ExperimentEngine::run_mopt(const Experiment& e) {
  for (const double rb : e.rb)
    for (const CardSpec& c : e.cards) {
      const energy::RadioCard card = energy::card_by_name(c.card);
      emit(make_row(e, card.name + " (D=" + Table::num(c.distance_m, 0) + "m)",
                    rb, 1, 0, kMoptMetrics, [&](std::size_t) {
                      return MoptCell{card, c.distance_m, rb};
                    }));
    }
}

}  // namespace eend::core
