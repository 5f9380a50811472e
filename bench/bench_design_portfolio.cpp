// Design-search portfolio benchmark (the §3 problem at scale).
//
// Drives the manifest engine's `design` kind — exactly the code path
// `eend_run` and the golden suite exercise — over random fields at the
// §5.2.2 density, one series per registered heuristic, and reports each
// heuristic's Eq. 5 cost, gap vs. the Klein-Ravi baseline, and wall time:
// the cost/quality frontier of search effort over the one-shot
// approximations the paper discusses. The engine enforces the portfolio
// invariant (cost <= Klein-Ravi on every instance); this bench re-asserts
// it from the emitted rows before writing anything.
//
// Two legs per invocation:
//   1. the dense family with presolve off (the historical baseline);
//   2. a sparse shrink family (field_scale 2.0, where dead ends and chains
//      actually fire) with the certified-bound columns — reduction
//      percentages land in the JSON and `--assert-min-shrink-pct` turns
//      them into a CI floor.
//
// Emits machine-readable JSON (default BENCH_design_portfolio.json;
// --json= overrides, "none" disables) to extend the BENCH_*.json perf
// trajectory, plus the engine's pivot tables on stdout.
//
// Flags: --quick (N in {50,100,200}; full adds {500,1000,2000}),
//        --demands=N, --starts=N, --anneal-iters=N, --reps=N (instances
//        per size), --jobs=N, --seed=S, --json=PATH, --quiet,
//        --assert-min-shrink-pct=P (fail unless every shrink-family size
//        drops >= P% of its nodes; 0 disables).
#include <fstream>
#include <iostream>
#include <vector>

#include "core/experiment_engine.hpp"
#include "core/result_sink.hpp"
#include "opt/design_heuristic.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace {

using namespace eend;

/// Buffers every row so the JSON artifact can pivot them after the run.
class CollectSink final : public core::ResultSink {
 public:
  void row(const core::ResultRow& r) override { rows.push_back(r); }
  std::vector<core::ResultRow> rows;
};

double metric_mean(const core::ResultRow& r, const std::string& name) {
  for (const core::MetricValue& m : r.metrics)
    if (m.name == name) return m.mean;
  std::cerr << "bench_design_portfolio: row lacks metric " << name << "\n";
  std::exit(1);
}

std::vector<core::ResultRow> run_experiment(const core::Experiment& e,
                                            const core::EngineOptions& opts) {
  core::ExperimentEngine engine(opts);
  CollectSink collect;
  core::TableSink table(std::cout);
  engine.add_sink(collect);
  engine.add_sink(table);
  engine.run(e);
  return std::move(collect.rows);
}

const core::ResultRow& row_at(const std::vector<core::ResultRow>& rows,
                              const std::string& series, double x) {
  for (const core::ResultRow& r : rows)
    if (r.series == series && r.x == x) return r;
  std::cerr << "bench_design_portfolio: missing row (" << series << ", "
            << x << ")\n";
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  const bool quiet = flags.get_bool("quiet", false);
  const std::string json_path =
      flags.get("json", "BENCH_design_portfolio.json");
  const double min_shrink_pct =
      flags.get_double("assert-min-shrink-pct", 0.0);

  core::Experiment e;
  e.id = "bench";
  e.title = "Design-search portfolio — Eq. 5 cost / gap / wall time";
  e.kind = core::ExperimentKind::Design;
  e.node_counts = {50, 100, 200};
  if (!quick) {
    e.node_counts.push_back(500);
    e.node_counts.push_back(1000);
    e.node_counts.push_back(2000);
  }
  // Plain-objective heuristics only: the *_lifetime registry twins need a
  // battery budget and belong to the replay kind (design_replay.json).
  for (const auto& name : opt::heuristic_names())
    if (!opt::heuristic_uses_battery_budget(name))
      e.heuristics.push_back(name);
  e.demands = static_cast<std::size_t>(flags.get_int("demands", 8));
  e.starts = static_cast<std::size_t>(flags.get_int("starts", 8));
  e.anneal_iters =
      static_cast<std::size_t>(flags.get_int("anneal-iters", 300));
  e.runs = static_cast<std::size_t>(flags.get_int("reps", quick ? 2 : 3));
  e.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  e.metrics = {{"eq5_total", 1},
               {"gap_vs_klein_ravi", 2},
               {"relay_nodes", 1},
               {"wall_time_s", 4}};

  core::EngineOptions opts;
  opts.jobs = static_cast<std::size_t>(flags.get_int("jobs", 1));
  opts.progress = quiet ? nullptr : &std::cerr;

  const std::vector<core::ResultRow> rows = run_experiment(e, opts);

  // Re-assert the portfolio guarantee from the user-visible rows (the
  // engine already EEND_CHECKs it per instance; this catches aggregation
  // mistakes too).
  for (const core::ResultRow& r : rows)
    if (r.series == "portfolio" &&
        metric_mean(r, "gap_vs_klein_ravi") > 1e-9) {
      std::cerr << "bench_design_portfolio: portfolio gap "
                << metric_mean(r, "gap_vs_klein_ravi") << "% > 0 at n="
                << r.x << "\n";
      return 1;
    }
  // Leg 2: sparse shrink family with certified bounds. field_scale 2.0
  // quarters the density — the regime where the reductions fire — and the
  // sizes stay small: this leg demonstrates shrink, not scaling.
  core::Experiment es = e;
  es.title = "Design-search portfolio — sparse shrink family (presolve)";
  es.presolve = true;
  es.field_scale = 2.0;
  es.node_counts = {50, 100, 200};
  es.heuristics = {"klein_ravi", "kmb", "portfolio"};
  es.metrics = {{"eq5_total", 1},
                {"lb", 1},
                {"certified_gap_pct", 2},
                {"reduced_nodes", 1},
                {"reduced_edges", 1},
                {"wall_time_s", 4}};
  const std::vector<core::ResultRow> rows_sparse = run_experiment(es, opts);

  for (const std::size_t n : es.node_counts) {
    const core::ResultRow& r =
        row_at(rows_sparse, "portfolio", static_cast<double>(n));
    const double shrink_pct =
        100.0 * metric_mean(r, "reduced_nodes") / static_cast<double>(n);
    if (min_shrink_pct > 0.0 && shrink_pct < min_shrink_pct) {
      std::cerr << "bench_design_portfolio: shrink " << shrink_pct
                << "% at n=" << n << " below required " << min_shrink_pct
                << "%\n";
      return 1;
    }
  }

  if (json_path != "none") {
    json::Array sizes_json;
    for (const std::size_t n : e.node_counts) {
      json::Array heur;
      for (const core::ResultRow& r : rows) {
        if (r.x != static_cast<double>(n)) continue;
        heur.push_back(json::Object{
            {"name", json::Value(r.series)},
            {"mean_cost", json::Value(metric_mean(r, "eq5_total"))},
            {"mean_gap_vs_klein_ravi_pct",
             json::Value(metric_mean(r, "gap_vs_klein_ravi"))},
            {"mean_seconds", json::Value(metric_mean(r, "wall_time_s"))}});
      }
      sizes_json.push_back(json::Object{
          {"n", json::Value(static_cast<double>(n))},
          {"reps", json::Value(static_cast<double>(e.runs))},
          {"heuristics", json::Value(std::move(heur))}});
    }
    json::Array shrink_json;
    for (const std::size_t n : es.node_counts) {
      const core::ResultRow& r =
          row_at(rows_sparse, "portfolio", static_cast<double>(n));
      shrink_json.push_back(json::Object{
          {"n", json::Value(static_cast<double>(n))},
          {"mean_reduced_nodes",
           json::Value(metric_mean(r, "reduced_nodes"))},
          {"mean_reduced_edges",
           json::Value(metric_mean(r, "reduced_edges"))},
          {"shrink_nodes_pct",
           json::Value(100.0 * metric_mean(r, "reduced_nodes") /
                       static_cast<double>(n))},
          {"mean_lb", json::Value(metric_mean(r, "lb"))},
          {"mean_certified_gap_pct",
           json::Value(metric_mean(r, "certified_gap_pct"))}});
    }
    const json::Object doc{
        {"bench", json::Value(std::string("design_portfolio"))},
        {"quick", json::Value(quick)},
        {"seed", json::Value(static_cast<double>(e.seed))},
        {"demands", json::Value(static_cast<double>(e.demands))},
        {"starts", json::Value(static_cast<double>(e.starts))},
        {"anneal_iterations",
         json::Value(static_cast<double>(e.anneal_iters))},
        {"jobs", json::Value(static_cast<double>(opts.jobs))},
        {"sizes", json::Value(std::move(sizes_json))},
        {"presolve_shrink",
         json::Value(json::Object{
             {"field_scale", json::Value(es.field_scale)},
             {"min_shrink_pct_asserted", json::Value(min_shrink_pct)},
             {"sizes", json::Value(std::move(shrink_json))}})}};
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::cerr << "bench_design_portfolio: cannot open " << json_path
                << "\n";
      return 1;
    }
    out << json::dump(json::Value(doc), 2) << "\n";
    if (!quiet) std::cerr << "wrote " << json_path << "\n";
  }
  return 0;
}
