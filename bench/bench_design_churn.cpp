// Churn serving-loop benchmark (time-varying scenarios, incremental
// re-design).
//
// Drives the manifest engine's `churn` kind — exactly the code path
// `eend_run` and the golden suite exercise — over random fields at the
// §5.2.2 density, one serving loop per (node count, rep): every epoch
// perturbs the instance (arrivals, departures, rate swings, failures,
// motion), repairs the serving design with opt::warm_start_search, and
// races a from-scratch portfolio on the same perturbed problem. Each row
// carries two timings:
//   1. the from-scratch portfolio per epoch — the cold baseline
//      (`cold_wall_s`, computed inside the same rows as the warm repair so
//      both face identical instances);
//   2. the warm repair (`warm_wall_s`) — the serving loop's latency story.
//
// `--assert-min-warm-speedup=P` turns the headline into a CI floor: for
// every node count, the summed cold wall over perturbed epochs must be at
// least P x the summed warm wall (epoch 0 is the shared cold start and is
// excluded). Emits machine-readable JSON (default BENCH_design_churn.json;
// --json= overrides, "none" disables) to extend the BENCH_*.json perf
// trajectory, plus the engine's pivot tables on stdout.
//
// Flags: --quick (N in {50,100}; full adds {200,500}), --demands=N,
//        --epochs=N, --starts=N, --anneal-iters=N, --reps=N, --jobs=N,
//        --seed=S, --json=PATH, --quiet,
//        --assert-min-warm-speedup=P (0 disables),
//        --assert-max-gap-pct=G (fail if any epoch's warm-vs-cold gap
//        exceeds G%; 0 disables).
#include <fstream>
#include <iostream>
#include <vector>

#include "core/experiment_engine.hpp"
#include "core/result_sink.hpp"
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
  std::cerr << "bench_design_churn: row lacks metric " << name << "\n";
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
  std::cerr << "bench_design_churn: missing row (" << series << ", " << x
            << ")\n";
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  const bool quiet = flags.get_bool("quiet", false);
  const std::string json_path = flags.get("json", "BENCH_design_churn.json");
  const double min_speedup = flags.get_double("assert-min-warm-speedup", 0.0);
  const double max_gap_pct = flags.get_double("assert-max-gap-pct", 0.0);

  core::Experiment e;
  e.id = "bench";
  e.title = "Churn serving loop — warm repair vs from-scratch per epoch";
  e.kind = core::ExperimentKind::Churn;
  e.node_counts = {50, 100};
  if (!quick) {
    e.node_counts.push_back(200);
    e.node_counts.push_back(500);
  }
  e.demands = static_cast<std::size_t>(flags.get_int("demands", 8));
  e.epochs = static_cast<std::size_t>(flags.get_int("epochs", 8));
  e.starts = static_cast<std::size_t>(flags.get_int("starts", 8));
  e.anneal_iters =
      static_cast<std::size_t>(flags.get_int("anneal-iters", 300));
  e.runs = static_cast<std::size_t>(flags.get_int("reps", 2));
  e.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  // A busy trace: every generator dimension fires so the repair faces
  // demand churn, rate swings, failures and motion together.
  e.arrivals_per_epoch = 1;
  e.departures_per_epoch = 1;
  e.swings_per_epoch = 2;
  e.failures_per_epoch = 1;
  e.rate_swing = 0.5;
  e.move_fraction = 0.1;
  e.move_sigma_m = 60.0;
  e.metrics = {{"warm_score", 1},
               {"cold_score", 1},
               {"gap_vs_cold_pct", 2},
               {"fallbacks", 2},
               {"warm_wall_s", 4},
               {"cold_wall_s", 4}};

  core::EngineOptions opts;
  opts.jobs = static_cast<std::size_t>(flags.get_int("jobs", 1));
  opts.progress = quiet ? nullptr : &std::cerr;

  const std::vector<core::ResultRow> rows = run_experiment(e, opts);

  // Headline: warm-repair speedup over the from-scratch portfolio, summed
  // over the perturbed epochs (epoch 0 is the shared cold start).
  struct SizeSummary {
    std::size_t n = 0;
    double warm_s = 0.0, cold_s = 0.0;
    double worst_gap_pct = 0.0, fallbacks = 0.0;
  };
  std::vector<SizeSummary> sizes;
  for (const std::size_t n : e.node_counts) {
    SizeSummary s;
    s.n = n;
    const std::string series = "n=" + std::to_string(n);
    for (std::size_t epoch = 1; epoch < e.epochs; ++epoch) {
      const core::ResultRow& r =
          row_at(rows, series, static_cast<double>(epoch));
      s.warm_s += metric_mean(r, "warm_wall_s");
      s.cold_s += metric_mean(r, "cold_wall_s");
      s.worst_gap_pct =
          std::max(s.worst_gap_pct, metric_mean(r, "gap_vs_cold_pct"));
      s.fallbacks += metric_mean(r, "fallbacks");
    }
    const double speedup = s.warm_s > 0.0 ? s.cold_s / s.warm_s : 0.0;
    if (!quiet)
      std::cerr << "n=" << n << ": warm " << s.warm_s << "s, cold " << s.cold_s
                << "s, speedup " << speedup << "x, worst gap "
                << s.worst_gap_pct << "%\n";
    if (min_speedup > 0.0 && speedup < min_speedup) {
      std::cerr << "bench_design_churn: warm speedup " << speedup
                << "x at n=" << n << " below required " << min_speedup
                << "x\n";
      return 1;
    }
    if (max_gap_pct > 0.0 && s.worst_gap_pct > max_gap_pct) {
      std::cerr << "bench_design_churn: warm-vs-cold gap "
                << s.worst_gap_pct << "% at n=" << n
                << " above allowed " << max_gap_pct << "%\n";
      return 1;
    }
    sizes.push_back(s);
  }

  if (json_path != "none") {
    json::Array sizes_json;
    for (const SizeSummary& s : sizes) {
      sizes_json.push_back(json::Object{
          {"n", json::Value(static_cast<double>(s.n))},
          {"reps", json::Value(static_cast<double>(e.runs))},
          {"epochs", json::Value(static_cast<double>(e.epochs))},
          {"warm_seconds", json::Value(s.warm_s)},
          {"cold_seconds", json::Value(s.cold_s)},
          {"warm_speedup",
           json::Value(s.warm_s > 0.0 ? s.cold_s / s.warm_s : 0.0)},
          {"worst_gap_vs_cold_pct", json::Value(s.worst_gap_pct)},
          {"fallback_epochs", json::Value(s.fallbacks)}});
    }
    const json::Object doc{
        {"bench", json::Value(std::string("design_churn"))},
        {"quick", json::Value(quick)},
        {"seed", json::Value(static_cast<double>(e.seed))},
        {"demands", json::Value(static_cast<double>(e.demands))},
        {"starts", json::Value(static_cast<double>(e.starts))},
        {"anneal_iterations",
         json::Value(static_cast<double>(e.anneal_iters))},
        {"jobs", json::Value(static_cast<double>(opts.jobs))},
        {"min_warm_speedup_asserted", json::Value(min_speedup)},
        {"sizes", json::Value(std::move(sizes_json))}};
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::cerr << "bench_design_churn: cannot open " << json_path << "\n";
      return 1;
    }
    out << json::dump(json::Value(doc), 2) << "\n";
    if (!quiet) std::cerr << "wrote " << json_path << "\n";
  }
  return 0;
}
