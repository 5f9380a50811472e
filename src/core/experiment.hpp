// Experiment orchestration: run a (scenario, stack) combination over
// multiple seeds and aggregate the paper's metrics with 95% confidence
// intervals — the exact methodology of §5.2 ("Each graph depicts an average
// of N runs and 95% confidence intervals").
//
// Replications are dispatched across `jobs` worker threads (each owning a
// private sim::Simulator via its Network) and merged back in seed order, so
// results are bit-identical to the serial path for any jobs value.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "metrics/run_metrics.hpp"
#include "net/network.hpp"
#include "obs/counters.hpp"
#include "util/stats.hpp"

namespace eend::core {

struct ExperimentConfig {
  net::ScenarioConfig scenario;
  net::StackSpec stack;
  std::size_t runs = 5;
  std::uint64_t base_seed = 1;
  /// Worker threads for replications: 1 = serial (default), 0 = one per
  /// hardware thread. Output is identical for every value of `jobs`.
  std::size_t jobs = 1;
};

/// Results of one experiment cell: its per-run records; summarize_runs
/// (and the manifest engine's metric tables) aggregate them.
struct ExperimentResult {
  std::string stack_label;
  double rate_pps = 0.0;

  std::vector<metrics::RunResult> raw;  ///< per-run detail, in seed order

  /// Telemetry: per-replication counter snapshots merged in seed order
  /// (empty with EEND_OBS compiled off). Values derive only from simulated
  /// work, so the merge is byte-identical for any --jobs.
  obs::CounterSnapshot counters;
};

/// Mean and 95% confidence interval of one per-run metric over r's runs,
/// in seed order. `metric` is a RunResult member pointer or a callable on
/// a RunResult.
template <class Metric>
SampleStats summarize_runs(const ExperimentResult& r, Metric&& metric) {
  std::vector<double> xs;
  xs.reserve(r.raw.size());
  for (const metrics::RunResult& run : r.raw)
    xs.push_back(static_cast<double>(std::invoke(metric, run)));
  return summarize(xs);
}

/// Run `cfg.runs` independent replications (seeds base_seed..base_seed+R-1).
ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// Evaluate an arbitrary list of fully-specified cells — every (scenario,
/// stack) combination with the same `runs` — on one shared pool of `jobs`
/// workers. Results come back in cell order regardless of scheduling;
/// `on_cell_done(index)` fires (serialized) as each cell's last replication
/// completes. The manifest engine's sweep and density kinds run on this.
std::vector<ExperimentResult> run_experiment_cells(
    const std::vector<ExperimentConfig>& cells, std::size_t jobs,
    const std::function<void(std::size_t)>& on_cell_done = {});

/// Sweep helper: same scenario/stack across a list of per-flow rates. All
/// (rate × replication) cells share one worker pool.
std::vector<ExperimentResult> sweep_rates(ExperimentConfig cfg,
                                          const std::vector<double>& rates);

}  // namespace eend::core
