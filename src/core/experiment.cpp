#include "core/experiment.hpp"

#include <mutex>

#include "core/parallel_runner.hpp"
#include "obs/trace.hpp"

namespace eend::core {
namespace {

// One replication: private Network (and thus private Simulator/Rng), seed
// derived from the replication index — identical whichever worker runs it.
// Telemetry counters land in a replication-private registry (snapshotted
// into `counters`), so per-replication totals are scheduling-independent.
// `lane` is the replication's stable logical trace lane across the batch.
metrics::RunResult run_replication(const ExperimentConfig& cfg,
                                   std::size_t rep, std::size_t lane,
                                   obs::CounterSnapshot& counters) {
  net::ScenarioConfig sc = cfg.scenario;
  sc.seed = cfg.base_seed + rep;
  net::Network network(sc, cfg.stack);
  obs::CounterRegistry reg;
  const obs::ScopedRegistry scope(&reg);
  if (obs::tracing())  // sampled sim-core spans: pid 1 = sim row
    network.simulator().set_trace_sampling(
        4096, 1, static_cast<std::uint32_t>(lane) + 1);
  metrics::RunResult out = network.run();
  counters = reg.snapshot();
  return out;
}

// Shared engine: evaluate `cells` (each `runs` replications) on one pool;
// results in cell-major, then seed, order — independent of scheduling.
std::vector<ExperimentResult> run_cells(
    const std::vector<ExperimentConfig>& cells, std::size_t jobs,
    const std::function<void(std::size_t)>& on_cell_done = {}) {
  if (cells.empty()) return {};
  const std::size_t runs = cells.front().runs;
  std::vector<metrics::RunResult> raw(cells.size() * runs);
  std::vector<obs::CounterSnapshot> snaps(raw.size());

  std::mutex progress_m;
  std::vector<std::size_t> remaining(cells.size(), runs);

  ParallelRunner pool(jobs);
  pool.set_span_label("replication");
  pool.for_each_index(raw.size(), [&](std::size_t k) {
    const std::size_t cell = k / runs;
    raw[k] = run_replication(cells[cell], k % runs, k, snaps[k]);
    if (on_cell_done) {
      std::lock_guard<std::mutex> lk(progress_m);
      if (--remaining[cell] == 0) on_cell_done(cell);
    }
  });

  std::vector<ExperimentResult> out;
  out.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    ExperimentResult& cell = out.emplace_back();
    cell.stack_label = cells[c].stack.label;
    cell.rate_pps = cells[c].scenario.rate_pps;
    cell.raw.assign(std::make_move_iterator(raw.begin() + c * runs),
                    std::make_move_iterator(raw.begin() + (c + 1) * runs));
    for (std::size_t r = 0; r < runs; ++r)  // seed-order merge
      cell.counters.merge_from(snaps[c * runs + r]);
  }
  return out;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  EEND_REQUIRE(cfg.runs >= 1);
  return std::move(run_cells({cfg}, cfg.jobs).front());
}

std::vector<ExperimentResult> run_experiment_cells(
    const std::vector<ExperimentConfig>& cells, std::size_t jobs,
    const std::function<void(std::size_t)>& on_cell_done) {
  for (const ExperimentConfig& c : cells) {
    EEND_REQUIRE(c.runs >= 1);
    // run_cells slices the flat result array as cell * runs, so a ragged
    // runs count would misattribute replications.
    EEND_REQUIRE_MSG(c.runs == cells.front().runs,
                     "all cells in one batch must share the runs count");
  }
  return run_cells(cells, jobs, on_cell_done);
}

std::vector<ExperimentResult> sweep_rates(ExperimentConfig cfg,
                                          const std::vector<double>& rates) {
  EEND_REQUIRE(cfg.runs >= 1);
  std::vector<ExperimentConfig> cells;
  cells.reserve(rates.size());
  for (double r : rates) {
    cfg.scenario.rate_pps = r;
    cells.push_back(cfg);
  }
  return run_cells(cells, cfg.jobs);
}

}  // namespace eend::core
