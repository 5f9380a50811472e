// ExperimentEngine: executes a Manifest, streaming every cell's aggregated
// results through the registered ResultSinks.
//
// Determinism contract: for a given manifest and options, the byte stream
// each sink receives is identical for every jobs value — every kind's
// cells land in pre-sized slots (run_experiment_cells for sweep and
// density, fan_cells for the rest), and rows are emitted x-major /
// series-minor in manifest order after each experiment's cells complete.
// --jobs only changes wall-clock time.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/grid_study.hpp"
#include "core/manifest.hpp"
#include "core/result_sink.hpp"
#include "net/stack.hpp"
#include "obs/counters.hpp"

namespace eend::core {

struct EngineOptions {
  /// Worker threads: 1 = serial, 0 = one per hardware thread.
  std::size_t jobs = 1;
  /// Apply each experiment's QuickSpec (reduced duration / runs / axes).
  bool quick = false;
  /// When set, override every experiment's replication count / seed
  /// (seed 0 is a valid override, hence optionals rather than sentinels).
  std::optional<std::size_t> runs_override;
  std::optional<std::uint64_t> seed_override;
  /// One progress line per finished cell, "  [<title>] <cell> <verb>",
  /// goes here; nullptr = silent. A simulation cell reads "<stack>
  /// <x_name>=<x> done", a grid series "<stack> done (<k> active nodes)",
  /// a design-search cell "n=<N> instance <r>/<runs>" followed by "done"
  /// (design), "searched" and "<heuristic> replayed" (replay) or "served
  /// (<E> epochs)" (churn). Lines arrive in completion order.
  std::ostream* progress = nullptr;
  /// Per-experiment telemetry counters as JSONL (one line per counter /
  /// histogram, merged in seed order so the bytes are --jobs-invariant);
  /// nullptr = counters are still collected but not written.
  std::ostream* counters = nullptr;
};

class ExperimentEngine {
 public:
  explicit ExperimentEngine(EngineOptions opts = {}) : opts_(opts) {}

  /// Sinks are not owned and must outlive run() calls.
  void add_sink(ResultSink& sink) { sinks_.push_back(&sink); }

  /// Execute every experiment in manifest order.
  void run(const Manifest& m);

  /// Execute one experiment (benches drive single figures this way).
  void run(const Experiment& e);

  /// Base-rate simulations the grid kind has run so far: one per distinct
  /// (scenario, stack) pair, however many experiments used it.
  std::size_t grid_freezes() const { return grid_freezes_.size(); }

 private:
  struct SearchCells;
  /// One grid base-rate simulation, keyed by the exact (scenario, stack)
  /// it ran, with its frozen routes and the counters it published. Keys
  /// compare with the configs' defaulted operator==, so every field of
  /// either takes part.
  struct GridFreeze {
    net::ScenarioConfig scenario;
    net::StackSpec stack;
    RouteFreeze freeze;
    obs::CounterSnapshot counters;
  };

  /// Sweep and density: (x × stack) replication cells on one pool.
  void run_simulation(const Experiment& e);
  void run_grid(const Experiment& e);
  void run_mopt(const Experiment& e);
  void run_design(const Experiment& e);
  void run_replay(const Experiment& e);
  void run_churn(const Experiment& e);

  /// Run cells 0..count-1 on the pool under the trace span `span`. Each
  /// cell gets a private counter registry, snapshotted into its slot and
  /// merged into the experiment's counters in cell order; the snapshots are
  /// returned. `cell(i)` returns its progress text, noted as the cell
  /// finishes.
  std::vector<obs::CounterSnapshot> fan_cells(
      const Experiment& e, const char* span, std::size_t count,
      const std::function<std::string(std::size_t)>& cell);
  SearchCells search_cells(const Experiment& e) const;

  void emit(const ResultRow& r);
  /// Resolve the experiment's scenario; density cells pass their node
  /// count so presets that derive other parameters from it (huge_field
  /// scales the field to hold density constant) resolve per cell.
  net::ScenarioConfig resolve_scenario(
      const Experiment& e,
      std::optional<std::size_t> node_count = std::nullopt) const;
  static std::vector<net::StackSpec> resolve_stacks(const Experiment& e);
  std::size_t effective_runs(const Experiment& e) const;
  std::uint64_t effective_seed(const Experiment& e) const;
  void note(const Experiment& e, const std::string& cell);

  EngineOptions opts_;
  std::vector<ResultSink*> sinks_;
  /// Counters accumulated by the experiment currently inside run(); each
  /// kind's per-cell snapshots merge here in cell order.
  obs::CounterSnapshot exp_counters_;
  /// The grid kind's memo. A hit reuses the freeze and merges its counters
  /// into the experiment's, so an experiment's counters never depend on
  /// which experiments ran before it.
  std::vector<GridFreeze> grid_freezes_;
};

}  // namespace eend::core
