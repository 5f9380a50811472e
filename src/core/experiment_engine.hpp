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

 private:
  struct SearchCells;

  /// Sweep and density: (x × stack) replication cells on one pool.
  void run_simulation(const Experiment& e);
  void run_grid(const Experiment& e);
  void run_mopt(const Experiment& e);
  void run_design(const Experiment& e);
  void run_replay(const Experiment& e);
  void run_churn(const Experiment& e);

  /// Run cells 0..count-1 on the pool under the trace span `span`. Each
  /// cell gets a private counter registry, snapshotted into its slot and
  /// merged into the experiment's counters in cell order; `cell(i)` returns
  /// its progress text, noted as the cell finishes.
  void fan_cells(const Experiment& e, const char* span, std::size_t count,
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
};

}  // namespace eend::core
