// ExperimentEngine: executes a Manifest, streaming every cell's aggregated
// results through the registered ResultSinks.
//
// Determinism contract: for a given manifest and options, the byte stream
// each sink receives is identical for every jobs value — replication and
// per-stack parallelism reuse ParallelRunner's index-slot merging, and rows
// are emitted x-major / series-minor in manifest order after each
// experiment's cells complete. --jobs only changes wall-clock time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
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
  /// Progress lines ("  [title] STACK done") go here; nullptr = silent.
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
  void run_sweep(const Experiment& e);
  void run_density(const Experiment& e);
  void run_grid(const Experiment& e);
  void run_mopt(const Experiment& e);
  void run_design(const Experiment& e);
  void run_replay(const Experiment& e);
  void run_churn(const Experiment& e);

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
  void note(const std::string& line);

  EngineOptions opts_;
  std::vector<ResultSink*> sinks_;
  /// Counters accumulated by the experiment currently inside run(); each
  /// run_* kind merges its per-cell snapshots here in cell order.
  obs::CounterSnapshot exp_counters_;
};

}  // namespace eend::core
