// Scenario manifests: a declarative description of a batch of experiment
// cells — which protocol stacks, over which topology, at which traffic
// rates, how many seeded replications — parsed from a small JSON format
// with no external dependencies.
//
// A manifest is a list of experiments; each experiment is one "figure's
// worth" of cells and produces a stream of ResultRows (see result_sink.hpp)
// when executed by ExperimentEngine. Seven kinds cover every evaluation
// shape in the paper:
//
//   sweep    (stack × rate) replication grid        — Figs. 8-12, ablations
//   density  (stack × node count) at a fixed rate   — Table 2
//   grid     frozen-route analytic goodput series   — Figs. 13-16 (§5.2.3)
//   mopt     characteristic hop count per card      — Fig. 7 (§5.1)
//   design   (heuristic × instance size) Eq. 5 design-search portfolio
//            over random §5.2.2-density fields      — the §3 problem itself
//   replay   (heuristic × instance size) searched designs realized as
//            scenarios and re-run through net::Network — the simulated-vs-
//            analytic cross-check, with battery caps and demand weights
//   churn    (instance size × epoch) time-varying serving loop: a
//            deterministic churn trace perturbs the instance each epoch and
//            the incremental designer repairs the previous design, scored
//            against a from-scratch portfolio per epoch
//
// Parsing is strict: unknown keys, duplicate experiment ids, duplicate
// cells (repeated stacks / rates / node counts), and out-of-range values
// are rejected with actionable messages. Specs stay symbolic (preset name +
// overrides) so serialize() round-trips to a canonical form. Tables drive
// it all: manifest.cpp's kind table and knob table (which keys each kind
// accepts, their ranges and canonical order) and metric_table.hpp's
// per-kind metric tables.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "churn/trace.hpp"
#include "net/scenario.hpp"
#include "util/json.hpp"

namespace eend::core {

enum class ExperimentKind { Sweep, Density, Grid, Mopt, Design, Replay, Churn };

const char* kind_name(ExperimentKind k);
ExperimentKind kind_from_name(const std::string& name);

/// A kind's x axis, as the rows and the pretty tables show it.
struct KindAxis {
  const char* x_name;  ///< ResultRow::x_name
  const char* header;  ///< pretty-table x column header
  int precision;       ///< x cell decimals (0 for counts)
  bool with_ci;        ///< cells print "mean +- ci95" (false: analytic)
};
const KindAxis& kind_axis(ExperimentKind k);

/// Scenario reference: a named preset plus explicit overrides, resolved to
/// a net::ScenarioConfig on demand. Presets: "small_network",
/// "large_network", "density_network", "hypothetical_grid", "custom".
struct ScenarioSpec {
  std::string preset = "small_network";
  std::optional<std::size_t> node_count;
  std::optional<double> field_w;
  std::optional<double> field_h;
  std::optional<std::size_t> flow_count;
  std::optional<double> rate_pps;
  std::optional<std::uint32_t> payload_bits;
  std::optional<double> duration_s;
  std::optional<std::size_t> flow_endpoint_pool;
  std::optional<std::vector<double>> rate_multipliers;

  /// Preset factory + overrides; throws CheckError (via validate()) on
  /// nonsensical combinations.
  net::ScenarioConfig resolve() const;
};

/// One metric column of an experiment; precision affects only the pretty
/// tables, never the machine-readable sinks.
struct MetricSpec {
  std::string name;
  int precision = 3;
};

/// One Fig. 7 curve: a radio card evaluated at a fixed endpoint distance.
struct CardSpec {
  std::string card;
  double distance_m = 100.0;
};

/// Reduced-scale parameters applied when the engine runs in --quick mode.
struct QuickSpec {
  std::optional<double> duration_s;
  std::optional<std::size_t> runs;
  std::optional<std::vector<double>> rates_pps;
  std::optional<std::vector<std::size_t>> node_counts;
  std::optional<std::size_t> epochs;  ///< churn: shortened trace length
};

struct Experiment {
  std::string id;     ///< unique within the manifest; [A-Za-z0-9_-]+
  std::string title;  ///< banner text; defaults to id
  ExperimentKind kind = ExperimentKind::Sweep;

  ScenarioSpec scenario;
  std::vector<std::string> stacks;        ///< preset names (sim kinds)
  std::vector<double> rates_pps;          ///< x-axis: sweep, grid
  std::vector<std::size_t> node_counts;   ///< x-axis: density, design
  std::vector<CardSpec> cards;            ///< curves: mopt
  std::vector<double> rb;                 ///< x-axis: mopt (R/B, (0, 0.5])
  std::vector<std::string> heuristics;    ///< series: design (opt/ registry)

  std::size_t runs = 5;
  std::uint64_t seed = 1;
  double base_rate_pps = 2.0;  ///< grid: rate of the route-freezing sim

  // design + replay kinds: instance and search knobs.
  std::size_t demands = 8;       ///< demands sampled per instance
  std::size_t starts = 8;        ///< portfolio multi-start count
  std::size_t anneal_iters = 300;///< annealing iterations per (re)start
  /// design + replay kinds: run presolve::presolve_design per instance.
  /// Search is unaffected; the lb / certified_gap_pct / reduced_* metrics
  /// become available and every design is checked against the bound.
  bool presolve = false;
  /// Multiplier on the §5.2.2 density-law field side ("field_scale" key).
  /// Values > 1 make sparser instances at every node count — the regime
  /// where the presolve reductions actually fire.
  double field_scale = 1.0;

  // replay kind: realization and simulation knobs.
  std::string replay_stack = "dsr_active";  ///< stack preset ("stack" key)
  double replay_duration_s = 300.0;  ///< sim horizon ("duration_s" key)
  double replay_rate_pps = 2.0;      ///< base CBR rate per unit demand rate
  /// Per-node battery (J); 0 = infinite. Required > 0 when any
  /// `*_lifetime` heuristic is listed (it doubles as the search budget).
  double battery_j = 0.0;
  /// Heterogeneous per-demand rate multipliers, cycled over the demands
  /// (mixed_rate-style); they drive Eq. 5 and the CBR generators from one
  /// source of truth. Empty = homogeneous.
  std::vector<double> demand_weights;

  // churn kind: trace generator and serving-loop knobs. A non-empty
  // `churn_schedule` (the "schedule" key) replaces the generator; the
  // parser rejects manifests mixing the two.
  std::size_t epochs = 8;               ///< trace length incl. epoch 0
  std::size_t arrivals_per_epoch = 1;
  std::size_t departures_per_epoch = 1;
  std::size_t swings_per_epoch = 1;
  std::size_t failures_per_epoch = 0;
  double rate_swing = 0.5;              ///< swing factor in [1−s, 1+s]
  double move_fraction = 0.0;           ///< fraction of nodes moved/epoch
  double move_sigma_m = 50.0;           ///< waypoint Gaussian step (m)
  /// Warm-start fallback threshold: the repair must land within this
  /// percentage of the Klein-Ravi reference or the full portfolio reruns.
  double fallback_pct = 5.0;
  /// Replay-validate the warm design every N epochs through src/replay/
  /// (0 = off). When > 0 the replay knobs stack/duration_s/rate_pps apply.
  std::size_t replay_every = 0;
  std::vector<churn::EpochEvents> churn_schedule;  ///< explicit trace

  std::vector<MetricSpec> metrics;  ///< defaulted per kind when empty
  QuickSpec quick;
};

struct Manifest {
  std::string name;
  std::string title;
  std::vector<Experiment> experiments;

  /// Strict construction from parsed JSON; throws CheckError with the
  /// offending key/value and the allowed alternatives.
  static Manifest from_json(const json::Value& v);
  static Manifest parse(const std::string& text);
  static Manifest load(const std::string& path);

  json::Value to_json() const;
  /// Canonical pretty-printed form; parse(serialize(m)) is a fixed point.
  std::string serialize() const;

  /// One line per experiment — "id  [kind]  S series x N x-values  title" —
  /// the `eend_run --list` output that makes --only ids discoverable.
  std::vector<std::string> experiment_summaries() const;
};

/// Human label of one of `kind`'s metrics, used in table banners
/// ("delivery ratio", "energy goodput (bit/J)", ...). Throws on names the
/// kind does not report.
std::string metric_display_name(ExperimentKind kind, const std::string& name);

}  // namespace eend::core
