#include "core/manifest.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "energy/radio_card.hpp"
#include "net/stack.hpp"
#include "opt/design_heuristic.hpp"
#include "util/check.hpp"

namespace eend::core {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw CheckError("manifest: " + msg);
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += ", ";
    out += p;
  }
  return out;
}

// ---------------------------------------------------------------- readers ---

/// Wraps one JSON object; every field access marks its key as consumed so
/// finish() can reject leftovers ("unknown key") with the allowed set —
/// typo-proofing for hand-written manifests.
class ObjectReader {
 public:
  ObjectReader(const json::Value& v, std::string ctx) : ctx_(std::move(ctx)) {
    if (!v.is_object()) fail(ctx_ + " must be a JSON object");
    obj_ = &v.as_object();
    consumed_.assign(obj_->size(), false);
  }

  const json::Value* optional(const std::string& key) {
    for (std::size_t i = 0; i < obj_->size(); ++i) {
      if ((*obj_)[i].first == key) {
        consumed_[i] = true;
        return &(*obj_)[i].second;
      }
    }
    known_.push_back(key);
    return nullptr;
  }

  const json::Value& required(const std::string& key) {
    const json::Value* v = optional(key);
    if (!v) fail("missing required key \"" + key + "\" in " + ctx_);
    return *v;
  }

  /// Declare a key as recognized (for the unknown-key message) without
  /// reading it — used for keys that are invalid for the current kind.
  void forbid(const std::string& key, const std::string& why) {
    for (std::size_t i = 0; i < obj_->size(); ++i)
      if ((*obj_)[i].first == key)
        fail("key \"" + key + "\" in " + ctx_ + " " + why);
  }

  void finish() {
    std::vector<std::string> allowed;
    for (std::size_t i = 0; i < obj_->size(); ++i)
      if (consumed_[i]) allowed.push_back((*obj_)[i].first);
    for (std::size_t i = 0; i < obj_->size(); ++i) {
      if (consumed_[i]) continue;
      std::vector<std::string> names = known_;
      for (const auto& a : allowed) names.push_back(a);
      std::sort(names.begin(), names.end());
      names.erase(std::unique(names.begin(), names.end()), names.end());
      fail("unknown key \"" + (*obj_)[i].first + "\" in " + ctx_ +
           " (allowed: " + join(names) + ")");
    }
  }

  const std::string& ctx() const { return ctx_; }

 private:
  const json::Object* obj_ = nullptr;
  std::vector<bool> consumed_;
  std::vector<std::string> known_;  // keys probed but absent
  std::string ctx_;
};

std::string as_string(const json::Value& v, const std::string& ctx) {
  if (!v.is_string()) fail(ctx + " must be a string");
  return v.as_string();
}

double as_finite(const json::Value& v, const std::string& ctx) {
  if (!v.is_number()) fail(ctx + " must be a number");
  return v.as_number();
}

std::uint64_t as_uint(const json::Value& v, const std::string& ctx) {
  const double d = as_finite(v, ctx);
  if (d < 0.0 || d != std::floor(d) || d > 9.007199254740992e15)
    fail(ctx + " must be a non-negative integer, got " + json::dump(v));
  return static_cast<std::uint64_t>(d);
}

std::vector<double> as_rate_list(const json::Value& v, const std::string& ctx) {
  if (!v.is_array() || v.as_array().empty())
    fail(ctx + " must be a non-empty array of rates");
  std::vector<double> out;
  for (const auto& e : v.as_array()) {
    const double r = as_finite(e, ctx + " entry");
    if (!(r > 0.0) || !std::isfinite(r) || r > 1e6)
      fail(ctx + " entries must be in (0, 1e6] pkt/s, got " + json::dump(e));
    out.push_back(r);
  }
  for (std::size_t i = 0; i < out.size(); ++i)
    for (std::size_t j = i + 1; j < out.size(); ++j)
      if (out[i] == out[j])
        fail("duplicate rate " + json::dump(json::Value(out[i])) + " in " +
             ctx + " — each rate defines one cell");
  return out;
}

std::vector<std::size_t> as_node_list(const json::Value& v,
                                      const std::string& ctx) {
  if (!v.is_array() || v.as_array().empty())
    fail(ctx + " must be a non-empty array of node counts");
  std::vector<std::size_t> out;
  for (const auto& e : v.as_array()) {
    const auto n = as_uint(e, ctx + " entry");
    if (n < 2) fail(ctx + " entries must be >= 2 nodes, got " + json::dump(e));
    out.push_back(static_cast<std::size_t>(n));
  }
  for (std::size_t i = 0; i < out.size(); ++i)
    for (std::size_t j = i + 1; j < out.size(); ++j)
      if (out[i] == out[j])
        fail("duplicate node count " + std::to_string(out[i]) + " in " + ctx +
             " — each count defines one cell");
  return out;
}

// ----------------------------------------------------------------- metrics ---

// Single registry of metric names and their table-banner labels: valid
// names per kind and display lookup both derive from these, so a metric
// added here is complete (the engine's extractors are the remaining
// counterpart, and they fail loudly on unknown names).
struct MetricInfo {
  const char* name;
  const char* display;
};

constexpr MetricInfo kSimMetricInfo[] = {
    {"delivery_ratio", "delivery ratio"},
    {"goodput_bit_per_j", "energy goodput (bit/J)"},
    {"transmit_energy_j", "transmit energy (J)"},
    {"total_energy_j", "total energy (J)"},
    {"control_energy_j", "control energy (J)"},
    {"passive_energy_j", "passive energy (J)"},
    {"nodes_carrying_data", "nodes carrying data"},
    {"rreq_transmissions", "RREQ transmissions"},
    {"mac_collisions", "MAC collisions"},
    {"mac_cs_drops", "carrier-sense drops"},
    {"mac_defers_exhausted", "MAC defers exhausted"},
    {"mac_stale_bcast_drops", "stale broadcast drops"},
    {"mac_unicast_failures", "unicast failures"},
    {"average_delay_s", "average delay (s)"},
};
constexpr MetricInfo kGridMetricInfo[] = {
    {"goodput_kbit_per_j", "energy goodput (Kbit/J)"},
    {"network_power_w", "network power (W)"},
    {"data_power_w", "data power (W)"},
    {"passive_power_w", "passive power (W)"},
    {"active_nodes", "active nodes"},
};
constexpr MetricInfo kMoptMetricInfo[] = {
    {"mopt", "m_opt"},
};
constexpr MetricInfo kDesignMetricInfo[] = {
    {"eq5_total", "Eq. 5 total cost"},
    {"eq5_data", "Eq. 5 data cost"},
    {"eq5_idle", "Eq. 5 passive (idle) cost"},
    {"gap_vs_klein_ravi", "gap vs Klein-Ravi (%)"},
    {"relay_nodes", "relay nodes"},
    // Wall time is real elapsed time and therefore NOT covered by the
    // determinism contract — keep it out of golden-pinned manifests.
    {"wall_time_s", "wall time (s)"},
    // The next four require `presolve: true` on the experiment (validated
    // after parsing); they surface the certified bound and instance shrink.
    {"lb", "certified Eq. 5 lower bound"},
    {"certified_gap_pct", "certified gap vs lower bound (%)"},
    {"reduced_nodes", "presolve-removed nodes"},
    {"reduced_edges", "presolve-removed edges"},
};
constexpr MetricInfo kChurnMetricInfo[] = {
    {"warm_score", "warm-start Eq. 5 score"},
    {"cold_score", "from-scratch Eq. 5 score"},
    {"gap_vs_cold_pct", "warm vs from-scratch gap (%)"},
    {"events_applied", "churn events applied"},
    {"rerouted_demands", "demands re-routed"},
    {"fallbacks", "portfolio fallbacks"},
    {"active_nodes", "active nodes (warm design)"},
    {"live_demands", "live demands"},
    // Wall times are real elapsed time and therefore NOT covered by the
    // determinism contract — keep them out of golden-pinned manifests.
    {"warm_wall_s", "warm re-design latency (s)"},
    {"cold_wall_s", "from-scratch latency (s)"},
    // Requires `replay_every` > 0 on the experiment (validated after
    // parsing); zero on epochs that skip the replay validation.
    {"replay_gap_pct", "replayed sim vs Eq. 5 gap (%)"},
};
constexpr MetricInfo kReplayMetricInfo[] = {
    {"analytic_eq5_j", "Eq. 5 analytic energy (J)"},
    {"sim_energy_j", "simulated energy (J)"},
    {"analytic_gap_pct", "simulated vs Eq. 5 gap (%)"},
    {"sim_j_per_kbit", "simulated J per delivered Kbit"},
    {"delivery_ratio", "delivery ratio"},
    {"first_death_s", "first battery death (s; horizon = none)"},
    {"depleted_nodes", "battery-depleted nodes"},
    {"active_nodes", "active nodes"},
    {"max_node_load_j", "max per-node analytic load (J)"},
};

template <std::size_t N>
std::vector<std::string> names_of(const MetricInfo (&infos)[N]) {
  std::vector<std::string> out;
  out.reserve(N);
  for (const MetricInfo& m : infos) out.emplace_back(m.name);
  return out;
}

const std::vector<std::string> kSimMetrics = names_of(kSimMetricInfo);
const std::vector<std::string> kGridMetrics = names_of(kGridMetricInfo);
const std::vector<std::string> kMoptMetrics = names_of(kMoptMetricInfo);
const std::vector<std::string> kDesignMetrics = names_of(kDesignMetricInfo);
const std::vector<std::string> kReplayMetrics = names_of(kReplayMetricInfo);
const std::vector<std::string> kChurnMetrics = names_of(kChurnMetricInfo);

std::vector<MetricSpec> default_metrics(ExperimentKind kind) {
  switch (kind) {
    case ExperimentKind::Sweep:
    case ExperimentKind::Density:
      return {{"delivery_ratio", 3}, {"goodput_bit_per_j", 1}};
    case ExperimentKind::Grid: return {{"goodput_kbit_per_j", 3}};
    case ExperimentKind::Mopt: return {{"mopt", 3}};
    case ExperimentKind::Design:
      return {{"eq5_total", 1}, {"gap_vs_klein_ravi", 2}};
    case ExperimentKind::Replay:
      return {{"analytic_eq5_j", 1},
              {"sim_energy_j", 1},
              {"analytic_gap_pct", 1},
              {"delivery_ratio", 3},
              {"first_death_s", 1}};
    case ExperimentKind::Churn:
      return {{"warm_score", 1},
              {"gap_vs_cold_pct", 2},
              {"events_applied", 1}};
  }
  return {};
}

std::vector<MetricSpec> parse_metrics(const json::Value& v,
                                      ExperimentKind kind,
                                      const std::string& ctx) {
  if (!v.is_array() || v.as_array().empty())
    fail(ctx + " must be a non-empty array");
  const auto& valid = metric_names(kind);
  std::vector<MetricSpec> out;
  for (const auto& e : v.as_array()) {
    MetricSpec m;
    if (e.is_string()) {
      m.name = e.as_string();
    } else {
      ObjectReader r(e, ctx + " entry");
      m.name = as_string(r.required("name"), ctx + " name");
      if (const auto* p = r.optional("precision")) {
        const auto prec = as_uint(*p, ctx + " precision");
        if (prec > 12) fail(ctx + " precision must be <= 12");
        m.precision = static_cast<int>(prec);
      }
      r.finish();
    }
    if (std::find(valid.begin(), valid.end(), m.name) == valid.end())
      fail("metric \"" + m.name + "\" is not valid for kind \"" +
           kind_name(kind) + "\" (valid: " + join(valid) + ")");
    for (const auto& prev : out)
      if (prev.name == m.name) fail("duplicate metric \"" + m.name + "\"");
    out.push_back(std::move(m));
  }
  return out;
}

// ---------------------------------------------------------------- scenario ---

// Single registry of scenario presets: name list (validation) and factory
// dispatch (ScenarioSpec::resolve) derive from the same table, so a preset
// added here is complete.
struct ScenarioPreset {
  const char* name;
  net::ScenarioConfig (*make)(const ScenarioSpec&);
};

const ScenarioPreset kScenarioPresetTable[] = {
    {"small_network",
     [](const ScenarioSpec&) { return net::ScenarioConfig::small_network(); }},
    {"large_network",
     [](const ScenarioSpec&) { return net::ScenarioConfig::large_network(); }},
    {"density_network",
     [](const ScenarioSpec& s) {
       return net::ScenarioConfig::density_network(s.node_count.value_or(200));
     }},
    {"hypothetical_grid",
     [](const ScenarioSpec&) {
       return net::ScenarioConfig::hypothetical_grid();
     }},
    {"huge_field",
     [](const ScenarioSpec& s) {
       return net::ScenarioConfig::huge_field(s.node_count.value_or(2000));
     }},
    {"custom", [](const ScenarioSpec&) { return net::ScenarioConfig(); }},
};

std::vector<std::string> scenario_preset_names() {
  std::vector<std::string> out;
  for (const ScenarioPreset& p : kScenarioPresetTable) out.emplace_back(p.name);
  return out;
}

const std::vector<std::string> kScenarioPresets = scenario_preset_names();

ScenarioSpec parse_scenario(const json::Value& v, const std::string& ctx) {
  ScenarioSpec s;
  ObjectReader r(v, ctx);
  s.preset = as_string(r.required("preset"), ctx + " preset");
  if (std::find(kScenarioPresets.begin(), kScenarioPresets.end(), s.preset) ==
      kScenarioPresets.end())
    fail("unknown scenario preset \"" + s.preset +
         "\" (valid: " + join(kScenarioPresets) + ")");
  if (const auto* p = r.optional("node_count"))
    s.node_count = static_cast<std::size_t>(as_uint(*p, ctx + " node_count"));
  if (const auto* p = r.optional("field_w")) {
    s.field_w = as_finite(*p, ctx + " field_w");
    if (!(*s.field_w > 0.0)) fail(ctx + " field_w must be positive");
  }
  if (const auto* p = r.optional("field_h")) {
    s.field_h = as_finite(*p, ctx + " field_h");
    if (!(*s.field_h > 0.0)) fail(ctx + " field_h must be positive");
  }
  if (const auto* p = r.optional("flow_count"))
    s.flow_count = static_cast<std::size_t>(as_uint(*p, ctx + " flow_count"));
  if (const auto* p = r.optional("rate_pps")) {
    s.rate_pps = as_finite(*p, ctx + " rate_pps");
    if (!(*s.rate_pps > 0.0) || *s.rate_pps > 1e6)
      fail(ctx + " rate_pps must be in (0, 1e6]");
  }
  if (const auto* p = r.optional("payload_bits")) {
    const auto bits = as_uint(*p, ctx + " payload_bits");
    if (bits == 0 || bits > 1u << 24)
      fail(ctx + " payload_bits must be in [1, 2^24]");
    s.payload_bits = static_cast<std::uint32_t>(bits);
  }
  if (const auto* p = r.optional("duration_s")) {
    s.duration_s = as_finite(*p, ctx + " duration_s");
    if (!(*s.duration_s > 0.0)) fail(ctx + " duration_s must be positive");
  }
  if (const auto* p = r.optional("flow_endpoint_pool"))
    s.flow_endpoint_pool =
        static_cast<std::size_t>(as_uint(*p, ctx + " flow_endpoint_pool"));
  if (const auto* p = r.optional("rate_multipliers")) {
    if (!p->is_array() || p->as_array().empty())
      fail(ctx + " rate_multipliers must be a non-empty array");
    std::vector<double> mult;
    for (const auto& e : p->as_array()) {
      const double m = as_finite(e, ctx + " rate_multipliers entry");
      if (!(m > 0.0) || !std::isfinite(m) || m > 1e3)
        fail(ctx + " rate_multipliers entries must be in (0, 1e3]");
      mult.push_back(m);
    }
    s.rate_multipliers = std::move(mult);
  }
  r.finish();
  return s;
}

json::Object scenario_to_json(const ScenarioSpec& s) {
  json::Object o;
  o.emplace_back("preset", s.preset);
  if (s.node_count)
    o.emplace_back("node_count", static_cast<double>(*s.node_count));
  if (s.field_w) o.emplace_back("field_w", *s.field_w);
  if (s.field_h) o.emplace_back("field_h", *s.field_h);
  if (s.flow_count)
    o.emplace_back("flow_count", static_cast<double>(*s.flow_count));
  if (s.rate_pps) o.emplace_back("rate_pps", *s.rate_pps);
  if (s.payload_bits)
    o.emplace_back("payload_bits", static_cast<double>(*s.payload_bits));
  if (s.duration_s) o.emplace_back("duration_s", *s.duration_s);
  if (s.flow_endpoint_pool)
    o.emplace_back("flow_endpoint_pool",
                   static_cast<double>(*s.flow_endpoint_pool));
  if (s.rate_multipliers) {
    json::Array a;
    for (double m : *s.rate_multipliers) a.emplace_back(m);
    o.emplace_back("rate_multipliers", std::move(a));
  }
  return o;
}

// -------------------------------------------------------------- experiment ---

QuickSpec parse_quick(const json::Value& v, ExperimentKind kind,
                      const std::string& ctx) {
  QuickSpec q;
  ObjectReader r(v, ctx);
  // Design experiments have no simulated duration, so a quick
  // "duration_s" there would be silently ignored — reject it like the
  // kind-mismatched top-level keys. (Replay experiments DO simulate; churn
  // replay-validation epochs clamp their own quick duration.)
  if (kind == ExperimentKind::Design || kind == ExperimentKind::Churn) {
    r.forbid("duration_s",
             kind == ExperimentKind::Design
                 ? "is only valid for simulation kinds (design instances "
                   "are solved, not simulated)"
                 : "is not valid for kind \"churn\" (quick mode clamps the "
                   "replay-validation horizon itself)");
  } else if (const auto* p = r.optional("duration_s")) {
    q.duration_s = as_finite(*p, ctx + " duration_s");
    if (!(*q.duration_s > 0.0)) fail(ctx + " duration_s must be positive");
  }
  // Grid experiments have no replication count, so a quick "runs" there
  // would be silently ignored — reject it like the top-level key.
  if (kind == ExperimentKind::Sweep || kind == ExperimentKind::Density ||
      kind == ExperimentKind::Design || kind == ExperimentKind::Replay ||
      kind == ExperimentKind::Churn) {
    if (const auto* p = r.optional("runs")) {
      const auto n = as_uint(*p, ctx + " runs");
      if (n == 0 || n > 10000) fail(ctx + " runs must be in [1, 10000]");
      q.runs = static_cast<std::size_t>(n);
    }
  } else {
    r.forbid("runs",
             "is only valid for kinds \"sweep\", \"density\", \"design\", "
             "\"replay\" and \"churn\"");
  }
  if (kind == ExperimentKind::Sweep || kind == ExperimentKind::Grid) {
    if (const auto* p = r.optional("rates_pps"))
      q.rates_pps = as_rate_list(*p, ctx + " rates_pps");
  }
  if (kind == ExperimentKind::Density || kind == ExperimentKind::Design ||
      kind == ExperimentKind::Replay || kind == ExperimentKind::Churn) {
    if (const auto* p = r.optional("node_counts"))
      q.node_counts = as_node_list(*p, ctx + " node_counts");
  }
  if (kind == ExperimentKind::Churn) {
    if (const auto* p = r.optional("epochs")) {
      const auto n = as_uint(*p, ctx + " epochs");
      if (n < 2 || n > 10000)
        fail(ctx + " epochs must be in [2, 10000] (epoch 0 is the cold "
                   "design; churn needs at least one more)");
      q.epochs = static_cast<std::size_t>(n);
    }
  } else {
    r.forbid("epochs", "is only valid for kind \"churn\"");
  }
  r.finish();
  return q;
}

// ------------------------------------------------------------------- churn ---

churn::Event parse_churn_event(const json::Value& v, const std::string& ctx) {
  ObjectReader r(v, ctx);
  churn::Event ev;
  const std::string op = as_string(r.required("op"), ctx + " op");
  if (op != "arrive" && op != "depart" && op != "rate" && op != "fail" &&
      op != "move")
    fail(ctx + " op \"" + op +
         "\" is unknown (valid: arrive, depart, rate, fail, move)");
  ev.op = churn::event_op_from_name(op);
  switch (ev.op) {
    case churn::EventOp::Arrive:
      ev.source = static_cast<graph::NodeId>(
          as_uint(r.required("source"), ctx + " source"));
      ev.destination = static_cast<graph::NodeId>(
          as_uint(r.required("destination"), ctx + " destination"));
      if (ev.source == ev.destination)
        fail(ctx + " arrive demand (" + std::to_string(ev.source) + ", " +
             std::to_string(ev.destination) + ") is a self-loop");
      if (const auto* p = r.optional("weight")) {
        ev.weight = as_finite(*p, ctx + " weight");
        if (!(ev.weight > 0.0) || ev.weight > 1e3)
          fail(ctx + " weight must be in (0, 1e3]");
      }
      break;
    case churn::EventOp::Depart:
      ev.demand = static_cast<std::size_t>(
          as_uint(r.required("demand"), ctx + " demand"));
      break;
    case churn::EventOp::RateSwing:
      ev.demand = static_cast<std::size_t>(
          as_uint(r.required("demand"), ctx + " demand"));
      ev.factor = as_finite(r.required("factor"), ctx + " factor");
      if (!(ev.factor > 0.0) || ev.factor > 1e3)
        fail(ctx + " factor must be in (0, 1e3]");
      break;
    case churn::EventOp::Fail:
      ev.node = static_cast<graph::NodeId>(
          as_uint(r.required("node"), ctx + " node"));
      break;
    case churn::EventOp::Move:
      ev.node = static_cast<graph::NodeId>(
          as_uint(r.required("node"), ctx + " node"));
      ev.x = as_finite(r.required("x"), ctx + " x");
      ev.y = as_finite(r.required("y"), ctx + " y");
      if (!(ev.x >= 0.0) || ev.x > 1e6 || !(ev.y >= 0.0) || ev.y > 1e6)
        fail(ctx + " move target must be in [0, 1e6] meters per axis");
      break;
  }
  r.finish();
  return ev;
}

/// Parse + statically validate an explicit churn schedule. The validator
/// replays the live demand list as the events would mutate it: the
/// instance's initial demands have instance-dependent endpoints (unknown
/// here — nullopt), arrivals are fully known. That catches out-of-range
/// indices, departures below one demand, duplicate failures and failures
/// of a known flow endpoint at parse time; graph-dependent breakage (a
/// failure stranding an *initial* demand, an unroutable arrival) is caught
/// at run time by ChurnState::apply.
std::vector<churn::EpochEvents> parse_churn_schedule(
    const json::Value& v, std::size_t epochs, std::size_t initial_demands,
    const std::string& ctx) {
  if (!v.is_array() || v.as_array().empty())
    fail(ctx + " schedule must be a non-empty array of epoch entries");
  using MaybePair = std::optional<std::pair<graph::NodeId, graph::NodeId>>;
  std::vector<MaybePair> live(initial_demands);
  std::set<graph::NodeId> failed;
  std::vector<churn::EpochEvents> out;
  std::size_t prev_at = 0;
  for (const auto& entry : v.as_array()) {
    ObjectReader er(entry, ctx + " schedule entry");
    churn::EpochEvents ee;
    ee.at = static_cast<std::size_t>(
        as_uint(er.required("at"), ctx + " schedule at"));
    if (ee.at < 1 || ee.at >= epochs)
      fail(ctx + " schedule entry at=" + std::to_string(ee.at) +
           " outside [1, " + std::to_string(epochs) +
           ") — epoch 0 is the untouched instance");
    if (ee.at <= prev_at)
      fail(ctx + " schedule entries must be strictly increasing in \"at\" "
           "(saw " + std::to_string(ee.at) + " after " +
           std::to_string(prev_at) + ")");
    prev_at = ee.at;
    const json::Value& evs = er.required("events");
    if (!evs.is_array() || evs.as_array().empty())
      fail(ctx + " schedule entry at=" + std::to_string(ee.at) +
           " must list at least one event");
    for (const auto& evv : evs.as_array()) {
      const std::string ectx =
          ctx + " schedule (at=" + std::to_string(ee.at) + ") event";
      churn::Event ev = parse_churn_event(evv, ectx);
      switch (ev.op) {
        case churn::EventOp::Arrive: {
          for (const MaybePair& p : live)
            if (p && p->first == ev.source && p->second == ev.destination)
              fail(ectx + ": demand (" + std::to_string(ev.source) + ", " +
                   std::to_string(ev.destination) + ") is already live");
          if (failed.count(ev.source) || failed.count(ev.destination))
            fail(ectx + ": arrive endpoint is a failed node");
          live.emplace_back(std::in_place, ev.source, ev.destination);
          break;
        }
        case churn::EventOp::Depart:
          if (ev.demand >= live.size())
            fail(ectx + ": depart index " + std::to_string(ev.demand) +
                 " out of range (" + std::to_string(live.size()) +
                 " demands live at that point)");
          if (live.size() <= 1)
            fail(ectx + ": cannot depart the last live demand");
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(ev.demand));
          break;
        case churn::EventOp::RateSwing:
          if (ev.demand >= live.size())
            fail(ectx + ": rate index " + std::to_string(ev.demand) +
                 " out of range (" + std::to_string(live.size()) +
                 " demands live at that point)");
          break;
        case churn::EventOp::Fail: {
          if (failed.count(ev.node))
            fail(ectx + ": node " + std::to_string(ev.node) +
                 " is already failed");
          for (const MaybePair& p : live)
            if (p && (p->first == ev.node || p->second == ev.node))
              fail(ectx + ": node " + std::to_string(ev.node) +
                   " is a live flow endpoint — failing it would strand "
                   "the demand");
          failed.insert(ev.node);
          break;
        }
        case churn::EventOp::Move:
          if (failed.count(ev.node))
            fail(ectx + ": cannot move failed node " +
                 std::to_string(ev.node));
          break;
      }
      ee.events.push_back(ev);
    }
    out.push_back(std::move(ee));
  }
  return out;
}

Experiment parse_experiment(const json::Value& v, std::size_t index) {
  const std::string base = "experiment #" + std::to_string(index + 1);
  ObjectReader r(v, base);

  Experiment e;
  e.id = as_string(r.required("id"), base + " id");
  if (e.id.empty()) fail(base + " id must be non-empty");
  for (const char c : e.id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok)
      fail(base + " id \"" + e.id +
           "\" may only contain letters, digits, '_' and '-'");
  }
  const std::string ctx = "experiment \"" + e.id + "\"";

  e.kind = kind_from_name(as_string(r.required("kind"), ctx + " kind"));
  if (const auto* p = r.optional("title"))
    e.title = as_string(*p, ctx + " title");
  if (e.title.empty()) e.title = e.id;

  const bool sim = e.kind != ExperimentKind::Mopt &&
                   e.kind != ExperimentKind::Design &&
                   e.kind != ExperimentKind::Replay &&
                   e.kind != ExperimentKind::Churn;
  if (sim) {
    if (const auto* p = r.optional("scenario"))
      e.scenario = parse_scenario(*p, ctx + " scenario");
    else if (e.kind == ExperimentKind::Density)
      e.scenario.preset = "density_network";
    else if (e.kind == ExperimentKind::Grid)
      e.scenario.preset = "hypothetical_grid";

    const json::Value& stacks = r.required("stacks");
    if (!stacks.is_array() || stacks.as_array().empty())
      fail(ctx + " stacks must be a non-empty array");
    for (const auto& s : stacks.as_array()) {
      const std::string name = as_string(s, ctx + " stacks entry");
      net::stack_preset(name);  // throws listing valid presets
      if (std::find(e.stacks.begin(), e.stacks.end(), name) != e.stacks.end())
        fail("duplicate stack \"" + name + "\" in " + ctx +
             " — each stack defines one cell row");
      e.stacks.push_back(name);
    }

    if (const auto* p = r.optional("seed"))
      e.seed = as_uint(*p, ctx + " seed");
  } else if (e.kind == ExperimentKind::Design ||
             e.kind == ExperimentKind::Replay ||
             e.kind == ExperimentKind::Churn) {
    const std::string kname = kind_name(e.kind);
    r.forbid("scenario",
             "is not valid for kind \"" + kname +
                 "\" (instances derive from the node counts via the fixed "
                 "density law)");
    r.forbid("stacks",
             e.kind == ExperimentKind::Design
                 ? "is not valid for kind \"design\" (use \"heuristics\")"
             : e.kind == ExperimentKind::Replay
                 ? "is not valid for kind \"replay\" (use \"heuristics\" "
                   "for the series and the singular \"stack\" for the "
                   "simulated protocol stack)"
                 : "is not valid for kind \"churn\" (the serving loop runs "
                   "the fixed warm-start vs portfolio pipeline; the "
                   "singular \"stack\" selects the replay-validation "
                   "protocol stack)");
    if (const auto* p = r.optional("seed"))
      e.seed = as_uint(*p, ctx + " seed");
  } else {
    r.forbid("scenario", "is not valid for kind \"mopt\" (analytic model)");
    r.forbid("stacks", "is not valid for kind \"mopt\" (use \"cards\")");
    r.forbid("seed", "is not valid for kind \"mopt\" (deterministic model)");
  }

  switch (e.kind) {
    case ExperimentKind::Sweep:
    case ExperimentKind::Grid:
      e.rates_pps = as_rate_list(r.required("rates_pps"), ctx + " rates_pps");
      r.forbid("node_counts",
               "is only valid for kinds \"density\", \"design\", "
               "\"replay\" and \"churn\"");
      break;
    case ExperimentKind::Density:
    case ExperimentKind::Design:
    case ExperimentKind::Replay:
    case ExperimentKind::Churn:
      e.node_counts =
          as_node_list(r.required("node_counts"), ctx + " node_counts");
      r.forbid("rates_pps",
               "is only valid for kinds \"sweep\" and \"grid\" (set the "
               "density rate via scenario.rate_pps" +
                   std::string(e.kind == ExperimentKind::Replay ||
                                       e.kind == ExperimentKind::Churn
                                   ? ", the replay rate via \"rate_pps\""
                                   : "") +
                   ")");
      break;
    case ExperimentKind::Mopt: break;
  }

  if (e.kind == ExperimentKind::Design || e.kind == ExperimentKind::Replay) {
    const json::Value& heur = r.required("heuristics");
    if (!heur.is_array() || heur.as_array().empty())
      fail(ctx + " heuristics must be a non-empty array");
    for (const auto& h : heur.as_array()) {
      const std::string name = as_string(h, ctx + " heuristics entry");
      opt::heuristic_by_name(name);  // throws listing valid names
      if (e.kind == ExperimentKind::Design &&
          opt::heuristic_uses_battery_budget(name))
        fail("heuristic \"" + name + "\" in " + ctx +
             " needs a battery budget and is only valid for kind "
             "\"replay\" (its \"battery_j\" defines the per-node budget)");
      if (std::find(e.heuristics.begin(), e.heuristics.end(), name) !=
          e.heuristics.end())
        fail("duplicate heuristic \"" + name + "\" in " + ctx +
             " — each heuristic defines one series");
      e.heuristics.push_back(name);
    }
  } else if (e.kind == ExperimentKind::Churn) {
    r.forbid("heuristics",
             "is not valid for kind \"churn\" (the serving loop always "
             "compares warm-start repair against the from-scratch "
             "portfolio; series are node counts)");
  }

  if (e.kind == ExperimentKind::Design || e.kind == ExperimentKind::Replay ||
      e.kind == ExperimentKind::Churn) {
    if (const auto* p = r.optional("demands")) {
      const auto n = as_uint(*p, ctx + " demands");
      if (n == 0 || n > 1000) fail(ctx + " demands must be in [1, 1000]");
      e.demands = static_cast<std::size_t>(n);
    }
    if (const auto* p = r.optional("starts")) {
      const auto n = as_uint(*p, ctx + " starts");
      if (n == 0 || n > 1000) fail(ctx + " starts must be in [1, 1000]");
      e.starts = static_cast<std::size_t>(n);
    }
    if (const auto* p = r.optional("anneal_iters")) {
      const auto n = as_uint(*p, ctx + " anneal_iters");
      if (n > 1000000) fail(ctx + " anneal_iters must be <= 1e6");
      e.anneal_iters = static_cast<std::size_t>(n);
    }
    if (const auto* p = r.optional("presolve")) {
      if (!p->is_bool()) fail(ctx + " presolve must be a boolean");
      e.presolve = p->as_bool();
    }
    if (const auto* p = r.optional("field_scale")) {
      e.field_scale = as_finite(*p, ctx + " field_scale");
      if (!(e.field_scale > 0.0) || e.field_scale > 10.0)
        fail(ctx + " field_scale must be in (0, 10] "
                   "(multiplier on the density-law field side)");
    }
    // Cross-check: every instance must be able to host the demand count,
    // or make_design_instance would abort mid-run after earlier
    // experiments already burned their wall time.
    const auto check_capacity = [&](std::size_t n) {
      if (e.demands > n * (n - 1))
        fail(ctx + " requests " + std::to_string(e.demands) +
             " demands but node count " + std::to_string(n) + " has only " +
             std::to_string(n * (n - 1)) +
             " distinct (source, destination) pairs");
    };
    for (const std::size_t n : e.node_counts) check_capacity(n);
  } else {
    r.forbid("heuristics",
             "is only valid for kinds \"design\" and \"replay\"");
    r.forbid("demands",
             "is only valid for kinds \"design\", \"replay\" and \"churn\"");
    r.forbid("starts",
             "is only valid for kinds \"design\", \"replay\" and \"churn\"");
    r.forbid("anneal_iters",
             "is only valid for kinds \"design\", \"replay\" and \"churn\"");
    r.forbid("presolve",
             "is only valid for kinds \"design\", \"replay\" and \"churn\"");
    r.forbid("field_scale",
             "is only valid for kinds \"design\", \"replay\" and \"churn\"");
  }

  if (e.kind == ExperimentKind::Churn) {
    if (const auto* p = r.optional("epochs")) {
      const auto n = as_uint(*p, ctx + " epochs");
      if (n < 2 || n > 10000)
        fail(ctx + " epochs must be in [2, 10000] (epoch 0 is the cold "
             "design; churn needs at least one more)");
      e.epochs = static_cast<std::size_t>(n);
    }
    if (const auto* p = r.optional("fallback_pct")) {
      e.fallback_pct = as_finite(*p, ctx + " fallback_pct");
      if (!(e.fallback_pct > 0.0) || e.fallback_pct > 100.0)
        fail(ctx + " fallback_pct must be in (0, 100]");
    }
    if (const auto* p = r.optional("replay_every")) {
      const auto n = as_uint(*p, ctx + " replay_every");
      if (n > 10000) fail(ctx + " replay_every must be <= 10000");
      e.replay_every = static_cast<std::size_t>(n);
    }
    if (const auto* sched = r.optional("schedule")) {
      // An explicit schedule replaces the generator wholesale; a generator
      // knob alongside it would be silently inert — reject the mix.
      for (const char* k :
           {"arrivals_per_epoch", "departures_per_epoch", "swings_per_epoch",
            "failures_per_epoch", "rate_swing", "move_fraction",
            "move_sigma_m"})
        r.forbid(k, "is not valid alongside an explicit \"schedule\" (the "
                    "schedule replaces the trace generator)");
      e.churn_schedule =
          parse_churn_schedule(*sched, e.epochs, e.demands, ctx);
    } else {
      const auto uint_knob = [&](const char* key, std::size_t& dst) {
        if (const auto* p = r.optional(key)) {
          const auto n = as_uint(*p, ctx + " " + key);
          if (n > 100) fail(ctx + " " + std::string(key) +
                            " must be <= 100");
          dst = static_cast<std::size_t>(n);
        }
      };
      uint_knob("arrivals_per_epoch", e.arrivals_per_epoch);
      uint_knob("departures_per_epoch", e.departures_per_epoch);
      uint_knob("swings_per_epoch", e.swings_per_epoch);
      uint_knob("failures_per_epoch", e.failures_per_epoch);
      if (const auto* p = r.optional("rate_swing")) {
        e.rate_swing = as_finite(*p, ctx + " rate_swing");
        if (e.rate_swing < 0.0 || e.rate_swing > 0.9)
          fail(ctx + " rate_swing must be in [0, 0.9] (a factor of zero "
               "would silence the demand)");
      }
      if (const auto* p = r.optional("move_fraction")) {
        e.move_fraction = as_finite(*p, ctx + " move_fraction");
        if (e.move_fraction < 0.0 || e.move_fraction > 1.0)
          fail(ctx + " move_fraction must be in [0, 1]");
      }
      if (const auto* p = r.optional("move_sigma_m")) {
        e.move_sigma_m = as_finite(*p, ctx + " move_sigma_m");
        if (!(e.move_sigma_m > 0.0) || e.move_sigma_m > 1e4)
          fail(ctx + " move_sigma_m must be in (0, 1e4] meters");
      }
    }
  } else {
    for (const char* k :
         {"epochs", "arrivals_per_epoch", "departures_per_epoch",
          "swings_per_epoch", "failures_per_epoch", "rate_swing",
          "move_fraction", "move_sigma_m", "fallback_pct", "replay_every",
          "schedule"})
      r.forbid(k, "is only valid for kind \"churn\"");
  }

  const bool churn_replays =
      e.kind == ExperimentKind::Churn && e.replay_every > 0;
  if (e.kind == ExperimentKind::Replay || churn_replays) {
    if (const auto* p = r.optional("stack")) {
      e.replay_stack = as_string(*p, ctx + " stack");
      net::stack_preset(e.replay_stack);  // throws listing valid presets
    }
    if (const auto* p = r.optional("duration_s")) {
      e.replay_duration_s = as_finite(*p, ctx + " duration_s");
      if (!(e.replay_duration_s > 0.0) || e.replay_duration_s > 1e6)
        fail(ctx + " duration_s must be in (0, 1e6] seconds");
    }
    if (const auto* p = r.optional("rate_pps")) {
      e.replay_rate_pps = as_finite(*p, ctx + " rate_pps");
      if (!(e.replay_rate_pps > 0.0) || e.replay_rate_pps > 1e6)
        fail(ctx + " rate_pps must be in (0, 1e6]");
    }
  }
  if (e.kind == ExperimentKind::Replay) {
    if (const auto* p = r.optional("battery_j")) {
      e.battery_j = as_finite(*p, ctx + " battery_j");
      if (e.battery_j < 0.0 || e.battery_j > 1e9)
        fail(ctx + " battery_j must be in [0, 1e9] joules (0 = infinite)");
    }
    // A lifetime heuristic without a battery would silently degenerate to
    // its base variant and mislabel the series — demand the budget.
    for (const auto& name : e.heuristics)
      if (opt::heuristic_uses_battery_budget(name) && !(e.battery_j > 0.0))
        fail(ctx + " lists heuristic \"" + name +
             "\" but battery_j is 0 — lifetime-constrained search needs a "
             "positive per-node battery budget");
  } else if (e.kind == ExperimentKind::Churn) {
    if (!churn_replays) {
      r.forbid("stack", "requires \"replay_every\" > 0 (no replay-"
                        "validation epochs to run a stack on)");
      r.forbid("rate_pps", "requires \"replay_every\" > 0");
      r.forbid("duration_s", "requires \"replay_every\" > 0");
    }
    r.forbid("battery_j",
             "is not valid for kind \"churn\" (replay-validation epochs "
             "run with infinite batteries)");
  } else {
    r.forbid("stack",
             "is only valid for kind \"replay\" (simulation kinds take a "
             "\"stacks\" array)");
    r.forbid("rate_pps", "is only valid for kind \"replay\"");
    r.forbid("battery_j", "is only valid for kind \"replay\"");
    if (e.kind == ExperimentKind::Design || e.kind == ExperimentKind::Mopt)
      r.forbid("duration_s",
               "is only valid for kinds with a simulated horizon (the "
               "\"replay\" kind, or scenario.duration_s on sim kinds)");
  }
  if (e.kind == ExperimentKind::Replay || e.kind == ExperimentKind::Churn) {
    if (const auto* p = r.optional("demand_weights")) {
      if (!p->is_array() || p->as_array().empty())
        fail(ctx + " demand_weights must be a non-empty array");
      for (const auto& w : p->as_array()) {
        const double m = as_finite(w, ctx + " demand_weights entry");
        if (!(m > 0.0) || m > 1e3)
          fail(ctx + " demand_weights entries must be in (0, 1e3], got " +
               json::dump(w));
        e.demand_weights.push_back(m);
      }
    }
  } else {
    r.forbid("demand_weights",
             "is only valid for kinds \"replay\" and \"churn\"");
  }

  if (e.kind == ExperimentKind::Sweep || e.kind == ExperimentKind::Density ||
      e.kind == ExperimentKind::Design || e.kind == ExperimentKind::Replay ||
      e.kind == ExperimentKind::Churn) {
    if (const auto* p = r.optional("runs")) {
      const auto n = as_uint(*p, ctx + " runs");
      if (n == 0 || n > 10000) fail(ctx + " runs must be in [1, 10000]");
      e.runs = static_cast<std::size_t>(n);
    }
  } else {
    r.forbid("runs",
             "is only valid for kinds \"sweep\", \"density\", \"design\", "
             "\"replay\" and \"churn\"");
  }

  if (e.kind == ExperimentKind::Grid) {
    if (const auto* p = r.optional("base_rate_pps")) {
      e.base_rate_pps = as_finite(*p, ctx + " base_rate_pps");
      if (!(e.base_rate_pps > 0.0) || e.base_rate_pps > 1e6)
        fail(ctx + " base_rate_pps must be in (0, 1e6]");
    }
  } else {
    r.forbid("base_rate_pps", "is only valid for kind \"grid\"");
  }

  if (e.kind == ExperimentKind::Mopt) {
    const json::Value& cards = r.required("cards");
    if (!cards.is_array() || cards.as_array().empty())
      fail(ctx + " cards must be a non-empty array");
    for (const auto& cv : cards.as_array()) {
      ObjectReader cr(cv, ctx + " cards entry");
      CardSpec c;
      c.card = as_string(cr.required("card"), ctx + " card");
      // Canonicalize case (lookup is case-insensitive, legends are not)
      // and reject unknown names in one step.
      c.card = energy::card_by_name(c.card).name;
      c.distance_m = as_finite(cr.required("distance_m"), ctx + " distance_m");
      if (!(c.distance_m > 0.0)) fail(ctx + " distance_m must be positive");
      cr.finish();
      // Series legends render the distance rounded to whole meters, so two
      // cards that only differ past that would silently merge into one
      // table column — treat them as duplicates.
      for (const auto& prev : e.cards)
        if (prev.card == c.card &&
            std::llround(prev.distance_m) == std::llround(c.distance_m))
          fail("duplicate card \"" + c.card + "\" in " + ctx +
               " — distances render identically in the legend (D=" +
               std::to_string(std::llround(c.distance_m)) + "m)");
      e.cards.push_back(std::move(c));
    }
    const json::Value& rb = r.required("rb");
    if (!rb.is_array() || rb.as_array().empty())
      fail(ctx + " rb must be a non-empty array");
    for (const auto& x : rb.as_array()) {
      const double v2 = as_finite(x, ctx + " rb entry");
      if (!(v2 > 0.0) || v2 > 0.5)
        fail(ctx + " rb entries must be in (0, 0.5] — a relay both sends "
             "and receives each packet, so utilization beyond 1/2 is "
             "infeasible; got " + json::dump(x));
      for (const double prev : e.rb)
        if (prev == v2) fail("duplicate rb value in " + ctx);
      e.rb.push_back(v2);
    }
  } else {
    r.forbid("cards", "is only valid for kind \"mopt\"");
    r.forbid("rb", "is only valid for kind \"mopt\"");
  }

  if (const auto* p = r.optional("metrics"))
    e.metrics = parse_metrics(*p, e.kind, ctx + " metrics");
  else
    e.metrics = default_metrics(e.kind);

  // The certified-bound metrics only exist when the presolve pass ran.
  if (e.kind == ExperimentKind::Design && !e.presolve)
    for (const auto& m : e.metrics)
      if (m.name == "lb" || m.name == "certified_gap_pct" ||
          m.name == "reduced_nodes" || m.name == "reduced_edges")
        fail(ctx + " metric \"" + m.name +
             "\" requires \"presolve\": true on the experiment");

  // The replay-validation metric only exists when replay epochs run.
  if (e.kind == ExperimentKind::Churn && e.replay_every == 0)
    for (const auto& m : e.metrics)
      if (m.name == "replay_gap_pct")
        fail(ctx + " metric \"replay_gap_pct\" requires \"replay_every\" "
             "> 0 on the experiment");

  if (e.kind != ExperimentKind::Mopt) {
    if (const auto* p = r.optional("quick"))
      e.quick = parse_quick(*p, e.kind, ctx + " quick");
    if ((e.kind == ExperimentKind::Design ||
         e.kind == ExperimentKind::Replay ||
         e.kind == ExperimentKind::Churn) &&
        e.quick.node_counts)
      for (const std::size_t n : *e.quick.node_counts)
        if (e.demands > n * (n - 1))
          fail(ctx + " quick node count " + std::to_string(n) +
               " cannot host " + std::to_string(e.demands) + " demands");
  } else {
    r.forbid("quick", "is not valid for kind \"mopt\" (already instant)");
  }

  // Every explicit-schedule node reference must exist in every cell's
  // instance — quick node counts included, or --quick would abort mid-run.
  if (!e.churn_schedule.empty()) {
    std::size_t min_n = *std::min_element(e.node_counts.begin(),
                                          e.node_counts.end());
    if (e.quick.node_counts)
      for (const std::size_t n : *e.quick.node_counts)
        min_n = std::min(min_n, n);
    const std::size_t min_epochs =
        e.quick.epochs ? std::min(e.epochs, *e.quick.epochs) : e.epochs;
    for (const churn::EpochEvents& ee : e.churn_schedule) {
      if (ee.at >= min_epochs)
        fail(ctx + " schedule entry at=" + std::to_string(ee.at) +
             " is unreachable under quick epochs " +
             std::to_string(min_epochs));
      for (const churn::Event& ev : ee.events) {
        const auto check_node = [&](graph::NodeId v2) {
          if (static_cast<std::size_t>(v2) >= min_n)
            fail(ctx + " schedule (at=" + std::to_string(ee.at) +
                 ") references node " + std::to_string(v2) +
                 " but the smallest instance (full or quick) has only " +
                 std::to_string(min_n) + " nodes");
        };
        switch (ev.op) {
          case churn::EventOp::Arrive:
            check_node(ev.source);
            check_node(ev.destination);
            break;
          case churn::EventOp::Fail:
          case churn::EventOp::Move:
            check_node(ev.node);
            break;
          case churn::EventOp::Depart:
          case churn::EventOp::RateSwing:
            break;
        }
      }
    }
  }

  r.finish();
  return e;
}

json::Object experiment_to_json(const Experiment& e) {
  json::Object o;
  o.emplace_back("id", e.id);
  if (e.title != e.id) o.emplace_back("title", e.title);
  o.emplace_back("kind", std::string(kind_name(e.kind)));

  const bool sim = e.kind != ExperimentKind::Mopt &&
                   e.kind != ExperimentKind::Design &&
                   e.kind != ExperimentKind::Replay &&
                   e.kind != ExperimentKind::Churn;
  if (sim) {
    o.emplace_back("scenario", scenario_to_json(e.scenario));
    json::Array stacks;
    for (const auto& s : e.stacks) stacks.emplace_back(s);
    o.emplace_back("stacks", std::move(stacks));
  }
  if (e.kind == ExperimentKind::Sweep || e.kind == ExperimentKind::Grid) {
    json::Array rates;
    for (double r : e.rates_pps) rates.emplace_back(r);
    o.emplace_back("rates_pps", std::move(rates));
  }
  if (e.kind == ExperimentKind::Density || e.kind == ExperimentKind::Design ||
      e.kind == ExperimentKind::Replay || e.kind == ExperimentKind::Churn) {
    json::Array nodes;
    for (std::size_t n : e.node_counts)
      nodes.emplace_back(static_cast<double>(n));
    o.emplace_back("node_counts", std::move(nodes));
  }
  if (e.kind == ExperimentKind::Design || e.kind == ExperimentKind::Replay ||
      e.kind == ExperimentKind::Churn) {
    if (e.kind != ExperimentKind::Churn) {
      json::Array heur;
      for (const auto& h : e.heuristics) heur.emplace_back(h);
      o.emplace_back("heuristics", std::move(heur));
    }
    o.emplace_back("demands", static_cast<double>(e.demands));
    o.emplace_back("starts", static_cast<double>(e.starts));
    o.emplace_back("anneal_iters", static_cast<double>(e.anneal_iters));
    o.emplace_back("presolve", e.presolve);
    o.emplace_back("field_scale", e.field_scale);
  }
  if (e.kind == ExperimentKind::Churn) {
    o.emplace_back("epochs", static_cast<double>(e.epochs));
    o.emplace_back("fallback_pct", e.fallback_pct);
    o.emplace_back("replay_every", static_cast<double>(e.replay_every));
    if (e.churn_schedule.empty()) {
      o.emplace_back("arrivals_per_epoch",
                     static_cast<double>(e.arrivals_per_epoch));
      o.emplace_back("departures_per_epoch",
                     static_cast<double>(e.departures_per_epoch));
      o.emplace_back("swings_per_epoch",
                     static_cast<double>(e.swings_per_epoch));
      o.emplace_back("failures_per_epoch",
                     static_cast<double>(e.failures_per_epoch));
      o.emplace_back("rate_swing", e.rate_swing);
      o.emplace_back("move_fraction", e.move_fraction);
      o.emplace_back("move_sigma_m", e.move_sigma_m);
    } else {
      json::Array sched;
      for (const churn::EpochEvents& ee : e.churn_schedule) {
        json::Array evs;
        for (const churn::Event& ev : ee.events) {
          json::Object eo;
          eo.emplace_back("op", std::string(churn::event_op_name(ev.op)));
          switch (ev.op) {
            case churn::EventOp::Arrive:
              eo.emplace_back("source", static_cast<double>(ev.source));
              eo.emplace_back("destination",
                              static_cast<double>(ev.destination));
              eo.emplace_back("weight", ev.weight);
              break;
            case churn::EventOp::Depart:
              eo.emplace_back("demand", static_cast<double>(ev.demand));
              break;
            case churn::EventOp::RateSwing:
              eo.emplace_back("demand", static_cast<double>(ev.demand));
              eo.emplace_back("factor", ev.factor);
              break;
            case churn::EventOp::Fail:
              eo.emplace_back("node", static_cast<double>(ev.node));
              break;
            case churn::EventOp::Move:
              eo.emplace_back("node", static_cast<double>(ev.node));
              eo.emplace_back("x", ev.x);
              eo.emplace_back("y", ev.y);
              break;
          }
          evs.push_back(std::move(eo));
        }
        sched.push_back(
            json::Object{{"at", json::Value(static_cast<double>(ee.at))},
                         {"events", json::Value(std::move(evs))}});
      }
      o.emplace_back("schedule", std::move(sched));
    }
  }
  if (e.kind == ExperimentKind::Replay ||
      (e.kind == ExperimentKind::Churn && e.replay_every > 0)) {
    o.emplace_back("stack", e.replay_stack);
    o.emplace_back("duration_s", e.replay_duration_s);
    o.emplace_back("rate_pps", e.replay_rate_pps);
  }
  if (e.kind == ExperimentKind::Replay)
    o.emplace_back("battery_j", e.battery_j);
  if ((e.kind == ExperimentKind::Replay ||
       e.kind == ExperimentKind::Churn) &&
      !e.demand_weights.empty()) {
    json::Array weights;
    for (double w : e.demand_weights) weights.emplace_back(w);
    o.emplace_back("demand_weights", std::move(weights));
  }
  if (e.kind == ExperimentKind::Mopt) {
    json::Array cards;
    for (const auto& c : e.cards)
      cards.push_back(json::Object{{"card", json::Value(c.card)},
                                   {"distance_m", json::Value(c.distance_m)}});
    o.emplace_back("cards", std::move(cards));
    json::Array rb;
    for (double x : e.rb) rb.emplace_back(x);
    o.emplace_back("rb", std::move(rb));
  }
  if (e.kind == ExperimentKind::Sweep || e.kind == ExperimentKind::Density ||
      e.kind == ExperimentKind::Design || e.kind == ExperimentKind::Replay ||
      e.kind == ExperimentKind::Churn)
    o.emplace_back("runs", static_cast<double>(e.runs));
  if (e.kind != ExperimentKind::Mopt)
    o.emplace_back("seed", static_cast<double>(e.seed));
  if (e.kind == ExperimentKind::Grid)
    o.emplace_back("base_rate_pps", e.base_rate_pps);

  json::Array metrics;
  for (const auto& m : e.metrics)
    metrics.push_back(
        json::Object{{"name", json::Value(m.name)},
                     {"precision", json::Value(static_cast<double>(
                                       m.precision))}});
  o.emplace_back("metrics", std::move(metrics));

  json::Object quick;
  if (e.quick.duration_s) quick.emplace_back("duration_s", *e.quick.duration_s);
  if (e.quick.runs)
    quick.emplace_back("runs", static_cast<double>(*e.quick.runs));
  if (e.quick.rates_pps) {
    json::Array rates;
    for (double r : *e.quick.rates_pps) rates.emplace_back(r);
    quick.emplace_back("rates_pps", std::move(rates));
  }
  if (e.quick.node_counts) {
    json::Array nodes;
    for (std::size_t n : *e.quick.node_counts)
      nodes.emplace_back(static_cast<double>(n));
    quick.emplace_back("node_counts", std::move(nodes));
  }
  if (e.quick.epochs)
    quick.emplace_back("epochs", static_cast<double>(*e.quick.epochs));
  if (!quick.empty()) o.emplace_back("quick", std::move(quick));
  return o;
}

}  // namespace

// ------------------------------------------------------------------- kinds ---

const char* kind_name(ExperimentKind k) {
  switch (k) {
    case ExperimentKind::Sweep: return "sweep";
    case ExperimentKind::Density: return "density";
    case ExperimentKind::Grid: return "grid";
    case ExperimentKind::Mopt: return "mopt";
    case ExperimentKind::Design: return "design";
    case ExperimentKind::Replay: return "replay";
    case ExperimentKind::Churn: return "churn";
  }
  return "?";
}

ExperimentKind kind_from_name(const std::string& name) {
  if (name == "sweep") return ExperimentKind::Sweep;
  if (name == "density") return ExperimentKind::Density;
  if (name == "grid") return ExperimentKind::Grid;
  if (name == "mopt") return ExperimentKind::Mopt;
  if (name == "design") return ExperimentKind::Design;
  if (name == "replay") return ExperimentKind::Replay;
  if (name == "churn") return ExperimentKind::Churn;
  fail("unknown experiment kind \"" + name +
       "\" (valid: sweep, density, grid, mopt, design, replay, churn)");
}

const std::vector<std::string>& metric_names(ExperimentKind kind) {
  switch (kind) {
    case ExperimentKind::Sweep:
    case ExperimentKind::Density: return kSimMetrics;
    case ExperimentKind::Grid: return kGridMetrics;
    case ExperimentKind::Mopt: return kMoptMetrics;
    case ExperimentKind::Design: return kDesignMetrics;
    case ExperimentKind::Replay: return kReplayMetrics;
    case ExperimentKind::Churn: return kChurnMetrics;
  }
  return kSimMetrics;
}

std::string metric_display_name(const std::string& name) {
  for (const MetricInfo& m : kSimMetricInfo)
    if (name == m.name) return m.display;
  for (const MetricInfo& m : kGridMetricInfo)
    if (name == m.name) return m.display;
  for (const MetricInfo& m : kMoptMetricInfo)
    if (name == m.name) return m.display;
  for (const MetricInfo& m : kDesignMetricInfo)
    if (name == m.name) return m.display;
  for (const MetricInfo& m : kReplayMetricInfo)
    if (name == m.name) return m.display;
  for (const MetricInfo& m : kChurnMetricInfo)
    if (name == m.name) return m.display;
  fail("no display name for metric \"" + name + "\"");
}

// ---------------------------------------------------------------- scenario ---

net::ScenarioConfig ScenarioSpec::resolve() const {
  const ScenarioPreset* entry = nullptr;
  for (const ScenarioPreset& p : kScenarioPresetTable)
    if (preset == p.name) entry = &p;
  if (!entry)
    fail("unknown scenario preset \"" + preset +
         "\" (valid: " + join(kScenarioPresets) + ")");
  net::ScenarioConfig c = entry->make(*this);
  if (node_count) c.node_count = *node_count;
  if (field_w) c.field_w = *field_w;
  if (field_h) c.field_h = *field_h;
  if (flow_count) c.flow_count = *flow_count;
  if (rate_pps) c.rate_pps = *rate_pps;
  if (payload_bits) c.payload_bits = *payload_bits;
  if (duration_s) c.duration_s = *duration_s;
  if (flow_endpoint_pool) c.flow_endpoint_pool = *flow_endpoint_pool;
  if (rate_multipliers) c.rate_multipliers = *rate_multipliers;
  c.validate();
  return c;
}

// ---------------------------------------------------------------- manifest ---

Manifest Manifest::from_json(const json::Value& v) {
  Manifest m;
  ObjectReader r(v, "manifest");
  m.name = as_string(r.required("name"), "manifest name");
  if (m.name.empty()) fail("manifest name must be non-empty");
  // The name becomes the default output filename stem (eend_run writes
  // <name>.csv / <name>.jsonl in the working directory); path separators
  // or other special characters would escape it.
  for (const char c : m.name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok)
      fail("manifest name \"" + m.name +
           "\" may only contain letters, digits, '_' and '-' (it is used "
           "as an output filename stem)");
  }
  if (const auto* p = r.optional("title"))
    m.title = as_string(*p, "manifest title");

  const json::Value& exps = r.required("experiments");
  if (!exps.is_array() || exps.as_array().empty())
    fail("manifest experiments must be a non-empty array");
  for (std::size_t i = 0; i < exps.as_array().size(); ++i) {
    Experiment e = parse_experiment(exps.as_array()[i], i);
    for (const auto& prev : m.experiments)
      if (prev.id == e.id)
        fail("duplicate experiment id \"" + e.id +
             "\" — ids must be unique within a manifest");
    m.experiments.push_back(std::move(e));
  }
  r.finish();
  return m;
}

Manifest Manifest::parse(const std::string& text) {
  return from_json(json::parse(text));
}

Manifest Manifest::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open manifest file \"" + path + "\"");
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse(buf.str());
  } catch (const CheckError& e) {
    throw CheckError(std::string(e.what()) + " [file: " + path + "]");
  }
}

// GCC 12's -Warray-bounds misfires on the grow-from-empty reallocation
// path of vector<pair<string, Value>> at -O2 (stl_pair.h, inlined from the
// emplace_back below); the function is a plain append sequence.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif
json::Value Manifest::to_json() const {
  json::Object o;
  o.emplace_back("name", name);
  if (!title.empty()) o.emplace_back("title", title);
  json::Array exps;
  for (const auto& e : experiments) exps.push_back(experiment_to_json(e));
  o.emplace_back("experiments", std::move(exps));
  return json::Value(std::move(o));
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

std::string Manifest::serialize() const { return json::dump(to_json(), 2); }

std::vector<std::string> Manifest::experiment_summaries() const {
  std::vector<std::string> out;
  for (const Experiment& e : experiments) {
    std::size_t series = 0, xs = 0;
    switch (e.kind) {
      case ExperimentKind::Sweep:
      case ExperimentKind::Grid:
        series = e.stacks.size();
        xs = e.rates_pps.size();
        break;
      case ExperimentKind::Density:
        series = e.stacks.size();
        xs = e.node_counts.size();
        break;
      case ExperimentKind::Mopt:
        series = e.cards.size();
        xs = e.rb.size();
        break;
      case ExperimentKind::Design:
      case ExperimentKind::Replay:
        series = e.heuristics.size();
        xs = e.node_counts.size();
        break;
      case ExperimentKind::Churn:
        series = e.node_counts.size();
        xs = e.epochs;
        break;
    }
    out.push_back(e.id + "  [" + kind_name(e.kind) + "]  " +
                  std::to_string(series) + " series x " +
                  std::to_string(xs) + " x-values  " + e.title);
  }
  return out;
}

}  // namespace eend::core
