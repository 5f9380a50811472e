#include "core/manifest.hpp"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "core/metric_table.hpp"
#include "energy/radio_card.hpp"
#include "net/stack.hpp"
#include "opt/design_heuristic.hpp"
#include "util/check.hpp"

namespace eend::core {

namespace {

using enum ExperimentKind;

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

  /// Reject `key` with `why` if present — for keys that are known but
  /// invalid here.
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

const json::Array& as_nonempty_array(const json::Value& v,
                                     const std::string& ctx) {
  if (!v.is_array() || v.as_array().empty())
    fail(ctx + " must be a non-empty array");
  return v.as_array();
}

// ------------------------------------------------------------------- kinds ---

/// A kind's metric as the parser and the table banners see it.
struct MetricInfo {
  std::string name;
  std::string display;
  MetricNeeds needs;
};

template <class Run, std::size_t N>
std::vector<MetricInfo> describe(const Metric<Run> (&table)[N]) {
  std::vector<MetricInfo> out;
  for (const Metric<Run>& m : table)
    out.push_back({m.name, m.display, m.needs});
  return out;
}

/// Single registry of experiment kinds: the manifest name, the x axis,
/// the metric table and default metric set, the scenario preset a
/// simulation kind falls back to, and the --list cell counts.
struct KindInfo {
  ExperimentKind kind;
  const char* name;
  KindAxis axis;
  std::vector<MetricInfo> metrics;
  std::vector<MetricSpec> default_metrics;
  const char* scenario_preset;  ///< nullptr: the kind takes no scenario
  std::size_t (*series)(const Experiment&);
  std::size_t (*xs)(const Experiment&);
};

std::size_t count_stacks(const Experiment& e) { return e.stacks.size(); }
std::size_t count_heuristics(const Experiment& e) {
  return e.heuristics.size();
}
std::size_t count_node_counts(const Experiment& e) {
  return e.node_counts.size();
}

const KindInfo kKinds[] = {
    {Sweep, "sweep", {"rate_pps", "rate (pkt/s)", 1, true},
     describe(kSimMetrics),
     {{"delivery_ratio", 3}, {"goodput_bit_per_j", 1}}, "small_network",
     count_stacks, [](const Experiment& e) { return e.rates_pps.size(); }},
    {Density, "density", {"nodes", "# of nodes", 0, true},
     describe(kSimMetrics),
     {{"delivery_ratio", 3}, {"goodput_bit_per_j", 1}}, "density_network",
     count_stacks, count_node_counts},
    {Grid, "grid", {"rate_pps", "rate (pkt/s)", 1, false},
     describe(kGridMetrics), {{"goodput_kbit_per_j", 3}},
     "hypothetical_grid", count_stacks,
     [](const Experiment& e) { return e.rates_pps.size(); }},
    {Mopt, "mopt", {"rb", "R/B", 2, false},
     describe(kMoptMetrics), {{"mopt", 3}}, nullptr,
     [](const Experiment& e) { return e.cards.size(); },
     [](const Experiment& e) { return e.rb.size(); }},
    {Design, "design", {"nodes", "# of nodes", 0, true},
     describe(kDesignMetrics),
     {{"eq5_total", 1}, {"gap_vs_klein_ravi", 2}}, nullptr, count_heuristics,
     count_node_counts},
    {Replay, "replay", {"nodes", "# of nodes", 0, true},
     describe(kReplayMetrics),
     {{"analytic_eq5_j", 1},
      {"sim_energy_j", 1},
      {"analytic_gap_pct", 1},
      {"delivery_ratio", 3},
      {"first_death_s", 1}},
     nullptr, count_heuristics, count_node_counts},
    {Churn, "churn", {"epoch", "epoch", 0, true},
     describe(kChurnMetrics),
     {{"warm_score", 1}, {"gap_vs_cold_pct", 2}, {"events_applied", 1}},
     nullptr, count_node_counts,
     [](const Experiment& e) { return e.epochs; }},
};

const KindInfo& kind_info(ExperimentKind kind) {
  for (const KindInfo& k : kKinds)
    if (k.kind == kind) return k;
  fail("unknown experiment kind " +
       std::to_string(static_cast<unsigned>(kind)));
}

const MetricInfo* find_metric(ExperimentKind kind, const std::string& name) {
  for (const MetricInfo& m : kind_info(kind).metrics)
    if (m.name == name) return &m;
  return nullptr;
}

// ---------------------------------------------------------- list readers ---
// Each reads one list-valued key; `ctx` already names the key.

std::vector<double> as_rate_list(const json::Value& v, const Experiment&,
                                 const std::string& ctx) {
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

std::vector<std::size_t> as_node_list(const json::Value& v, const Experiment&,
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

std::vector<std::string> parse_stacks(const json::Value& v, const Experiment&,
                                      const std::string& ctx) {
  std::vector<std::string> out;
  for (const auto& s : as_nonempty_array(v, ctx)) {
    const std::string name = as_string(s, ctx + " entry");
    net::stack_preset(name);  // throws listing valid presets
    if (std::find(out.begin(), out.end(), name) != out.end())
      fail("duplicate stack \"" + name + "\" in " + ctx +
           " — each stack defines one cell row");
    out.push_back(name);
  }
  return out;
}

std::string parse_stack(const json::Value& v, const Experiment&,
                        const std::string& ctx) {
  std::string name = as_string(v, ctx);
  net::stack_preset(name);  // throws listing valid presets
  return name;
}

std::vector<std::string> parse_heuristics(const json::Value& v,
                                          const Experiment& e,
                                          const std::string& ctx) {
  std::vector<std::string> out;
  for (const auto& h : as_nonempty_array(v, ctx)) {
    const std::string name = as_string(h, ctx + " entry");
    opt::heuristic_by_name(name);  // throws listing valid names
    if (e.kind == Design && opt::heuristic_uses_battery_budget(name))
      fail("heuristic \"" + name + "\" in " + ctx +
           " needs a battery budget and is only valid for kind "
           "\"replay\" (its \"battery_j\" defines the per-node budget)");
    if (std::find(out.begin(), out.end(), name) != out.end())
      fail("duplicate heuristic \"" + name + "\" in " + ctx +
           " — each heuristic defines one series");
    out.push_back(name);
  }
  return out;
}

std::vector<double> parse_weights(const json::Value& v, const Experiment&,
                                  const std::string& ctx) {
  std::vector<double> out;
  for (const auto& w : as_nonempty_array(v, ctx)) {
    const double m = as_finite(w, ctx + " entry");
    if (!(m > 0.0) || m > 1e3)
      fail(ctx + " entries must be in (0, 1e3], got " + json::dump(w));
    out.push_back(m);
  }
  return out;
}

std::vector<CardSpec> parse_cards(const json::Value& v, const Experiment&,
                                  const std::string& ctx) {
  std::vector<CardSpec> out;
  for (const auto& cv : as_nonempty_array(v, ctx)) {
    ObjectReader cr(cv, ctx + " entry");
    CardSpec c;
    // Canonicalize case (lookup is case-insensitive, legends are not) and
    // reject unknown names in one step.
    c.card = energy::card_by_name(as_string(cr.required("card"), ctx + " card"))
                 .name;
    c.distance_m = as_finite(cr.required("distance_m"), ctx + " distance_m");
    if (!(c.distance_m > 0.0)) fail(ctx + " distance_m must be positive");
    cr.finish();
    // Series legends render the distance rounded to whole meters, so two
    // cards that only differ past that would silently merge into one
    // table column — treat them as duplicates.
    for (const auto& prev : out)
      if (prev.card == c.card &&
          std::llround(prev.distance_m) == std::llround(c.distance_m))
        fail("duplicate card \"" + c.card + "\" in " + ctx +
             " — distances render identically in the legend (D=" +
             std::to_string(std::llround(c.distance_m)) + "m)");
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<double> parse_rb(const json::Value& v, const Experiment&,
                             const std::string& ctx) {
  std::vector<double> out;
  for (const auto& x : as_nonempty_array(v, ctx)) {
    const double rb = as_finite(x, ctx + " entry");
    if (!(rb > 0.0) || rb > 0.5)
      fail(ctx + " entries must be in (0, 0.5] — a relay both sends and "
           "receives each packet, so utilization beyond 1/2 is infeasible; "
           "got " + json::dump(x));
    if (std::find(out.begin(), out.end(), rb) != out.end())
      fail("duplicate value " + json::dump(x) + " in " + ctx);
    out.push_back(rb);
  }
  return out;
}

/// Metric names validate against the kind's metric table, and a metric
/// whose switch is off (e.g. `lb` without presolve) is rejected — the
/// switches precede "metrics" in the knob table, so `e` already holds them.
std::vector<MetricSpec> parse_metrics(const json::Value& v,
                                      const Experiment& e,
                                      const std::string& ctx) {
  std::vector<MetricSpec> out;
  for (const auto& x : as_nonempty_array(v, ctx)) {
    MetricSpec m;
    if (x.is_string()) {
      m.name = x.as_string();
    } else {
      ObjectReader r(x, ctx + " entry");
      m.name = as_string(r.required("name"), ctx + " name");
      if (const auto* p = r.optional("precision")) {
        const auto prec = as_uint(*p, ctx + " precision");
        if (prec > 12) fail(ctx + " precision must be <= 12");
        m.precision = static_cast<int>(prec);
      }
      r.finish();
    }
    const MetricInfo* info = find_metric(e.kind, m.name);
    if (!info) {
      std::vector<std::string> valid;
      for (const MetricInfo& k : kind_info(e.kind).metrics)
        valid.push_back(k.name);
      fail("metric \"" + m.name + "\" is not valid for kind \"" +
           kind_name(e.kind) + "\" (valid: " + join(valid) + ")");
    }
    if (const char* need = unmet_need(e, info->needs))
      fail("metric \"" + m.name + "\" in " + ctx + " requires " + need +
           " on the experiment");
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

std::string parse_preset(const json::Value& v, const Experiment&,
                         const std::string& ctx) {
  std::string preset = as_string(v, ctx);
  if (std::find(kScenarioPresets.begin(), kScenarioPresets.end(), preset) ==
      kScenarioPresets.end())
    fail("unknown scenario preset \"" + preset +
         "\" (valid: " + join(kScenarioPresets) + ")");
  return preset;
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

/// Parse + statically validate an explicit churn schedule against the
/// experiment's epochs and initial demand count. The validator replays the
/// live demand list as the events would mutate it: the instance's initial
/// demands have instance-dependent endpoints (unknown here — nullopt),
/// arrivals are fully known. That catches out-of-range indices, departures
/// below one demand, duplicate failures and failures of a known flow
/// endpoint at parse time; graph-dependent breakage (a failure stranding an
/// *initial* demand, an unroutable arrival) is caught at run time by
/// ChurnState::apply.
std::vector<churn::EpochEvents> parse_churn_schedule(const json::Value& v,
                                                     const Experiment& e,
                                                     const std::string& ctx) {
  if (!v.is_array() || v.as_array().empty())
    fail(ctx + " must be a non-empty array of epoch entries");
  using MaybePair = std::optional<std::pair<graph::NodeId, graph::NodeId>>;
  std::vector<MaybePair> live(e.demands);
  std::set<graph::NodeId> failed;
  std::vector<churn::EpochEvents> out;
  std::size_t prev_at = 0;
  for (const auto& entry : v.as_array()) {
    ObjectReader er(entry, ctx + " entry");
    churn::EpochEvents ee;
    ee.at = static_cast<std::size_t>(as_uint(er.required("at"), ctx + " at"));
    if (ee.at < 1 || ee.at >= e.epochs)
      fail(ctx + " entry at=" + std::to_string(ee.at) + " outside [1, " +
           std::to_string(e.epochs) + ") — epoch 0 is the untouched instance");
    if (ee.at <= prev_at)
      fail(ctx + " entries must be strictly increasing in \"at\" (saw " +
           std::to_string(ee.at) + " after " + std::to_string(prev_at) + ")");
    prev_at = ee.at;
    const json::Value& evs = er.required("events");
    if (!evs.is_array() || evs.as_array().empty())
      fail(ctx + " entry at=" + std::to_string(ee.at) +
           " must list at least one event");
    for (const auto& evv : evs.as_array()) {
      const std::string ectx =
          ctx + " (at=" + std::to_string(ee.at) + ") event";
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

// ---------------------------------------------------------------- writers ---
// Canonical JSON of each member type; written() also decides omission.

json::Value to_value(bool b) { return json::Value(b); }
json::Value to_value(double x) { return json::Value(x); }
template <std::unsigned_integral U>
json::Value to_value(U n) {
  return json::Value(static_cast<double>(n));
}
json::Value to_value(const std::string& s) { return json::Value(s); }

json::Value to_value(const CardSpec& c) {
  return json::Object{{"card", json::Value(c.card)},
                      {"distance_m", json::Value(c.distance_m)}};
}

json::Value to_value(const MetricSpec& m) {
  return json::Object{
      {"name", json::Value(m.name)},
      {"precision", json::Value(static_cast<double>(m.precision))}};
}

json::Value to_value(const churn::EpochEvents& ee) {
  json::Array evs;
  for (const churn::Event& ev : ee.events) {
    json::Object eo;
    eo.emplace_back("op", std::string(churn::event_op_name(ev.op)));
    switch (ev.op) {
      case churn::EventOp::Arrive:
        eo.emplace_back("source", static_cast<double>(ev.source));
        eo.emplace_back("destination", static_cast<double>(ev.destination));
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
  return json::Object{{"at", json::Value(static_cast<double>(ee.at))},
                      {"events", json::Value(std::move(evs))}};
}

/// The canonical value of a member, or nullopt to omit its key: unset
/// optionals and empty lists are left out.
template <class T>
std::optional<json::Value> written(const T& x) {
  return to_value(x);
}
template <class T>
std::optional<json::Value> written(const std::vector<T>& xs) {
  if (xs.empty()) return std::nullopt;
  json::Array a;
  for (const T& x : xs) a.push_back(to_value(x));
  return json::Value(std::move(a));
}
template <class T>
std::optional<json::Value> written(const std::optional<T>& x) {
  if (!x) return std::nullopt;
  return written(*x);
}

// ------------------------------------------------------------------- knobs ---

using Kinds = unsigned;  ///< bitmask over ExperimentKind

constexpr Kinds bit(ExperimentKind k) {
  return 1u << static_cast<unsigned>(k);
}
constexpr Kinds kSimKinds = bit(Sweep) | bit(Density) | bit(Grid);
constexpr Kinds kSearchKinds = bit(Design) | bit(Replay) | bit(Churn);
constexpr Kinds kAllKinds = kSimKinds | bit(Mopt) | kSearchKinds;
constexpr Kinds kRunsKinds = kAllKinds & ~bit(Grid) & ~bit(Mopt);

/// Accepted interval of a numeric knob and how its rejection words it
/// ("runs must be in [1, 10000]"); text nullptr = any value of the type.
struct Range {
  double lo = 0.0, hi = 0.0;
  bool lo_open = false;
  const char* text = nullptr;
};
constexpr Range within(double lo, double hi, const char* text) {
  return {lo, hi, false, text};
}
constexpr Range above(double lo, double hi, const char* text) {
  return {lo, hi, true, text};
}
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Knob;

/// How a knob's value moves between JSON and the Experiment: `read`
/// parses and validates `v` into `e`; `write` returns the canonical value,
/// or nullopt to omit the key.
struct Access {
  void (*read)(Experiment& e, const json::Value& v, const Knob& k,
               const std::string& ctx);
  std::optional<json::Value> (*write)(const Experiment& e);
};

/// A condition some kinds put on a key: `reason(e)` is nullptr while the
/// key is usable, else the rejection text.
struct Gate {
  Kinds kinds = 0;
  const char* (*reason)(const Experiment&) = nullptr;
};

/// The JSON object a key lives in: the experiment itself or one of its
/// nested "quick" and "scenario" blocks.
enum class Block { Top, Quick, Scenario };

/// One manifest key of an experiment (or of a nested block).
struct Knob {
  const char* key;
  Kinds kinds;  ///< kinds that accept the key
  Access access;
  Range range = {};
  bool required = false;
  /// Kinds that reject the key with a reason — "is not valid for kind
  /// \"k\" (reason)" — instead of "is only valid for kind(s) ...".
  std::vector<std::pair<ExperimentKind, const char*>> hints = {};
  /// Kinds in `gate.kinds` accept the key only while the gate passes;
  /// "only valid for" rejections name the other kinds of `kinds`.
  Gate gate = {};
  Block block = Block::Top;
};

template <class E, class T>
auto& slot(E& e, T Experiment::*member) {
  return e.*member;
}
template <class E, class T>
auto& slot(E& e, T QuickSpec::*member) {
  return e.quick.*member;
}
template <class E, class T>
auto& slot(E& e, T ScenarioSpec::*member) {
  return e.scenario.*member;
}

double in_range(const Knob& k, double x, const std::string& ctx) {
  const Range& r = k.range;
  if (r.text && ((r.lo_open ? !(x > r.lo) : x < r.lo) || x > r.hi))
    fail(ctx + " " + k.key + " must be " + r.text);
  return x;
}

void assign(bool& dst, const json::Value& v, const Knob& k,
            const std::string& ctx) {
  if (!v.is_bool()) fail(ctx + " " + k.key + " must be a boolean");
  dst = v.as_bool();
}
void assign(double& dst, const json::Value& v, const Knob& k,
            const std::string& ctx) {
  dst = in_range(k, as_finite(v, ctx + " " + k.key), ctx);
}
template <std::unsigned_integral U>
void assign(U& dst, const json::Value& v, const Knob& k,
            const std::string& ctx) {
  const std::uint64_t n = as_uint(v, ctx + " " + k.key);
  in_range(k, static_cast<double>(n), ctx);
  dst = static_cast<U>(n);
}
template <class T>
void assign(std::optional<T>& dst, const json::Value& v, const Knob& k,
            const std::string& ctx) {
  T x{};
  assign(x, v, k, ctx);
  dst = x;
}

/// Access to the member `M`: scalars parse through assign() and the
/// knob's range; a list member names the reader `Read` that parses it.
template <auto M, auto Read = nullptr>
constexpr Access field() {
  return {[](Experiment& e, const json::Value& v, const Knob& k,
             const std::string& ctx) {
            if constexpr (Read == nullptr)
              assign(slot(e, M), v, k, ctx);
            else
              slot(e, M) = Read(v, e, ctx + " " + k.key);
          },
          [](const Experiment& e) { return written(slot(e, M)); }};
}

template <Block B>
void read_block(Experiment& e, const json::Value& v, const Knob& k,
                const std::string& ctx);
template <Block B>
std::optional<json::Value> write_block(const Experiment& e);

constexpr Gate kReplayEpochs{bit(Churn), [](const Experiment& e) {
  return e.replay_every > 0 ? nullptr
                            : "requires \"replay_every\" > 0 (no "
                              "replay-validation epochs to run on)";
}};
constexpr Gate kNoSchedule{bit(Churn), [](const Experiment& e) {
  return e.churn_schedule.empty()
             ? nullptr
             : "is not valid alongside an explicit \"schedule\" (the "
               "schedule replaces the trace generator)";
}};

constexpr Range kRunsRange = within(1, 10000, "in [1, 10000]");
constexpr Range kPerEpoch = within(0, 100, "<= 100");
constexpr Range kEpochsRange =
    within(2, 10000,
           "in [2, 10000] (epoch 0 is the cold design; churn needs at least "
           "one more)");
constexpr const char* kDensityLaw =
    "instances derive from the node counts via the fixed density law";
constexpr const char* kSimHorizon =
    "the simulated horizon is scenario.duration_s";

/// Single registry of experiment keys (nested blocks included), in
/// canonical serialization order. It drives parsing, both rejection forms
/// and experiment_to_json. A key whose reader or gate reads another key
/// comes after it ("schedule" after "epochs" and "demands", the generator
/// knobs after "schedule", the replay knobs after "replay_every",
/// "metrics" after the switches). "schedule" and the generator knobs never
/// serialize together, so their relative order is free.
const Knob kKnobs[] = {
    {.key = "scenario", .kinds = kSimKinds,
     .access = {read_block<Block::Scenario>, write_block<Block::Scenario>},
     .hints = {{Design, kDensityLaw}, {Replay, kDensityLaw},
               {Churn, kDensityLaw}, {Mopt, "analytic model"}}},
    {.key = "stacks", .kinds = kSimKinds,
     .access = field<&Experiment::stacks, parse_stacks>(), .required = true,
     .hints = {{Design, "use \"heuristics\""},
               {Replay, "use \"heuristics\" for the series and the singular "
                        "\"stack\" for the simulated protocol stack"},
               {Churn, "the serving loop runs the fixed warm-start vs "
                       "portfolio pipeline; the singular \"stack\" selects "
                       "the replay-validation protocol stack"},
               {Mopt, "use \"cards\""}}},
    {.key = "rates_pps", .kinds = bit(Sweep) | bit(Grid),
     .access = field<&Experiment::rates_pps, as_rate_list>(),
     .required = true,
     .hints = {{Density, "set the density rate via scenario.rate_pps"},
               {Replay, "set the replay rate via \"rate_pps\""},
               {Churn, "set the replay rate via \"rate_pps\""}}},
    {.key = "node_counts", .kinds = bit(Density) | kSearchKinds,
     .access = field<&Experiment::node_counts, as_node_list>(),
     .required = true},
    {.key = "heuristics", .kinds = bit(Design) | bit(Replay),
     .access = field<&Experiment::heuristics, parse_heuristics>(),
     .required = true,
     .hints = {{Churn, "the serving loop always compares warm-start repair "
                       "against the from-scratch portfolio; series are node "
                       "counts"}}},
    {.key = "demands", .kinds = kSearchKinds,
     .access = field<&Experiment::demands>(),
     .range = within(1, 1000, "in [1, 1000]")},
    {.key = "starts", .kinds = kSearchKinds,
     .access = field<&Experiment::starts>(),
     .range = within(1, 1000, "in [1, 1000]")},
    {.key = "anneal_iters", .kinds = kSearchKinds,
     .access = field<&Experiment::anneal_iters>(),
     .range = within(0, 1e6, "<= 1e6")},
    {.key = "presolve", .kinds = bit(Design) | bit(Replay),
     .access = field<&Experiment::presolve>()},
    {.key = "field_scale", .kinds = kSearchKinds,
     .access = field<&Experiment::field_scale>(),
     .range = above(0, 10, "in (0, 10] (multiplier on the density-law field "
                           "side)")},
    {.key = "epochs", .kinds = bit(Churn),
     .access = field<&Experiment::epochs>(), .range = kEpochsRange},
    {.key = "fallback_pct", .kinds = bit(Churn),
     .access = field<&Experiment::fallback_pct>(),
     .range = above(0, 100, "in (0, 100]")},
    {.key = "replay_every", .kinds = bit(Churn),
     .access = field<&Experiment::replay_every>(),
     .range = within(0, 10000, "<= 10000")},
    {.key = "schedule", .kinds = bit(Churn),
     .access = field<&Experiment::churn_schedule, parse_churn_schedule>()},
    {.key = "arrivals_per_epoch", .kinds = bit(Churn),
     .access = field<&Experiment::arrivals_per_epoch>(),
     .range = kPerEpoch, .gate = kNoSchedule},
    {.key = "departures_per_epoch", .kinds = bit(Churn),
     .access = field<&Experiment::departures_per_epoch>(),
     .range = kPerEpoch, .gate = kNoSchedule},
    {.key = "swings_per_epoch", .kinds = bit(Churn),
     .access = field<&Experiment::swings_per_epoch>(),
     .range = kPerEpoch, .gate = kNoSchedule},
    {.key = "failures_per_epoch", .kinds = bit(Churn),
     .access = field<&Experiment::failures_per_epoch>(),
     .range = kPerEpoch, .gate = kNoSchedule},
    {.key = "rate_swing", .kinds = bit(Churn),
     .access = field<&Experiment::rate_swing>(),
     .range = within(0, 0.9, "in [0, 0.9] (a factor of zero would silence "
                             "the demand)"),
     .gate = kNoSchedule},
    {.key = "move_fraction", .kinds = bit(Churn),
     .access = field<&Experiment::move_fraction>(),
     .range = within(0, 1, "in [0, 1]"), .gate = kNoSchedule},
    {.key = "move_sigma_m", .kinds = bit(Churn),
     .access = field<&Experiment::move_sigma_m>(),
     .range = above(0, 1e4, "in (0, 1e4] meters"), .gate = kNoSchedule},
    {.key = "stack", .kinds = bit(Replay) | bit(Churn),
     .access = field<&Experiment::replay_stack, parse_stack>(),
     .gate = kReplayEpochs},
    {.key = "duration_s", .kinds = bit(Replay) | bit(Churn),
     .access = field<&Experiment::replay_duration_s>(),
     .range = above(0, 1e6, "in (0, 1e6] seconds"),
     .hints = {{Sweep, kSimHorizon}, {Density, kSimHorizon},
               {Grid, kSimHorizon}},
     .gate = kReplayEpochs},
    {.key = "rate_pps", .kinds = bit(Replay) | bit(Churn),
     .access = field<&Experiment::replay_rate_pps>(),
     .range = above(0, 1e6, "in (0, 1e6]"), .gate = kReplayEpochs},
    {.key = "battery_j", .kinds = bit(Replay),
     .access = field<&Experiment::battery_j>(),
     .range = within(0, 1e9, "in [0, 1e9] joules (0 = infinite)"),
     .hints = {{Churn, "replay-validation epochs run with infinite "
                       "batteries"}}},
    {.key = "demand_weights", .kinds = bit(Replay) | bit(Churn),
     .access = field<&Experiment::demand_weights, parse_weights>()},
    {.key = "cards", .kinds = bit(Mopt),
     .access = field<&Experiment::cards, parse_cards>(), .required = true},
    {.key = "rb", .kinds = bit(Mopt),
     .access = field<&Experiment::rb, parse_rb>(), .required = true},
    {.key = "runs", .kinds = kRunsKinds, .access = field<&Experiment::runs>(),
     .range = kRunsRange},
    {.key = "seed", .kinds = kAllKinds & ~bit(Mopt),
     .access = field<&Experiment::seed>(),
     .hints = {{Mopt, "deterministic model"}}},
    {.key = "base_rate_pps", .kinds = bit(Grid),
     .access = field<&Experiment::base_rate_pps>(),
     .range = above(0, 1e6, "in (0, 1e6]")},
    {.key = "metrics", .kinds = kAllKinds,
     .access = field<&Experiment::metrics, parse_metrics>()},
    {.key = "quick", .kinds = kAllKinds & ~bit(Mopt),
     .access = {read_block<Block::Quick>, write_block<Block::Quick>},
     .hints = {{Mopt, "already instant"}}},

    // The "quick" block: reduced-scale overrides, each kept inside the
    // top-level key's range.
    {.key = "duration_s", .kinds = kSimKinds | bit(Replay),
     .access = field<&QuickSpec::duration_s>(),
     .range = above(0, kInf, "positive"),
     .hints = {{Design, "design instances are solved, not simulated"},
               {Churn, "quick mode clamps the replay-validation horizon "
                       "itself"}},
     .block = Block::Quick},
    {.key = "runs", .kinds = kRunsKinds, .access = field<&QuickSpec::runs>(),
     .range = kRunsRange, .block = Block::Quick},
    {.key = "rates_pps", .kinds = bit(Sweep) | bit(Grid),
     .access = field<&QuickSpec::rates_pps, as_rate_list>(),
     .block = Block::Quick},
    {.key = "node_counts", .kinds = bit(Density) | kSearchKinds,
     .access = field<&QuickSpec::node_counts, as_node_list>(),
     .block = Block::Quick},
    {.key = "epochs", .kinds = bit(Churn),
     .access = field<&QuickSpec::epochs>(), .range = kEpochsRange,
     .block = Block::Quick},

    // The "scenario" block: a preset plus overrides of its parameters.
    {.key = "preset", .kinds = kSimKinds,
     .access = field<&ScenarioSpec::preset, parse_preset>(), .required = true,
     .block = Block::Scenario},
    {.key = "node_count", .kinds = kSimKinds,
     .access = field<&ScenarioSpec::node_count>(), .block = Block::Scenario},
    {.key = "field_w", .kinds = kSimKinds,
     .access = field<&ScenarioSpec::field_w>(),
     .range = above(0, kInf, "positive"), .block = Block::Scenario},
    {.key = "field_h", .kinds = kSimKinds,
     .access = field<&ScenarioSpec::field_h>(),
     .range = above(0, kInf, "positive"), .block = Block::Scenario},
    {.key = "flow_count", .kinds = kSimKinds,
     .access = field<&ScenarioSpec::flow_count>(), .block = Block::Scenario},
    {.key = "rate_pps", .kinds = kSimKinds,
     .access = field<&ScenarioSpec::rate_pps>(),
     .range = above(0, 1e6, "in (0, 1e6]"), .block = Block::Scenario},
    {.key = "payload_bits", .kinds = kSimKinds,
     .access = field<&ScenarioSpec::payload_bits>(),
     .range = within(1, 1u << 24, "in [1, 2^24]"), .block = Block::Scenario},
    {.key = "duration_s", .kinds = kSimKinds,
     .access = field<&ScenarioSpec::duration_s>(),
     .range = above(0, kInf, "positive"), .block = Block::Scenario},
    {.key = "flow_endpoint_pool", .kinds = kSimKinds,
     .access = field<&ScenarioSpec::flow_endpoint_pool>(),
     .block = Block::Scenario},
    {.key = "rate_multipliers", .kinds = kSimKinds,
     .access = field<&ScenarioSpec::rate_multipliers, parse_weights>(),
     .block = Block::Scenario},
};

std::string rejection(const Knob& k, ExperimentKind kind) {
  for (const auto& [hinted, why] : k.hints)
    if (hinted == kind)
      return std::string("is not valid for kind \"") + kind_name(kind) +
             "\" (" + why + ")";
  const Kinds ungated = k.kinds & ~k.gate.kinds;
  const Kinds listed = ungated ? ungated : k.kinds;
  std::vector<std::string> names;
  for (const KindInfo& info : kKinds)
    if (listed & bit(info.kind))
      names.push_back(std::string("\"") + info.name + "\"");
  std::string out = names.size() > 1 ? "is only valid for kinds "
                                     : "is only valid for kind ";
  for (std::size_t i = 0; i < names.size(); ++i)
    out += (i == 0 ? "" : i + 1 == names.size() ? " and " : ", ") + names[i];
  return out;
}

/// Parse the keys of `block` that `e.kind` accepts, in table order, and
/// reject the known keys it does not.
void read_knobs(ObjectReader& r, Experiment& e, Block block,
                const std::string& ctx) {
  for (const Knob& k : kKnobs) {
    if (k.block != block) continue;
    if (!(k.kinds & bit(e.kind))) {
      r.forbid(k.key, rejection(k, e.kind));
      continue;
    }
    const json::Value* v = k.required ? &r.required(k.key) : r.optional(k.key);
    if (!v) continue;
    if (k.gate.kinds & bit(e.kind))
      if (const char* why = k.gate.reason(e)) r.forbid(k.key, why);
    k.access.read(e, *v, k, ctx);
  }
}

void write_knobs(const Experiment& e, Block block, json::Object& o) {
  for (const Knob& k : kKnobs) {
    if (k.block != block || !(k.kinds & bit(e.kind))) continue;
    if ((k.gate.kinds & bit(e.kind)) && k.gate.reason(e)) continue;
    if (std::optional<json::Value> v = k.access.write(e))
      o.emplace_back(k.key, std::move(*v));
  }
}

/// Access to a nested block: its keys are knob rows of block `B`.
template <Block B>
void read_block(Experiment& e, const json::Value& v, const Knob& k,
                const std::string& ctx) {
  ObjectReader r(v, ctx + " " + k.key);
  read_knobs(r, e, B, ctx + " " + k.key);
  r.finish();
}

template <Block B>
std::optional<json::Value> write_block(const Experiment& e) {
  json::Object o;
  write_knobs(e, B, o);
  if (o.empty()) return std::nullopt;
  return json::Value(std::move(o));
}

// -------------------------------------------------------------- experiment ---

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
  const KindInfo& kind = kind_info(e.kind);
  if (const auto* p = r.optional("title"))
    e.title = as_string(*p, ctx + " title");
  if (e.title.empty()) e.title = e.id;
  if (kind.scenario_preset) e.scenario.preset = kind.scenario_preset;

  read_knobs(r, e, Block::Top, ctx);
  if (e.metrics.empty()) e.metrics = kind.default_metrics;

  // Every instance must be able to host the demand count, or
  // make_design_instance would abort mid-run after earlier experiments
  // already burned their wall time.
  if (bit(e.kind) & kSearchKinds) {
    for (const std::size_t n : e.node_counts)
      if (e.demands > n * (n - 1))
        fail(ctx + " requests " + std::to_string(e.demands) +
             " demands but node count " + std::to_string(n) + " has only " +
             std::to_string(n * (n - 1)) +
             " distinct (source, destination) pairs");
    if (e.quick.node_counts)
      for (const std::size_t n : *e.quick.node_counts)
        if (e.demands > n * (n - 1))
          fail(ctx + " quick node count " + std::to_string(n) +
               " cannot host " + std::to_string(e.demands) + " demands");
  }

  // A lifetime heuristic without a battery would silently degenerate to
  // its base variant and mislabel the series — demand the budget.
  if (e.kind == Replay)
    for (const auto& name : e.heuristics)
      if (opt::heuristic_uses_battery_budget(name) && !(e.battery_j > 0.0))
        fail(ctx + " lists heuristic \"" + name +
             "\" but battery_j is 0 — lifetime-constrained search needs a "
             "positive per-node battery budget");

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
        const auto check_node = [&](graph::NodeId node) {
          if (static_cast<std::size_t>(node) >= min_n)
            fail(ctx + " schedule (at=" + std::to_string(ee.at) +
                 ") references node " + std::to_string(node) +
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

  // Resolve every simulation cell's scenario now (density resolves per
  // node count, quick counts included), so a bad override fails here
  // rather than mid-run after earlier experiments printed their tables.
  if (kind.scenario_preset) {
    std::vector<std::optional<std::size_t>> counts;
    if (e.kind == Density) {
      counts.assign(e.node_counts.begin(), e.node_counts.end());
      if (e.quick.node_counts)
        counts.insert(counts.end(), e.quick.node_counts->begin(),
                      e.quick.node_counts->end());
    } else {
      counts.emplace_back();
    }
    for (const std::optional<std::size_t>& n : counts) {
      ScenarioSpec spec = e.scenario;
      if (n) spec.node_count = n;
      try {
        spec.resolve();
      } catch (const CheckError& err) {
        fail(ctx + " scenario" +
             (n ? " at node count " + std::to_string(*n) : std::string()) +
             " is invalid: " + err.what());
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
  write_knobs(e, Block::Top, o);
  return o;
}

}  // namespace

// ------------------------------------------------------------------- kinds ---

const char* kind_name(ExperimentKind k) { return kind_info(k).name; }

const KindAxis& kind_axis(ExperimentKind k) { return kind_info(k).axis; }

ExperimentKind kind_from_name(const std::string& name) {
  std::vector<std::string> valid;
  for (const KindInfo& k : kKinds) {
    if (name == k.name) return k.kind;
    valid.emplace_back(k.name);
  }
  fail("unknown experiment kind \"" + name + "\" (valid: " + join(valid) +
       ")");
}

std::string metric_display_name(ExperimentKind kind, const std::string& name) {
  if (const MetricInfo* m = find_metric(kind, name)) return m->display;
  fail("no display name for " + std::string(kind_name(kind)) + " metric \"" +
       name + "\"");
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
    const KindInfo& kind = kind_info(e.kind);
    out.push_back(e.id + "  [" + kind.name + "]  " +
                  std::to_string(kind.series(e)) + " series x " +
                  std::to_string(kind.xs(e)) + " x-values  " + e.title);
  }
  return out;
}

}  // namespace eend::core
