// Unit tests: JSON subset parser, manifest parsing/validation/round-trip,
// and the machine-readable result sinks.
#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment_engine.hpp"
#include "core/manifest.hpp"
#include "core/result_sink.hpp"
#include "util/check.hpp"
#include "util/format.hpp"
#include "util/json.hpp"

namespace eend::core {
namespace {

// --------------------------------------------------------------- helpers ---

/// EXPECT_THROW with a substring check on the message — every rejection
/// must tell the user what was wrong and what would have been accepted.
template <typename Fn>
void expect_rejected(Fn fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected CheckError containing \"" << needle << "\"";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

std::string sweep_manifest_json(const std::string& patch_key = "",
                                const std::string& patch_value = "") {
  std::string extra;
  if (!patch_key.empty())
    extra = ", \"" + patch_key + "\": " + patch_value;
  return R"({
    "name": "t",
    "experiments": [
      {
        "id": "fig8",
        "kind": "sweep",
        "scenario": {"preset": "small_network"},
        "stacks": ["titan_pc", "dsr_active"],
        "rates_pps": [2, 4],
        "runs": 2,
        "seed": 7,
        "metrics": ["delivery_ratio"])" +
         extra + R"(
      }
    ]
  })";
}

// ------------------------------------------------------------------ JSON ---

TEST(Json, ParsesScalarsArraysObjects) {
  const auto v = json::parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "x\n\"y\"", "e": 2e3})");
  EXPECT_DOUBLE_EQ(v.find("a")->as_number(), 1.5);
  EXPECT_EQ(v.find("b")->as_array().size(), 3u);
  EXPECT_TRUE(v.find("b")->as_array()[0].as_bool());
  EXPECT_TRUE(v.find("b")->as_array()[2].is_null());
  EXPECT_EQ(v.find("s")->as_string(), "x\n\"y\"");
  EXPECT_DOUBLE_EQ(v.find("e")->as_number(), 2000.0);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), CheckError);
  EXPECT_THROW(json::parse("[1,]"), CheckError);
  EXPECT_THROW(json::parse("{\"a\": 1} trailing"), CheckError);
  EXPECT_THROW(json::parse("{'a': 1}"), CheckError);
  EXPECT_THROW(json::parse("{\"a\": 01}"), CheckError);  // leading zero
  EXPECT_THROW(json::parse("nul"), CheckError);
  EXPECT_THROW(json::parse("\"\\u0041\""), CheckError);  // \u unsupported
}

TEST(Json, RejectsDuplicateKeysWithPosition) {
  try {
    json::parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL();
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("duplicate object key"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  }
}

TEST(Json, DumpRoundTripsStructurally) {
  const std::string text =
      R"({"name":"x","xs":[0.1,2,3.25e-4],"flag":true,"nested":{"k":"v"}})";
  const auto v = json::parse(text);
  EXPECT_TRUE(json::parse(json::dump(v)) == v);
  EXPECT_TRUE(json::parse(json::dump(v, 2)) == v);
}

TEST(Json, NumbersUseShortestRoundTrip) {
  EXPECT_EQ(json::dump(json::Value(0.1)), "0.1");
  EXPECT_EQ(json::dump(json::Value(2.0)), "2");
  EXPECT_EQ(format_double(1.0 / 3.0), "0.3333333333333333");
  // The formatted text parses back to the identical double.
  const double ugly = 0.9973211223001;
  EXPECT_EQ(json::parse(format_double(ugly)).as_number(), ugly);
}

// -------------------------------------------------------------- manifest ---

TEST(Manifest, ParsesSweepExperiment) {
  const auto m = Manifest::parse(sweep_manifest_json());
  ASSERT_EQ(m.experiments.size(), 1u);
  const Experiment& e = m.experiments[0];
  EXPECT_EQ(e.id, "fig8");
  EXPECT_EQ(e.kind, ExperimentKind::Sweep);
  EXPECT_EQ(e.stacks, (std::vector<std::string>{"titan_pc", "dsr_active"}));
  EXPECT_EQ(e.rates_pps, (std::vector<double>{2, 4}));
  EXPECT_EQ(e.runs, 2u);
  EXPECT_EQ(e.seed, 7u);
  ASSERT_EQ(e.metrics.size(), 1u);
  EXPECT_EQ(e.metrics[0].name, "delivery_ratio");
  // Scenario resolves to the paper's small network.
  const auto sc = e.scenario.resolve();
  EXPECT_EQ(sc.node_count, 50u);
  EXPECT_DOUBLE_EQ(sc.field_w, 500.0);
}

TEST(Manifest, ParsesDesignExperiment) {
  const auto m = Manifest::parse(R"({
    "name": "ds",
    "experiments": [{
      "id": "portfolio_scaling",
      "kind": "design",
      "node_counts": [50, 100],
      "heuristics": ["klein_ravi", "local_search", "portfolio"],
      "demands": 6,
      "starts": 4,
      "anneal_iters": 100,
      "runs": 2,
      "seed": 9
    }]
  })");
  ASSERT_EQ(m.experiments.size(), 1u);
  const Experiment& e = m.experiments[0];
  EXPECT_EQ(e.kind, ExperimentKind::Design);
  EXPECT_EQ(e.node_counts, (std::vector<std::size_t>{50, 100}));
  EXPECT_EQ(e.heuristics, (std::vector<std::string>{
                              "klein_ravi", "local_search", "portfolio"}));
  EXPECT_EQ(e.demands, 6u);
  EXPECT_EQ(e.starts, 4u);
  EXPECT_EQ(e.anneal_iters, 100u);
  EXPECT_EQ(e.runs, 2u);
  EXPECT_EQ(e.seed, 9u);
  // Default metric set: total cost + gap vs the Klein-Ravi baseline.
  ASSERT_EQ(e.metrics.size(), 2u);
  EXPECT_EQ(e.metrics[0].name, "eq5_total");
  EXPECT_EQ(e.metrics[1].name, "gap_vs_klein_ravi");
}

TEST(Manifest, ParsesReplayExperiment) {
  const auto m = Manifest::parse(R"({
    "name": "rp",
    "experiments": [{
      "id": "replay_scaling",
      "kind": "replay",
      "node_counts": [50, 100],
      "heuristics": ["klein_ravi", "portfolio", "portfolio_lifetime"],
      "demands": 6,
      "starts": 4,
      "anneal_iters": 100,
      "stack": "dsr_odpm",
      "duration_s": 120,
      "rate_pps": 16,
      "battery_j": 102.5,
      "demand_weights": [0.5, 1, 3],
      "runs": 2,
      "seed": 9
    }]
  })");
  ASSERT_EQ(m.experiments.size(), 1u);
  const Experiment& e = m.experiments[0];
  EXPECT_EQ(e.kind, ExperimentKind::Replay);
  EXPECT_EQ(e.node_counts, (std::vector<std::size_t>{50, 100}));
  EXPECT_EQ(e.heuristics,
            (std::vector<std::string>{"klein_ravi", "portfolio",
                                      "portfolio_lifetime"}));
  EXPECT_EQ(e.replay_stack, "dsr_odpm");
  EXPECT_DOUBLE_EQ(e.replay_duration_s, 120.0);
  EXPECT_DOUBLE_EQ(e.replay_rate_pps, 16.0);
  EXPECT_DOUBLE_EQ(e.battery_j, 102.5);
  EXPECT_EQ(e.demand_weights, (std::vector<double>{0.5, 1.0, 3.0}));
  EXPECT_EQ(e.runs, 2u);
  EXPECT_EQ(e.seed, 9u);
  // Default metric set: both sides of the cross-check plus lifetime.
  ASSERT_EQ(e.metrics.size(), 5u);
  EXPECT_EQ(e.metrics[0].name, "analytic_eq5_j");
  EXPECT_EQ(e.metrics[1].name, "sim_energy_j");
  EXPECT_EQ(e.metrics[2].name, "analytic_gap_pct");
  EXPECT_EQ(e.metrics[3].name, "delivery_ratio");
  EXPECT_EQ(e.metrics[4].name, "first_death_s");
}

TEST(Manifest, ReplayKindRejectsBadInputsActionably) {
  const auto replay = [](const std::string& patch) {
    return R"({"name":"t","experiments":[{"id":"r","kind":"replay",
      "node_counts":[50],)" + patch + R"(}]})";
  };
  // Heuristics validate against the opt/ registry, like the design kind.
  expect_rejected(
      [&] { Manifest::parse(replay("\"heuristics\": [\"simplex\"]")); },
      "unknown design heuristic \"simplex\" (valid: klein_ravi");
  // Lifetime variants need the battery that defines their budget.
  expect_rejected(
      [&] {
        Manifest::parse(replay("\"heuristics\": [\"portfolio_lifetime\"]"));
      },
      "battery_j is 0");
  // ...and are meaningless for the un-simulated design kind.
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"d",
          "kind":"design","node_counts":[50],
          "heuristics":["portfolio_lifetime"]}]})");
      },
      "only valid for kind \"replay\"");
  // Range validation on the replay knobs.
  expect_rejected(
      [&] {
        Manifest::parse(replay(
            "\"heuristics\": [\"klein_ravi\"], \"battery_j\": -1"));
      },
      "battery_j must be in [0, 1e9]");
  expect_rejected(
      [&] {
        Manifest::parse(replay(
            "\"heuristics\": [\"klein_ravi\"], \"rate_pps\": 0"));
      },
      "rate_pps must be in (0, 1e6]");
  expect_rejected(
      [&] {
        Manifest::parse(replay(
            "\"heuristics\": [\"klein_ravi\"], \"duration_s\": 0"));
      },
      "duration_s must be in (0, 1e6]");
  expect_rejected(
      [&] {
        Manifest::parse(replay("\"heuristics\": [\"klein_ravi\"], "
                               "\"demand_weights\": []"));
      },
      "demand_weights must be a non-empty array");
  expect_rejected(
      [&] {
        Manifest::parse(replay("\"heuristics\": [\"klein_ravi\"], "
                               "\"demand_weights\": [0]"));
      },
      "demand_weights entries must be in (0, 1e3]");
  expect_rejected(
      [&] {
        Manifest::parse(replay("\"heuristics\": [\"klein_ravi\"], "
                               "\"stack\": \"warp_drive\""));
      },
      "unknown stack preset");
  // Replay takes the singular "stack", not the sim kinds' array...
  expect_rejected(
      [&] {
        Manifest::parse(replay("\"heuristics\": [\"klein_ravi\"], "
                               "\"stacks\": [\"titan_pc\"]"));
      },
      "the singular \"stack\"");
  // ...and the singular "stack" is replay-only.
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"a",
          "kind":"sweep","scenario":{"preset":"small_network"},
          "stacks":["titan_pc"],"rates_pps":[2],
          "stack":"dsr_active"}]})");
      },
      "only valid for kind \"replay\"");
  // Sim metrics that are not replay metrics stay rejected.
  expect_rejected(
      [&] {
        Manifest::parse(replay("\"heuristics\": [\"klein_ravi\"], "
                               "\"metrics\": [\"goodput_bit_per_j\"]"));
      },
      "not valid for kind \"replay\"");
}

TEST(Manifest, DesignKindRejectsBadInputsActionably) {
  const auto design = [](const std::string& patch) {
    return R"({"name":"t","experiments":[{"id":"d","kind":"design",
      "node_counts":[50],)" + patch + R"(}]})";
  };
  expect_rejected([&] { Manifest::parse(design("\"starts\": 4")); },
                  "missing required key \"heuristics\"");
  expect_rejected(
      [&] { Manifest::parse(design("\"heuristics\": [\"simplex\"]")); },
      "unknown design heuristic \"simplex\" (valid: klein_ravi");
  expect_rejected(
      [&] {
        Manifest::parse(
            design("\"heuristics\": [\"portfolio\", \"portfolio\"]"));
      },
      "duplicate heuristic \"portfolio\"");
  expect_rejected(
      [&] {
        Manifest::parse(design(
            "\"heuristics\": [\"portfolio\"], \"starts\": 0"));
      },
      "starts must be in [1, 1000]");
  expect_rejected(
      [&] {
        Manifest::parse(design(
            "\"heuristics\": [\"portfolio\"], "
            "\"scenario\": {\"preset\": \"small_network\"}"));
      },
      "is not valid for kind \"design\"");
  expect_rejected(
      [&] {
        Manifest::parse(design(
            "\"heuristics\": [\"portfolio\"], \"stacks\": [\"titan_pc\"]"));
      },
      "use \"heuristics\"");
  expect_rejected(
      [&] {
        Manifest::parse(design(
            "\"heuristics\": [\"portfolio\"], \"rates_pps\": [2]"));
      },
      "only valid for kinds \"sweep\" and \"grid\"");
  // Sim metrics are not design metrics.
  expect_rejected(
      [&] {
        Manifest::parse(design("\"heuristics\": [\"portfolio\"], "
                               "\"metrics\": [\"delivery_ratio\"]"));
      },
      "not valid for kind \"design\"");
  // Instances must be able to host the demand count — caught at parse,
  // not mid-run in the engine.
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"d",
          "kind":"design","node_counts":[2],
          "heuristics":["klein_ravi"]}]})");
      },
      "distinct (source, destination) pairs");
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"d",
          "kind":"design","node_counts":[50],"demands":10,
          "heuristics":["klein_ravi"],
          "quick":{"node_counts":[3]}}]})");
      },
      "quick node count 3 cannot host 10 demands");
  // Design experiments are solved, not simulated: a quick duration would
  // be silently inert.
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"d",
          "kind":"design","node_counts":[50],
          "heuristics":["klein_ravi"],
          "quick":{"duration_s":5}}]})");
      },
      "solved, not simulated");
}

TEST(Manifest, ExperimentSummariesListIdsKindsAndCellCounts) {
  const auto m = Manifest::parse(R"({
    "name": "t",
    "experiments": [
      {"id": "fig8", "kind": "sweep",
       "scenario": {"preset": "small_network"},
       "stacks": ["titan_pc", "dsr_active"], "rates_pps": [2, 4, 6]},
      {"id": "search", "kind": "design", "node_counts": [50, 100],
       "heuristics": ["klein_ravi", "portfolio"],
       "title": "Design search"}
    ]
  })");
  const auto lines = m.experiment_summaries();
  ASSERT_EQ(lines.size(), 2u);
  // The first token is the experiment id — exactly what --only accepts.
  EXPECT_EQ(lines[0].substr(0, lines[0].find(' ')), "fig8");
  EXPECT_NE(lines[0].find("[sweep]"), std::string::npos);
  EXPECT_NE(lines[0].find("2 series x 3 x-values"), std::string::npos);
  EXPECT_EQ(lines[1].substr(0, lines[1].find(' ')), "search");
  EXPECT_NE(lines[1].find("[design]"), std::string::npos);
  EXPECT_NE(lines[1].find("2 series x 2 x-values"), std::string::npos);
  EXPECT_NE(lines[1].find("Design search"), std::string::npos);
}

TEST(Manifest, SerializeParseRoundTripIsAFixedPoint) {
  for (const std::string& text : std::vector<std::string>{
           sweep_manifest_json(),
           R"({"name":"g","experiments":[{"id":"fig13","kind":"grid",
               "stacks":["dsr_perfect","dsr_active"],"rates_pps":[2,3],
               "base_rate_pps":2,"quick":{"duration_s":60}}]})",
           R"({"name":"d","experiments":[{"id":"t2","kind":"density",
               "stacks":["titan_pc"],"node_counts":[300,400],
               "quick":{"node_counts":[300],"runs":1}}]})",
           R"({"name":"m","experiments":[{"id":"fig7","kind":"mopt",
               "cards":[{"card":"Cabletron","distance_m":250}],
               "rb":[0.1,0.5]}]})",
           R"({"name":"s","experiments":[{"id":"ds","kind":"design",
               "node_counts":[50,200],"heuristics":["klein_ravi","portfolio"],
               "demands":6,"starts":4,"anneal_iters":150,"runs":2,
               "quick":{"node_counts":[50],"runs":1}}]})",
           R"({"name":"r","experiments":[{"id":"rp","kind":"replay",
               "node_counts":[50,100],
               "heuristics":["klein_ravi","portfolio_lifetime"],
               "demands":6,"stack":"dsr_active","duration_s":120,
               "rate_pps":16,"battery_j":102.5,
               "demand_weights":[0.5,1,3],"runs":2,
               "quick":{"node_counts":[50],"runs":1,"duration_s":60}}]})",
       }) {
    const Manifest m1 = Manifest::parse(text);
    const std::string canon = m1.serialize();
    const Manifest m2 = Manifest::parse(canon);
    EXPECT_EQ(canon, m2.serialize()) << "for manifest: " << text;
    EXPECT_TRUE(m1.to_json() == m2.to_json()) << "for manifest: " << text;
  }
}

TEST(Manifest, RejectsUnknownKeysWithAllowedList) {
  expect_rejected([] { Manifest::parse(sweep_manifest_json("ratez", "[2]")); },
                  "unknown key \"ratez\"");
  expect_rejected([] { Manifest::parse(sweep_manifest_json("ratez", "[2]")); },
                  "allowed:");
  // Unknown keys nested in scenario / quick / metrics entries.
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"a",
          "kind":"sweep","scenario":{"preset":"small_network","nodez":3},
          "stacks":["titan_pc"],"rates_pps":[2]}]})");
      },
      "unknown key \"nodez\"");
  expect_rejected(
      [] {
        Manifest::parse(sweep_manifest_json("quick", R"({"runz": 1})"));
      },
      "unknown key \"runz\"");
}

TEST(Manifest, RejectsKindMismatchedKeys) {
  expect_rejected(
      [] { Manifest::parse(sweep_manifest_json("node_counts", "[300]")); },
      "only valid for kinds \"density\", \"design\", \"replay\" and "
      "\"churn\"");
  expect_rejected(
      [] { Manifest::parse(sweep_manifest_json("heuristics",
                                               "[\"portfolio\"]")); },
      "only valid for kinds \"design\" and \"replay\"");
  expect_rejected(
      [] { Manifest::parse(sweep_manifest_json("starts", "4")); },
      "only valid for kinds \"design\", \"replay\" and \"churn\"");
  expect_rejected(
      [] { Manifest::parse(sweep_manifest_json("cards", "[]")); },
      "only valid for kind \"mopt\"");
  expect_rejected(
      [] { Manifest::parse(sweep_manifest_json("base_rate_pps", "2")); },
      "only valid for kind \"grid\"");
}

TEST(Manifest, RejectsOutOfRangeValues) {
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"a",
          "kind":"sweep","stacks":["titan_pc"],"rates_pps":[0]}]})");
      },
      "(0, 1e6]");
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"a",
          "kind":"sweep","stacks":["titan_pc"],"rates_pps":[-3]}]})");
      },
      "(0, 1e6]");
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"a",
          "kind":"sweep","stacks":["titan_pc"],"rates_pps":[2],
          "runs":0}]})");
      },
      "[1, 10000]");
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"m","experiments":[{"id":"f","kind":"mopt",
          "cards":[{"card":"Cabletron","distance_m":250}],"rb":[0.6]}]})");
      },
      "(0, 0.5]");
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"a",
          "kind":"sweep","stacks":["titan_pc"],"rates_pps":[2],
          "seed":-1}]})");
      },
      "non-negative integer");
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"a",
          "kind":"sweep","stacks":["titan_pc"],"rates_pps":[2],
          "runs":2.5}]})");
      },
      "non-negative integer");
}

TEST(Manifest, RejectsDuplicateCellDefinitions) {
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[
          {"id":"a","kind":"sweep","stacks":["titan_pc"],"rates_pps":[2]},
          {"id":"a","kind":"sweep","stacks":["titan_pc"],"rates_pps":[2]}]})");
      },
      "duplicate experiment id \"a\"");
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"a",
          "kind":"sweep","stacks":["titan_pc","titan_pc"],
          "rates_pps":[2]}]})");
      },
      "duplicate stack \"titan_pc\"");
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"a",
          "kind":"sweep","stacks":["titan_pc"],"rates_pps":[2,2]}]})");
      },
      "duplicate rate");
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"a",
          "kind":"density","stacks":["titan_pc"],
          "node_counts":[300,300]}]})");
      },
      "duplicate node count");
}

TEST(Manifest, RejectsUnknownNamesActionably) {
  // Unknown stack: the message must list what IS valid.
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"a",
          "kind":"sweep","stacks":["titan_pcc"],"rates_pps":[2]}]})");
      },
      "titan_pc");
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"a",
          "kind":"sweep","stacks":["titan_pc"],"rates_pps":[2],
          "metrics":["deliverance"]}]})");
      },
      "not valid for kind \"sweep\"");
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"a",
          "kind":"warp","stacks":["titan_pc"],"rates_pps":[2]}]})");
      },
      "unknown experiment kind");
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"a",
          "kind":"sweep","scenario":{"preset":"tiny"},
          "stacks":["titan_pc"],"rates_pps":[2]}]})");
      },
      "unknown scenario preset");
}

TEST(Manifest, StackPresetRegistryCoversAllPresets) {
  const auto names = net::stack_preset_names();
  EXPECT_EQ(names.size(), 15u);
  for (const auto& n : names)
    EXPECT_FALSE(net::stack_preset(n).label.empty()) << n;
  EXPECT_EQ(net::stack_preset("dsdvh_odpm_span").label,
            "DSDVH-ODPM(0.6,1.2)-Span");
  EXPECT_THROW(net::stack_preset("nope"), CheckError);
}

TEST(Manifest, ScenarioOverridesApply) {
  const auto m = Manifest::parse(R"({"name":"t","experiments":[{"id":"a",
    "kind":"sweep",
    "scenario":{"preset":"large_network","node_count":500,"duration_s":300,
                "rate_multipliers":[0.5,1,2]},
    "stacks":["titan_pc"],"rates_pps":[2]}]})");
  const auto sc = m.experiments[0].scenario.resolve();
  EXPECT_EQ(sc.node_count, 500u);
  EXPECT_DOUBLE_EQ(sc.duration_s, 300.0);
  EXPECT_DOUBLE_EQ(sc.field_w, 1300.0);  // from the preset
  ASSERT_EQ(sc.rate_multipliers.size(), 3u);

  // Heterogeneous rates reach the flows, cycling through the multipliers.
  auto flows_cfg = sc;
  flows_cfg.rate_pps = 4.0;
  const auto flows = net::make_flows(flows_cfg);
  ASSERT_GE(flows.size(), 3u);
  EXPECT_DOUBLE_EQ(flows[0].packets_per_s, 2.0);
  EXPECT_DOUBLE_EQ(flows[1].packets_per_s, 4.0);
  EXPECT_DOUBLE_EQ(flows[2].packets_per_s, 8.0);
}

// ----------------------------------------------------------------- sinks ---

ResultRow demo_row() {
  ResultRow r;
  r.experiment = "e1";
  r.kind = "sweep";
  r.series = "TITAN, \"PC\"";  // exercise CSV quoting
  r.x_name = "rate_pps";
  r.x = 2.5;
  r.runs = 5;
  r.seed = 1;
  r.metrics.push_back({"delivery_ratio", 0.75, 0.01, 5});
  return r;
}

TEST(Sinks, CsvQuotesAndRoundTripFloats) {
  std::ostringstream os;
  CsvSink sink(os);
  sink.row(demo_row());
  const std::string out = os.str();
  EXPECT_NE(out.find("experiment,kind,series,x_name,x,runs,seed,metric,"
                     "mean,ci95,n"),
            std::string::npos);
  EXPECT_NE(out.find("\"TITAN, \"\"PC\"\"\""), std::string::npos) << out;
  EXPECT_NE(out.find(",2.5,"), std::string::npos);
  EXPECT_NE(out.find("0.75"), std::string::npos);
}

TEST(Sinks, JsonlRowsAreValidJson) {
  std::ostringstream os;
  JsonlSink sink(os);
  sink.row(demo_row());
  std::string line = os.str();
  ASSERT_FALSE(line.empty());
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();
  const auto v = json::parse(line);
  EXPECT_EQ(v.find("experiment")->as_string(), "e1");
  EXPECT_EQ(v.find("series")->as_string(), "TITAN, \"PC\"");
  const auto* metrics = v.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(metrics->find("delivery_ratio")->find("mean")->as_number(),
                   0.75);
}

TEST(Engine, MoptExperimentStreamsDeterministicRows) {
  Experiment e;
  e.id = "fig7";
  e.kind = ExperimentKind::Mopt;
  e.cards = {{"Cabletron", 250.0}, {"HypoCabletron", 250.0}};
  e.rb = {0.1, 0.5};
  e.metrics = {{"mopt", 3}};

  std::ostringstream a, b;
  for (auto* os : {&a, &b}) {
    ExperimentEngine engine;
    JsonlSink sink(*os);
    engine.add_sink(sink);
    engine.run(e);
  }
  EXPECT_EQ(a.str(), b.str());
  // 2 cards x 2 rb values = 4 rows, x-major.
  std::istringstream lines(a.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    const auto v = json::parse(line);
    EXPECT_EQ(v.find("kind")->as_string(), "mopt");
    ++count;
  }
  EXPECT_EQ(count, 4u);
}

// ------------------------------------------------------------- presolve ---

TEST(Manifest, PresolveKeyParsesOnDesignAndReplay) {
  const auto m = Manifest::parse(R"({
    "name": "p",
    "experiments": [
      {"id": "d", "kind": "design", "node_counts": [50],
       "heuristics": ["klein_ravi"], "presolve": true,
       "metrics": ["eq5_total", "lb", "certified_gap_pct",
                   "reduced_nodes", "reduced_edges"]},
      {"id": "r", "kind": "replay", "node_counts": [50],
       "heuristics": ["klein_ravi"], "presolve": true},
      {"id": "off", "kind": "design", "node_counts": [50],
       "heuristics": ["klein_ravi"]}
    ]
  })");
  ASSERT_EQ(m.experiments.size(), 3u);
  EXPECT_TRUE(m.experiments[0].presolve);
  EXPECT_TRUE(m.experiments[1].presolve);
  EXPECT_FALSE(m.experiments[2].presolve);  // defaults off
  EXPECT_EQ(m.experiments[0].metrics.size(), 5u);
}

TEST(Manifest, PresolveKeyRejectsBadInputsActionably) {
  // Must be a boolean, not a truthy number.
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"d",
          "kind":"design","node_counts":[50],
          "heuristics":["klein_ravi"],"presolve":1}]})");
      },
      "presolve must be a boolean");
  // Only meaningful where design rows carry the bound.
  expect_rejected(
      [] { Manifest::parse(sweep_manifest_json("presolve", "true")); },
      "only valid for kinds \"design\" and \"replay\"");
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"c","experiments":[{"id":"ch",
          "kind":"churn","node_counts":[40],"epochs":6,"presolve":true}]})");
      },
      "only valid for kinds \"design\" and \"replay\"");
  // The certified-bound metrics need the pass that computes them.
  for (const std::string metric :
       {"lb", "certified_gap_pct", "reduced_nodes", "reduced_edges"})
    expect_rejected(
        [&] {
          Manifest::parse(R"({"name":"t","experiments":[{"id":"d",
            "kind":"design","node_counts":[50],
            "heuristics":["klein_ravi"],
            "metrics":[")" + metric + R"("]}]})");
        },
        "requires \"presolve\": true");
}

TEST(Manifest, FieldScaleParsesAndRejectsOutOfRange) {
  const Manifest m = Manifest::parse(R"({"name":"t","experiments":[{"id":"d",
    "kind":"design","node_counts":[50],
    "heuristics":["klein_ravi"],"field_scale":2.0}]})");
  EXPECT_DOUBLE_EQ(m.experiments[0].field_scale, 2.0);
  // Defaults to the plain density law.
  const Manifest d = Manifest::parse(R"({"name":"t","experiments":[{"id":"d",
    "kind":"design","node_counts":[50],"heuristics":["klein_ravi"]}]})");
  EXPECT_DOUBLE_EQ(d.experiments[0].field_scale, 1.0);

  for (const std::string bad : {"0", "-1", "10.5"})
    expect_rejected(
        [&] {
          Manifest::parse(R"({"name":"t","experiments":[{"id":"d",
            "kind":"design","node_counts":[50],
            "heuristics":["klein_ravi"],"field_scale":)" + bad + "}]}");
        },
        "field_scale must be in (0, 10]");
  expect_rejected(
      [] { Manifest::parse(sweep_manifest_json("field_scale", "2.0")); },
      "only valid for kinds \"design\", \"replay\" and \"churn\"");
}

TEST(Manifest, PresolveKeySerializeRoundTripIsAFixedPoint) {
  for (const std::string& text : std::vector<std::string>{
           R"({"name":"s","experiments":[{"id":"ds","kind":"design",
               "node_counts":[50],"heuristics":["klein_ravi"],
               "presolve":true,
               "metrics":["eq5_total","lb","certified_gap_pct"]}]})",
           R"({"name":"r","experiments":[{"id":"rp","kind":"replay",
               "node_counts":[50],"heuristics":["klein_ravi"],
               "presolve":true,"stack":"dsr_active"}]})",
       }) {
    const Manifest m1 = Manifest::parse(text);
    EXPECT_TRUE(m1.experiments[0].presolve);
    const std::string canon = m1.serialize();
    // The flag must survive the canonical form (always emitted for the
    // design/replay kinds so the default is explicit).
    EXPECT_NE(canon.find("\"presolve\""), std::string::npos);
    const Manifest m2 = Manifest::parse(canon);
    EXPECT_TRUE(m2.experiments[0].presolve);
    EXPECT_EQ(canon, m2.serialize()) << "for manifest: " << text;
    EXPECT_TRUE(m1.to_json() == m2.to_json()) << "for manifest: " << text;
  }
}

// ----------------------------------------------------------------- churn ---

std::string churn_manifest_json(const std::string& body) {
  return R"({"name":"c","experiments":[{"id":"ch","kind":"churn",)" + body +
         "}]}";
}

TEST(Manifest, ChurnParsesWithDefaultsAndSummaries) {
  const Manifest m = Manifest::parse(churn_manifest_json(
      R"("node_counts":[40,80],"epochs":6,"demands":5,"runs":2,
         "fallback_pct":4.5,"quick":{"node_counts":[40],"runs":1,
         "epochs":3})"));
  const Experiment& e = m.experiments[0];
  EXPECT_EQ(e.kind, ExperimentKind::Churn);
  EXPECT_EQ(e.epochs, 6u);
  EXPECT_EQ(e.demands, 5u);
  EXPECT_DOUBLE_EQ(e.fallback_pct, 4.5);
  EXPECT_EQ(e.replay_every, 0u);
  ASSERT_TRUE(e.quick.epochs.has_value());
  EXPECT_EQ(*e.quick.epochs, 3u);
  // Generator defaults hold when no knob is set.
  EXPECT_EQ(e.arrivals_per_epoch, 1u);
  EXPECT_EQ(e.failures_per_epoch, 0u);

  const auto lines = m.experiment_summaries();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("[churn]"), std::string::npos);
  EXPECT_NE(lines[0].find("2 series x 6 x-values"), std::string::npos);
}

TEST(Manifest, ChurnRejectsBadSchedules) {
  const auto sched = [](const std::string& entries) {
    return churn_manifest_json(R"("node_counts":[40],"epochs":6,
        "schedule":[)" + entries + "]");
  };
  // Non-monotone epoch times.
  expect_rejected(
      [&] {
        Manifest::parse(sched(
            R"({"at":3,"events":[{"op":"fail","node":1}]},
               {"at":2,"events":[{"op":"fail","node":2}]})"));
      },
      "strictly increasing");
  // Epoch outside [1, epochs).
  expect_rejected(
      [&] {
        Manifest::parse(sched(R"({"at":6,"events":[{"op":"fail","node":1}]})"));
      },
      "outside [1, 6)");
  // Out-of-range rate factor.
  expect_rejected(
      [&] {
        Manifest::parse(sched(
            R"({"at":1,"events":[{"op":"rate","demand":0,"factor":0}]})"));
      },
      "factor must be in (0, 1e3]");
  // Failing an arrived demand's endpoint.
  expect_rejected(
      [&] {
        Manifest::parse(sched(
            R"({"at":1,"events":[
                 {"op":"arrive","source":3,"destination":9}]},
               {"at":2,"events":[{"op":"fail","node":9}]})"));
      },
      "is a live flow endpoint");
  // Unknown event keys.
  expect_rejected(
      [&] {
        Manifest::parse(sched(
            R"({"at":1,"events":[{"op":"fail","node":1,"bogus":2}]})"));
      },
      "unknown key \"bogus\"");
  // Depart index past the live list.
  expect_rejected(
      [&] {
        Manifest::parse(sched(
            R"({"at":1,"events":[{"op":"depart","demand":99}]})"));
      },
      "out of range");
  // Generator knobs alongside an explicit schedule are inert — rejected.
  expect_rejected(
      [&] {
        Manifest::parse(churn_manifest_json(
            R"("node_counts":[40],"epochs":6,"failures_per_epoch":1,
               "schedule":[{"at":1,"events":[{"op":"fail","node":1}]}])"));
      },
      "not valid alongside an explicit \"schedule\"");
}

TEST(Manifest, ChurnScheduleChecksNodeRangeAndQuickEpochs) {
  // A scheduled node reference must fit the smallest instance, including
  // the quick override's.
  expect_rejected(
      [] {
        Manifest::parse(churn_manifest_json(
            R"("node_counts":[40],"epochs":6,
               "schedule":[{"at":1,"events":[{"op":"fail","node":40}]}])"));
      },
      "references node 40");
  // A schedule entry past the quick epoch count would silently never fire.
  expect_rejected(
      [] {
        Manifest::parse(churn_manifest_json(
            R"("node_counts":[40],"epochs":8,
               "schedule":[{"at":5,"events":[{"op":"fail","node":1}]}],
               "quick":{"epochs":3})"));
      },
      "unreachable under quick epochs");
}

TEST(Manifest, QuickOverridesKeepTopLevelRanges) {
  // --quick must never run more than the top-level key could ask for.
  expect_rejected(
      [] {
        Manifest::parse(sweep_manifest_json("quick", R"({"runs": 1000000})"));
      },
      "quick runs must be in [1, 10000]");
  expect_rejected(
      [] {
        Manifest::parse(churn_manifest_json(
            R"("node_counts":[40],"epochs":6,"quick":{"epochs":10001})"));
      },
      "quick epochs must be in [2, 10000]");
}

TEST(Manifest, ChurnRejectsKindMismatchedAndGatedKeys) {
  // Churn's own keys are invalid elsewhere.
  expect_rejected(
      [] { Manifest::parse(sweep_manifest_json("epochs", "4")); },
      "only valid for kind \"churn\"");
  expect_rejected(
      [] { Manifest::parse(sweep_manifest_json("fallback_pct", "5")); },
      "only valid for kind \"churn\"");
  // Heuristics are fixed by the serving loop.
  expect_rejected(
      [] {
        Manifest::parse(churn_manifest_json(
            R"("node_counts":[40],"heuristics":["portfolio"])"));
      },
      "not valid for kind \"churn\"");
  // Replay knobs need replay-validation epochs.
  expect_rejected(
      [] {
        Manifest::parse(churn_manifest_json(
            R"("node_counts":[40],"stack":"dsr_active")"));
      },
      "requires \"replay_every\" > 0");
  expect_rejected(
      [] {
        Manifest::parse(churn_manifest_json(
            R"("node_counts":[40],"battery_j":100)"));
      },
      "not valid for kind \"churn\"");
  expect_rejected(
      [] {
        Manifest::parse(churn_manifest_json(
            R"("node_counts":[40],"metrics":["replay_gap_pct"])"));
      },
      "requires \"replay_every\"");
  // With replay_every set, the replay knobs parse.
  const Manifest m = Manifest::parse(churn_manifest_json(
      R"("node_counts":[40],"replay_every":2,"stack":"dsr_active",
         "duration_s":120,"rate_pps":8,
         "metrics":["warm_score","replay_gap_pct"])"));
  EXPECT_EQ(m.experiments[0].replay_every, 2u);
  EXPECT_EQ(m.experiments[0].replay_stack, "dsr_active");
}

TEST(Manifest, ChurnSerializeRoundTripIsAFixedPoint) {
  for (const std::string& text : std::vector<std::string>{
           churn_manifest_json(
               R"("node_counts":[40,80],"epochs":6,"demands":5,
                  "arrivals_per_epoch":2,"failures_per_epoch":1,
                  "rate_swing":0.4,"move_fraction":0.1,"move_sigma_m":60,
                  "fallback_pct":5,"runs":2,"demand_weights":[0.5,1,3],
                  "quick":{"node_counts":[40],"runs":1,"epochs":3})"),
           churn_manifest_json(
               R"("node_counts":[40],"epochs":6,"replay_every":2,
                  "stack":"dsr_active","duration_s":120,"rate_pps":8,
                  "schedule":[
                    {"at":1,"events":[
                      {"op":"arrive","source":3,"destination":9,
                       "weight":2.5},
                      {"op":"rate","demand":0,"factor":0.5}]},
                    {"at":3,"events":[
                      {"op":"fail","node":12},
                      {"op":"move","node":5,"x":100.5,"y":200},
                      {"op":"depart","demand":1}]}])"),
       }) {
    const Manifest m1 = Manifest::parse(text);
    const std::string canon = m1.serialize();
    const Manifest m2 = Manifest::parse(canon);
    EXPECT_EQ(canon, m2.serialize()) << "for manifest: " << text;
    EXPECT_TRUE(m1.to_json() == m2.to_json()) << "for manifest: " << text;
  }
}

// ------------------------------------------------------ metric labels ---

TEST(Sinks, TableBannerUsesTheExperimentKindsMetricLabel) {
  // "active_nodes" is a metric of the grid, replay and churn kinds, each
  // with its own label; the banner must take the experiment's.
  const auto banner = [](ExperimentKind kind) {
    Experiment e;
    e.id = e.title = "one_row";
    e.kind = kind;
    e.metrics = {{"active_nodes", 1}};
    ResultRow r;
    r.experiment = e.id;
    r.kind = kind_name(kind);
    r.series = "n=40";
    r.x_name = "epoch";
    r.runs = 1;
    r.metrics.push_back({"active_nodes", 12.0, 0.0, 1});
    std::ostringstream os;
    TableSink sink(os);
    sink.begin_experiment(e);
    sink.row(r);
    sink.end_experiment(e);
    return os.str();
  };
  EXPECT_NE(banner(ExperimentKind::Churn).find(
                "one_row — active nodes (warm design)"),
            std::string::npos)
      << banner(ExperimentKind::Churn);
  const std::string grid = banner(ExperimentKind::Grid);
  EXPECT_NE(grid.find("one_row — active nodes"), std::string::npos) << grid;
  EXPECT_EQ(grid.find("warm design"), std::string::npos) << grid;
  EXPECT_EQ(metric_display_name(ExperimentKind::Replay, "active_nodes"),
            "active nodes");
  // A metric of another kind has no label here.
  EXPECT_THROW(metric_display_name(ExperimentKind::Sweep, "active_nodes"),
               CheckError);
}

TEST(Sinks, TablePrintsEachKindsAxis) {
  // Per kind: a metric it reports, its x-axis header, how x = 3 prints,
  // and whether cells carry a "+- ci95" half-width (analytic kinds do not).
  struct Case {
    ExperimentKind kind;
    const char* metric;
    const char* header;
    const char* x_cell;
    bool with_ci;
  };
  const Case cases[] = {
      {ExperimentKind::Sweep, "delivery_ratio", "rate (pkt/s)", "3.0", true},
      {ExperimentKind::Density, "delivery_ratio", "# of nodes", "3", true},
      {ExperimentKind::Grid, "active_nodes", "rate (pkt/s)", "3.0", false},
      {ExperimentKind::Mopt, "mopt", "R/B", "3.00", false},
      {ExperimentKind::Design, "eq5_total", "# of nodes", "3", true},
      {ExperimentKind::Replay, "delivery_ratio", "# of nodes", "3", true},
      {ExperimentKind::Churn, "warm_score", "epoch", "3", true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(kind_name(c.kind));
    Experiment e;
    e.id = e.title = kind_name(c.kind);
    e.kind = c.kind;
    e.metrics = {{c.metric, 2}};
    const ResultRow r{.experiment = e.id,
                      .kind = kind_name(c.kind),
                      .series = "s",
                      .x_name = "x",
                      .x = 3.0,
                      .runs = 2,
                      .seed = 1,
                      .metrics = {{c.metric, 1.5, 0.25, 2}}};
    std::ostringstream os;
    TableSink sink(os);
    sink.begin_experiment(e);
    sink.row(r);
    sink.end_experiment(e);
    const std::string out = os.str();
    // The [csv] echo of the table holds the header and the one row verbatim.
    EXPECT_NE(out.find(std::string("\n") + c.header + ",s\n"),
              std::string::npos)
        << out;
    const std::string cell = c.with_ci ? "1.50 +- 0.25" : "1.50";
    EXPECT_NE(out.find(std::string("\n") + c.x_cell + "," + cell + "\n"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("+-") != std::string::npos, c.with_ci) << out;
  }
}

// ------------------------------------------------- scenario resolution ---

TEST(Manifest, RejectsUnresolvableScenariosAtParseTime) {
  // A bad override fails while parsing, naming the experiment, instead of
  // after the valid experiments before it have run.
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[
          {"id":"fig7","kind":"mopt",
           "cards":[{"card":"Cabletron","distance_m":250}],"rb":[0.1]},
          {"id":"g","kind":"grid","stacks":["dsr_active"],
           "rates_pps":[2],
           "scenario":{"preset":"hypothetical_grid","node_count":7}}]})");
      },
      "grid dims must multiply to node_count");
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"g",
          "kind":"grid","stacks":["dsr_active"],"rates_pps":[2],
          "scenario":{"preset":"hypothetical_grid","node_count":7}}]})");
      },
      "experiment \"g\" scenario is invalid");
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"a",
          "kind":"sweep","stacks":["titan_pc"],"rates_pps":[2],
          "scenario":{"preset":"small_network","node_count":0}}]})");
      },
      "node_count must be positive");
  // Density resolves once per node count, the quick override's included.
  expect_rejected(
      [] {
        Manifest::parse(R"({"name":"t","experiments":[{"id":"t2",
          "kind":"density","stacks":["titan_pc"],"node_counts":[300],
          "scenario":{"preset":"density_network","flow_count":50},
          "quick":{"node_counts":[6]}}]})");
      },
      "scenario at node count 6 is invalid");
  // ...and accepts the same scenario when every count can host it.
  EXPECT_NO_THROW(Manifest::parse(R"({"name":"t","experiments":[{"id":"t2",
      "kind":"density","stacks":["titan_pc"],"node_counts":[300],
      "scenario":{"preset":"density_network","flow_count":50},
      "quick":{"node_counts":[100]}}]})"));
}

}  // namespace
}  // namespace eend::core
