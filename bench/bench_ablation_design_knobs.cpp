// Ablation bench — the design choices DESIGN.md calls out:
//   1. TITAN probabilistic participation (alpha) sweep;
//   2. ODPM keep-alive timers: (5, 10) vs (0.6, 1.2);
//   3. Span-improved PSM vs naive PSM under DSDVH;
//   4. interference footprint scaling with TPC on/off;
//   5. DSRH rate vs norate (value of rate information).
#include <iostream>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace eend;
  using metrics::RunResult;
  // Mean of one per-run metric over an experiment's runs.
  const auto mean = [](const core::ExperimentResult& r, auto metric) {
    return core::summarize_runs(r, metric).mean;
  };
  const Flags flags(argc, argv);
  const auto opts = bench::parse_bench_options(flags, 3);
  const bool quick = opts.quick;
  const auto runs = opts.runs;
  const auto seed = opts.seed;

  auto scenario = net::ScenarioConfig::small_network();
  scenario.rate_pps = 4.0;
  if (quick) scenario.duration_s = 120.0;

  auto run_one = [&](const net::StackSpec& stack) {
    core::ExperimentConfig cfg;
    cfg.scenario = scenario;
    cfg.stack = stack;
    cfg.runs = runs;
    cfg.base_seed = seed;
    cfg.jobs = opts.jobs;
    return core::run_experiment(cfg);
  };

  // 1. TITAN participation scale.
  {
    Table t({"titan alpha", "delivery", "goodput (bit/J)", "RREQ tx"});
    // alpha is baked into ReactiveConfig via the stack; emulate by scaling
    // through dedicated stacks run at network level: participation is
    // controlled in routing config, so use the large net where it matters.
    auto sc = net::ScenarioConfig::large_network();
    sc.rate_pps = 4.0;
    if (quick) sc.duration_s = 120.0;
    for (double alpha : {0.5, 1.0, 2.0}) {
      net::StackSpec s = net::StackSpec::titan_pc();
      s.label = "TITAN(alpha=" + Table::num(alpha, 1) + ")";
      s.titan_alpha = alpha;
      core::ExperimentConfig cfg;
      cfg.scenario = sc;
      cfg.stack = s;
      cfg.runs = runs;
      cfg.base_seed = seed;
      cfg.jobs = opts.jobs;
      const auto r = core::run_experiment(cfg);
      double rreq = 0;
      for (const auto& raw : r.raw)
        rreq += static_cast<double>(raw.rreq_transmissions);
      t.add_row({Table::num(alpha, 1),
                 Table::num(mean(r, &RunResult::delivery_ratio), 3),
                 Table::num(mean(r, &RunResult::goodput_bit_per_j), 1),
                 Table::num(rreq / static_cast<double>(r.raw.size()), 0)});
    }
    print_table(std::cout, "Ablation 1 — TITAN participation (large net)", t);
  }

  // 2+3. ODPM keep-alives and PSM improvements under DSDVH.
  {
    Table t({"variant", "delivery", "goodput (bit/J)", "passive (J)"});
    for (const auto& stack :
         {net::StackSpec::dsdvh_odpm_psm(), net::StackSpec::dsdvh_odpm_span()}) {
      const auto r = run_one(stack);
      t.add_row({stack.label,
                 Table::num(mean(r, &RunResult::delivery_ratio), 3),
                 Table::num(mean(r, &RunResult::goodput_bit_per_j), 1),
                 Table::num(mean(r, &RunResult::passive_energy_j), 0)});
    }
    // Cross: naive PSM with short keep-alives.
    net::StackSpec cross = net::StackSpec::dsdvh_odpm_span();
    cross.label = "DSDVH-ODPM(0.6,1.2)-PSM";
    cross.psm.span_improvements = false;
    const auto r = run_one(cross);
    t.add_row({cross.label, Table::num(mean(r, &RunResult::delivery_ratio), 3),
               Table::num(mean(r, &RunResult::goodput_bit_per_j), 1),
               Table::num(mean(r, &RunResult::passive_energy_j), 0)});
    print_table(std::cout,
                "Ablation 2/3 — keep-alive timers and Span PSM improvements",
                t);
  }

  // 4. Interference footprint scaling.
  {
    Table t({"footprint model", "delivery", "goodput (bit/J)",
             "collisions"});
    for (bool scale : {true, false}) {
      auto sc = scenario;
      sc.prop.scale_footprint_with_power = scale;
      core::ExperimentConfig cfg;
      cfg.scenario = sc;
      cfg.stack = net::StackSpec::titan_pc();
      cfg.runs = runs;
      cfg.base_seed = seed;
      cfg.jobs = opts.jobs;
      const auto r = core::run_experiment(cfg);
      double coll = 0;
      for (const auto& raw : r.raw)
        coll += static_cast<double>(raw.mac_collisions);
      t.add_row({scale ? "scaled with TPC power" : "fixed at max range",
                 Table::num(mean(r, &RunResult::delivery_ratio), 3),
                 Table::num(mean(r, &RunResult::goodput_bit_per_j), 1),
                 Table::num(coll / static_cast<double>(r.raw.size()), 0)});
    }
    print_table(std::cout,
                "Ablation 4 — interference footprint vs TPC (TITAN-PC)", t);
  }

  // 5. DSRH rate information.
  {
    Table t({"variant", "delivery", "goodput (bit/J)"});
    for (const auto& stack : {net::StackSpec::dsrh_odpm_rate(),
                              net::StackSpec::dsrh_odpm_norate()}) {
      const auto r = run_one(stack);
      t.add_row({stack.label,
                 Table::num(mean(r, &RunResult::delivery_ratio), 3),
                 Table::num(mean(r, &RunResult::goodput_bit_per_j), 1)});
    }
    print_table(std::cout, "Ablation 5 — value of rate information in h()",
                t);
  }
  return 0;
}
