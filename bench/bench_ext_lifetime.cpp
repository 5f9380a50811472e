// Extension bench — network lifetime under finite batteries.
//
// The paper's conclusion defers lifetime to future work ("minimizing
// instantaneous network energy consumption ... does not necessarily
// translate into longer network lifetime"). This bench implements that
// study: every node gets the same battery; we report the time to first
// depletion, the number of dead nodes at the end, and the delivery ratio
// — showing how the three heuristics rank when longevity matters.
#include <iostream>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace eend;
  using metrics::RunResult;
  // Mean of one per-run metric over an experiment's runs.
  const auto mean = [](const core::ExperimentResult& r, auto metric) {
    return core::summarize_runs(r, metric).mean;
  };
  const Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);

  auto scenario = net::ScenarioConfig::small_network();
  scenario.rate_pps = flags.get_double("rate", 4.0);
  scenario.duration_s = quick ? 200.0 : 900.0;
  // Cabletron idles at 0.83 W: a 300 J budget kills an always-idle node
  // after ~360 s — mid-run, so the ranking is visible.
  scenario.battery_capacity_j = flags.get_double("battery", 300.0);
  const auto opts = bench::parse_bench_options(flags, 3);

  const std::vector<net::StackSpec> stacks = {
      net::StackSpec::dsr_active(),  net::StackSpec::dsr_odpm(),
      net::StackSpec::dsr_odpm_pc(), net::StackSpec::titan_pc(),
      net::StackSpec::dsrh_odpm_norate(),
      net::StackSpec::dsdvh_odpm_psm()};

  Table t({"stack", "first death (s)", "depleted nodes", "delivery",
           "goodput (bit/J)"});
  for (const auto& stack : stacks) {
    core::ExperimentConfig cfg;
    cfg.scenario = scenario;
    cfg.stack = stack;
    cfg.runs = opts.runs;
    cfg.base_seed = opts.seed;
    cfg.jobs = opts.jobs;
    const auto r = core::run_experiment(cfg);
    std::vector<double> deaths, depleted;
    for (const auto& raw : r.raw) {
      deaths.push_back(raw.first_death_s < 0 ? scenario.duration_s
                                             : raw.first_death_s);
      depleted.push_back(static_cast<double>(raw.depleted_nodes));
    }
    const auto d = summarize(deaths);
    t.add_row({stack.label, Table::num_ci(d.mean, d.ci95_half_width, 0),
               Table::num(summarize(depleted).mean, 1),
               Table::num(mean(r, &RunResult::delivery_ratio), 3),
               Table::num(mean(r, &RunResult::goodput_bit_per_j), 1)});
    if (!opts.quiet)
      std::cerr << "  [lifetime] " << stack.label << " done\n";
  }
  print_table(std::cout,
              "Extension — network lifetime with " +
                  Table::num(scenario.battery_capacity_j, 0) +
                  " J batteries (50 nodes, 500x500 m^2)",
              t);
  std::cout << "\nReading: idle-first power management extends time-to-first-"
               "death by\nkeeping most radios asleep; always-active burns "
               "every battery in lockstep;\nDSDVH's update churn drains even "
               "non-relay nodes.\n";
  return 0;
}
