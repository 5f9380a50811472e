// Compare every protocol stack on one user-defined scenario: the
// "which approach should my network use?" tool.
//
//   ./protocol_comparison --nodes=80 --field=800 --flows=12 --rate=4
//       --duration=300 --runs=3 --seed=7
#include <iostream>

#include "core/experiment.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace eend;
  const Flags flags(argc, argv);

  net::ScenarioConfig sc;
  sc.node_count = static_cast<std::size_t>(flags.get_int("nodes", 80));
  sc.field_w = sc.field_h = flags.get_double("field", 800.0);
  sc.flow_count = static_cast<std::size_t>(flags.get_int("flows", 12));
  sc.rate_pps = flags.get_double("rate", 4.0);
  sc.duration_s = flags.get_double("duration", 300.0);
  sc.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const auto runs = static_cast<std::size_t>(flags.get_int("runs", 3));

  const std::vector<net::StackSpec> stacks = {
      net::StackSpec::dsr_active(),      net::StackSpec::dsr_odpm(),
      net::StackSpec::dsr_odpm_pc(),     net::StackSpec::titan_pc(),
      net::StackSpec::dsrh_odpm_rate(),  net::StackSpec::dsrh_odpm_norate(),
      net::StackSpec::dsdvh_odpm_psm(),  net::StackSpec::dsdvh_odpm_span(),
      net::StackSpec::mtpr_odpm(),       net::StackSpec::mtpr_plus_odpm()};

  std::cout << "Scenario: " << sc.node_count << " nodes in " << sc.field_w
            << "x" << sc.field_h << " m^2, " << sc.flow_count << " flows @ "
            << sc.rate_pps << " pkt/s, " << sc.duration_s << " s x " << runs
            << " runs\n";

  Table t({"stack", "delivery", "goodput (bit/J)", "E_network (J)",
           "transmit (J)", "control (J)", "active nodes"});
  std::string best_label;
  double best_goodput = -1.0;
  for (const auto& stack : stacks) {
    core::ExperimentConfig cfg;
    cfg.scenario = sc;
    cfg.stack = stack;
    cfg.runs = runs;
    const auto r = core::run_experiment(cfg);
    using metrics::RunResult;
    const auto stats = [&](auto metric) {
      return core::summarize_runs(r, metric);
    };
    const SampleStats delivery = stats(&RunResult::delivery_ratio);
    const SampleStats goodput = stats(&RunResult::goodput_bit_per_j);
    if (goodput.mean > best_goodput) {
      best_goodput = goodput.mean;
      best_label = stack.label;
    }
    t.add_row({stack.label,
               Table::num_ci(delivery.mean, delivery.ci95_half_width, 3),
               Table::num_ci(goodput.mean, goodput.ci95_half_width, 1),
               Table::num(stats(&RunResult::total_energy_j).mean, 0),
               Table::num(stats(&RunResult::transmit_energy_j).mean, 1),
               Table::num(stats(&RunResult::control_energy_j).mean, 1),
               Table::num(stats(&RunResult::nodes_carrying_data).mean, 1)});
    std::cerr << "  " << stack.label << " done\n";
  }
  std::cout << t.to_text() << "\nMost energy-efficient stack: " << best_label
            << " (" << Table::num(best_goodput, 1) << " bit/J)\n";
  return 0;
}
