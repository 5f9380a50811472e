// Integration tests: full protocol stacks on small deterministic networks.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "net/network.hpp"

namespace eend {
namespace {

net::ScenarioConfig tiny_scenario() {
  net::ScenarioConfig c;
  c.node_count = 12;
  c.field_w = c.field_h = 400.0;
  c.flow_count = 2;
  c.rate_pps = 2.0;
  c.duration_s = 60.0;
  c.seed = 7;
  return c;
}

TEST(NetworkIntegration, DsrActiveDeliversTraffic) {
  net::Network n(tiny_scenario(), net::StackSpec::dsr_active());
  const auto r = n.run();
  EXPECT_GT(r.sent, 100u);
  EXPECT_GT(r.delivery_ratio, 0.95);
  EXPECT_GT(r.total_energy_j, 0.0);
}

TEST(NetworkIntegration, DsrOdpmDeliversTraffic) {
  net::Network n(tiny_scenario(), net::StackSpec::dsr_odpm());
  const auto r = n.run();
  EXPECT_GT(r.delivery_ratio, 0.9);
  // ODPM must save energy versus always-active.
  net::Network active(tiny_scenario(), net::StackSpec::dsr_active());
  const auto ra = active.run();
  EXPECT_LT(r.total_energy_j, ra.total_energy_j);
}

TEST(NetworkIntegration, TitanPcDeliversTraffic) {
  net::Network n(tiny_scenario(), net::StackSpec::titan_pc());
  const auto r = n.run();
  EXPECT_GT(r.delivery_ratio, 0.9);
}

TEST(NetworkIntegration, DsrhNorateDeliversTraffic) {
  net::Network n(tiny_scenario(), net::StackSpec::dsrh_odpm_norate());
  const auto r = n.run();
  EXPECT_GT(r.delivery_ratio, 0.9);
}

TEST(NetworkIntegration, DsdvhOdpmDeliversTraffic) {
  net::Network n(tiny_scenario(), net::StackSpec::dsdvh_odpm_psm());
  const auto r = n.run();
  EXPECT_GT(r.delivery_ratio, 0.8);
  EXPECT_GT(r.update_transmissions, 0u);
}

TEST(NetworkIntegration, PerfectSleepUsesLessEnergyThanOdpm) {
  net::Network perfect(tiny_scenario(), net::StackSpec::dsr_perfect());
  const auto rp = perfect.run();
  net::Network odpm(tiny_scenario(), net::StackSpec::dsr_odpm());
  const auto ro = odpm.run();
  EXPECT_GT(rp.delivery_ratio, 0.95);
  EXPECT_LT(rp.total_energy_j, ro.total_energy_j);
}

TEST(NetworkIntegration, DeterministicAcrossRebuilds) {
  net::Network a(tiny_scenario(), net::StackSpec::titan_pc());
  net::Network b(tiny_scenario(), net::StackSpec::titan_pc());
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.sent, rb.sent);
  EXPECT_EQ(ra.delivered, rb.delivered);
  EXPECT_DOUBLE_EQ(ra.total_energy_j, rb.total_energy_j);
}

TEST(NetworkIntegration, ExperimentRunnerAggregates) {
  core::ExperimentConfig cfg;
  cfg.scenario = tiny_scenario();
  cfg.scenario.duration_s = 40.0;
  cfg.stack = net::StackSpec::dsr_odpm();
  cfg.runs = 3;
  const auto res = core::run_experiment(cfg);
  EXPECT_EQ(res.raw.size(), 3u);
  const SampleStats delivery =
      core::summarize_runs(res, &metrics::RunResult::delivery_ratio);
  EXPECT_GT(delivery.mean, 0.8);
  EXPECT_GE(delivery.ci95_half_width, 0.0);
}

}  // namespace
}  // namespace eend
