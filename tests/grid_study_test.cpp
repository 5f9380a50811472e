// Unit tests: the §5.2.3 grid-study harness (route freezing + analytic
// re-costing under perfect / ODPM / always-active scheduling) and the
// engine's memo of base-rate freezes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment_engine.hpp"
#include "core/grid_study.hpp"
#include "core/manifest.hpp"
#include "core/result_sink.hpp"

#ifndef EEND_MANIFEST_DIR
#error "EEND_MANIFEST_DIR must point at examples/manifests"
#endif

namespace eend::core {
namespace {

net::ScenarioConfig quick_grid() {
  auto sc = net::ScenarioConfig::hypothetical_grid();
  sc.duration_s = 120.0;  // enough for routes to stabilize at 2 pkt/s
  sc.rate_pps = 2.0;
  sc.seed = 5;
  return sc;
}

TEST(GridStudy, FreezesRoutesForAllFlows) {
  const auto s = grid_series(quick_grid(), net::StackSpec::titan_pc(),
                             {2.0, 4.0});
  EXPECT_EQ(s.label, "TITAN-PC");
  EXPECT_GE(s.active_nodes.size(), 14u);  // at least sources + sinks
  ASSERT_EQ(s.points.size(), 2u);
  for (const auto& pt : s.points) {
    EXPECT_GT(pt.goodput_bit_per_j, 0.0);
    EXPECT_GT(pt.network_power_w, 0.0);
    EXPECT_NEAR(pt.network_power_w, pt.data_power_w + pt.passive_power_w,
                1e-9);
  }
}

TEST(GridStudy, DataPowerScalesLinearlyWithRate) {
  const auto s = grid_series(quick_grid(), net::StackSpec::mtpr_perfect(),
                             {2.0, 4.0, 8.0});
  ASSERT_EQ(s.points.size(), 3u);
  EXPECT_NEAR(s.points[1].data_power_w, 2.0 * s.points[0].data_power_w, 1e-6);
  EXPECT_NEAR(s.points[2].data_power_w, 4.0 * s.points[0].data_power_w, 1e-6);
}

TEST(GridStudy, PerfectSleepBeatsOdpmAtLowRates) {
  const auto perfect =
      grid_series(quick_grid(), net::StackSpec::titan_pc_perfect(), {2.0});
  const auto odpm =
      grid_series(quick_grid(), net::StackSpec::titan_pc(), {2.0});
  EXPECT_GT(perfect.points[0].goodput_bit_per_j,
            odpm.points[0].goodput_bit_per_j * 2.0);
}

TEST(GridStudy, MtprUsesShortHopsTitanUsesFew) {
  // MTPR minimizes transmit power => more, shorter hops => lower data
  // power per packet than TITAN-PC's min-hop routes on the hypothetical
  // card (this is the Fig. 15 crossover mechanism).
  const auto mtpr =
      grid_series(quick_grid(), net::StackSpec::mtpr_perfect(), {100.0});
  const auto titan =
      grid_series(quick_grid(), net::StackSpec::titan_pc_perfect(), {100.0});
  EXPECT_LT(mtpr.points[0].data_power_w, titan.points[0].data_power_w);
}

TEST(GridStudy, AlwaysActivePaysIdleEverywhere) {
  const auto active =
      grid_series(quick_grid(), net::StackSpec::dsr_active(), {2.0});
  const auto card = energy::hypothetical_cabletron();
  // 49 idling nodes minus airtime: passive power close to 49 x Pidle.
  EXPECT_NEAR(active.points[0].passive_power_w, 49 * card.p_idle,
              49 * card.p_idle * 0.05);
}

TEST(GridStudy, GoodputIncreasesWithRateUnderFixedIdle) {
  // With ODPM idle dominating, higher rates amortize it: goodput rises.
  const auto s = grid_series(quick_grid(), net::StackSpec::dsr_odpm_pc(),
                             {2.0, 5.0, 20.0});
  EXPECT_LT(s.points[0].goodput_bit_per_j, s.points[1].goodput_bit_per_j);
  EXPECT_LT(s.points[1].goodput_bit_per_j, s.points[2].goodput_bit_per_j);
}

// ------------------------------------------------ the engine's freeze memo ---

Manifest hypo_grid() {
  return Manifest::load(std::string(EEND_MANIFEST_DIR) + "/hypo_grid.json");
}

Manifest only(const Experiment& e) {
  Manifest m;
  m.experiments = {e};
  return m;
}

struct QuickRun {
  std::string rows;      ///< JSON-lines sink
  std::string counters;  ///< --counters stream
};

QuickRun run_quick(const Manifest& m) {
  std::ostringstream rows, counters;
  EngineOptions opts;
  opts.quick = true;
  opts.counters = &counters;
  ExperimentEngine engine(opts);
  JsonlSink sink(rows);
  engine.add_sink(sink);
  engine.run(m);
  return {rows.str(), counters.str()};
}

/// The lines of a counters stream that belong to experiment `id`.
std::string lines_of(const std::string& counters, const std::string& id) {
  const std::string prefix = "{\"experiment\":\"" + id + "\",";
  std::istringstream in(counters);
  std::string out, line;
  while (std::getline(in, line))
    if (line.starts_with(prefix)) out += line + '\n';
  return out;
}

TEST(GridStudy, CountersDoNotDependOnRunOrder) {
  // fig15 and fig16 reuse every freeze of fig13 and fig14, and fig14
  // reuses fig13's dsr_active: each must still publish the counters of
  // the simulations behind its rows, exactly as when it runs alone.
  const Manifest m = hypo_grid();
  const QuickRun all = run_quick(m);
  for (std::size_t i = 0; i < m.experiments.size(); ++i) {
    const std::string& id = m.experiments[i].id;
    const std::string alone = run_quick(only(m.experiments[i])).counters;
    EXPECT_FALSE(alone.empty()) << id;
    EXPECT_EQ(lines_of(all.counters, id), alone) << id;
  }
}

TEST(GridStudy, MemoKeepsConfigurationsApart) {
  // Two grid experiments that differ only in seed: a memo key that
  // ignored the seed would hand the second one the first one's routes.
  Experiment a = hypo_grid().experiments[1];
  a.stacks = {"titan_pc", "dsr_active"};
  Experiment b = a;
  b.seed = 2;
  // Under one id the two seeds must publish different counters, or the
  // test shows nothing.
  const QuickRun first = run_quick(only(a));
  ASSERT_NE(first.counters, run_quick(only(b)).counters);

  b.id = "fig14_seed2";
  Manifest m;
  m.experiments = {a, b};
  const QuickRun both = run_quick(m);
  const QuickRun second = run_quick(only(b));
  EXPECT_EQ(both.rows, first.rows + second.rows);
  EXPECT_EQ(both.counters, first.counters + second.counters);
}

TEST(GridStudy, MemoSimulatesEachScenarioStackPairOnce) {
  // hypo_grid's 24 stack slots hold 11 distinct (scenario, stack) pairs:
  // fig15/fig16 pair fig13/fig14's stacks with a higher rate axis, and
  // dsr_active appears in both scheduling models.
  const Manifest m = hypo_grid();
  EngineOptions opts;
  opts.quick = true;
  ExperimentEngine engine(opts);
  const std::size_t after[] = {6, 11, 11, 11};
  for (std::size_t i = 0; i < m.experiments.size(); ++i) {
    engine.run(m.experiments[i]);
    EXPECT_EQ(engine.grid_freezes(), after[i]) << m.experiments[i].id;
  }
}

}  // namespace
}  // namespace eend::core
