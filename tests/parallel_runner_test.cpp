// Unit tests: ParallelRunner pool semantics, and the determinism contract
// of the parallel replication engine — the same ExperimentConfig must
// produce bit-identical results for jobs=1 and jobs=8.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/experiment.hpp"
#include "core/parallel_runner.hpp"

namespace eend::core {
namespace {

TEST(ParallelRunner, CoversEveryIndexExactlyOnce) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    ParallelRunner pool(jobs);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.for_each_index(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
  }
}

TEST(ParallelRunner, ZeroJobsMeansAuto) {
  EXPECT_GE(default_jobs(), 1u);
  ParallelRunner pool(0);
  EXPECT_EQ(pool.jobs(), default_jobs());
  std::atomic<int> count{0};
  pool.for_each_index(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ParallelRunner, AbsurdJobCountsAreClamped) {
  // A negative --jobs cast through size_t must not spawn 2^64 threads.
  ParallelRunner pool(static_cast<std::size_t>(-1));
  EXPECT_EQ(pool.jobs(), ParallelRunner::kMaxJobs);
  std::atomic<int> count{0};
  pool.for_each_index(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ParallelRunner, EmptyBatchIsNoop) {
  ParallelRunner pool(4);
  pool.for_each_index(0, [](std::size_t) { FAIL(); });
}

TEST(ParallelRunner, PoolIsReusableAcrossBatches) {
  ParallelRunner pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.for_each_index(50, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 50) << "round " << round;
  }
}

TEST(ParallelRunner, RethrowsSmallestIndexException) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    ParallelRunner pool(jobs);
    try {
      pool.for_each_index(100, [](std::size_t i) {
        if (i % 10 == 3) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3");
    }
    // The pool survives a throwing batch.
    std::atomic<int> count{0};
    pool.for_each_index(8, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 8);
  }
}

// ---------------------------------------------------------------------
// Determinism of the replication engine under parallelism.

ExperimentConfig tiny_experiment() {
  ExperimentConfig cfg;
  cfg.scenario = net::ScenarioConfig::small_network();
  cfg.scenario.node_count = 20;
  cfg.scenario.flow_count = 4;
  cfg.scenario.duration_s = 60.0;
  cfg.stack = net::StackSpec::titan_pc();
  cfg.runs = 4;
  cfg.base_seed = 7;
  return cfg;
}

void expect_results_identical(const ExperimentResult& a,
                              const ExperimentResult& b) {
  EXPECT_EQ(a.stack_label, b.stack_label);
  EXPECT_EQ(a.rate_pps, b.rate_pps);
  ASSERT_EQ(a.raw.size(), b.raw.size());
  for (std::size_t i = 0; i < a.raw.size(); ++i) {  // bitwise: no tolerance
    EXPECT_EQ(a.raw[i].sent, b.raw[i].sent);
    EXPECT_EQ(a.raw[i].delivered, b.raw[i].delivered);
    EXPECT_EQ(a.raw[i].delivery_ratio, b.raw[i].delivery_ratio);
    EXPECT_EQ(a.raw[i].goodput_bit_per_j, b.raw[i].goodput_bit_per_j);
    EXPECT_EQ(a.raw[i].total_energy_j, b.raw[i].total_energy_j);
    EXPECT_EQ(a.raw[i].transmit_energy_j, b.raw[i].transmit_energy_j);
    EXPECT_EQ(a.raw[i].control_energy_j, b.raw[i].control_energy_j);
    EXPECT_EQ(a.raw[i].passive_energy_j, b.raw[i].passive_energy_j);
    EXPECT_EQ(a.raw[i].nodes_carrying_data, b.raw[i].nodes_carrying_data);
    EXPECT_EQ(a.raw[i].channel_transmissions, b.raw[i].channel_transmissions);
  }
}

TEST(ParallelExperiment, RunExperimentIsJobsInvariant) {
  ExperimentConfig serial = tiny_experiment();
  serial.jobs = 1;
  ExperimentConfig parallel = tiny_experiment();
  parallel.jobs = 8;
  expect_results_identical(run_experiment(serial), run_experiment(parallel));
}

TEST(ParallelExperiment, SweepRatesIsJobsInvariant) {
  const std::vector<double> rates{2.0, 4.0};
  ExperimentConfig serial = tiny_experiment();
  serial.runs = 2;
  serial.jobs = 1;
  ExperimentConfig parallel = serial;
  parallel.jobs = 8;
  const auto a = sweep_rates(serial, rates);
  const auto b = sweep_rates(parallel, rates);
  ASSERT_EQ(a.size(), rates.size());
  ASSERT_EQ(b.size(), rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    EXPECT_EQ(a[i].rate_pps, rates[i]);
    expect_results_identical(a[i], b[i]);
  }
}

}  // namespace
}  // namespace eend::core
