// Tests for the parallel experiment runner and the replication fold.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "core/experiment.hpp"

namespace caem::core {
namespace {

/// 0, 1, ..., n-1: the identity drain order.
std::vector<std::size_t> identity(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

NetworkConfig tiny_config() {
  NetworkConfig config;
  config.node_count = 10;
  config.field_size_m = 40.0;
  config.ch_fraction = 0.2;
  config.round_duration_s = 5.0;
  config.traffic_rate_pps = 3.0;
  return config;
}

TEST(ParallelRuns, PreservesIndexOrder) {
  std::atomic<int> executed{0};
  const auto results = parallel_runs_ordered(
      8, identity(8),
      [&](std::size_t i) {
        ++executed;
        RunResult result;
        result.seed = i;
        return result;
      },
      3);
  EXPECT_EQ(executed.load(), 8);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(results[i].seed, i);
}

TEST(ParallelRuns, EmptyAndErrors) {
  EXPECT_TRUE(parallel_runs_ordered(0, {}, [](std::size_t) { return RunResult{}; }).empty());
  EXPECT_THROW(parallel_runs_ordered(1, identity(1), nullptr), std::invalid_argument);
  EXPECT_THROW(parallel_runs_ordered(4, identity(4),
                                     [](std::size_t i) -> RunResult {
                                       if (i == 2) throw std::runtime_error("boom");
                                       return RunResult{};
                                     }),
               std::runtime_error);
}

TEST(ParallelRunsOrdered, ScattersByOriginalIdWhateverTheDrainOrder) {
  // Drain order 5,2,0,... must not change which slot each job fills.
  const std::vector<std::size_t> order = {5, 2, 0, 7, 1, 6, 3, 4};
  std::vector<std::size_t> started;
  const auto results = parallel_runs_ordered(
      8, order,
      [&](std::size_t i) {
        started.push_back(i);
        RunResult result;
        result.seed = i;
        return result;
      },
      1);
  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(results[i].seed, i);
  // Single-threaded: the ticket counter hands jobs out in drain order.
  EXPECT_EQ(started, order);
}

TEST(ParallelRunsOrdered, PartialOrderLeavesOtherSlotsDefault) {
  const auto results = parallel_runs_ordered(4, {3, 1}, [](std::size_t i) {
    RunResult result;
    result.seed = 100 + i;
    return result;
  });
  EXPECT_EQ(results[1].seed, 101u);
  EXPECT_EQ(results[3].seed, 103u);
  EXPECT_EQ(results[0].seed, 0u);
  EXPECT_EQ(results[2].seed, 0u);
}

TEST(ParallelRunsOrdered, RejectsDuplicateAndOutOfRangeIds) {
  const auto job = [](std::size_t) { return RunResult{}; };
  EXPECT_THROW((void)parallel_runs_ordered(4, {0, 1, 1}, job), std::invalid_argument);
  EXPECT_THROW((void)parallel_runs_ordered(4, {0, 4}, job), std::invalid_argument);
  EXPECT_TRUE(parallel_runs_ordered(0, {}, job).empty());
}

TEST(ParallelRuns, MatchesSequentialSimulation) {
  RunOptions options;
  options.max_sim_s = 10.0;
  const NetworkConfig config = tiny_config();
  const RunResult sequential = SimulationRunner::run(config, protocol_from_string("scheme1"), 5, options);
  const auto parallel = parallel_runs_ordered(
      3, identity(3),
      [&](std::size_t i) {
        return SimulationRunner::run(config, protocol_from_string("scheme1"), 5 + i, options);
      },
      3);
  EXPECT_EQ(parallel[0].generated, sequential.generated);
  EXPECT_DOUBLE_EQ(parallel[0].total_consumed_j, sequential.total_consumed_j);
}

TEST(FoldRuns, GuardsDelayAndDeliveryAgainstZeroDeliveryRuns) {
  RunResult delivered;
  delivered.delivered_air = 10;
  delivered.delivery_rate = 0.8;
  delivered.mean_delay_s = 2.0;
  delivered.p95_delay_s = 5.0;
  delivered.energy_per_delivered_packet_j = 0.01;
  delivered.throughput_bps = 1000.0;
  RunResult starved;  // no over-the-air delivery: its delay/delivery
  starved.delivered_air = 0;  // scalars are meaningless zeros
  starved.delivery_rate = 0.0;
  starved.mean_delay_s = 0.0;
  starved.p95_delay_s = 0.0;
  starved.throughput_bps = 500.0;
  const Replicated summary = fold_runs({delivered, starved});
  // Regression: the starved run must not drag these means toward 0.
  EXPECT_EQ(summary.delivery_rate.count(), 1u);
  EXPECT_DOUBLE_EQ(summary.delivery_rate.mean(), 0.8);
  EXPECT_EQ(summary.mean_delay_s.count(), 1u);
  EXPECT_DOUBLE_EQ(summary.mean_delay_s.mean(), 2.0);
  EXPECT_EQ(summary.p95_delay_s.count(), 1u);
  EXPECT_DOUBLE_EQ(summary.p95_delay_s.mean(), 5.0);
  EXPECT_EQ(summary.energy_per_packet_j.count(), 1u);
  // Scalars that stay meaningful without deliveries still fold all runs.
  EXPECT_EQ(summary.throughput_bps.count(), 2u);
  EXPECT_EQ(summary.runs.size(), 2u);
}

TEST(ParallelRuns, FlattenedQueueOutpacesPerPointBarriers) {
  // The scheduling property behind the sweep engine: one queue over the
  // whole (point x protocol x rep) cross product keeps all workers busy,
  // while per-cell pools drain to their straggler before the next cell
  // starts.  Sleep-based jobs emulate the imbalance without CPU load.
  constexpr std::size_t kCells = 8;
  constexpr std::size_t kReps = 2;
  constexpr std::size_t kThreads = 8;
  const auto job_ms = [](std::size_t cell, std::size_t rep) {
    return 10 + 7 * ((3 * cell + rep) % 5);
  };
  const auto sleepy = [&](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(job_ms(i / kReps, i % kReps)));
    return RunResult{};
  };
  const auto tick = [] { return std::chrono::steady_clock::now(); };
  const auto t0 = tick();
  (void)parallel_runs_ordered(kCells * kReps, identity(kCells * kReps), sleepy, kThreads);
  const double flat_s = std::chrono::duration<double>(tick() - t0).count();
  const auto t1 = tick();
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    (void)parallel_runs_ordered(
        kReps, identity(kReps), [&](std::size_t rep) { return sleepy(cell * kReps + rep); },
        kThreads);
  }
  const double barrier_s = std::chrono::duration<double>(tick() - t1).count();
  // Flat bound ~= sum(job)/threads (~40 ms); barrier bound = sum of
  // per-cell maxima (~190 ms).  Generous margin for loaded CI machines.
  EXPECT_LT(flat_s, 0.7 * barrier_s)
      << "flat " << flat_s << " s vs barrier " << barrier_s << " s";
}

TEST(RunReplicated, FoldsScalars) {
  // Replication = seeds base, base+1, ... of one (config, protocol)
  // cell, run in parallel and folded.
  RunOptions options;
  options.max_sim_s = 10.0;
  const Replicated summary = fold_runs(parallel_runs_ordered(
      3, identity(3),
      [&](std::size_t i) {
        return SimulationRunner::run(tiny_config(), protocol_from_string("leach"), 100 + i,
                                     options);
      },
      3));
  EXPECT_EQ(summary.runs.size(), 3u);
  EXPECT_EQ(summary.delivery_rate.count(), 3u);
  EXPECT_GT(summary.total_consumed_j.mean(), 0.0);
  // Lifetime not reached inside the horizon folds as the horizon.
  EXPECT_NEAR(summary.lifetime_s.mean(), 10.0, 1e-9);
  // Replications use distinct seeds.
  EXPECT_NE(summary.runs[0].generated, summary.runs[1].generated);
}

}  // namespace
}  // namespace caem::core
