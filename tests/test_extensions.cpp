// Tests for the library extensions beyond the paper's evaluation:
// CH -> base-station forwarding and the deadline-aware CAEM variant.
#include <gtest/gtest.h>

#include "core/network.hpp"
#include "core/simulation_runner.hpp"

namespace caem::core {
namespace {

NetworkConfig small_config() {
  NetworkConfig config;
  config.node_count = 20;
  config.field_size_m = 60.0;
  config.ch_fraction = 0.15;
  config.round_duration_s = 5.0;
  config.traffic_rate_pps = 4.0;
  return config;
}

TEST(Forwarding, CostsEnergyAndPreservesConservation) {
  RunOptions options;
  options.max_sim_s = 25.0;
  NetworkConfig config = small_config();
  const RunResult without = SimulationRunner::run(config, protocol_from_string("leach"), 9, options);
  config.ch_forward_enabled = true;
  const RunResult with = SimulationRunner::run(config, protocol_from_string("leach"), 9, options);
  // Forwarding burns extra energy on the CHs, nothing else changes.
  EXPECT_GT(with.total_consumed_j, without.total_consumed_j);
  // Expected extra: delivered_air x aggregated bits x per-bit cost.
  const double per_bit =
      config.fwd_e_elec_j_per_bit +
      config.fwd_eps_amp_j_per_bit_m2 * config.bs_distance_m * config.bs_distance_m;
  const double expected_extra = static_cast<double>(with.delivered_air) *
                                config.packet_bits * config.aggregation_ratio * per_bit;
  EXPECT_NEAR(with.total_consumed_j - without.total_consumed_j, expected_extra,
              expected_extra * 0.25 + 0.01);
}

TEST(Forwarding, ConservationHoldsWithForwarding) {
  NetworkConfig config = small_config();
  config.ch_forward_enabled = true;
  Network network(config, protocol_from_string("scheme1"), 12);
  network.start();
  network.simulator().run_until(20.0);
  network.finalize();
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    const Node& node = network.node(i);
    EXPECT_NEAR(node.battery().consumed_j(), node.ledger().total(), 1e-9);
  }
}

TEST(Forwarding, UnfundedForwardIsADeathDropNeverADelivery) {
  // A base station 100 km out prices every forward far beyond a full
  // battery: each CH dies on its first forward, and that packet books as
  // a kNodeDeath drop.  A CH delivery counts only once its forward is
  // paid for.
  RunOptions options;
  options.max_sim_s = 25.0;
  NetworkConfig config = small_config();
  config.ch_forward_enabled = true;
  config.bs_distance_m = 1e5;
  const RunResult result = SimulationRunner::run(config, protocol_from_string("leach"), 9, options);
  EXPECT_EQ(result.delivered_air, 0u);
  EXPECT_GT(result.dropped_death, 0u);
}

TEST(Deadline, ProtocolPlumbing) {
  const Protocol deadline = protocol_from_string("deadline");
  EXPECT_STREQ(to_string(deadline), "caem-deadline");
  EXPECT_EQ(deadline, protocol_from_string("caem-deadline"));
  EXPECT_EQ(deadline.spec().policy, queueing::ThresholdPolicy::kFixedHighest);
  EXPECT_TRUE(deadline.spec().deadline_override);
  // The registry carries it as an extension; the paper trio does not.
  EXPECT_EQ(std::size(paper_protocols()), 3u);
  EXPECT_FALSE(deadline.spec().paper_protocol);
  const std::vector<Protocol> all = registered_protocols();
  EXPECT_NE(std::find(all.begin(), all.end(), deadline), all.end());
}

TEST(Deadline, ImprovesDelayOverSchemeTwo) {
  // With the fixed highest threshold, far nodes starve; the deadline
  // override bounds their head-of-line waiting time at a small energy
  // premium.
  RunOptions options;
  options.max_sim_s = 60.0;
  NetworkConfig config = small_config();
  config.traffic_rate_pps = 6.0;
  config.initial_energy_j = 1e6;
  config.csi_gate_deadline_s = 0.5;
  const RunResult fixed = SimulationRunner::run(config, protocol_from_string("scheme2"), 31, options);
  const RunResult deadline =
      SimulationRunner::run(config, protocol_from_string("deadline"), 31, options);
  EXPECT_LT(deadline.mean_delay_s, fixed.mean_delay_s);
  EXPECT_GE(deadline.delivery_rate, fixed.delivery_rate - 0.02);
  EXPECT_GT(deadline.mac.deadline_overrides, 0u);
  EXPECT_EQ(fixed.mac.deadline_overrides, 0u);  // only the variant overrides
}

TEST(Deadline, OverridesCountedAndEnergyPremiumBounded) {
  RunOptions options;
  options.max_sim_s = 40.0;
  NetworkConfig config = small_config();
  config.initial_energy_j = 1e6;
  config.csi_gate_deadline_s = 0.3;
  const RunResult fixed = SimulationRunner::run(config, protocol_from_string("scheme2"), 13, options);
  const RunResult deadline =
      SimulationRunner::run(config, protocol_from_string("deadline"), 13, options);
  // The override may spend more energy than Scheme 2, but it must stay
  // well below pure LEACH (it still prefers good channels).
  const RunResult leach = SimulationRunner::run(config, protocol_from_string("leach"), 13, options);
  EXPECT_LE(deadline.energy_per_delivered_packet_j,
            leach.energy_per_delivered_packet_j);
  EXPECT_GE(deadline.energy_per_delivered_packet_j,
            fixed.energy_per_delivered_packet_j * 0.9);
}

}  // namespace
}  // namespace caem::core
