// Tests for the uplink layer: the three RoutingStrategy implementations
// as pure planners, the network's one uplink executor (byte-identity of
// the default paths, unreachable drops, per-hop energy, conservation
// under partition, greedy beating direct at a corner sink),
// and the pluggability contract — a runtime-registered protocol with
// GreedyGeographic and a custom UplinkEnergyModel driven through
// run_scenario with every relay leg priced by the custom model and
// landing in the node ledgers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/network.hpp"
#include "core/protocol.hpp"
#include "core/run_result_io.hpp"
#include "core/simulation_runner.hpp"
#include "energy/energy_ledger.hpp"
#include "energy/uplink_energy_model.hpp"
#include "leach/clustering.hpp"
#include "routing/routing_strategy.hpp"
#include "scenario/engine.hpp"
#include "scenario/scenario_spec.hpp"
#include "util/digest.hpp"

namespace caem::routing {
namespace {

using channel::Vec2;

energy::FirstOrderUplinkModel paper_model() {
  // The paper's forwarding constants: 50 nJ/bit electronics, 100 pJ/bit/m^2
  // amplifier, 50 nJ/bit receive.
  return energy::FirstOrderUplinkModel(50e-9, 100e-12, 50e-9, 1.0);
}

/// Relay set over explicit (id, position) pairs; alive array sized for
/// the largest id.
struct Fixture {
  RelaySet relays;
  std::vector<std::uint8_t> alive;

  explicit Fixture(const std::vector<std::pair<std::uint32_t, Vec2>>& chs) {
    std::vector<std::uint32_t> ids;
    std::vector<Vec2> positions;
    std::uint32_t max_id = 0;
    for (const auto& [id, pos] : chs) {
      ids.push_back(id);
      positions.push_back(pos);
      max_id = std::max(max_id, id);
    }
    relays.rebuild(std::move(ids), std::move(positions));
    alive.assign(max_id + 2, 1);
  }
};

SinkModel corner_sink(double range_m) {
  SinkModel sink;
  sink.geometric = true;
  sink.position = Vec2{0.0, 0.0};
  sink.range_m = range_m;
  return sink;
}

TEST(SinkModel, VirtualIsEquidistantGeometricIsEuclidean) {
  SinkModel virtual_sink;
  virtual_sink.fixed_distance_m = 120.0;
  EXPECT_DOUBLE_EQ(virtual_sink.distance_from(Vec2{0.0, 0.0}), 120.0);
  EXPECT_DOUBLE_EQ(virtual_sink.distance_from(Vec2{999.0, 999.0}), 120.0);

  const SinkModel sink = corner_sink(0.0);
  EXPECT_DOUBLE_EQ(sink.distance_from(Vec2{3.0, 4.0}), 5.0);

  SinkModel ranged = corner_sink(100.0);
  EXPECT_TRUE(ranged.leg_in_range(100.0));
  EXPECT_FALSE(ranged.leg_in_range(100.001));
  ranged.range_m = 0.0;  // zero = unlimited, not "zero reach"
  EXPECT_TRUE(ranged.leg_in_range(1e9));
}

TEST(DirectUplink, OneLegWithinRangeUnreachableBeyond) {
  const auto model = paper_model();
  const DirectUplink direct;
  const Fixture fx({{7, Vec2{10.0, 0.0}}});  // relays must be ignored
  const SinkModel sink = corner_sink(50.0);

  const UplinkPlan near = direct.plan_uplink(1, Vec2{40.0, 0.0}, fx.relays, fx.alive, sink, model);
  EXPECT_TRUE(near.reachable);
  EXPECT_TRUE(near.relays.empty());

  const UplinkPlan far = direct.plan_uplink(1, Vec2{60.0, 0.0}, fx.relays, fx.alive, sink, model);
  EXPECT_FALSE(far.reachable);
  EXPECT_TRUE(far.relays.empty());
}

TEST(GreedyGeographic, RelaysWhenDirectIsOutOfRange) {
  const auto model = paper_model();
  const GreedyGeographic greedy;
  const Fixture fx({{7, Vec2{50.0, 0.0}}});
  const SinkModel sink = corner_sink(60.0);

  // Source at 100 m cannot reach the sink (range 60); the CH at 50 m
  // splits the path into two in-range legs.
  const UplinkPlan plan =
      greedy.plan_uplink(1, Vec2{100.0, 0.0}, fx.relays, fx.alive, sink, model);
  EXPECT_TRUE(plan.reachable);
  ASSERT_EQ(plan.relays.size(), 1u);
  EXPECT_EQ(plan.relays[0], 7u);

  // A dead relay is no relay: the same uplink partitions.
  Fixture dead({{7, Vec2{50.0, 0.0}}});
  dead.alive[7] = 0;
  const UplinkPlan cut =
      greedy.plan_uplink(1, Vec2{100.0, 0.0}, dead.relays, dead.alive, sink, model);
  EXPECT_FALSE(cut.reachable);
  EXPECT_TRUE(cut.relays.empty());
}

TEST(GreedyGeographic, BenefitRuleTakesRelayOnlyWhenCheaper) {
  const auto model = paper_model();
  const GreedyGeographic greedy;
  const SinkModel sink = corner_sink(0.0);  // unlimited range: pure economics

  // Short direct hop (10 m): electronics dominate, a midpoint relay
  // doubles them for negligible amplifier savings — stay direct.
  const Fixture near_fx({{3, Vec2{5.0, 0.0}}});
  const UplinkPlan stay =
      greedy.plan_uplink(1, Vec2{10.0, 0.0}, near_fx.relays, near_fx.alive, sink, model);
  EXPECT_TRUE(stay.reachable);
  EXPECT_TRUE(stay.relays.empty());

  // Long direct hop (300 m): the d^2 amplifier term dwarfs electronics,
  // two 150 m legs plus one receive beat it — relay.
  const Fixture far_fx({{3, Vec2{150.0, 0.0}}});
  const UplinkPlan relay =
      greedy.plan_uplink(1, Vec2{300.0, 0.0}, far_fx.relays, far_fx.alive, sink, model);
  EXPECT_TRUE(relay.reachable);
  ASSERT_EQ(relay.relays.size(), 1u);
  EXPECT_EQ(relay.relays[0], 3u);
}

TEST(GreedyGeographic, VirtualSinkDegeneratesToDirect) {
  // Under the legacy virtual sink every node is bs_distance_m out, so no
  // relay is ever strictly closer and greedy must plan the legacy shape.
  const auto model = paper_model();
  const GreedyGeographic greedy;
  const Fixture fx({{2, Vec2{10.0, 10.0}}, {5, Vec2{90.0, 90.0}}});
  SinkModel sink;  // geometric = false
  sink.fixed_distance_m = 120.0;

  const UplinkPlan plan = greedy.plan_uplink(1, Vec2{50.0, 50.0}, fx.relays, fx.alive, sink, model);
  EXPECT_TRUE(plan.reachable);
  EXPECT_TRUE(plan.relays.empty());
}

TEST(GreedyGeographic, EqualProgressTieBreaksOnLowerId) {
  const auto model = paper_model();
  const GreedyGeographic greedy;
  // Mirror-image candidates: identical hop distance and identical
  // distance to the sink.  The plan must be deterministic — lower id.
  const Fixture fx({{9, Vec2{50.0, 30.0}}, {4, Vec2{50.0, -30.0}}});
  const SinkModel sink = corner_sink(60.0);

  const UplinkPlan plan =
      greedy.plan_uplink(1, Vec2{100.0, 0.0}, fx.relays, fx.alive, sink, model);
  EXPECT_TRUE(plan.reachable);
  ASSERT_EQ(plan.relays.size(), 1u);
  EXPECT_EQ(plan.relays[0], 4u);
}

TEST(ChRelayChain, HopsOnlyWhileSinkOutOfRange) {
  const auto model = paper_model();
  const ChRelayChain chain(6);
  const Fixture fx({{1, Vec2{70.0, 0.0}}, {2, Vec2{40.0, 0.0}}, {3, Vec2{10.0, 0.0}}});
  const SinkModel sink = corner_sink(40.0);

  // 100 -> 70 -> 40 then the sink is exactly in range: the chain stops
  // hopping even though a still-closer CH (10 m) exists.
  const UplinkPlan plan =
      chain.plan_uplink(8, Vec2{100.0, 0.0}, fx.relays, fx.alive, sink, model);
  EXPECT_TRUE(plan.reachable);
  ASSERT_EQ(plan.relays.size(), 2u);
  EXPECT_EQ(plan.relays[0], 1u);
  EXPECT_EQ(plan.relays[1], 2u);

  // Already in range: no relays at all.
  const UplinkPlan direct =
      chain.plan_uplink(8, Vec2{30.0, 0.0}, fx.relays, fx.alive, sink, model);
  EXPECT_TRUE(direct.reachable);
  EXPECT_TRUE(direct.relays.empty());
}

TEST(ChRelayChain, MaxHopsBoundsTheChainAndPartitionIsUnreachable) {
  const auto model = paper_model();
  const Fixture fx({{1, Vec2{70.0, 0.0}}, {2, Vec2{40.0, 0.0}}});
  const SinkModel sink = corner_sink(40.0);

  // One permitted hop reaches 70 m — still out of range: unreachable,
  // and the half-built chain must not leak out of the plan.
  const ChRelayChain short_chain(1);
  const UplinkPlan cut =
      short_chain.plan_uplink(8, Vec2{100.0, 0.0}, fx.relays, fx.alive, sink, model);
  EXPECT_FALSE(cut.reachable);
  EXPECT_TRUE(cut.relays.empty());

  // No relays at all and the sink out of range: unreachable.
  const ChRelayChain chain(6);
  const Fixture empty_fx({});
  const UplinkPlan lone =
      chain.plan_uplink(8, Vec2{100.0, 0.0}, empty_fx.relays, empty_fx.alive, sink, model);
  EXPECT_FALSE(lone.reachable);
}

TEST(Factory, BuildsEveryConfigKindAndRejectsUnknown) {
  EXPECT_STREQ(make_routing_strategy("direct", 4)->name(), "direct");
  EXPECT_STREQ(make_routing_strategy("greedy", 4)->name(), "greedy-geographic");
  EXPECT_STREQ(make_routing_strategy("chain", 4)->name(), "ch-relay-chain");
  EXPECT_THROW((void)make_routing_strategy("flooding", 4), std::invalid_argument);
}

// ---- network execution ----

TEST(RoutedNetwork, PartitionedNetworkDropsUnreachableNeverDeliversFree) {
  // Sink 1 km out of a 60 m field with a 100 m radio: no chain can ever
  // bridge the gap.  Every uplink must book a kUnreachable drop — the
  // run terminates (no hang), nothing reaches the sink (no free
  // delivery), and packet conservation still balances.
  core::NetworkConfig config;
  config.node_count = 16;
  config.field_size_m = 60.0;
  config.ch_fraction = 0.2;
  config.round_duration_s = 5.0;
  config.traffic_rate_pps = 4.0;
  config.channel.radio_range_m = 100.0;
  config.routing.kind = "chain";
  config.routing.sink_x_m = 1000.0;
  config.routing.sink_y_m = 1000.0;

  core::Network network(config, core::protocol_from_string("caem-scheme1"), 11);
  network.start();
  network.simulator().run_until(25.0);
  network.finalize();

  const auto& metrics = network.metrics();
  EXPECT_EQ(metrics.delivered(), 0u);  // over-the-air = reached the sink
  EXPECT_GT(metrics.dropped(queueing::DropReason::kUnreachable), 0u);
  EXPECT_EQ(network.relay_hops_total(), 0u);  // no partial chains executed

  std::uint64_t queued = 0;
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    queued += network.node(i).queue().size();
  }
  EXPECT_EQ(metrics.generated(), metrics.delivered_total() + metrics.dropped_total() + queued);
}

TEST(RoutedNetwork, DefaultUplinkRunResultsArePinnedByteForByte) {
  // Every long-haul leg runs through route_uplink.  With all routing
  // knobs at their defaults the paper's clustered run (the CH is the
  // sink) and the clusterless direct uplink (DirectUplink to the virtual
  // sink) must serialize to exactly the bytes the earlier unrouted
  // implementation produced; the FNV-1a pins were recorded from it.
  core::RunOptions options;
  options.max_sim_s = 30.0;
  const core::NetworkConfig config;
  const core::RunResult clustered = core::SimulationRunner::run(
      config, core::protocol_from_string("caem-scheme1"), 2005, options);
  const core::RunResult direct =
      core::SimulationRunner::run(config, core::protocol_from_string("direct"), 2005, options);
  EXPECT_EQ(util::content_digest(core::to_json(clustered)), "768d9034abedf2cd");
  EXPECT_EQ(util::content_digest(core::to_json(direct)), "0f2554bbf0d95059");
  EXPECT_EQ(clustered.relay_hops, 0u);
  EXPECT_EQ(direct.relay_hops, 0u);
}

TEST(RoutedNetwork, ChForwardingConfigsAloneChangeTheirDigest) {
  // CH forwarding books a delivery only once the CH has paid for the
  // forward, so ch_forward_enabled=1 results moved: those configs render
  // sim-semantics=2 and no stale cache entry can serve the old numbers.
  // Every other config keeps its text and digest.
  const core::NetworkConfig base;
  EXPECT_EQ(base.digest(), "d5cc9acc34aeb055");
  EXPECT_NE(base.canonical_text().find("sim-semantics=1\n"), std::string::npos);
  core::NetworkConfig forward = base;
  forward.ch_forward_enabled = true;
  EXPECT_NE(forward.canonical_text().find("sim-semantics=2\n"), std::string::npos);
  EXPECT_NE(forward.digest(), "7050b94269eb52c8");  // its digest before the change
  EXPECT_NE(forward.digest(), base.digest());
}

TEST(RoutedNetwork, GreedyDeliversMoreThanDirectAtTheCornerSink) {
  // Sink at the corner of a 200 m field with a 150 m radio: the far
  // part of the network cannot reach it in one leg.  Direct books those
  // uplinks as unreachable; greedy relays them through closer CHs.
  core::NetworkConfig config;
  config.node_count = 100;
  config.field_size_m = 200.0;
  config.ch_fraction = 0.08;
  config.channel.radio_range_m = 150.0;
  config.routing.sink_x_m = 0.0;
  config.routing.sink_y_m = 0.0;
  core::RunOptions options;
  options.max_sim_s = 60.0;
  const core::Protocol scheme1 = core::protocol_from_string("caem-scheme1");

  config.routing.kind = "direct";
  const core::RunResult direct = core::SimulationRunner::run(config, scheme1, 2005, options);
  config.routing.kind = "greedy";
  const core::RunResult greedy = core::SimulationRunner::run(config, scheme1, 2005, options);
  EXPECT_GT(direct.dropped_unreachable, 0u);
  EXPECT_GT(greedy.relay_hops, 0u);
  EXPECT_GT(greedy.delivered_air, direct.delivered_air);
}

// ---- the pluggability contract, end to end ----

/// Custom cost model that counts every pricing call, so a test can pin
/// "one rx_cost_j per executed relay leg" exactly.
struct CountingModel final : energy::UplinkEnergyModel {
  // Planning probes (the greedy benefit rule) price a single bit;
  // execution prices whole packets.  bits > 1 therefore separates the
  // legs actually charged from the what-if probes.
  // Atomic: parallel scenario lanes price legs concurrently.
  static inline std::atomic<std::uint64_t> tx_calls{0};
  static inline std::atomic<std::uint64_t> rx_exec_calls{0};
  static inline std::atomic<double> rx_exec_joules{0.0};

  static constexpr double kTxJPerBit = 60e-9;  // flat: distance-free economics
  static constexpr double kRxJPerBit = 55e-9;

  double tx_cost_j(double bits, double) const override {
    ++tx_calls;
    return bits * kTxJPerBit;
  }
  double rx_cost_j(double bits) const override {
    if (bits > 1.0) {
      ++rx_exec_calls;
      rx_exec_joules.fetch_add(bits * kRxJPerBit);
    }
    return bits * kRxJPerBit;
  }
  double aggregated_bits(double payload_bits) const override { return payload_bits; }
  const char* name() const override { return "counting"; }
};

core::Protocol counting_greedy_protocol() {
  static const core::Protocol kProtocol = [] {
    core::ProtocolSpec spec;
    spec.name = "test-greedy-routed";
    spec.summary = "greedy relay routing with a counting cost model";
    spec.policy = queueing::ThresholdPolicy::kNone;
    spec.clustering_name = "leach-rounds";
    spec.clustering = [](const core::NetworkConfig& config) {
      return std::make_unique<leach::RoundElectionClustering>(
          config.node_count, config.ch_fraction, config.round_duration_s);
    };
    spec.routing_name = "greedy-geographic";
    spec.routing = [](const core::NetworkConfig&) {
      return std::make_unique<GreedyGeographic>();
    };
    spec.uplink_energy_name = "counting";
    spec.uplink_energy = [](const core::NetworkConfig&) {
      return std::make_unique<CountingModel>();
    };
    return core::ProtocolRegistry::instance().add(std::move(spec));
  }();
  return kProtocol;
}

core::NetworkConfig corner_field_config() {
  core::NetworkConfig config;
  config.node_count = 40;
  config.field_size_m = 200.0;
  config.ch_fraction = 0.1;
  config.round_duration_s = 5.0;
  config.traffic_rate_pps = 2.0;
  config.channel.radio_range_m = 150.0;
  config.routing.sink_x_m = 0.0;
  config.routing.sink_y_m = 0.0;
  return config;
}

TEST(RoutedNetwork, CustomModelPricesEveryRelayLegIntoTheLedger) {
  CountingModel::tx_calls = 0;
  CountingModel::rx_exec_calls = 0;
  CountingModel::rx_exec_joules = 0.0;

  core::Network network(corner_field_config(), counting_greedy_protocol(), 2005);
  network.start();
  network.simulator().run_until(30.0);  // short horizon: nobody dies
  network.finalize();

  ASSERT_EQ(network.alive_count(), network.node_count());  // precondition for exactness
  EXPECT_GT(network.relay_hops_total(), 0u);
  // With no deaths, every executed relay leg was priced by exactly one
  // whole-packet rx_cost_j call — per-hop energy goes through the
  // custom model, hop for hop.
  EXPECT_EQ(CountingModel::rx_exec_calls.load(), network.relay_hops_total());
  EXPECT_GE(CountingModel::tx_calls.load(), network.relay_hops_total());

  // The custom model's joules are real: the relays' data radios carry
  // at least the priced receive energy in their itemised ledgers (MAC
  // listening adds more, never less), and conservation already ties the
  // ledger to the battery.
  double rx_ledger_j = 0.0;
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    rx_ledger_j +=
        network.node(i).ledger().entry(energy::RadioId::kData, energy::RadioState::kRx);
  }
  EXPECT_GT(CountingModel::rx_exec_joules.load(), 0.0);
  EXPECT_GE(rx_ledger_j, CountingModel::rx_exec_joules.load() * (1.0 - 1e-12));
}

TEST(RoutedNetwork, RegisteredRoutedProtocolRunsThroughRunScenario) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "caem_test_routed_scenario";
  fs::remove_all(dir);

  scenario::ScenarioSpec spec;
  spec.name = "routed";
  spec.base_config = corner_field_config();
  spec.base_seed = 2005;
  spec.replications = 2;
  spec.options.max_sim_s = 20.0;
  spec.protocols = {counting_greedy_protocol()};
  spec.cache_dir = dir.string();

  const scenario::ScenarioResult cold = scenario::run_scenario(spec);
  ASSERT_EQ(cold.points.size(), 1u);
  ASSERT_EQ(cold.points[0].protocols.size(), 1u);
  const core::RunResult& run = cold.points[0].protocols[0].replicated.runs.at(0);
  EXPECT_GT(run.relay_hops, 0u);
  EXPECT_GT(run.delivered_air, 0u);

  // The routed counters survive the cache round-trip bit-for-bit.
  const scenario::ScenarioResult warm = scenario::run_scenario(spec);
  EXPECT_EQ(warm.cache_hits, warm.total_jobs);
  const core::RunResult& cached = warm.points[0].protocols[0].replicated.runs.at(0);
  EXPECT_EQ(cached.relay_hops, run.relay_hops);
  EXPECT_EQ(cached.dropped_unreachable, run.dropped_unreachable);
  EXPECT_EQ(cached.delivered_air, run.delivered_air);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace caem::routing
