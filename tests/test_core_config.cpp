// Tests for NetworkConfig and the Protocol enum plumbing.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/config.hpp"
#include "core/protocol.hpp"

namespace caem::core {
namespace {

TEST(NetworkConfig, DefaultsAreValidAndMatchTableTwo) {
  const NetworkConfig config;
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.node_count, 100u);        // Table II: 100 nodes
  EXPECT_DOUBLE_EQ(config.ch_fraction, 0.05);  // 5 % CH
  EXPECT_DOUBLE_EQ(config.packet_bits, 2048.0);  // 2 kbit
  EXPECT_EQ(config.buffer_capacity, 50u);
  EXPECT_EQ(config.backoff.cw, 10u);
  EXPECT_EQ(config.backoff.max_retries, 6u);
  EXPECT_EQ(config.burst.min_packets, 3u);
  EXPECT_EQ(config.burst.max_packets, 8u);
  EXPECT_EQ(config.sample_every_m, 5u);        // m = 5
  EXPECT_EQ(config.arm_queue_length, 15u);     // Q_threshold = 15
  EXPECT_DOUBLE_EQ(config.data_tx_w, 0.66);
  EXPECT_DOUBLE_EQ(config.data_rx_w, 0.305);
  EXPECT_DOUBLE_EQ(config.tone_tx_w, 92e-3);
  EXPECT_DOUBLE_EQ(config.tone_rx_w, 36e-3);
  EXPECT_DOUBLE_EQ(config.initial_energy_j, 10.0);
}

TEST(NetworkConfig, ProfilesDeriveFromFields) {
  const NetworkConfig config;
  const auto data = config.data_radio_profile();
  EXPECT_DOUBLE_EQ(data.tx_w, 0.66);
  EXPECT_DOUBLE_EQ(data.rx_w, 0.305);
  EXPECT_DOUBLE_EQ(data.sleep_w, 3.5e-6);
  EXPECT_DOUBLE_EQ(data.startup_w, 0.66);  // warm-up at tx draw
  const auto tone = config.tone_radio_profile();
  EXPECT_DOUBLE_EQ(tone.tx_w, 92e-3);
  EXPECT_DOUBLE_EQ(tone.rx_w, 36e-3);
  EXPECT_DOUBLE_EQ(tone.idle_w, 36e-3 * config.tone_monitor_duty);
}

TEST(NetworkConfig, LinkBudgetUsesNoiseFloor) {
  const NetworkConfig config;
  const auto budget = config.link_budget();
  EXPECT_DOUBLE_EQ(budget.tx_power_dbm, 0.0);
  EXPECT_NEAR(budget.noise_floor_dbm, -101.0, 1.0);  // 2 MHz + NF 10
}

TEST(NetworkConfig, ValidationCatchesBadValues) {
  NetworkConfig config;
  config.node_count = 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = NetworkConfig{};
  config.ch_fraction = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = NetworkConfig{};
  config.burst.min_packets = 9;  // > max_packets
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = NetworkConfig{};
  config.dead_fraction = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = NetworkConfig{};
  config.tone_monitor_duty = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(NetworkConfig, OverridesApply) {
  NetworkConfig config;
  config.apply_overrides(util::Config::from_args(
      {"node_count=20", "traffic_rate_pps=12.5", "channel.doppler_hz=10",
       "burst_min=1", "burst_max=4", "dead_fraction=0.5"}));
  EXPECT_EQ(config.node_count, 20u);
  EXPECT_DOUBLE_EQ(config.traffic_rate_pps, 12.5);
  EXPECT_DOUBLE_EQ(config.channel.doppler_hz, 10.0);
  EXPECT_EQ(config.burst.min_packets, 1u);
  EXPECT_EQ(config.burst.max_packets, 4u);
  EXPECT_DOUBLE_EQ(config.dead_fraction, 0.5);
}

TEST(NetworkConfig, OverridesValidate) {
  NetworkConfig config;
  EXPECT_THROW(config.apply_overrides(util::Config::from_args({"node_count=1"})),
               std::invalid_argument);
}

/// what() of the std::invalid_argument an override throws ("" if none).
std::string override_rejection(const std::string& token) {
  NetworkConfig config;
  try {
    config.apply_overrides(util::Config::from_args({token}));
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(NetworkConfig, NegativeCountOverridesAreRejectedByName) {
  // An unsigned cast would wrap each: backoff_cw=-1 to 4294967295
  // (delivery 0), node_count=-5 to an allocation that dies mid-run.
  for (const char* token :
       {"node_count=-5", "buffer_capacity=-1", "sample_every_m=-1", "arm_queue_length=-3",
        "burst_min=-1", "burst_max=-1", "backoff_cw=-1", "backoff_max_retries=-1",
        "routing.max_hops=-1", "backoff_cw=4294967296"}) {
    const std::string key = std::string(token).substr(0, std::string(token).find('='));
    EXPECT_NE(override_rejection(token).find("'" + key + "'"), std::string::npos) << token;
  }
}

TEST(Protocol, NamesRoundTrip) {
  EXPECT_STREQ(to_string(protocol_from_string("leach")), "pure-leach");
  EXPECT_STREQ(to_string(protocol_from_string("scheme1")), "caem-scheme1");
  EXPECT_STREQ(to_string(protocol_from_string("scheme2")), "caem-scheme2");
  for (const Protocol protocol : paper_protocols()) {
    EXPECT_EQ(protocol_from_string(to_string(protocol)), protocol);
  }
  // Aliases resolve to the same handle as the canonical spelling.
  EXPECT_EQ(protocol_from_string("leach"), protocol_from_string("pure-leach"));
  EXPECT_EQ(protocol_from_string("adaptive"), protocol_from_string("caem-scheme1"));
  EXPECT_EQ(protocol_from_string("fixed"), protocol_from_string("caem-scheme2"));
  EXPECT_THROW(protocol_from_string("bogus"), std::invalid_argument);
}

TEST(Protocol, PrintsCanonicalName) {
  // gtest prints parameterised-test values through operator<<, so test
  // names carry the protocol name instead of the handle's address.
  EXPECT_EQ(::testing::PrintToString(protocol_from_string("scheme1")), "caem-scheme1");
  EXPECT_EQ(::testing::PrintToString(Protocol{}), "pure-leach");
}

TEST(NetworkConfig, DigestIsCanonicalAndKnobSensitive) {
  const NetworkConfig base;
  // Deterministic and value-based: two default-constructed configs agree.
  EXPECT_EQ(base.digest(), NetworkConfig{}.digest());
  EXPECT_EQ(base.digest().size(), 16u);

  // Every knob class feeds the digest: scalar, nested struct, enum,
  // string.  A cache keyed by this digest must never alias two configs
  // that simulate differently.
  NetworkConfig edited = base;
  edited.traffic_rate_pps = 6.0;
  EXPECT_NE(edited.digest(), base.digest());
  edited = base;
  edited.burst.max_packets = 16;
  EXPECT_NE(edited.digest(), base.digest());
  edited = base;
  edited.channel.fading_kind = channel::FadingKind::kBlock;
  EXPECT_NE(edited.digest(), base.digest());
  edited = base;
  edited.traffic_kind = "cbr";
  EXPECT_NE(edited.digest(), base.digest());

  // The canonical text is what apply_overrides would reproduce: applying
  // an override and then reverting restores the digest exactly.
  edited = base;
  edited.apply_overrides(util::Config::from_args({"channel.doppler_hz=9"}));
  EXPECT_NE(edited.digest(), base.digest());
  edited.apply_overrides(util::Config::from_args({"channel.doppler_hz=3"}));
  EXPECT_EQ(edited.digest(), base.digest());
}

TEST(NetworkConfig, FadingKindOverrideRoundTrips) {
  NetworkConfig config;
  config.apply_overrides(util::Config::from_args({"channel.fading_kind=rician"}));
  EXPECT_EQ(config.channel.fading_kind, channel::FadingKind::kRician);
  config.apply_overrides(util::Config::from_args({"channel.fading_kind=jakes-rayleigh"}));
  EXPECT_EQ(config.channel.fading_kind, channel::FadingKind::kJakesRayleigh);
  EXPECT_THROW(config.apply_overrides(util::Config::from_args({"channel.fading_kind=bogus"})),
               std::invalid_argument);
  EXPECT_EQ(channel::fading_kind_from_string(channel::to_string(channel::FadingKind::kBlock)),
            channel::FadingKind::kBlock);
}

TEST(NetworkConfig, JakesOscillatorsValidated) {
  NetworkConfig config;
  config.apply_overrides(util::Config::from_args({"channel.jakes_oscillators=8"}));
  EXPECT_EQ(config.channel.jakes_oscillators, 8u);
  // Zero and negative must die at override time with a message naming
  // the key, not mid-sweep.
  EXPECT_THROW(
      config.apply_overrides(util::Config::from_args({"channel.jakes_oscillators=0"})),
      std::invalid_argument);
  EXPECT_THROW(
      config.apply_overrides(util::Config::from_args({"channel.jakes_oscillators=-1"})),
      std::invalid_argument);
}

TEST(Protocol, PolicyMapping) {
  EXPECT_EQ(protocol_from_string("leach").spec().policy, queueing::ThresholdPolicy::kNone);
  EXPECT_EQ(protocol_from_string("scheme1").spec().policy,
            queueing::ThresholdPolicy::kAdaptive);
  EXPECT_EQ(protocol_from_string("scheme2").spec().policy,
            queueing::ThresholdPolicy::kFixedHighest);
}

TEST(NetworkConfig, DefaultRoutingKeepsTheLegacyDigest) {
  // The compatibility contract of the routed-uplink feature: a config
  // with every routing.* knob at its default renders the exact
  // pre-routing canonical text, so cache entries and sweep shard
  // assignments minted before the feature keep serving.  The literal
  // digest pins it against accidental canonical-text drift.
  const NetworkConfig base;
  EXPECT_TRUE(base.routing.is_default());
  EXPECT_EQ(base.digest(), "d5cc9acc34aeb055");
  const std::string text = base.canonical_text();
  EXPECT_EQ(text.rfind("caem-config-v2\n", 0), 0u) << text.substr(0, 40);
  EXPECT_EQ(text.find("routing."), std::string::npos);
}

TEST(NetworkConfig, NonDefaultRoutingRendersV3WithRoutingBlock) {
  // Any non-default routing knob must flip the header to v3 AND append
  // the routing block — a v2 text with routing fields (or a v3 without)
  // could alias a legacy digest.
  const NetworkConfig base;
  NetworkConfig routed = base;
  routed.routing.max_hops = 5;
  const std::string text = routed.canonical_text();
  EXPECT_EQ(text.rfind("caem-config-v3\n", 0), 0u) << text.substr(0, 40);
  EXPECT_NE(text.find("routing.kind"), std::string::npos);
  EXPECT_NE(text.find("routing.max_hops"), std::string::npos);
  EXPECT_NE(routed.digest(), base.digest());

  // Overrides round-trip through the same rendering: revert restores
  // the legacy digest exactly.
  NetworkConfig edited = base;
  edited.apply_overrides(util::Config::from_args(
      {"routing.kind=greedy", "routing.sink_x_m=0", "routing.sink_y_m=0"}));
  EXPECT_EQ(edited.routing.kind, "greedy");
  EXPECT_NE(edited.digest(), base.digest());
  edited.apply_overrides(util::Config::from_args(
      {"routing.kind=direct", "routing.sink_x_m=-1", "routing.sink_y_m=-1"}));
  EXPECT_EQ(edited.digest(), base.digest());
}

TEST(NetworkConfig, RoutingKnobsValidate) {
  NetworkConfig config;
  // Unknown kind, degenerate hop budget, negative receive cost.
  EXPECT_THROW(config.apply_overrides(util::Config::from_args({"routing.kind=flooding"})),
               std::invalid_argument);
  EXPECT_THROW(config.apply_overrides(util::Config::from_args({"routing.max_hops=0"})),
               std::invalid_argument);
  EXPECT_THROW(
      config.apply_overrides(util::Config::from_args({"routing.relay_rx_j_per_bit=-1e-9"})),
      std::invalid_argument);
  // Sink coordinates come as a pair or not at all.
  EXPECT_THROW(config.apply_overrides(util::Config::from_args({"routing.sink_x_m=10"})),
               std::invalid_argument);
  // Relaying strategies need a geometric sink: under the virtual sink
  // every node is equidistant and they would silently run direct.
  EXPECT_THROW(config.apply_overrides(util::Config::from_args({"routing.kind=greedy"})),
               std::invalid_argument);
  EXPECT_THROW(config.apply_overrides(util::Config::from_args({"routing.kind=chain"})),
               std::invalid_argument);
  // The valid spellings all pass.
  NetworkConfig ok;
  ok.apply_overrides(util::Config::from_args(
      {"routing.kind=chain", "routing.max_hops=6", "routing.sink_x_m=0", "routing.sink_y_m=0"}));
  EXPECT_EQ(ok.routing.max_hops, 6u);
  EXPECT_TRUE(ok.routing.has_geometric_sink());
}

}  // namespace
}  // namespace caem::core
