#include "core/config.hpp"

#include <cstdint>
#include <limits>
#include <locale>
#include <sstream>
#include <stdexcept>

#include "util/digest.hpp"
#include "util/table_writer.hpp"

namespace caem::core {

energy::RadioPowerProfile NetworkConfig::data_radio_profile() const noexcept {
  energy::RadioPowerProfile profile;
  profile.sleep_w = data_sleep_w;
  profile.startup_w = data_tx_w;  // synthesiser lock draws transmit-level current
  profile.idle_w = data_idle_w;
  profile.rx_w = data_rx_w;
  profile.tx_w = data_tx_w;
  profile.startup_time_s = data_startup_s;
  return profile;
}

energy::RadioPowerProfile NetworkConfig::tone_radio_profile() const noexcept {
  energy::RadioPowerProfile profile;
  profile.sleep_w = tone_sleep_w;
  profile.startup_w = tone_rx_w;
  profile.idle_w = tone_rx_w * tone_monitor_duty;  // duty-cycled sniffing
  profile.rx_w = tone_rx_w;
  profile.tx_w = tone_tx_w;
  profile.startup_time_s = tone_startup_s;
  return profile;
}

channel::LinkBudget NetworkConfig::link_budget() const noexcept {
  return channel::LinkBudget{
      tx_power_dbm, channel::noise_floor_dbm(noise_bandwidth_hz, rx_noise_figure_db)};
}

void NetworkConfig::validate() const {
  if (node_count < 2) throw std::invalid_argument("config: need at least 2 nodes");
  if (field_size_m <= 0.0) throw std::invalid_argument("config: field size must be > 0");
  if (ch_fraction <= 0.0 || ch_fraction > 1.0) {
    throw std::invalid_argument("config: ch_fraction must be in (0,1]");
  }
  if (round_duration_s <= 0.0) throw std::invalid_argument("config: round duration must be > 0");
  if (traffic_rate_pps <= 0.0) throw std::invalid_argument("config: traffic rate must be > 0");
  if (packet_bits <= 0.0) throw std::invalid_argument("config: packet bits must be > 0");
  if (buffer_capacity == 0) throw std::invalid_argument("config: buffer capacity must be >= 1");
  if (sample_every_m == 0) throw std::invalid_argument("config: sampling m must be >= 1");
  if (burst.min_packets == 0 || burst.max_packets < burst.min_packets) {
    throw std::invalid_argument("config: bad burst policy");
  }
  if (initial_energy_j <= 0.0) throw std::invalid_argument("config: initial energy must be > 0");
  if (dead_fraction <= 0.0 || dead_fraction > 1.0) {
    throw std::invalid_argument("config: dead_fraction must be in (0,1]");
  }
  if (tone_monitor_duty <= 0.0 || tone_monitor_duty > 1.0) {
    throw std::invalid_argument("config: tone_monitor_duty must be in (0,1]");
  }
  if (check_interval_s <= 0.0 || detect_delay_s < 0.0 || sensing_delay_s < 0.0) {
    throw std::invalid_argument("config: bad MAC timing");
  }
  if (bs_distance_m <= 0.0 || aggregation_ratio < 0.0 || aggregation_ratio > 1.0) {
    throw std::invalid_argument("config: bad forwarding parameters");
  }
  if (csi_gate_deadline_s < 0.0) {
    throw std::invalid_argument("config: negative CSI-gate deadline");
  }
  if (channel.jakes_oscillators == 0 || channel.jakes_oscillators > 4096) {
    throw std::invalid_argument("config: channel.jakes_oscillators must be in [1, 4096]");
  }
  if (mobility_kind != "static" && mobility_kind != "waypoint") {
    throw std::invalid_argument("config: mobility_kind must be 'static' or 'waypoint'");
  }
  if (mobility_kind == "waypoint" && mobility_max_speed_mps <= 0.0) {
    throw std::invalid_argument("config: mobility speed must be > 0");
  }
  if (channel.radio_range_m < 0.0) {
    throw std::invalid_argument("config: channel.radio_range_m must be >= 0 (0 = unlimited)");
  }
  if (routing.kind != "direct" && routing.kind != "greedy" && routing.kind != "chain") {
    throw std::invalid_argument("config: routing.kind must be 'direct', 'greedy' or 'chain'");
  }
  if (routing.max_hops == 0) {
    throw std::invalid_argument("config: routing.max_hops must be >= 1");
  }
  if (routing.relay_rx_j_per_bit < 0.0) {
    throw std::invalid_argument("config: routing.relay_rx_j_per_bit must be >= 0");
  }
  if ((routing.sink_x_m >= 0.0) != (routing.sink_y_m >= 0.0)) {
    throw std::invalid_argument(
        "config: set both routing.sink_x_m and routing.sink_y_m for a geometric sink "
        "(or neither for the virtual sink at bs_distance_m)");
  }
  if (routing.kind != "direct" && !routing.has_geometric_sink()) {
    // With the virtual sink every node is the same distance out, so no
    // relay is ever closer — greedy/chain would silently run direct.
    throw std::invalid_argument("config: routing.kind='" + routing.kind +
                                "' needs a geometric sink (set routing.sink_x_m and "
                                "routing.sink_y_m)");
  }
}

void NetworkConfig::apply_overrides(const util::Config& overrides) {
  // Counts go through get_uint: a negative override is rejected by
  // name instead of wrapping to a huge unsigned value.
  constexpr unsigned long long kMaxU32 = std::numeric_limits<std::uint32_t>::max();
  node_count = overrides.get_uint("node_count", node_count);
  field_size_m = overrides.get_double("field_size_m", field_size_m);
  ch_fraction = overrides.get_double("ch_fraction", ch_fraction);
  round_duration_s = overrides.get_double("round_duration_s", round_duration_s);
  traffic_rate_pps = overrides.get_double("traffic_rate_pps", traffic_rate_pps);
  traffic_kind = overrides.get_string("traffic_kind", traffic_kind);
  packet_bits = overrides.get_double("packet_bits", packet_bits);
  buffer_capacity = overrides.get_uint("buffer_capacity", buffer_capacity);
  sample_every_m =
      static_cast<std::uint32_t>(overrides.get_uint("sample_every_m", sample_every_m, kMaxU32));
  arm_queue_length = overrides.get_uint("arm_queue_length", arm_queue_length);
  burst.min_packets = overrides.get_uint("burst_min", burst.min_packets);
  burst.max_packets = overrides.get_uint("burst_max", burst.max_packets);
  burst.hold_timeout_s = overrides.get_double("burst_hold_s", burst.hold_timeout_s);
  backoff.cw = static_cast<std::uint32_t>(overrides.get_uint("backoff_cw", backoff.cw, kMaxU32));
  backoff.slot_s = overrides.get_double("backoff_slot_s", backoff.slot_s);
  backoff.max_retries = static_cast<std::uint32_t>(
      overrides.get_uint("backoff_max_retries", backoff.max_retries, kMaxU32));
  check_interval_s = overrides.get_double("check_interval_s", check_interval_s);
  detect_delay_s = overrides.get_double("detect_delay_s", detect_delay_s);
  sensing_delay_s = overrides.get_double("sensing_delay_s", sensing_delay_s);
  tone_classify_delay_s = overrides.get_double("tone_classify_delay_s", tone_classify_delay_s);
  csi_noise_db = overrides.get_double("csi_noise_db", csi_noise_db);
  channel.doppler_hz = overrides.get_double("channel.doppler_hz", channel.doppler_hz);
  channel.shadowing_sigma_db =
      overrides.get_double("channel.shadowing_sigma_db", channel.shadowing_sigma_db);
  channel.shadowing_tau_s = overrides.get_double("channel.shadowing_tau_s", channel.shadowing_tau_s);
  channel.path_loss_exponent =
      overrides.get_double("channel.path_loss_exponent", channel.path_loss_exponent);
  channel.path_loss_ref_db =
      overrides.get_double("channel.path_loss_ref_db", channel.path_loss_ref_db);
  channel.rician_k = overrides.get_double("channel.rician_k", channel.rician_k);
  channel.fading_kind = channel::fading_kind_from_string(overrides.get_string(
      "channel.fading_kind", channel::to_string(channel.fading_kind)));
  channel.jakes_oscillators =
      overrides.get_uint("channel.jakes_oscillators", channel.jakes_oscillators);
  channel.snr_cache_enabled =
      overrides.get_bool("channel.snr_cache_enabled", channel.snr_cache_enabled);
  channel.radio_range_m = overrides.get_double("channel.radio_range_m", channel.radio_range_m);
  channel.spatial_bin_m = overrides.get_double("channel.spatial_bin_m", channel.spatial_bin_m);
  tx_power_dbm = overrides.get_double("tx_power_dbm", tx_power_dbm);
  rx_noise_figure_db = overrides.get_double("rx_noise_figure_db", rx_noise_figure_db);
  noise_bandwidth_hz = overrides.get_double("noise_bandwidth_hz", noise_bandwidth_hz);
  header_bits = overrides.get_double("header_bits", header_bits);
  preamble_s = overrides.get_double("preamble_s", preamble_s);
  initial_energy_j = overrides.get_double("initial_energy_j", initial_energy_j);
  data_tx_w = overrides.get_double("data_tx_w", data_tx_w);
  data_rx_w = overrides.get_double("data_rx_w", data_rx_w);
  data_idle_w = overrides.get_double("data_idle_w", data_idle_w);
  data_sleep_w = overrides.get_double("data_sleep_w", data_sleep_w);
  data_startup_s = overrides.get_double("data_startup_s", data_startup_s);
  tone_tx_w = overrides.get_double("tone_tx_w", tone_tx_w);
  tone_rx_w = overrides.get_double("tone_rx_w", tone_rx_w);
  tone_sleep_w = overrides.get_double("tone_sleep_w", tone_sleep_w);
  tone_startup_s = overrides.get_double("tone_startup_s", tone_startup_s);
  tone_monitor_duty = overrides.get_double("tone_monitor_duty", tone_monitor_duty);
  dead_fraction = overrides.get_double("dead_fraction", dead_fraction);
  energy_snapshot_interval_s =
      overrides.get_double("energy_snapshot_interval_s", energy_snapshot_interval_s);
  queue_snapshot_interval_s =
      overrides.get_double("queue_snapshot_interval_s", queue_snapshot_interval_s);
  mobility_kind = overrides.get_string("mobility_kind", mobility_kind);
  mobility_max_speed_mps = overrides.get_double("mobility_max_speed_mps", mobility_max_speed_mps);
  mobility_pause_s = overrides.get_double("mobility_pause_s", mobility_pause_s);
  ch_forward_enabled = overrides.get_bool("ch_forward_enabled", ch_forward_enabled);
  bs_distance_m = overrides.get_double("bs_distance_m", bs_distance_m);
  fwd_e_elec_j_per_bit = overrides.get_double("fwd_e_elec_j_per_bit", fwd_e_elec_j_per_bit);
  fwd_eps_amp_j_per_bit_m2 =
      overrides.get_double("fwd_eps_amp_j_per_bit_m2", fwd_eps_amp_j_per_bit_m2);
  aggregation_ratio = overrides.get_double("aggregation_ratio", aggregation_ratio);
  csi_gate_deadline_s = overrides.get_double("csi_gate_deadline_s", csi_gate_deadline_s);
  routing.kind = overrides.get_string("routing.kind", routing.kind);
  routing.max_hops = static_cast<std::uint32_t>(
      overrides.get_uint("routing.max_hops", routing.max_hops, kMaxU32));
  routing.relay_rx_j_per_bit =
      overrides.get_double("routing.relay_rx_j_per_bit", routing.relay_rx_j_per_bit);
  routing.sink_x_m = overrides.get_double("routing.sink_x_m", routing.sink_x_m);
  routing.sink_y_m = overrides.get_double("routing.sink_y_m", routing.sink_y_m);
  validate();
}

std::string NetworkConfig::canonical_text() const {
  std::ostringstream out;
  // Classic locale: the canonical text feeds the config digest, which
  // must be byte-stable under any global locale (all numbers already go
  // through format_full/to_string, this pins the stream itself).
  out.imbue(std::locale::classic());
  const auto put = [&out](const char* key, const std::string& value) {
    out << key << '=' << value << '\n';
  };
  const auto put_d = [&put](const char* key, double value) {
    put(key, util::format_full(value));
  };
  const auto put_u = [&put](const char* key, std::uint64_t value) {
    put(key, std::to_string(value));
  };
  // Version header: bump when a field is added/removed/renamed so stale
  // cache entries from older layouts can never alias a new config.
  //
  // The routing block is conditional: all-default routing knobs render
  // the exact legacy v2 text (no routing lines), so every pre-routing
  // config keeps its digest and cache entries; any non-default routing
  // field switches to v3 and appends the block.  No aliasing is
  // possible — v3 text always contains routing lines, v2 text never
  // does.
  out << (routing.is_default() ? "caem-config-v2\n" : "caem-config-v3\n");
  // Simulation-semantics version: bump whenever SIMULATOR BEHAVIOR
  // changes for identical inputs (kernel reordering, RNG stream
  // changes, model fixes) even though no config or RunResult field
  // moved — it feeds the digest, so existing result-cache directories
  // invalidate structurally instead of serving pre-change numbers.
  // Version 2 is scoped to ch_forward_enabled=1, the only configs whose
  // results moved when CH forwarding began refusing unfunded deliveries.
  out << "sim-semantics=" << (ch_forward_enabled ? 2 : 1) << '\n';
  put_u("node_count", node_count);
  put_d("field_size_m", field_size_m);
  put_d("ch_fraction", ch_fraction);
  put_d("round_duration_s", round_duration_s);
  put_d("traffic_rate_pps", traffic_rate_pps);
  put("traffic_kind", traffic_kind);
  put_d("packet_bits", packet_bits);
  put_u("buffer_capacity", buffer_capacity);
  put_u("sample_every_m", sample_every_m);
  put_u("arm_queue_length", arm_queue_length);
  put_d("backoff.slot_s", backoff.slot_s);
  put_u("backoff.cw", backoff.cw);
  put_u("backoff.max_retries", backoff.max_retries);
  put_u("burst.min_packets", burst.min_packets);
  put_u("burst.max_packets", burst.max_packets);
  put_d("burst.hold_timeout_s", burst.hold_timeout_s);
  put_d("check_interval_s", check_interval_s);
  put_d("detect_delay_s", detect_delay_s);
  put_d("sensing_delay_s", sensing_delay_s);
  put_d("tone_classify_delay_s", tone_classify_delay_s);
  put_d("csi_noise_db", csi_noise_db);
  put_d("channel.path_loss_exponent", channel.path_loss_exponent);
  put_d("channel.path_loss_ref_db", channel.path_loss_ref_db);
  put_d("channel.shadowing_sigma_db", channel.shadowing_sigma_db);
  put_d("channel.shadowing_tau_s", channel.shadowing_tau_s);
  put_d("channel.doppler_hz", channel.doppler_hz);
  put("channel.fading_kind", channel::to_string(channel.fading_kind));
  put_d("channel.rician_k", channel.rician_k);
  put_u("channel.jakes_oscillators", channel.jakes_oscillators);
  put_u("channel.snr_cache_enabled", channel.snr_cache_enabled ? 1 : 0);
  put_d("channel.radio_range_m", channel.radio_range_m);
  put_d("channel.spatial_bin_m", channel.spatial_bin_m);
  put("mobility_kind", mobility_kind);
  put_d("mobility_max_speed_mps", mobility_max_speed_mps);
  put_d("mobility_pause_s", mobility_pause_s);
  put_d("tx_power_dbm", tx_power_dbm);
  put_d("rx_noise_figure_db", rx_noise_figure_db);
  put_d("noise_bandwidth_hz", noise_bandwidth_hz);
  put_d("header_bits", header_bits);
  put_d("preamble_s", preamble_s);
  put_d("initial_energy_j", initial_energy_j);
  put_d("data_tx_w", data_tx_w);
  put_d("data_rx_w", data_rx_w);
  put_d("data_idle_w", data_idle_w);
  put_d("data_sleep_w", data_sleep_w);
  put_d("data_startup_s", data_startup_s);
  put_d("tone_tx_w", tone_tx_w);
  put_d("tone_rx_w", tone_rx_w);
  put_d("tone_monitor_duty", tone_monitor_duty);
  put_d("tone_sleep_w", tone_sleep_w);
  put_d("tone_startup_s", tone_startup_s);
  put_u("ch_forward_enabled", ch_forward_enabled ? 1 : 0);
  put_d("bs_distance_m", bs_distance_m);
  put_d("fwd_e_elec_j_per_bit", fwd_e_elec_j_per_bit);
  put_d("fwd_eps_amp_j_per_bit_m2", fwd_eps_amp_j_per_bit_m2);
  put_d("aggregation_ratio", aggregation_ratio);
  put_d("csi_gate_deadline_s", csi_gate_deadline_s);
  put_d("dead_fraction", dead_fraction);
  put_d("energy_snapshot_interval_s", energy_snapshot_interval_s);
  put_d("queue_snapshot_interval_s", queue_snapshot_interval_s);
  if (!routing.is_default()) {
    put("routing.kind", routing.kind);
    put_u("routing.max_hops", routing.max_hops);
    put_d("routing.relay_rx_j_per_bit", routing.relay_rx_j_per_bit);
    put_d("routing.sink_x_m", routing.sink_x_m);
    put_d("routing.sink_y_m", routing.sink_y_m);
  }
  return out.str();
}

std::string NetworkConfig::digest() const { return util::content_digest(canonical_text()); }

}  // namespace caem::core
