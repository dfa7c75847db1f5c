// config.hpp — every knob of a CAEM simulation in one value type.
//
// Defaults reproduce the paper's Table II plus the substitutions
// documented in DESIGN.md.  All units follow the library conventions
// (seconds / joules / watts / bits / dB).
#pragma once

#include <cstdint>
#include <string>

#include "channel/link.hpp"
#include "channel/link_manager.hpp"
#include "energy/power_state.hpp"
#include "energy/uplink_energy_model.hpp"
#include "mac/backoff.hpp"
#include "mac/burst_policy.hpp"
#include "util/config.hpp"

namespace caem::core {

/// Multi-hop uplink routing knobs.  All-default values mean one direct
/// leg to the virtual sink, with no range limit, and canonical_text()
/// renders the caem-config-v2 text, so existing digests, cache entries
/// and artifacts are untouched.  Any non-default field switches the
/// rendering to caem-config-v3 with a routing block appended.
struct UplinkRoutingConfig {
  /// Path selection: "direct" (one leg), "greedy" (greedy-geographic
  /// with the UtilCache cost/benefit rule) or "chain" (CH->CH
  /// nearest-neighbor hops).  greedy/chain need a geometric sink.
  std::string kind = "direct";
  std::uint32_t max_hops = 4;          ///< relay legs bound for "chain"
  double relay_rx_j_per_bit = 50e-9;   ///< receive electronics at a relay
  /// Geometric sink position; either both >= 0 (a point in/near the
  /// field) or both negative (the legacy virtual sink, a fixed
  /// bs_distance_m from every node).
  double sink_x_m = -1.0;
  double sink_y_m = -1.0;

  [[nodiscard]] bool has_geometric_sink() const noexcept {
    return sink_x_m >= 0.0 && sink_y_m >= 0.0;
  }
  [[nodiscard]] bool is_default() const { return *this == UplinkRoutingConfig{}; }

  bool operator==(const UplinkRoutingConfig&) const = default;
};

struct NetworkConfig {
  // ---- topology (Table II: 100 nodes, field ~100 m x 100 m) ----
  std::size_t node_count = 100;
  double field_size_m = 100.0;

  // ---- LEACH ----
  double ch_fraction = 0.05;      ///< "Percentage of CH 5%"
  double round_duration_s = 20.0; ///< standard LEACH round length

  // ---- traffic ----
  double traffic_rate_pps = 5.0;  ///< "Added Traffic Load" baseline
  std::string traffic_kind = "poisson";
  double packet_bits = 2048.0;    ///< "Packet Length 2 Kbits"
  std::size_t buffer_capacity = 50;  ///< "Buffer Size 50"

  // ---- CAEM adaptive threshold (Fig 6) ----
  std::uint32_t sample_every_m = 5;   ///< queue sampling interval m
  std::size_t arm_queue_length = 15;  ///< Q_threshold arming the mechanism

  // ---- MAC ----
  mac::BackoffPolicy backoff{};       ///< 20 us slot, cw 10, 6 retries
  mac::BurstPolicy burst{};           ///< min 3 / max 8 packets per burst
  double check_interval_s = 50e-3;    ///< idle tone period (Table I)
  double detect_delay_s = 1e-3;       ///< CH packet/collision detection
  double sensing_delay_s = 8e-3;      ///< "Sensing Delay 8 [ms]": initial tone acquisition
  double tone_classify_delay_s = 1e-3;  ///< staleness of state changes (leading pulse)
  double csi_noise_db = 0.5;          ///< tone-based CSI estimation error

  // ---- channel ----
  channel::ChannelConfig channel{};
  /// Node mobility: "static" (paper default) or "waypoint" (the paper's
  /// "low mobility (< 1 m/s)" regime, random waypoint inside the field).
  std::string mobility_kind = "static";
  double mobility_max_speed_mps = 1.0;
  double mobility_pause_s = 10.0;
  double tx_power_dbm = 0.0;          ///< radiated RF power
  double rx_noise_figure_db = 10.0;
  double noise_bandwidth_hz = 2e6;    ///< matched to the 2 Mbps top mode

  // ---- PHY framing ----
  double header_bits = 64.0;
  double preamble_s = 64e-6;

  // ---- energy (electronics draw; Table II values + DESIGN.md units) ----
  double initial_energy_j = 10.0;
  double data_tx_w = 0.66;        ///< "Transmit Power for Data Channel"
  double data_rx_w = 0.305;       ///< "Receive Power for Data Channel"
  double data_idle_w = 5e-3;      ///< CH low-power listening front end
  double data_sleep_w = 3.5e-6;   ///< "Sleep Power 3.5 [uW]"
  double data_startup_s = 2e-3;   ///< radio warm-up (see DESIGN.md)
  double tone_tx_w = 92e-3;       ///< "Transmit Power for Tone Channel"
  double tone_rx_w = 36e-3;       ///< "Receive Power for Tone Channel"
  double tone_monitor_duty = 0.04;  ///< duty-cycled pulse sniffing
  double tone_sleep_w = 1e-6;
  double tone_startup_s = 0.5e-3;

  // ---- extensions (off by default; not part of the paper's evaluation) ----
  /// CH -> base station forwarding (paper Fig 1's uplink, which the
  /// evaluation explicitly defers).  When enabled, every aggregated
  /// packet costs the CH first-order radio energy
  /// (e_elec + eps_amp * d_bs^2 per bit), the classic LEACH model, and
  /// counts as delivered only if the CH is alive and can pay for it.
  bool ch_forward_enabled = false;
  double bs_distance_m = 120.0;       ///< CH-to-base-station distance
  double fwd_e_elec_j_per_bit = 50e-9;
  double fwd_eps_amp_j_per_bit_m2 = 100e-12;
  double aggregation_ratio = 0.1;     ///< aggregated bits per received bit

  /// Multi-hop uplink routing (see UplinkRoutingConfig).  Setting any
  /// routing.* knob — or a protocol spec carrying a routing/energy
  /// factory — gives every CH an uplink and range-limits the sink leg:
  /// hop chains executed per packet, per-leg energy at true pairwise
  /// distance, unreachable packets booked as drops.
  UplinkRoutingConfig routing{};

  /// Deadline-aware CAEM (future-work variant): a sensor whose
  /// head-of-line packet is older than this may transmit even when the
  /// CSI gate denies.  0 disables.  Only protocols whose spec sets
  /// deadline_override (caem-deadline, caem-adaptive-deadline) arm it.
  double csi_gate_deadline_s = 0.5;

  // ---- lifetime / sampling ----
  double dead_fraction = 0.2;     ///< network "dead" threshold
  double energy_snapshot_interval_s = 5.0;
  double queue_snapshot_interval_s = 1.0;

  /// Power profile of the data radio (startup drawn at tx level).
  [[nodiscard]] energy::RadioPowerProfile data_radio_profile() const noexcept;

  /// Power profile of the tone radio.  The idle state carries the
  /// duty-scaled sniffing power: pulse-interval signaling is exactly what
  /// lets the sensor sample the tone channel instead of listening
  /// continuously (paper Section III-A).
  [[nodiscard]] energy::RadioPowerProfile tone_radio_profile() const noexcept;

  /// Link budget implied by the RF parameters.
  [[nodiscard]] channel::LinkBudget link_budget() const noexcept;

  /// First-order radio cost of one bit on the long haul to the base
  /// station (classic LEACH model: e_elec + eps_amp * d_bs^2): what the
  /// default FirstOrderUplinkModel charges per bit on a leg to the
  /// virtual sink, through the same energy::first_order_j_per_bit.
  [[nodiscard]] double bs_uplink_j_per_bit() const noexcept {
    return energy::first_order_j_per_bit(fwd_e_elec_j_per_bit, fwd_eps_amp_j_per_bit_m2,
                                         bs_distance_m);
  }

  /// Throw std::invalid_argument on inconsistent values.
  void validate() const;

  /// Apply `key=value` overrides (keys mirror the field names, e.g.
  /// "node_count", "traffic_rate_pps", "channel.doppler_hz").
  void apply_overrides(const util::Config& overrides);

  /// Canonical `key=value` text rendering of EVERY knob (doubles at full
  /// round-trip precision, one line per field, fixed order, versioned
  /// header line).  Two configs produce the same text iff they run the
  /// same simulation, which makes the text the cache-key substrate.
  [[nodiscard]] std::string canonical_text() const;

  /// 16-hex-char FNV-1a digest of `canonical_text()` — the content
  /// identity used by the scenario result cache and artifact provenance.
  [[nodiscard]] std::string digest() const;
};

}  // namespace caem::core
