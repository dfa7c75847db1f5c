// uplink_energy_model.hpp — pluggable long-haul uplink radio cost.
//
// The classic first-order radio model (e_elec + eps_amp * d^2 per bit)
// lives here once, as the free helper `first_order_j_per_bit`, and
// behind the `UplinkEnergyModel` interface so a ProtocolSpec can
// substitute its own radio constants, receive electronics and
// aggregation ratio the same way it substitutes a ClusteringStrategy.
// A null model on the spec means "the config's first-order model".
#pragma once

#include <memory>

namespace caem::energy {

/// First-order radio cost of one bit over `distance_m` (classic LEACH
/// model).  The expression order is part of the byte-identity contract
/// for every artifact that charges an uplink.
[[nodiscard]] constexpr double first_order_j_per_bit(double e_elec_j_per_bit,
                                                     double eps_amp_j_per_bit_m2,
                                                     double distance_m) noexcept {
  return e_elec_j_per_bit + eps_amp_j_per_bit_m2 * distance_m * distance_m;
}

/// Per-protocol cost model for the uplink legs (CH -> relay -> sink and
/// the clusterless node -> sink path).  Distances are true pairwise
/// meters; bits are payload bits on the wire for that leg.
class UplinkEnergyModel {
 public:
  virtual ~UplinkEnergyModel() = default;

  /// Energy the transmitter spends sending `bits` over `distance_m`.
  [[nodiscard]] virtual double tx_cost_j(double bits, double distance_m) const = 0;

  /// Energy a relay spends receiving `bits` (distance-independent
  /// electronics draw).
  [[nodiscard]] virtual double rx_cost_j(double bits) const = 0;

  /// Bits a cluster head puts on the uplink per `payload_bits` received
  /// over the air (in-cluster aggregation).  The clusterless direct
  /// path bypasses this — sensors send raw observations.
  [[nodiscard]] virtual double aggregated_bits(double payload_bits) const = 0;

  /// Short label for `caem protocols` and diagnostics.
  [[nodiscard]] virtual const char* name() const = 0;
};

/// The default model, parameterized: first-order TX, linear RX
/// electronics, fixed aggregation ratio.
class FirstOrderUplinkModel final : public UplinkEnergyModel {
 public:
  FirstOrderUplinkModel(double e_elec_j_per_bit, double eps_amp_j_per_bit_m2,
                        double rx_j_per_bit, double aggregation_ratio) noexcept
      : e_elec_j_per_bit_(e_elec_j_per_bit),
        eps_amp_j_per_bit_m2_(eps_amp_j_per_bit_m2),
        rx_j_per_bit_(rx_j_per_bit),
        aggregation_ratio_(aggregation_ratio) {}

  [[nodiscard]] double tx_cost_j(double bits, double distance_m) const override {
    return bits * first_order_j_per_bit(e_elec_j_per_bit_, eps_amp_j_per_bit_m2_, distance_m);
  }
  [[nodiscard]] double rx_cost_j(double bits) const override { return bits * rx_j_per_bit_; }
  [[nodiscard]] double aggregated_bits(double payload_bits) const override {
    return payload_bits * aggregation_ratio_;
  }
  [[nodiscard]] const char* name() const override { return "first-order"; }

 private:
  double e_elec_j_per_bit_;
  double eps_amp_j_per_bit_m2_;
  double rx_j_per_bit_;
  double aggregation_ratio_;
};

}  // namespace caem::energy
