// protocol.hpp — data-driven protocol registry.
//
// A protocol is not a branch in the network code; it is a ProtocolSpec —
// a named bundle of (threshold policy, CSI-gate deadline behavior,
// clustering strategy) that Network/Node consume wholesale.  The four
// legacy protocols (pure LEACH, CAEM Scheme 1/2, the deadline extension)
// and every later addition are registrations in ProtocolRegistry;
// scenario files, the result cache, benches and the CLI resolve them by
// name.  Adding a protocol composed of existing building blocks touches
// exactly one registration — no Network/Node/scenario/CLI edits (a
// tested contract: tests register a throwaway protocol at runtime and
// drive it through run_scenario).
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "queueing/threshold_controller.hpp"

namespace caem::leach {
class ClusteringStrategy;  // leach/clustering.hpp (kept out of this header)
}  // namespace caem::leach

namespace caem::routing {
class RoutingStrategy;  // routing/routing_strategy.hpp (kept out of this header)
}  // namespace caem::routing

namespace caem::energy {
class UplinkEnergyModel;  // energy/uplink_energy_model.hpp (kept out of this header)
}  // namespace caem::energy

namespace caem::core {

struct NetworkConfig;

/// Everything that distinguishes one protocol from another.
struct ProtocolSpec {
  /// Builds the strategy driving cluster formation for one run.  A null
  /// factory means "no clustering at all": the network runs clusterless
  /// and every node uplinks each packet straight to the base station
  /// (first-order radio model over bs_distance_m) — the classic
  /// direct-transmission baseline.
  using ClusteringFactory =
      std::function<std::unique_ptr<leach::ClusteringStrategy>(const NetworkConfig&)>;

  /// Canonical name: cache entry keys, artifact columns, RunResult JSON.
  /// Renaming a registered protocol therefore invalidates its cache
  /// entries (they re-run, never mis-serve) — treat names as stable API.
  std::string name;
  std::vector<std::string> aliases;  ///< extra spellings protocol_from_string accepts
  std::string summary;               ///< one-liner for `caem protocols`

  /// The CSI gate: pure LEACH ignores the channel (kNone), Scheme 2 pins
  /// the highest class (kFixedHighest), Scheme 1 adapts (kAdaptive).
  queueing::ThresholdPolicy policy = queueing::ThresholdPolicy::kNone;
  /// Arm the head-of-line deadline override (config.csi_gate_deadline_s):
  /// a packet older than the deadline transmits even when the gate denies.
  bool deadline_override = false;

  /// Display label for `caem protocols`; leave empty to derive it from
  /// the factory (clustering_label()), so the listing can never claim a
  /// strategy the spec does not actually build.
  std::string clustering_name;
  ClusteringFactory clustering;  ///< null = clusterless direct uplink

  /// The clustering column `caem protocols` shows: "none" for a null
  /// factory, clustering_name when set, else "custom".
  [[nodiscard]] std::string clustering_label() const {
    if (!clustering) return "none";
    return clustering_name.empty() ? "custom" : clustering_name;
  }

  /// Builds the uplink path planner for one run.  Null means "whatever
  /// the config's routing.* knobs say" — with all-default knobs that is
  /// DirectUplink to the virtual sink.  A non-null factory (like a
  /// non-default knob) gives every CH an uplink of its own: hop chains,
  /// per-leg energy, unreachable drops.
  using RoutingFactory =
      std::function<std::unique_ptr<routing::RoutingStrategy>(const NetworkConfig&)>;
  /// Builds the uplink cost model for one run.  Null means the config's
  /// first-order model (fwd_e_elec_j_per_bit / fwd_eps_amp_j_per_bit_m2
  /// / routing.relay_rx_j_per_bit / aggregation_ratio).
  using UplinkEnergyFactory =
      std::function<std::unique_ptr<energy::UplinkEnergyModel>(const NetworkConfig&)>;

  /// Display label for the routing column; empty derives from the
  /// factory (routing_label()).
  std::string routing_name;
  RoutingFactory routing;  ///< null = config-driven (direct by default)
  std::string uplink_energy_name;
  UplinkEnergyFactory uplink_energy;  ///< null = config first-order model

  /// The routing column `caem protocols` shows: "config" for a null
  /// factory (the run follows routing.kind), else the spec's own label.
  [[nodiscard]] std::string routing_label() const {
    if (!routing) return "config";
    return routing_name.empty() ? "custom" : routing_name;
  }

  /// The uplink-energy column: "first-order" for a null factory (the
  /// config's shared model), else the spec's own label.
  [[nodiscard]] std::string uplink_energy_label() const {
    if (!uplink_energy) return "first-order";
    return uplink_energy_name.empty() ? "custom" : uplink_energy_name;
  }

  /// Member of the paper's evaluated trio (scenario.protocols = all).
  bool paper_protocol = false;
};

/// Cheap value handle to a registered spec (pointer-sized, stable for
/// the process lifetime).  Default-constructs to pure-leach so result
/// containers keep a valid protocol before assignment.
class Protocol {
 public:
  Protocol();  ///< the registry's first registration: pure-leach

  [[nodiscard]] const ProtocolSpec& spec() const noexcept { return *spec_; }
  [[nodiscard]] const char* name() const noexcept { return spec_->name.c_str(); }

  friend bool operator==(Protocol a, Protocol b) noexcept { return a.spec_ == b.spec_; }
  friend bool operator!=(Protocol a, Protocol b) noexcept { return a.spec_ != b.spec_; }

 private:
  friend class ProtocolRegistry;
  explicit Protocol(const ProtocolSpec* spec) noexcept : spec_(spec) {}
  const ProtocolSpec* spec_;
};

/// Process-wide name -> spec table.  Built-ins register on first use;
/// anyone may add more at runtime (thread-safe).  Specs never move or
/// disappear once registered, so Protocol handles stay valid forever.
class ProtocolRegistry {
 public:
  static ProtocolRegistry& instance();

  /// Register a protocol.  Throws std::invalid_argument on an empty
  /// name or a name/alias that is already taken.
  Protocol add(ProtocolSpec spec);

  /// Resolve a canonical name or alias.  Throws std::invalid_argument
  /// enumerating every valid spelling on an unknown token.
  [[nodiscard]] Protocol find(const std::string& name) const;

  /// Every registered protocol, in registration order (built-ins first).
  [[nodiscard]] std::vector<Protocol> all() const;

  /// The paper's evaluated trio (Fig 8-12 sweeps): registrations with
  /// paper_protocol set, in registration order.
  [[nodiscard]] std::vector<Protocol> paper() const;

 private:
  ProtocolRegistry();  ///< registers the built-in protocols

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The three protocols the paper evaluates (Fig 8-12 sweeps).
[[nodiscard]] std::vector<Protocol> paper_protocols();

/// Every registered protocol (paper trio, extensions, runtime additions).
[[nodiscard]] std::vector<Protocol> registered_protocols();

/// The protocol's canonical name.
[[nodiscard]] const char* to_string(Protocol protocol) noexcept;

/// Streams the canonical name, so printed handles (test names, failure
/// messages) read "caem-scheme1" rather than a process-specific address.
std::ostream& operator<<(std::ostream& os, Protocol protocol);

/// Resolve "leach", "scheme2", "direct", ... via the registry.  Throws
/// std::invalid_argument listing every registered name on a bad token.
[[nodiscard]] Protocol protocol_from_string(const std::string& name);

}  // namespace caem::core
