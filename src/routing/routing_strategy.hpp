// routing_strategy.hpp — pluggable uplink path selection.
//
// Every long-haul leg — a clusterless sensor's packet, or a cluster
// head's aggregate when the CH has an uplink of its own — is planned
// into a hop chain: zero or more relay CHs followed by the final leg to
// the sink.
// The network executes the chain, charging each leg at its true
// pairwise distance through the run's UplinkEnergyModel; the strategy
// only decides the path.
//
// Three strategies ship:
//   * DirectUplink     — one leg straight to the sink (the default
//                        everywhere).
//   * GreedyGeographic — next hop = the alive CH closest to the sink
//                        among those strictly closer than the current
//                        holder, taken when it saves energy (UtilCache's
//                        cost/benefit rule: relay only when
//                        tx(hop) + rx + tx(rest) < tx(direct)) or when
//                        the sink is out of radio range and the hop is
//                        the only way to make progress.
//   * ChRelayChain     — reachability-driven nearest-neighbor hopping:
//                        while the sink is out of range, hop to the
//                        nearest strictly-closer CH, at most max_hops
//                        legs, then uplink.
//
// A plan that cannot reach the sink (partitioned network) comes back
// `reachable == false`; the network books the packet as a
// DropReason::kUnreachable drop — never a hang, never a free delivery.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "channel/mobility.hpp"
#include "channel/spatial_grid.hpp"
#include "energy/uplink_energy_model.hpp"

namespace caem::routing {

/// Where the uplink terminates.  Geometric sinks sit at a point in the
/// field (routing.sink_x_m/sink_y_m) so distance varies per node;
/// the virtual sink is a fixed bs_distance_m from everyone, so no relay
/// can ever be "closer" and every strategy degenerates to direct.
struct SinkModel {
  bool geometric = false;
  channel::Vec2 position{0.0, 0.0};  ///< valid when geometric
  double fixed_distance_m = 120.0;   ///< virtual sink: every node this far out
  double range_m = 0.0;              ///< radio reach per leg; 0 = unlimited

  [[nodiscard]] double distance_from(channel::Vec2 p) const noexcept {
    return geometric ? channel::distance_m(p, position) : fixed_distance_m;
  }
  [[nodiscard]] bool leg_in_range(double distance_m) const noexcept {
    return range_m <= 0.0 || distance_m <= range_m;
  }
};

/// The alive cluster heads a planner may relay through, with a spatial
/// index over their positions.  The network rebuilds it at each round
/// boundary; mid-round deaths are caught through the node-indexed alive
/// array handed to plan_uplink.
struct RelaySet {
  std::vector<std::uint32_t> ids;        ///< node ids of the round's CHs
  std::vector<channel::Vec2> positions;  ///< aligned with ids
  std::unique_ptr<channel::SpatialGrid> grid;  ///< over positions; null when empty

  void rebuild(std::vector<std::uint32_t> new_ids, std::vector<channel::Vec2> new_positions);
  void clear();
  [[nodiscard]] bool empty() const noexcept { return ids.empty(); }
};

/// One planned uplink: the relay CHs to traverse, in order, before the
/// final leg to the sink.  `reachable == false` means no chain exists
/// within radio range — the packet must book as an unreachable drop.
struct UplinkPlan {
  std::vector<std::uint32_t> relays;
  bool reachable = true;
};

class RoutingStrategy {
 public:
  virtual ~RoutingStrategy() = default;

  /// Plan the hop chain for one uplink.  `source` is excluded from the
  /// relay candidates (a CH uplinking its own aggregate sits in the
  /// relay set itself); `alive` is the network's node-indexed liveness
  /// array, battery-exact at call time.  `model` prices the legs for
  /// cost/benefit decisions (per-bit basis).
  [[nodiscard]] virtual UplinkPlan plan_uplink(std::uint32_t source,
                                               channel::Vec2 source_pos,
                                               const RelaySet& relays,
                                               const std::vector<std::uint8_t>& alive,
                                               const SinkModel& sink,
                                               const energy::UplinkEnergyModel& model) const = 0;

  /// Short label for `caem protocols` and diagnostics.
  [[nodiscard]] virtual const char* name() const = 0;
};

/// One leg straight to the sink; unreachable when that leg is out of
/// radio range.  The default for every registered protocol.
class DirectUplink final : public RoutingStrategy {
 public:
  [[nodiscard]] UplinkPlan plan_uplink(std::uint32_t source, channel::Vec2 source_pos,
                                       const RelaySet& relays,
                                       const std::vector<std::uint8_t>& alive,
                                       const SinkModel& sink,
                                       const energy::UplinkEnergyModel& model) const override;
  [[nodiscard]] const char* name() const override { return "direct"; }
};

/// Greedy geographic forwarding with UtilCache's cost/benefit rule.
class GreedyGeographic final : public RoutingStrategy {
 public:
  [[nodiscard]] UplinkPlan plan_uplink(std::uint32_t source, channel::Vec2 source_pos,
                                       const RelaySet& relays,
                                       const std::vector<std::uint8_t>& alive,
                                       const SinkModel& sink,
                                       const energy::UplinkEnergyModel& model) const override;
  [[nodiscard]] const char* name() const override { return "greedy-geographic"; }
};

/// CH -> CH nearest-neighbor chains, at most `max_hops` relay legs.
class ChRelayChain final : public RoutingStrategy {
 public:
  explicit ChRelayChain(std::uint32_t max_hops) noexcept : max_hops_(max_hops) {}
  [[nodiscard]] UplinkPlan plan_uplink(std::uint32_t source, channel::Vec2 source_pos,
                                       const RelaySet& relays,
                                       const std::vector<std::uint8_t>& alive,
                                       const SinkModel& sink,
                                       const energy::UplinkEnergyModel& model) const override;
  [[nodiscard]] const char* name() const override { return "ch-relay-chain"; }

 private:
  std::uint32_t max_hops_;
};

/// Build the strategy the config's routing.kind names ("direct",
/// "greedy", "chain").  Throws std::invalid_argument on any other kind
/// so a typo can never silently run direct.
[[nodiscard]] std::unique_ptr<RoutingStrategy> make_routing_strategy(const std::string& kind,
                                                                     std::uint32_t max_hops);

}  // namespace caem::routing
