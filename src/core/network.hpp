// network.hpp — the whole simulated sensor network for one run.
//
// Owns the simulator, channel, PHY tables, LEACH round sequencing, the
// nodes, and the per-round cluster MAC objects, and wires every callback
// (traffic arrivals, deliveries, drops, deaths, snapshots) into the
// MetricsCollector.  One Network == one independent, reproducible run;
// parallelism happens across Network instances (the scenario engine).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/link_manager.hpp"
#include "core/config.hpp"
#include "core/node.hpp"
#include "core/protocol.hpp"
#include "energy/uplink_energy_model.hpp"
#include "leach/clustering.hpp"
#include "mac/cluster_head_mac.hpp"
#include "metrics/collector.hpp"
#include "phy/abicm.hpp"
#include "phy/error_model.hpp"
#include "phy/frame.hpp"
#include "routing/routing_strategy.hpp"
#include "sim/rng_registry.hpp"
#include "sim/simulator.hpp"
#include "tone/tone_broadcaster.hpp"
#include "traffic/source.hpp"

namespace caem::core {

/// Per-node hot state mirrored into structure-of-arrays form: the fields
/// the round/census/snapshot paths touch for EVERY node, packed
/// contiguously so those walks are cache-linear at 10k-100k nodes
/// instead of chasing one heap-allocated Node per element.  Nodes (and
/// their queues) update their slots on state transitions through bound
/// mirror pointers; the per-node objects remain the source of truth for
/// everything else.
struct NodeHotState {
  std::vector<std::uint8_t> alive;        ///< battery-exact (death callback)
  std::vector<std::uint8_t> is_ch;        ///< CH flag for the current round
  std::vector<std::uint32_t> queue_depth; ///< transmit-buffer occupancy
  std::vector<channel::Vec2> position;    ///< cached for static mobility
  std::vector<double> remaining_j;        ///< refreshed by energy snapshots
};

class Network {
 public:
  Network(NetworkConfig config, Protocol protocol, std::uint64_t seed);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Schedule the initial round, traffic and snapshot events.  Call once
  /// before running the simulator.
  void start();

  /// Settle energy accounting, close the current round and fold the
  /// remaining per-round counters into the totals.  Call after the last
  /// run_until.
  void finalize();

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] metrics::MetricsCollector& metrics() noexcept { return metrics_; }
  [[nodiscard]] const metrics::MetricsCollector& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }
  [[nodiscard]] Protocol protocol() const noexcept { return protocol_; }

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] Node& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] const Node& node(std::size_t i) const { return *nodes_.at(i); }
  [[nodiscard]] std::size_t alive_count() const noexcept { return metrics_.alive_count(); }

  /// Rounds the clustering strategy has begun (0 for clusterless
  /// protocols, which have no round structure at all).
  [[nodiscard]] std::uint32_t rounds_started() const noexcept {
    return clustering_ ? clustering_->rounds_started() : 0;
  }

  /// Collision total across all rounds so far (current round included
  /// only after finalize()).
  [[nodiscard]] std::uint64_t collisions_total() const noexcept { return collisions_total_; }

  /// Relay legs executed on uplinks (always 0 under DirectUplink).
  [[nodiscard]] std::uint64_t relay_hops_total() const noexcept { return relay_hops_total_; }

  /// Sum of all nodes' MAC counters (diagnostics, ablation benches).
  [[nodiscard]] mac::SensorMacCounters mac_totals() const;

  /// Aggregate threshold-controller activity (Scheme 1 diagnostics).
  struct ControllerTotals {
    std::uint64_t lower_events = 0;
    std::uint64_t raise_events = 0;
  };
  [[nodiscard]] ControllerTotals controller_totals() const;

  /// Total energy consumed by all nodes so far (finalize()/snapshot first
  /// for exact state integration).
  [[nodiscard]] double total_consumed_j() const noexcept;

  /// Remaining energy per node (J).
  [[nodiscard]] std::vector<double> remaining_energy_j() const;

  /// The SoA hot-state mirror (alive, CH flag, queue depth, position,
  /// residual energy).  alive/is_ch/queue_depth are live; remaining_j is
  /// refreshed by remaining_energy_j(), position by positions().
  [[nodiscard]] const NodeHotState& hot_state() const noexcept { return hot_; }

 private:
  struct ActiveCluster {
    std::uint32_t head = 0;
    std::vector<std::uint32_t> members;
    std::unique_ptr<tone::ToneBroadcaster> broadcaster;
    std::unique_ptr<mac::ClusterHeadMac> mac;
  };

  void begin_round(double now_s);
  void close_round(double now_s);
  void schedule_arrival(std::uint32_t id);
  void handle_arrival(std::uint32_t id, double now_s);
  void handle_node_death(std::uint32_t id, double now_s);
  /// The one uplink executor: plan the hop chain from `origin` and
  /// execute it leg by leg (per-hop energy/death booking; see
  /// network.cpp).
  void route_uplink(std::uint32_t origin, const queueing::Packet& packet, double bits,
                    phy::ModeIndex mode, double now_s);
  /// Charge one transmit/receive leg against a node.  Returns whether
  /// the node could fully fund it (an underfunded leg still drains the
  /// remainder and kills the node — the packet is lost in flight).
  bool spend_tx(std::uint32_t id, double bits, double distance_m, double now_s);
  bool spend_rx(std::uint32_t id, double bits, double now_s);
  /// Rebuild the relay set (alive CHs + spatial index) for a new round.
  void rebuild_relays(const std::vector<leach::Cluster>& clusters);
  void schedule_energy_snapshot();
  void schedule_queue_snapshot();
  [[nodiscard]] double link_snr_db(std::uint32_t id, double time_s);
  [[nodiscard]] std::vector<bool> alive_flags() const;
  /// Node positions at a given time (mobility-aware; used for cluster
  /// formation at round boundaries).  Static layouts are cached once at
  /// construction; waypoint mobility refreshes the hot buffer in place.
  [[nodiscard]] const std::vector<channel::Vec2>& positions(double time_s);

  static constexpr std::uint32_t kNoCh = 0xFFFFFFFFu;

  NetworkConfig config_;
  Protocol protocol_;
  sim::Simulator sim_;
  sim::RngRegistry rng_;
  channel::LinkManager links_;
  phy::AbicmTable table_;
  phy::FrameTiming timing_;
  phy::PacketErrorModel error_model_;
  metrics::MetricsCollector metrics_;
  /// Built from the protocol spec's clustering factory; null for
  /// clusterless protocols (direct uplink — no rounds, no CHs).
  std::unique_ptr<leach::ClusteringStrategy> clustering_;
  /// Uplink machinery (DirectUplink, the config's first-order model and
  /// the virtual sink unless the protocol spec or a routing.* knob says
  /// otherwise).  The planner and cost model are built for every run in
  /// which some node uplinks — clusterless protocols and CHs with an
  /// uplink — and are null when every CH is the sink; relays_ is filled
  /// only for CHs with an uplink.
  std::unique_ptr<routing::RoutingStrategy> routing_;
  std::unique_ptr<energy::UplinkEnergyModel> uplink_energy_;
  routing::SinkModel sink_;
  routing::RelaySet relays_;
  /// Whether a CH forwards what it receives over a long-haul leg; false
  /// = the CH is the sink (the paper's case).
  bool ch_uplink_ = false;

  std::vector<std::unique_ptr<Node>> nodes_;
  // Sized before node construction and never resized, so the mirror
  // pointers handed to nodes/queues stay valid for the network's
  // lifetime.  Mutable: const metric reads refresh the energy mirror,
  // mirroring the settle() convention above.
  mutable NodeHotState hot_;
  std::vector<std::unique_ptr<traffic::TrafficSource>> sources_;
  std::vector<std::uint32_t> current_ch_;
  std::vector<ActiveCluster> active_clusters_;

  // Pre-resolved RNG stream handles: the per-packet path indexes a plain
  // vector instead of building "traffic/<id>" strings for map lookups.
  std::vector<sim::StreamHandle> traffic_streams_;
  sim::StreamHandle leach_stream_ = 0;

  std::uint64_t next_packet_id_ = 1;
  std::uint64_t collisions_total_ = 0;
  std::uint64_t relay_hops_total_ = 0;
  bool started_ = false;
  bool finalized_ = false;
};

}  // namespace caem::core
