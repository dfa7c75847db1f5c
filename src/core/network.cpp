#include "core/network.hpp"

#include <stdexcept>
#include <string>

namespace caem::core {

Network::Network(NetworkConfig config, Protocol protocol, std::uint64_t seed)
    : config_(std::move(config)),
      protocol_(protocol),
      rng_(seed),
      links_(config_.channel, &rng_),
      table_(),
      timing_(phy::FrameFormat{config_.packet_bits, config_.header_bits, config_.preamble_s},
              &table_),
      error_model_(&table_),
      metrics_(config_.node_count) {
  config_.validate();
  const ProtocolSpec& spec = protocol_.spec();
  if (spec.clustering) clustering_ = spec.clustering(config_);

  // Every long-haul leg runs through route_uplink.  A spec factory or a
  // routing.* knob picks the planner and the cost model; otherwise they
  // are DirectUplink and the config's first-order model toward the
  // virtual sink, bs_distance_m from every node.
  const bool routing_configured =
      spec.routing || spec.uplink_energy || !config_.routing.is_default();
  sink_.geometric = config_.routing.has_geometric_sink();
  sink_.position = channel::Vec2{config_.routing.sink_x_m, config_.routing.sink_y_m};
  sink_.fixed_distance_m = config_.bs_distance_m;
  // The paper's base station hears every node; the radio range limits
  // the sink leg only once routing is configured.
  sink_.range_m = routing_configured ? config_.channel.radio_range_m : 0.0;
  // In the paper the cluster head is the sink.  A CH has a long-haul leg
  // of its own only with forwarding switched on or routing configured.
  ch_uplink_ = routing_configured || config_.ch_forward_enabled;
  // When every CH is the sink no node ever uplinks, so the run allocates
  // nothing for it: its heap matches a network built without an uplink.
  if (ch_uplink_ || !clustering_) {
    routing_ = spec.routing ? spec.routing(config_)
                            : routing::make_routing_strategy(config_.routing.kind,
                                                             config_.routing.max_hops);
    uplink_energy_ = spec.uplink_energy
                         ? spec.uplink_energy(config_)
                         : std::make_unique<energy::FirstOrderUplinkModel>(
                               config_.fwd_e_elec_j_per_bit, config_.fwd_eps_amp_j_per_bit_m2,
                               config_.routing.relay_rx_j_per_bit, config_.aggregation_ratio);
  }

  // Place nodes uniformly in the square field and build them.  The hot
  // arrays are sized FIRST: nodes and queues hold raw pointers into
  // them, so the vectors must never reallocate afterwards.
  hot_.alive.assign(config_.node_count, 1);
  hot_.is_ch.assign(config_.node_count, 0);
  hot_.queue_depth.assign(config_.node_count, 0);
  hot_.position.assign(config_.node_count, channel::Vec2{0.0, 0.0});
  hot_.remaining_j.assign(config_.node_count, 0.0);
  util::Rng placement = rng_.make_stream("placement");
  nodes_.reserve(config_.node_count);
  sources_.reserve(config_.node_count);
  traffic_streams_.reserve(config_.node_count);
  current_ch_.assign(config_.node_count, kNoCh);
  active_clusters_.reserve(
      static_cast<std::size_t>(config_.ch_fraction * static_cast<double>(config_.node_count)) +
      1);
  leach_stream_ = rng_.handle("leach");
  for (std::uint32_t id = 0; id < config_.node_count; ++id) {
    const channel::Vec2 position{placement.uniform(0.0, config_.field_size_m),
                                 placement.uniform(0.0, config_.field_size_m)};
    channel::NodeId channel_id = 0;
    if (config_.mobility_kind == "waypoint") {
      // The paper's "low mobility" regime: random waypoint below 1 m/s.
      channel_id = links_.add_node(std::make_unique<channel::RandomWaypoint>(
          channel::Vec2{0.0, 0.0},
          channel::Vec2{config_.field_size_m, config_.field_size_m},
          0.1 * config_.mobility_max_speed_mps, config_.mobility_max_speed_mps,
          config_.mobility_pause_s, rng_.make_stream("mobility/" + std::to_string(id))));
    } else {
      channel_id = links_.add_static_node(position);
    }
    if (channel_id != id) throw std::logic_error("Network: node id mismatch");

    auto csi = [this, id](double t) { return link_snr_db(id, t); };
    auto node = std::make_unique<Node>(
        id, position, config_, spec, &sim_, &table_, &timing_, &error_model_,
        tone::ToneMonitor::CsiProvider(csi), mac::SensorMac::TrueSnrProvider(csi),
        rng_.make_stream("mac/" + std::to_string(id)),
        rng_.make_stream("csi/" + std::to_string(id)));

    node->queue().set_overflow_callback(
        [this](const queueing::Packet& packet, double now) {
          metrics_.record_drop(packet, queueing::DropReason::kBufferOverflow, now);
        });
    node->mac().set_drop_callback(
        [this](const queueing::Packet& packet, queueing::DropReason reason, double now) {
          metrics_.record_drop(packet, reason, now);
        });
    // Death is deferred one event so the MAC never observes its own state
    // being torn down mid-callback.  The hot alive flag flips NOW,
    // synchronously with battery depletion, so it tracks !depleted()
    // exactly — begin_round relies on battery-exact liveness because the
    // deferred death event can still be queued behind it.
    node->battery().set_death_callback([this, id](double t) {
      hot_.alive[id] = 0;
      sim_.schedule_at(t, [this, id](double now) { handle_node_death(id, now); });
    });
    node->bind_ch_mirror(&hot_.is_ch[id]);
    node->queue().set_depth_mirror(&hot_.queue_depth[id]);
    hot_.position[id] = position;
    hot_.remaining_j[id] = node->battery().remaining_j();

    nodes_.push_back(std::move(node));
    sources_.push_back(traffic::make_source(config_.traffic_kind, config_.traffic_rate_pps));
    traffic_streams_.push_back(rng_.handle("traffic/" + std::to_string(id)));
  }
}

Network::~Network() = default;

double Network::link_snr_db(std::uint32_t id, double time_s) {
  // Per-tone-check path: ids are dense by construction, skip the bounds
  // re-check of at().
  const std::uint32_t ch = current_ch_[id];
  if (ch == kNoCh || ch == id) return -1e9;  // no link this round
  return links_.snr_db(id, ch, time_s, config_.link_budget());
}

std::vector<bool> Network::alive_flags() const {
  // Walk the contiguous hot array, not one heap Node per element.
  std::vector<bool> alive(hot_.alive.size());
  for (std::size_t i = 0; i < hot_.alive.size(); ++i) alive[i] = hot_.alive[i] != 0;
  return alive;
}

const std::vector<channel::Vec2>& Network::positions(double time_s) {
  if (config_.mobility_kind == "waypoint") {
    for (std::size_t i = 0; i < hot_.position.size(); ++i) {
      hot_.position[i] = links_.mobility(static_cast<channel::NodeId>(i)).position_at(time_s);
    }
  }
  // Static layouts were cached at construction — nothing to refresh.
  return hot_.position;
}

void Network::start() {
  if (started_) throw std::logic_error("Network: start() called twice");
  started_ = true;
  for (std::uint32_t id = 0; id < nodes_.size(); ++id) schedule_arrival(id);
  // Clusterless protocols have no round structure: arrivals uplink
  // directly (handle_arrival) and nothing else needs scheduling.
  if (clustering_) sim_.schedule_at(0.0, [this](double now) { begin_round(now); });
  schedule_energy_snapshot();
  schedule_queue_snapshot();
}

// ------------------------------------------------------------------ rounds

void Network::close_round(double now_s) {
  // Detach sensors first so ClusterHeadMac::stop finds no active senders.
  // The hot alive array gates the walk — dead nodes cost one contiguous
  // byte load, not a pointer chase.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (hot_.alive[i]) nodes_[i]->mac().detach_round(now_s);
  }
  for (auto& cluster : active_clusters_) {
    cluster.mac->stop(now_s);
    collisions_total_ += cluster.mac->collisions();
    for (std::uint64_t c = 0; c < cluster.mac->collisions(); ++c) metrics_.record_collision();
  }
  active_clusters_.clear();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (hot_.is_ch[i]) nodes_[i]->set_cluster_head(false);
  }
  current_ch_.assign(nodes_.size(), kNoCh);
}

void Network::begin_round(double now_s) {
  close_round(now_s);
  // The hot alive flags are battery-exact: a node can be depleted while
  // its deferred death event is still in the queue behind this one.
  const std::vector<bool> alive = alive_flags();
  if (!leach::any_alive(alive)) {
    sim_.stop();
    return;
  }

  util::Rng& leach_rng = rng_.stream(leach_stream_);
  const auto clusters = clustering_->next_round(positions(now_s), alive, leach_rng);

  for (const auto& cluster : clusters) {
    Node& head = *nodes_.at(cluster.head);
    head.set_cluster_head(true);
    current_ch_[cluster.head] = cluster.head;
    // Packets the head queued as an ordinary sensor are aggregated
    // locally now that it is the sink itself.
    head.queue().drain([this, now_s](const queueing::Packet& packet) {
      metrics_.record_self_delivered(packet, now_s);
    });

    ActiveCluster active;
    active.head = cluster.head;
    active.members = cluster.members;
    active.broadcaster = std::make_unique<tone::ToneBroadcaster>(&sim_, &head.tone_radio());
    active.mac = std::make_unique<mac::ClusterHeadMac>(
        &sim_, cluster.head, &head.data_radio(), active.broadcaster.get(),
        config_.detect_delay_s);
    const std::uint32_t head_id = cluster.head;
    active.mac->set_delivery_callback(
        [this, head_id](const queueing::Packet& packet, phy::ModeIndex mode,
                        std::uint32_t /*sender*/, double now) {
          // A CH without an uplink is the sink: arrival is delivery.
          // Otherwise the aggregate still has to reach the sink, and
          // route_uplink books it delivered or dropped, never both.
          if (!ch_uplink_) {
            metrics_.record_delivered(packet, mode, now);
            return;
          }
          route_uplink(head_id, packet, uplink_energy_->aggregated_bits(packet.payload_bits),
                       mode, now);
        });
    active.mac->start(now_s);

    for (const std::uint32_t member : cluster.members) {
      current_ch_[member] = cluster.head;
      Node& node = *nodes_.at(member);
      node.monitor().attach(active.broadcaster.get());
      node.mac().attach_round(now_s, active.mac.get());
    }
    active_clusters_.push_back(std::move(active));
  }

  // Relays are consulted only by uplinks that leave a CH.  When the CH
  // is the sink, building them would be per-round allocation churn that
  // nothing reads.
  if (ch_uplink_) rebuild_relays(clusters);

  sim_.schedule_at(now_s + config_.round_duration_s,
                   [this](double now) { begin_round(now); });
}

// ----------------------------------------------------------------- traffic

void Network::schedule_arrival(std::uint32_t id) {
  util::Rng& rng = rng_.stream(traffic_streams_[id]);
  const double dt = sources_[id]->next_interarrival_s(rng);
  sim_.schedule_in(dt, [this, id](double now) { handle_arrival(id, now); });
}

void Network::handle_arrival(std::uint32_t id, double now_s) {
  if (!hot_.alive[id]) return;  // dead nodes stop sensing; no reschedule
  Node& node = *nodes_.at(id);
  queueing::Packet packet;
  packet.id = next_packet_id_++;
  packet.source = id;
  packet.created_s = now_s;
  packet.payload_bits = config_.packet_bits;
  metrics_.record_generated(id, now_s);

  if (!clustering_) {
    // Clusterless protocol: the sensor uplinks its raw observation
    // straight to the sink.  delivered_per_mode books it under the most
    // robust class (mode 0, the long-haul link).
    route_uplink(id, packet, packet.payload_bits, 0, now_s);
  } else if (node.is_cluster_head()) {
    // The CH aggregates its own observation locally: no radio involved.
    metrics_.record_self_delivered(packet, now_s);
  } else {
    node.queue().push(packet, now_s);  // overflow callback handles drops
    node.controller().on_arrival(node.queue().size());
    node.mac().on_packet_arrival(now_s);
  }
  schedule_arrival(id);
}

// ------------------------------------------------------------------ uplink

void Network::rebuild_relays(const std::vector<leach::Cluster>& clusters) {
  // The round's CHs are the relay candidates; positions come from the
  // hot mirror begin_round just refreshed.  Mid-round deaths are caught
  // at plan/execute time through the battery-exact hot alive array.
  std::vector<std::uint32_t> ids;
  std::vector<channel::Vec2> positions;
  ids.reserve(clusters.size());
  positions.reserve(clusters.size());
  for (const auto& cluster : clusters) {
    ids.push_back(cluster.head);
    positions.push_back(hot_.position[cluster.head]);
  }
  relays_.rebuild(std::move(ids), std::move(positions));
}

bool Network::spend_tx(std::uint32_t id, double bits, double distance_m, double now_s) {
  Node& node = *nodes_.at(id);
  const double cost_j = uplink_energy_->tx_cost_j(bits, distance_m);
  const bool funded = node.battery().remaining_j() >= cost_j;
  const double drawn = node.battery().drain(cost_j, now_s);
  node.ledger().add(energy::RadioId::kData, energy::RadioState::kTx, drawn);
  return funded;
}

bool Network::spend_rx(std::uint32_t id, double bits, double now_s) {
  Node& node = *nodes_.at(id);
  const double cost_j = uplink_energy_->rx_cost_j(bits);
  const bool funded = node.battery().remaining_j() >= cost_j;
  const double drawn = node.battery().drain(cost_j, now_s);
  node.ledger().add(energy::RadioId::kData, energy::RadioState::kRx, drawn);
  return funded;
}

// Execute one uplink: plan the hop chain, then walk it leg by leg
// charging true pairwise distances through the uplink energy model.
// The legs are contention-free (every sender owns its slot toward the
// sink).  Contract: a packet is delivered iff EVERY leg was fully
// funded — an underfunded transmit or relay receive kills that node
// (drain clamps and fires the death callback) and the packet books as a
// kNodeDeath drop, lost in flight.  A relay found dead before its leg
// re-plans from the current holder; when no chain can reach the sink
// the packet books as kUnreachable.  Never both, and never a free
// delivery.
void Network::route_uplink(std::uint32_t origin, const queueing::Packet& packet, double bits,
                           phy::ModeIndex mode, double now_s) {
  if (!hot_.alive[origin]) {
    metrics_.record_drop(packet, queueing::DropReason::kNodeDeath, now_s);
    return;
  }
  std::uint32_t cur = origin;
  channel::Vec2 cur_pos = hot_.position[origin];
  routing::UplinkPlan plan =
      routing_->plan_uplink(origin, cur_pos, relays_, hot_.alive, sink_, *uplink_energy_);
  if (!plan.reachable) {
    metrics_.record_drop(packet, queueing::DropReason::kUnreachable, now_s);
    return;
  }
  std::size_t leg = 0;
  std::size_t replans = 0;
  while (leg < plan.relays.size()) {
    const std::uint32_t relay = plan.relays[leg];
    if (!hot_.alive[relay]) {
      // Stale plan: this relay died since planning.  Re-plan from the
      // current holder; the alive array now excludes it.  Each re-plan
      // strictly shrinks the candidate set, so the guard can't trip on
      // a live run — it only backstops a misbehaving custom strategy.
      if (++replans > nodes_.size()) {
        metrics_.record_drop(packet, queueing::DropReason::kUnreachable, now_s);
        return;
      }
      plan = routing_->plan_uplink(cur, cur_pos, relays_, hot_.alive, sink_, *uplink_energy_);
      if (!plan.reachable) {
        metrics_.record_drop(packet, queueing::DropReason::kUnreachable, now_s);
        return;
      }
      leg = 0;
      continue;
    }
    const channel::Vec2 relay_pos = hot_.position[relay];
    const double hop_m = channel::distance_m(cur_pos, relay_pos);
    if (!spend_tx(cur, bits, hop_m, now_s) || !spend_rx(relay, bits, now_s)) {
      metrics_.record_drop(packet, queueing::DropReason::kNodeDeath, now_s);
      return;
    }
    ++relay_hops_total_;
    cur = relay;
    cur_pos = relay_pos;
    ++leg;
  }
  if (!spend_tx(cur, bits, sink_.distance_from(cur_pos), now_s)) {
    metrics_.record_drop(packet, queueing::DropReason::kNodeDeath, now_s);
    return;
  }
  metrics_.record_delivered(packet, mode, now_s);
}

// ------------------------------------------------------------------ deaths

void Network::handle_node_death(std::uint32_t id, double now_s) {
  metrics_.record_node_death(id, now_s);
  Node& node = *nodes_.at(id);
  node.mac().die(now_s);
  if (node.is_cluster_head()) {
    // Fig 4: a collapsed CH goes silent; members notice the missing tone
    // at their next check and sleep until the next round.
    for (auto& cluster : active_clusters_) {
      if (cluster.head == id && cluster.mac->running()) {
        cluster.mac->stop(now_s);
      }
    }
  }
  if (metrics_.alive_count() == 0) sim_.stop();
}

// --------------------------------------------------------------- snapshots

void Network::schedule_energy_snapshot() {
  sim_.schedule_in(config_.energy_snapshot_interval_s, [this](double now) {
    if (metrics_.alive_count() == 0) return;
    metrics_.snapshot_energy(now, remaining_energy_j());
    schedule_energy_snapshot();
  });
}

void Network::schedule_queue_snapshot() {
  sim_.schedule_in(config_.queue_snapshot_interval_s, [this](double /*now*/) {
    if (metrics_.alive_count() == 0) return;
    // Pure SoA walk: alive, CH flag and depth all come from the three
    // contiguous hot arrays — no Node is dereferenced.
    std::vector<double> lengths;
    lengths.reserve(hot_.alive.size());
    for (std::size_t i = 0; i < hot_.alive.size(); ++i) {
      if (hot_.alive[i] && !hot_.is_ch[i]) {
        lengths.push_back(static_cast<double>(hot_.queue_depth[i]));
      }
    }
    metrics_.snapshot_queues(lengths);
    schedule_queue_snapshot();
  });
}

std::vector<double> Network::remaining_energy_j() const {
  // settle() so time-in-state up to "now" is integrated exactly; the
  // result is also kept in the hot mirror for cache-linear readers.
  const double now = sim_.now();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->settle(now);
    hot_.remaining_j[i] = nodes_[i]->battery().remaining_j();
  }
  return hot_.remaining_j;
}

double Network::total_consumed_j() const noexcept {
  double total = 0.0;
  for (const auto& node : nodes_) total += node->battery().consumed_j();
  return total;
}

mac::SensorMacCounters Network::mac_totals() const {
  mac::SensorMacCounters total;
  for (const auto& node : nodes_) {
    const auto& c = node->mac().counters();
    total.wakeups += c.wakeups;
    total.checks += c.checks;
    total.csi_denied += c.csi_denied;
    total.busy_denied += c.busy_denied;
    total.bursts_started += c.bursts_started;
    total.bursts_completed += c.bursts_completed;
    total.frames_sent += c.frames_sent;
    total.frames_failed += c.frames_failed;
    total.collisions += c.collisions;
    total.packets_dropped_retry += c.packets_dropped_retry;
    total.deadline_overrides += c.deadline_overrides;
  }
  return total;
}

Network::ControllerTotals Network::controller_totals() const {
  ControllerTotals totals;
  for (const auto& node : nodes_) {
    totals.lower_events += node->controller().lower_events();
    totals.raise_events += node->controller().raise_events();
  }
  return totals;
}

void Network::finalize() {
  if (finalized_) return;
  finalized_ = true;
  const double now = sim_.now();
  close_round(now);
  for (const auto& node : nodes_) node->settle(now);
}

}  // namespace caem::core
