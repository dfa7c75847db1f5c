// layers.cpp — timing decorators for the leach and routing layers, and
// the replays that time the sim and channel layers in isolation.
#include <algorithm>

#include "bench.hpp"
#include "channel/link_manager.hpp"
#include "leach/clustering.hpp"
#include "routing/routing_strategy.hpp"
#include "sim/rng_registry.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace caembench {
namespace {

using caem::channel::Vec2;

std::mutex g_totals_mutex;
LayerTotals g_totals;

/// Capture of the traced network most recently built on this thread.
struct ThreadCapture {
  LeachCapture first_round;
  bool have_first_round = false;
};
thread_local ThreadCapture t_capture;

volatile double g_sink = 0.0;

class TracedClustering final : public caem::leach::ClusteringStrategy {
 public:
  explicit TracedClustering(std::unique_ptr<caem::leach::ClusteringStrategy> inner)
      : inner_(std::move(inner)) {
    t_capture = ThreadCapture{};
  }

  std::vector<caem::leach::Cluster> next_round(const std::vector<Vec2>& positions,
                                               const std::vector<bool>& alive,
                                               caem::util::Rng& rng) override {
    const ScopedSpan span("leach.next_round");
    const auto start = Clock::now();
    std::vector<caem::leach::Cluster> clusters = inner_->next_round(positions, alive, rng);
    const double ms = 1e3 * seconds_since(start);
    {
      const std::lock_guard<std::mutex> lock(g_totals_mutex);
      ++g_totals.rounds;
      g_totals.next_round_ms.push_back(ms);
    }
    if (!t_capture.have_first_round) {
      t_capture.have_first_round = true;
      t_capture.first_round.positions = positions;
      for (const caem::leach::Cluster& cluster : clusters) {
        for (const std::uint32_t member : cluster.members) {
          t_capture.first_round.pairs.emplace_back(member, cluster.head);
        }
      }
    }
    return clusters;
  }

  [[nodiscard]] std::uint32_t rounds_started() const noexcept override {
    return inner_->rounds_started();
  }

 private:
  std::unique_ptr<caem::leach::ClusteringStrategy> inner_;
};

class TracedRouting final : public caem::routing::RoutingStrategy {
 public:
  explicit TracedRouting(std::unique_ptr<caem::routing::RoutingStrategy> inner)
      : inner_(std::move(inner)) {}

  // One network runs on one thread, so the counters are plain members;
  // they fold into the shared totals when the network tears down.
  ~TracedRouting() override {
    const std::lock_guard<std::mutex> lock(g_totals_mutex);
    g_totals.plans += plans_;
    g_totals.plan_ns += plan_ns_;
    g_totals.relay_hops += relay_hops_;
    g_totals.unreachable += unreachable_;
  }
  TracedRouting(const TracedRouting&) = delete;
  TracedRouting& operator=(const TracedRouting&) = delete;

  [[nodiscard]] caem::routing::UplinkPlan plan_uplink(
      std::uint32_t source, Vec2 source_pos, const caem::routing::RelaySet& relays,
      const std::vector<std::uint8_t>& alive, const caem::routing::SinkModel& sink,
      const caem::energy::UplinkEnergyModel& model) const override {
    const auto start = Clock::now();
    caem::routing::UplinkPlan plan =
        inner_->plan_uplink(source, source_pos, relays, alive, sink, model);
    plan_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
    ++plans_;
    relay_hops_ += plan.relays.size();
    if (!plan.reachable) ++unreachable_;
    return plan;
  }

  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<caem::routing::RoutingStrategy> inner_;
  mutable std::uint64_t plans_ = 0;
  mutable std::uint64_t plan_ns_ = 0;
  mutable std::uint64_t relay_hops_ = 0;
  mutable std::uint64_t unreachable_ = 0;
};

}  // namespace

caem::core::Protocol traced_protocol(const std::string& base, bool routed) {
  static std::mutex mutex;
  static std::map<std::string, caem::core::Protocol> registered;
  const std::string name = "bench-" + base + (routed ? "-routed" : "");
  const std::lock_guard<std::mutex> lock(mutex);
  if (const auto it = registered.find(name); it != registered.end()) return it->second;

  caem::core::ProtocolSpec spec = caem::core::protocol_from_string(base).spec();
  spec.name = name;
  spec.aliases.clear();
  spec.paper_protocol = false;
  if (spec.clustering) {
    spec.clustering = [inner = spec.clustering](const caem::core::NetworkConfig& config)
        -> std::unique_ptr<caem::leach::ClusteringStrategy> {
      return std::make_unique<TracedClustering>(inner(config));
    };
  }
  if (routed) {
    spec.routing = [inner = spec.routing](const caem::core::NetworkConfig& config)
        -> std::unique_ptr<caem::routing::RoutingStrategy> {
      return std::make_unique<TracedRouting>(
          inner ? inner(config)
                : caem::routing::make_routing_strategy(config.routing.kind,
                                                       config.routing.max_hops));
    };
  }
  const caem::core::Protocol protocol = caem::core::ProtocolRegistry::instance().add(spec);
  registered.emplace(name, protocol);
  return protocol;
}

LayerTotals take_layer_totals() {
  const std::lock_guard<std::mutex> lock(g_totals_mutex);
  return std::exchange(g_totals, LayerTotals{});
}

LeachCapture last_leach_capture() { return t_capture.first_round; }

// ------------------------------------------------------------ replays

namespace {

/// ns per (step + schedule_in) with `pending` live events, each step
/// popping the earliest and scheduling one successor at an Exp(1) delay.
double queue_hold_ns_per_op(std::size_t pending, std::size_t ops, std::uint64_t seed) {
  struct Hold {
    explicit Hold(std::uint64_t rng_seed) : rng(rng_seed) {}
    caem::sim::Simulator sim;
    caem::util::Rng rng;
    void fire() {
      sim.schedule_in(rng.exponential_mean(1.0), [this](double) { fire(); });
    }
  };
  Hold hold(seed);
  for (std::size_t i = 0; i < std::max<std::size_t>(pending, 1); ++i) hold.fire();
  for (std::size_t i = 0; i < pending; ++i) hold.sim.step();  // reach steady state
  const auto start = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) hold.sim.step();
  return 1e9 * seconds_since(start) / static_cast<double>(ops);
}

struct SnrReplay {
  double miss_ns = 0.0;     ///< per full fading evaluation
  double hit_ns = 0.0;      ///< per coherence-window cache hit
  std::size_t pairs = 0;    ///< in-range member -> CH pairs replayed
  std::size_t links_live = 0;
  std::size_t queries = 0;  ///< timed queries per kind
};

SnrReplay snr_replay(const LeachCapture& capture, const caem::core::NetworkConfig& config,
                     std::uint64_t seed) {
  caem::sim::RngRegistry rng(seed);
  caem::channel::LinkManager links(config.channel, &rng);
  for (const Vec2& position : capture.positions) (void)links.add_static_node(position);
  const caem::channel::LinkBudget budget = config.link_budget();

  SnrReplay out;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (const auto& [a, b] : capture.pairs) {
    if (a != b && links.in_range(a, b, 0.0)) pairs.push_back({a, b});
  }
  out.pairs = pairs.size();
  if (pairs.empty()) return out;
  for (const auto& [a, b] : pairs) (void)links.link(a, b);  // materialise, untimed
  out.links_live = links.live_link_count();

  caem::channel::Link& probe = links.link(pairs[0].first, pairs[0].second);
  const double coherence = probe.fading().coherence_time_s();
  const double window = probe.fading_cache_window_s();
  const std::size_t rounds = std::max<std::size_t>(3, 200000 / pairs.size());
  out.queries = rounds * pairs.size();
  double sink = 0.0;  // consumed below so the queries cannot be optimised away

  // Misses: every query lands in a fresh coherence window.
  const auto miss_start = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    const double t = (2.0 * static_cast<double>(r) + 1.5) * coherence;
    for (const auto& [a, b] : pairs) sink += links.snr_db(a, b, t, budget);
  }
  out.miss_ns = 1e9 * seconds_since(miss_start) / static_cast<double>(out.queries);

  // Hits: a priming query opens the window, then check-interval-spaced
  // queries inside it are served from the cache.
  if (window > 0.0) {
    const double step = std::min(config.check_interval_s, 0.25 * window);
    double hit_seconds = 0.0;
    std::size_t hits = 0;
    for (std::size_t r = 0; hits < out.queries; ++r) {
      const double base = (2.0 * static_cast<double>(rounds + r) + 0.1) * window;
      for (const auto& [a, b] : pairs) sink += links.snr_db(a, b, base, budget);
      const auto start = Clock::now();
      for (int k = 1; k <= 3; ++k) {
        for (const auto& [a, b] : pairs) sink += links.snr_db(a, b, base + k * step, budget);
      }
      hit_seconds += seconds_since(start);
      hits += 3 * pairs.size();
    }
    out.hit_ns = 1e9 * hit_seconds / static_cast<double>(hits);
  }
  g_sink = sink;
  return out;
}

}  // namespace

void record_replays(std::uint64_t seed, const caem::core::NetworkConfig& config,
                    const LeachCapture& capture, std::size_t pending, Report& report) {
  if (pending > 0) {
    constexpr std::size_t kOps = 2000000;
    for (int rep = 0; rep < 3; ++rep) {
      report.sample("sim.queue_ns_per_op", queue_hold_ns_per_op(pending, kOps, seed + rep));
    }
    report.note("sim.queue_ns_per_op",
                "replay: hold model through Simulator::schedule_in/step, " +
                    std::to_string(pending) + " pending (the traced run's peak), " +
                    std::to_string(kOps) + " ops, Exp(1) increments, median of 3");
  }
  for (int rep = 0; rep < 3; ++rep) {
    const SnrReplay snr = snr_replay(capture, config, seed);
    report.sample("channel.snr_ns_miss", snr.miss_ns);
    report.sample("channel.snr_ns_hit", snr.hit_ns);
    if (rep == 0) {
      report.set("channel.links_live", static_cast<double>(snr.links_live));
      const std::string inputs =
          "replay: LinkManager::snr_db over " + std::to_string(snr.pairs) +
          " in-range member->CH pairs of the first LEACH round of " +
          std::to_string(capture.positions.size()) + " nodes, " +
          std::to_string(snr.queries) + " timed queries, median of 3";
      report.note("channel.snr_ns_miss", inputs + ", one coherence window apart");
      report.note("channel.snr_ns_hit", inputs + ", check-interval spaced inside one window");
      report.note("channel.links_live", "links the replay materialised (" + inputs + ")");
    }
  }
}

}  // namespace caembench
