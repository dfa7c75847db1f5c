// sim_workload.cpp — the two simulator workloads.
//
//   fig9_extinction  the paper's Table II network (100 nodes, 100 m
//                    field, 5 pps Poisson) run to extinction under
//                    pure-leach, caem-scheme1 and caem-scheme2, one after
//                    another on one thread: per-event MAC/tone/channel/
//                    energy work on a small, cache-resident state.
//   city_10k         10k nodes at the paper's density (1 km field), 150 m
//                    radio range, caem-scheme1, 1 pps, 40 s: the pending
//                    set, link table and cluster formation outgrow the
//                    caches.
//
// The timed run drives core::SimulationRunner exactly as the figure
// benches do.  The traced run rebuilds the same loop from Network's
// public calls so each LEACH round, set-up and finalize can be timed,
// and checks its simulated totals against an untraced run.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/run_result_io.hpp"

namespace caembench {
namespace {

using caem::core::Network;
using caem::core::NetworkConfig;
using caem::core::Protocol;
using caem::core::RunOptions;
using caem::core::RunResult;

struct SimWorkload {
  NetworkConfig config;
  std::vector<std::string> protocols;
  RunOptions options;
  /// Set-up samples taken before each timed iteration, so they spread
  /// over the run like the iterations do (host speed drifts).
  std::size_t setups_per_iteration = 0;
};

SimWorkload make_workload(const std::string& name) {
  SimWorkload w;
  if (name == "fig9_extinction") {
    w.protocols = {"pure-leach", "caem-scheme1", "caem-scheme2"};
    w.options.max_sim_s = 4000.0;
    w.options.run_to_death = true;
    w.setups_per_iteration = 5;
  } else if (name == "city_10k") {
    w.config.node_count = 10000;
    w.config.field_size_m = 1000.0;
    w.config.traffic_rate_pps = 1.0;
    w.config.channel.radio_range_m = 150.0;
    w.protocols = {"caem-scheme1"};
    w.options.max_sim_s = 40.0;
    w.setups_per_iteration = 2;
  } else {
    throw std::invalid_argument("unknown simulator workload '" + name + "'");
  }
  w.config.validate();
  return w;
}

/// Conservation at any seed; byte identity where a fingerprint was
/// recorded for this (workload, protocol, seed).  A run at the default
/// seed must have one: its absence fails the check.
void check_result(const Args& args, const Fingerprints& fingerprints, const RunResult& result,
                  const NetworkConfig& config, Report& report) {
  const std::string label =
      args.workload + " " + result.protocol.name() + " seed " + std::to_string(result.seed);
  const std::string conservation = conservation_error(result, config);
  const std::string fingerprint = fnv1a_hex(caem::core::to_json(result));
  if (args.record_fingerprints) {
    std::cerr << "fingerprint " << args.workload << ' ' << result.protocol.name() << ' '
              << result.seed << ' ' << fingerprint << '\n';
  }
  const std::string expected =
      fingerprints.find(args.workload, result.protocol.name(), result.seed);
  const bool identical = expected.empty() ? result.seed != kDefaultSeed : expected == fingerprint;
  report.check(conservation.empty() && identical,
               label + (conservation.empty() ? "" : ": " + conservation) +
                   (identical ? ""
                    : expected.empty() ? ": no RunResult fingerprint recorded"
                                       : ": RunResult fingerprint " + fingerprint +
                                             " != recorded " + expected));
}

// ------------------------------------------------------------ timed run

void timed_run(const Args& args, const SimWorkload& w, Report& report) {
  std::vector<Protocol> protocols;
  for (const std::string& name : w.protocols) {
    protocols.push_back(caem::core::protocol_from_string(name));
  }

  // Set-up: Network construction + start() for every protocol of the
  // workload; run.py reports the median.
  const auto setup = [&] {
    double seconds = 0.0;
    for (const Protocol protocol : protocols) {
      const auto start = Clock::now();
      Network network(w.config, protocol, args.seed);
      network.start();
      seconds += seconds_since(start);
    }
    report.sample("setup_s", seconds);
  };

  const Fingerprints fingerprints(args.fingerprints_path);
  const auto begin = Clock::now();
  for (std::uint64_t i = 0; i == 0 || seconds_since(begin) < args.seconds; ++i) {
    for (std::size_t k = 0; k < w.setups_per_iteration; ++k) setup();
    double wall = 0.0;
    for (const Protocol protocol : protocols) {
      const auto start = Clock::now();
      const RunResult result =
          caem::core::SimulationRunner::run(w.config, protocol, args.seed + i, w.options);
      wall += seconds_since(start);
      check_result(args, fingerprints, result, w.config, report);
    }
    report.sample("wall_s", wall);
  }
  report.set("peak_rss_mb", peak_rss_mb());
}

// ----------------------------------------------------------- traced run

struct TracedRun {
  SimCounts counts;
  caem::sim::KernelCounters kernel;
  std::size_t pending_peak = 0;
  double wall_s = 0.0;
};

/// SimulationRunner's loop, rebuilt from Network's public calls with a
/// span per phase and per LEACH round.  The pending set is sampled every
/// simulated second; a stop request (extinction) ends the round exactly
/// where a single run_until would have ended.
TracedRun traced_network_run(const SimWorkload& w, Protocol protocol, std::uint64_t seed,
                             Report& report) {
  TracedRun out;
  const auto run_start = Clock::now();
  const ScopedSpan run_span(std::string("core.run:") + protocol.name(), ScopedSpan::new_group());
  std::optional<Network> network;
  {
    const ScopedSpan span("core.setup");
    const auto start = Clock::now();
    network.emplace(w.config, protocol, seed);
    network->start();
    report.sample("core.setup_ms", 1e3 * seconds_since(start));
  }
  caem::sim::Simulator& sim = network->simulator();
  const auto advance = [&](double until) {
    for (double t = std::floor(sim.now()) + 1.0; t < until; t += 1.0) {
      sim.run_until(t);
      out.pending_peak = std::max(out.pending_peak, sim.pending_events());
      if (sim.stop_requested()) return;
    }
    sim.run_until(until);
    out.pending_peak = std::max(out.pending_peak, sim.pending_events());
  };
  bool first = true;
  const auto chunk = [&](double until) {
    const ScopedSpan span("core.chunk");
    const auto start = Clock::now();
    advance(until);
    report.sample(first ? "core.chunk_first_ms" : "core.chunk_p50_ms", 1e3 * seconds_since(start));
    first = false;
  };
  if (w.options.run_to_death) {
    const double round = std::max(w.config.round_duration_s, 1.0);
    while (network->alive_count() > 0 && sim.now() < w.options.max_sim_s) {
      chunk(std::min(sim.now() + round, w.options.max_sim_s));
    }
  } else {
    // One run_until(horizon) in the untraced run; split at the round
    // boundaries here (identical event order) to time each round.
    const double round = w.config.round_duration_s;
    for (double t = round; t < w.options.max_sim_s && !sim.stop_requested(); t += round) {
      chunk(t);
    }
    if (!sim.stop_requested()) chunk(w.options.max_sim_s);
  }
  {
    const ScopedSpan span("core.finalize");
    const auto start = Clock::now();
    network->finalize();
    report.sample("core.finalize_ms", 1e3 * seconds_since(start));
  }
  const auto& m = network->metrics();
  out.counts.events = sim.executed_events();
  out.counts.generated = m.generated();
  out.counts.delivered = m.delivered() + m.self_delivered();
  for (const auto reason :
       {caem::queueing::DropReason::kBufferOverflow, caem::queueing::DropReason::kRetryExhausted,
        caem::queueing::DropReason::kNodeDeath, caem::queueing::DropReason::kUnreachable}) {
    out.counts.dropped += m.dropped(reason);
  }
  out.counts.consumed_j = network->total_consumed_j();
  out.counts.mac = network->mac_totals();
  out.kernel = sim.kernel_counters();
  network.reset();
  out.wall_s = seconds_since(run_start);
  return out;
}

void traced_run(const Args& args, const SimWorkload& w, Report& report) {
  Tracer& tracer = Tracer::instance();
  const Fingerprints fingerprints(args.fingerprints_path);

  // One traced pass over the workload's protocols, at the run's seed.
  LeachCapture capture;
  const auto traced_pass = [&](bool first) {
    std::vector<TracedRun> runs;
    for (const std::string& name : w.protocols) {
      runs.push_back(traced_network_run(w, traced_protocol(name, false), args.seed, report));
      report.sample("core.run_s." + name, runs.back().wall_s);
      if (first && name == "caem-scheme1") capture = last_leach_capture();
    }
    return runs;
  };

  // The same protocols through SimulationRunner, tracing off, at the same seed.
  std::vector<double> untraced_wall_s;
  const auto untraced_pass = [&] {
    tracer.set_enabled(false);
    std::vector<RunResult> results;
    double wall = 0.0;
    for (const std::string& name : w.protocols) {
      const auto start = Clock::now();
      results.push_back(caem::core::SimulationRunner::run(
          w.config, caem::core::protocol_from_string(name), args.seed, w.options));
      wall += seconds_since(start);
      check_result(args, fingerprints, results.back(), w.config, report);
    }
    untraced_wall_s.push_back(wall);
    tracer.set_enabled(true);
    return results;
  };

  // The first pass also warms the process up for the untraced reference.
  tracer.set_enabled(true);
  const std::vector<TracedRun> first = traced_pass(true);
  const LayerTotals first_totals = take_layer_totals();
  const std::vector<RunResult> reference = untraced_pass();

  const auto check_pass = [&](const std::vector<TracedRun>& runs) {
    double wall = 0.0;
    for (std::size_t p = 0; p < runs.size(); ++p) {
      wall += runs[p].wall_s;
      report.check(runs[p].counts == counts_of(reference[p]),
                   "traced " + w.protocols[p] + " run differs from the untraced run");
    }
    return wall;
  };
  (void)check_pass(first);
  const auto begin = Clock::now();
  for (int pass = 0; pass < 2 || seconds_since(begin) < args.seconds; ++pass) {
    report.sample("wall_s", check_pass(traced_pass(false)));
    (void)untraced_pass();  // interleaved, so both sides see the same host speed
  }
  report.set("trace.overhead_frac",
             median(report.samples("wall_s")) / median(untraced_wall_s) - 1.0);
  report.note("trace.overhead_frac",
              "median traced pass wall_s over the median of " +
                  std::to_string(untraced_wall_s.size()) +
                  " interleaved untraced passes at the same seed, minus 1");

  // Counts of the first pass (every pass repeats them exactly).
  SimCounts counts;
  caem::sim::KernelCounters kernel;
  std::size_t pending_peak = 0;
  double first_wall = 0.0;
  for (const TracedRun& run : first) {
    counts += run.counts;
    kernel += run.kernel;
    pending_peak = std::max(pending_peak, run.pending_peak);
    first_wall += run.wall_s;
  }
  counts.record(report);
  report.set("sim.scheduled", static_cast<double>(kernel.scheduled));
  report.set("sim.cancelled", static_cast<double>(kernel.cancelled));
  report.set("sim.pending_peak", static_cast<double>(pending_peak));
  report.set("sim.events_per_s", static_cast<double>(counts.events) / first_wall);
  report.set("leach.rounds", static_cast<double>(first_totals.rounds));
  for (const LayerTotals& totals : {first_totals, take_layer_totals()}) {
    for (const double ms : totals.next_round_ms) report.sample("leach.next_round_ms", ms);
  }

  // core: RunResult serialization round trip on the reference results.
  for (const RunResult& result : reference) {
    const std::string json = caem::core::to_json(result);
    report.sample("core.result_serialize_us",
                  median_call_us(21, [&] { (void)caem::core::to_json(result); }));
    report.sample("core.result_parse_us",
                  median_call_us(21, [&] { (void)caem::core::run_result_from_json(json); }));
    report.check(caem::core::to_json(caem::core::run_result_from_json(json)) == json,
                 std::string("RunResult JSON round trip differs for ") + result.protocol.name());
  }
  record_replays(args.seed, w.config, capture, pending_peak, report);
}

}  // namespace

void run_simulation_workload(const Args& args, Report& report) {
  const SimWorkload w = make_workload(args.workload);
  if (args.trace) {
    traced_run(args, w, report);
  } else {
    timed_run(args, w, report);
  }
}

}  // namespace caembench
