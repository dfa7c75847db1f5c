// bench_queue — kernel pending-set throughput: LadderQueue vs the
// binary-heap EventQueue, the acceptance harness for the O(1) ladder
// scheduling work.
//
// Workload is the classic DES "hold model" at a fixed pending-set size
// P: preload P events, then each operation pops the earliest event and
// schedules a replacement at now + Exp(1) s, with a 1-in-8 mix of
// cancel-a-random-outstanding + schedule-a-replacement (the MAC timer
// reschedule pattern).  Both implementations consume the identical
// operation stream — same seed, same delay table, same cancel targets
// — so the popped (time, order) stream must match bit-for-bit, which
// the bench asserts via an order-sensitive hash before it reports any
// throughput number.
//
// Operating points come from a measured census, not a guess: sampling
// `Simulator::pending_events()` once per simulated second through
// constant-density caem-scheme1 runs gives a steady 1.75 pending kernel
// events per node (N=1k: mean 1743, peak 1942; N=50k: mean 87583, peak
// 97310).  So the "1k-node" point is P=1750 and the "50k-node" point is
// P=87500.  The sweep spans P=1k to P=4M.
//
// Each point runs kReps times per implementation and reports the best
// rep: the shared 1-vCPU host shows 30-45% run-to-run noise, and
// best-of isolates the structure's cost from scheduler preemption.
// Every rep's pop hash must match across reps AND implementations.
//
// Exit code enforces the PR's claims (BENCH_queue.json carries the
// same verdict for CI):
//   * ladder >= 1.5x heap events/s at the 50k-node operating point;
//   * the ladder's advantage over the heap decays <= 10% from the
//     1k-node to the 50k-node point;
//   * identical pop streams at every point.
//
// Why the decay gate is on the advantage ratio and not raw events/s:
// past ~2MB of pending-set footprint EVERY implementation pays
// compulsory payload traffic — the 64-byte callback must be written at
// schedule and read at pop, with a reuse distance of one full epoch —
// at last-level-cache latency.  A pointer-chase probe on this host
// class measures 40-46 ns/line at the ~6-14MB a 50k-node pending set
// spans (vs ~2 ns in L1), so raw events/s tracks the memory system,
// not the structure: the heap loses ~50% on the identical op stream.
// What the O(1) structure has to prove is that ITS cost stays flat —
// the speedup it delivers at 1k nodes must still be there, undiminished,
// at 50k.  Raw per-implementation decay is reported alongside in
// BENCH_queue.json so nothing is hidden.
//
// Usage: bench_queue [--fast] [seed=<n>] [ops=<n>] [json=<path>]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/ladder_queue.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace {

using namespace caem;

// 4096 doubles = 32KB: cycling the delay table stays L1-resident
// instead of sweeping 512KB of L2 through the measured loop.
constexpr std::size_t kDelayTableSize = 1 << 12;
constexpr std::size_t kReservoirSize = 1 << 12;
constexpr std::size_t kOpPoint1kNodes = 1'750;    // 1.75 pending/node, measured
constexpr std::size_t kOpPoint50kNodes = 87'500;  // census above
constexpr double kGateRatioMin = 1.5;
constexpr double kGateDecayMax = 0.10;

struct HoldResult {
  double events_per_sec = 0.0;
  std::uint64_t pop_hash = 0;  // order-sensitive fold of popped times
};

/// Run the hold model on one implementation, held by value and called
/// directly (as the Simulator holds its LadderQueue).  Identical inputs
/// (seed, pending, ops) produce an identical logical op stream
/// regardless of the implementation, so pop_hash is an equivalence
/// oracle.
template <class Queue>
HoldResult run_hold(std::size_t pending, std::uint64_t ops, std::uint64_t seed) {
  Queue queue;

  // Pre-generated delays: keeps RNG cost off the measured path (and
  // identical across implementations by construction).
  util::Rng rng(seed, "bench-queue");
  std::vector<double> delays(kDelayTableSize);
  for (double& d : delays) d = rng.exponential_mean(1.0);

  const auto noop = [](double) {};
  std::vector<sim::EventId> reservoir(kReservoirSize, sim::kInvalidEventId);
  double now = 0.0;
  std::size_t delay_at = 0;
  std::uint64_t hash = 1469598103934665603ULL;  // FNV offset basis

  const auto next_delay = [&]() noexcept {
    const double d = delays[delay_at];
    delay_at = (delay_at + 1) & (kDelayTableSize - 1);
    return d;
  };

  for (std::size_t i = 0; i < pending; ++i) {
    reservoir[i & (kReservoirSize - 1)] = queue.schedule(now + next_delay(), noop);
  }

  const auto step = [&](std::uint64_t op) {
    sim::Fired fired = queue.pop();
    now = fired.time_s;
    std::uint64_t bits;
    std::memcpy(&bits, &fired.time_s, sizeof(bits));
    hash = (hash ^ bits) * 1099511628211ULL;  // FNV prime
    reservoir[op & (kReservoirSize - 1)] = queue.schedule(now + next_delay(), noop);
    if ((op & 7) == 0) {
      // Cancel a random outstanding timer and replace it, like a MAC
      // backoff reschedule.  The reservoir index comes from the shared
      // RNG stream, so both implementations target the same logical
      // event; a miss (already fired) is part of the model.
      const std::size_t pick = static_cast<std::size_t>(rng.next()) & (kReservoirSize - 1);
      if (queue.cancel(reservoir[pick])) {
        reservoir[pick] = queue.schedule(now + next_delay(), noop);
      }
    }
  };

  // Warmup: reach steady state (the ladder crosses at least one epoch
  // spread; caches and the slot free list settle).
  const std::uint64_t warmup = ops / 8;
  for (std::uint64_t op = 0; op < warmup; ++op) step(op);

  hash = 1469598103934665603ULL;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t op = warmup; op < warmup + ops; ++op) step(op);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;

  HoldResult result;
  result.pop_hash = hash;
  result.events_per_sec =
      elapsed.count() > 0.0 ? static_cast<double>(ops) / elapsed.count() : 0.0;
  return result;
}

struct GateReport {
  double ratio_at_1k = 0.0;
  double ratio_at_50k = 0.0;
  double advantage_decay = 1.0;   // 1 - ratio_50k / ratio_1k, the gated quantity
  double ladder_raw_decay = 1.0;  // 1 - ladder_50k / ladder_1k (reported, not gated)
  double heap_raw_decay = 1.0;    // ditto for the heap: the memory-system baseline
};

struct SweepPoint {
  std::size_t pending = 0;
  double heap_eps = 0.0;
  double ladder_eps = 0.0;
  bool streams_match = false;
};

void write_json(const std::vector<SweepPoint>& points, const GateReport& gate, bool streams_ok,
                bool pass, std::uint64_t ops, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out,
               "{\n"
               "  \"workload\": \"hold model: pop + schedule(now+Exp(1)), 1/8 cancel+reschedule "
               "mix, %llu measured ops/point, identical op stream both impls\",\n"
               "  \"operating_points\": {\"nodes_1k_pending\": %zu, \"nodes_50k_pending\": %zu},\n"
               "  \"points\": [\n",
               static_cast<unsigned long long>(ops), kOpPoint1kNodes, kOpPoint50kNodes);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(out,
                 "    {\"pending\": %zu, \"heap_events_per_sec\": %.0f, "
                 "\"ladder_events_per_sec\": %.0f, \"ladder_vs_heap\": %.2f, "
                 "\"identical_pop_stream\": %s}%s\n",
                 p.pending, p.heap_eps, p.ladder_eps,
                 p.heap_eps > 0.0 ? p.ladder_eps / p.heap_eps : 0.0,
                 p.streams_match ? "true" : "false", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"ladder_vs_heap_at_1k_nodes\": %.2f,\n"
               "  \"ladder_vs_heap_at_50k_nodes\": %.2f,\n"
               "  \"gate_ratio_min\": %.2f,\n"
               "  \"advantage_decay_1k_to_50k_nodes\": %.3f,\n"
               "  \"gate_advantage_decay_max\": %.2f,\n"
               "  \"ladder_raw_decay_1k_to_50k_nodes\": %.3f,\n"
               "  \"heap_raw_decay_1k_to_50k_nodes\": %.3f,\n"
               "  \"raw_decay_note\": \"raw events/s past ~2MB footprint is bound by "
               "LLC latency on compulsory callback traffic (any impl); the gate holds the "
               "ladder's advantage flat instead\",\n"
               "  \"identical_pop_streams\": %s,\n"
               "  \"pass\": %s\n"
               "}\n",
               gate.ratio_at_1k, gate.ratio_at_50k, kGateRatioMin, gate.advantage_decay,
               kGateDecayMax, gate.ladder_raw_decay, gate.heap_raw_decay,
               streams_ok ? "true" : "false", pass ? "true" : "false");
  std::fclose(out);
  std::printf("\nBENCH_queue -> %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token == "--fast") {
      fast = true;
    } else {
      tokens.push_back(token);
    }
  }
  std::uint64_t seed = 2005;
  std::uint64_t ops = 0;
  std::string json_path = "BENCH_queue.json";
  try {
    const util::Config overrides = util::Config::from_args(tokens);
    fast = overrides.get_bool("fast", fast);
    seed = static_cast<std::uint64_t>(overrides.get_int("seed", 2005));
    ops = static_cast<std::uint64_t>(overrides.get_int("ops", 0));
    json_path = overrides.get_string("json", json_path);
    const std::vector<std::string> typos = overrides.unconsumed();
    if (!typos.empty()) {
      std::cerr << "unknown override key(s):";
      for (const std::string& key : typos) std::cerr << " '" << key << "'";
      std::cerr << "\n";
      return 1;
    }
  } catch (const std::exception& error) {
    std::cerr << "bad arguments: " << error.what() << "\n";
    return 1;
  }
  if (ops == 0) ops = fast ? 2'000'000 : 4'000'000;
  const int reps = fast ? 3 : 5;

  std::vector<std::size_t> sizes{1'000, kOpPoint1kNodes, 10'000, kOpPoint50kNodes};
  if (!fast) {
    sizes.push_back(1'000'000);
    sizes.push_back(4'000'000);
  }

  std::printf("==== bench_queue ====\n");
  std::printf("%10s %16s %16s %8s %8s\n", "pending", "heap ev/s", "ladder ev/s", "ratio",
              "streams");
  std::vector<SweepPoint> points;
  double heap_at_1k = 0.0;
  double heap_at_50k = 0.0;
  double ladder_at_1k = 0.0;
  double ladder_at_50k = 0.0;
  bool streams_ok = true;
  for (const std::size_t pending : sizes) {
    SweepPoint point;
    point.pending = pending;
    // Best-of-reps, alternating implementations so host noise (shared
    // vCPU) hits both evenly; hashes must agree across every rep.
    std::uint64_t heap_hash = 0;
    std::uint64_t ladder_hash = 0;
    point.streams_match = true;
    for (int rep = 0; rep < reps; ++rep) {
      const HoldResult heap = run_hold<sim::EventQueue>(pending, ops, seed);
      const HoldResult ladder = run_hold<sim::LadderQueue>(pending, ops, seed);
      point.heap_eps = std::max(point.heap_eps, heap.events_per_sec);
      point.ladder_eps = std::max(point.ladder_eps, ladder.events_per_sec);
      if (rep == 0) {
        heap_hash = heap.pop_hash;
        ladder_hash = ladder.pop_hash;
      }
      point.streams_match = point.streams_match && heap.pop_hash == ladder.pop_hash &&
                            heap.pop_hash == heap_hash && ladder.pop_hash == ladder_hash;
    }
    streams_ok = streams_ok && point.streams_match;
    std::printf("%10zu %16.0f %16.0f %7.2fx %8s\n", pending, point.heap_eps, point.ladder_eps,
                point.heap_eps > 0.0 ? point.ladder_eps / point.heap_eps : 0.0,
                point.streams_match ? "match" : "DIVERGE");
    std::fflush(stdout);
    if (pending == kOpPoint50kNodes) {
      heap_at_50k = point.heap_eps;
      ladder_at_50k = point.ladder_eps;
    }
    if (pending == kOpPoint1kNodes) {
      heap_at_1k = point.heap_eps;
      ladder_at_1k = point.ladder_eps;
    }
    points.push_back(point);
  }

  GateReport gate;
  gate.ratio_at_1k = heap_at_1k > 0.0 ? ladder_at_1k / heap_at_1k : 0.0;
  gate.ratio_at_50k = heap_at_50k > 0.0 ? ladder_at_50k / heap_at_50k : 0.0;
  gate.advantage_decay =
      gate.ratio_at_1k > 0.0 ? 1.0 - gate.ratio_at_50k / gate.ratio_at_1k : 1.0;
  gate.ladder_raw_decay = ladder_at_1k > 0.0 ? 1.0 - ladder_at_50k / ladder_at_1k : 1.0;
  gate.heap_raw_decay = heap_at_1k > 0.0 ? 1.0 - heap_at_50k / heap_at_1k : 1.0;
  const bool ratio_ok = gate.ratio_at_50k >= kGateRatioMin;
  const bool decay_ok = gate.advantage_decay <= kGateDecayMax;
  const bool pass = ratio_ok && decay_ok && streams_ok;

  std::printf("\nladder vs heap at the 50k-node point (P=%zu): %.2fx (gate >= %.1fx) -> %s\n",
              kOpPoint50kNodes, gate.ratio_at_50k, kGateRatioMin, ratio_ok ? "pass" : "FAIL");
  std::printf(
      "ladder advantage decay 1k -> 50k nodes: %.1f%% (%.2fx -> %.2fx, gate <= %.0f%%) -> %s\n",
      gate.advantage_decay * 100.0, gate.ratio_at_1k, gate.ratio_at_50k, kGateDecayMax * 100.0,
      decay_ok ? "pass" : "FAIL");
  std::printf(
      "raw events/s decay 1k -> 50k nodes (LLC-bound on this host): ladder %.1f%%, heap %.1f%%\n",
      gate.ladder_raw_decay * 100.0, gate.heap_raw_decay * 100.0);
  std::printf("pop streams identical at every point -> %s\n", streams_ok ? "pass" : "FAIL");
  write_json(points, gate, streams_ok, pass, ops, json_path);
  return pass ? 0 : 1;
}
