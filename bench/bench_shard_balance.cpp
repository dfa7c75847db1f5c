// bench_shard_balance — dynamic work-stealing claims vs a static
// residue-class partition on a deliberately skewed sweep, the
// acceptance harness for `caem run --worker` (scenario/work_queue.hpp).
//
// Workload: the skewed_fast scenario shape — ONE heavy cell (140 nodes)
// plus 36 near-equal light cells (20 nodes, traffic swept in lockstep),
// costing roughly light_total ≈ 3 x heavy.  That is the worst case for
// a static partition by job index: the residue class that draws the
// heavy cell also draws a quarter of the lights, so its owner grinds on
// alone while the other workers idle.
//
// Measurement is COST-WEIGHTED SCHEDULE MAKESPAN, not wall clock: on a
// small or timeshared host (CI runs this on one core) N concurrent
// CPU-bound workers cannot show balance in wall time — total CPU work
// dominates.  Instead:
//
//   1. every cell is executed once, uncontended and single-threaded,
//      recording its measured cost (and the reference artifacts);
//   2. static makespan  = max over the N residue classes (job index
//      mod N) of their summed measured cost — the static baseline is
//      this sum, computed, never run: a fixed partition is a pure
//      function of job index, so its makespan needs no execution;
//   3. dynamic makespan = max over N REAL `--worker` drains (threads in
//      this process, racing the real claim protocol on a fresh shared
//      cache) of the summed measured cost of the cells each one
//      actually claimed and executed — read back from the worker
//      telemetry markers.
//
// The exit code enforces the acceptance bar: dynamic claiming must
// improve the makespan by >= 1.5x, and a cached fold of the
// worker-drained cache must render the summary byte-identically to the
// single-process reference without executing anything.
//
// Usage: bench_shard_balance [--fast] [key=value ...]
//   workers=<n>   worker count (default 4; the static baseline uses it too)
//   sim_s=<t>     horizon per cell (default 2000 — cells die well before)
//   seed=<n>      master seed (default 2005)
//   json=<path>   output path (default BENCH_shard.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "core/simulation_runner.hpp"
#include "scenario/engine.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/shard_manifest.hpp"
#include "scenario/sweep.hpp"
#include "util/config.hpp"

namespace {

using namespace caem;
namespace fs = std::filesystem;

/// The skewed_fast grid: heavy 140-node cell first, then 36 distinct
/// 20-node light cells (traffic 5.1 .. 8.6 in lockstep).
scenario::ScenarioSpec skewed_spec(std::uint64_t seed, double sim_s) {
  scenario::ScenarioSpec spec;
  spec.name = "bench-shard-balance";
  spec.protocols = {core::protocol_from_string("pure-leach")};
  spec.base_seed = seed;
  spec.replications = 1;
  spec.options.max_sim_s = sim_s;
  spec.options.run_to_death = false;
  std::string values = "list:140/5";
  for (int k = 0; k < 36; ++k) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), ",20/%.1f", 5.1 + 0.1 * k);
    values += buffer;
  }
  spec.axes = {scenario::parse_axis("node_count,traffic_rate_pps", values)};
  return spec;
}

std::string summary_csv(const scenario::ScenarioResult& result) {
  std::ostringstream out;
  scenario::summary_table(result).render_csv(out);
  return out.str();
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
  double sim_s = 0.0;
  std::size_t workers = 4;
  std::string json_path = "BENCH_shard.json";
  try {
    const util::Config overrides = util::Config::from_args(tokens);
    fast = overrides.get_bool("fast", fast);
    seed = static_cast<std::uint64_t>(overrides.get_int("seed", 2005));
    sim_s = overrides.get_double("sim_s", 0.0);
    workers = static_cast<std::size_t>(overrides.get_int("workers", 4));
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
  if (workers < 2) {
    std::cerr << "workers must be >= 2 (a 1-worker drain has nothing to balance)\n";
    return 1;
  }
  // The cells die long before 2000 simulated seconds, so the fast
  // horizon changes nothing but documents the bench is already fast.
  if (sim_s <= 0.0) sim_s = fast ? 1500.0 : 2000.0;

  const scenario::ScenarioSpec base = skewed_spec(seed, sim_s);
  const std::vector<scenario::GridPoint> grid = scenario::expand_grid(base.axes);
  const std::size_t jobs = grid.size();

  std::printf("==== bench_shard_balance ====\n");
  std::printf("skewed sweep: %zu cell(s) (1 heavy + %zu light), %zu worker(s)\n", jobs,
              jobs - 1, workers);

  // -- 1. uncontended reference pass: per-cell measured costs + the
  //       byte-identity reference artifacts --
  std::vector<double> cost_ms(jobs, 0.0);
  double total_ms = 0.0;
  for (std::size_t i = 0; i < jobs; ++i) {
    const core::NetworkConfig config = base.config_at(grid[i]);
    const auto t0 = std::chrono::steady_clock::now();
    (void)core::SimulationRunner::run(config, base.protocols[0], base.base_seed, base.options);
    cost_ms[i] =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    total_ms += cost_ms[i];
  }
  scenario::ScenarioSpec ref_spec = base;
  const scenario::ScenarioResult reference = scenario::run_scenario(ref_spec);
  const std::string reference_csv = summary_csv(reference);
  std::printf("reference pass: heavy %.0f ms, lights %.0f ms total (%.0f ms whole sweep)\n",
              cost_ms[0], total_ms - cost_ms[0], total_ms);

  // -- 2. static makespan: the residue-class sum over measured costs --
  std::vector<double> static_class_ms(workers, 0.0);
  for (std::size_t i = 0; i < jobs; ++i) static_class_ms[i % workers] += cost_ms[i];
  const double static_makespan_ms =
      *std::max_element(static_class_ms.begin(), static_class_ms.end());

  // -- 3. dynamic makespan: real --worker drains racing the claim
  //       protocol on a fresh shared cache --
  const fs::path scratch =
      fs::temp_directory_path() / ("bench_shard_cache_" + std::to_string(::getpid()));
  fs::remove_all(scratch);
  std::vector<scenario::ScenarioResult> worker_results(workers);
  {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        scenario::ScenarioSpec worker_spec = base;
        worker_spec.cache_dir = scratch.string();
        worker_spec.worker_mode = true;
        worker_spec.threads = 1;
        worker_results[w] = scenario::run_scenario(worker_spec);
      });
    }
    for (std::thread& thread : pool) thread.join();
  }

  // Read the telemetry markers back: which cells each worker actually
  // claimed and executed.
  const scenario::ShardManifest manifest(scratch.string(), worker_results[0].sweep_digest);
  const std::vector<scenario::WorkerMarker> reports = manifest.collect_workers();
  std::vector<double> dynamic_worker_ms;
  std::size_t dynamic_executed = 0;
  std::vector<std::size_t> execution_count(jobs, 0);
  for (const scenario::WorkerMarker& report : reports) {
    double sum = 0.0;
    for (const std::size_t job : report.stored) {
      sum += job < jobs ? cost_ms[job] : 0.0;
      if (job < jobs) ++execution_count[job];
    }
    dynamic_worker_ms.push_back(sum);
    dynamic_executed += report.stored.size();
  }
  const double dynamic_makespan_ms =
      dynamic_worker_ms.empty()
          ? 0.0
          : *std::max_element(dynamic_worker_ms.begin(), dynamic_worker_ms.end());
  const std::size_t covered = static_cast<std::size_t>(
      std::count_if(execution_count.begin(), execution_count.end(),
                    [](std::size_t n) { return n >= 1; }));
  const std::size_t duplicated = static_cast<std::size_t>(
      std::count_if(execution_count.begin(), execution_count.end(),
                    [](std::size_t n) { return n > 1; }));

  // -- 4. fold the worker-drained cache (what `caem merge` does); the
  //       summary must render byte-identically to the single-process
  //       reference --
  scenario::ScenarioSpec merge_spec = base;
  merge_spec.cache_dir = scratch.string();
  const scenario::ScenarioResult merged = scenario::run_scenario(merge_spec);
  const bool artifacts_identical = summary_csv(merged) == reference_csv;
  fs::remove_all(scratch);

  const double speedup =
      dynamic_makespan_ms > 0.0 ? static_makespan_ms / dynamic_makespan_ms : 0.0;
  const double threshold = 1.5;
  const bool balanced = speedup >= threshold;
  const bool complete = covered == jobs && merged.executed_jobs == 0;
  const bool pass = balanced && artifacts_identical && complete;

  std::printf("static  makespan: %8.0f ms (worst of %zu residue classes)\n", static_makespan_ms,
              workers);
  std::printf("dynamic makespan: %8.0f ms (worst of %zu worker drains)\n", dynamic_makespan_ms,
              reports.size());
  for (const scenario::WorkerMarker& report : reports) {
    double sum = 0.0;
    for (const std::size_t job : report.stored) sum += job < jobs ? cost_ms[job] : 0.0;
    std::printf("  worker %-34s %3zu cell(s) %8.0f ms, %zu stolen\n", report.token.c_str(),
                report.stored.size(), sum, report.stolen);
  }
  std::printf("speedup: %.2fx (threshold %.1fx) -> %s\n", speedup, threshold,
              balanced ? "balanced" : "NOT balanced");
  std::printf("coverage: %zu/%zu cell(s) executed once (%zu duplicated), merge re-ran %zu\n",
              covered, jobs, duplicated, merged.executed_jobs);
  std::printf("merge artifacts %s the single-process reference\n",
              artifacts_identical ? "MATCH" : "DIFFER FROM");

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"workload\": \"skewed sweep, 1 heavy (140 nodes) + %zu light (20 nodes) "
               "cells, pure-leach, %.0f s horizon\",\n"
               "  \"jobs\": %zu,\n"
               "  \"workers\": %zu,\n"
               "  \"heavy_cost_ms\": %.1f,\n"
               "  \"light_total_cost_ms\": %.1f,\n"
               "  \"static_makespan_ms\": %.1f,\n"
               "  \"dynamic_makespan_ms\": %.1f,\n"
               "  \"dynamic_executed_cells\": %zu,\n"
               "  \"duplicated_cells\": %zu,\n"
               "  \"speedup\": %.2f,\n"
               "  \"threshold\": %.1f,\n"
               "  \"artifacts_identical\": %s,\n"
               "  \"balanced\": %s,\n"
               "  \"pass\": %s\n"
               "}\n",
               jobs - 1, sim_s, jobs, workers, cost_ms[0], total_ms - cost_ms[0],
               static_makespan_ms, dynamic_makespan_ms, dynamic_executed, duplicated, speedup,
               threshold, artifacts_identical ? "true" : "false", balanced ? "true" : "false",
               pass ? "true" : "false");
  std::fclose(out);
  std::printf("\nBENCH_shard -> %s\n", json_path.c_str());
  return pass ? 0 : 1;
}
