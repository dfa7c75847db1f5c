// bench_scale — wall-clock scaling of one whole-network run vs node
// count, the acceptance harness for the city-scale work (spatial
// cluster formation, in-range lazy links, SoA hot state).
//
// The sweep holds node DENSITY constant (the field grows as sqrt(N)) so
// a node's neighborhood — and therefore the per-node work an
// O(N * neighbors) simulator should do — stays fixed while N grows.
// Every point runs with the city-scale knobs on (radio_range_m = 150,
// auto spatial bin); the headline number is the wall-time growth from
// N=1k to N=10k, which must stay strictly below the 100x a quadratic
// simulator would show.
//
// Each point also records the process's peak resident set size
// (getrusage ru_maxrss) read right after it.  Points run in ascending
// N on one thread, so every reading is that point's own peak: memory
// that scales with the live state, not with the events scheduled, shows
// up as peak RSS growing with N and not with the horizon.
//
// Usage: bench_scale [--fast] [key=value ...]
//   --fast | fast=1   smoke sweep: N up to 10k, shorter horizon
//   seed=<n>          master seed (default 2005)
//   sim_s=<t>         horizon per point (default 40, fast 20)
//   json=<path>       output path (default BENCH_scale.json)
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "core/simulation_runner.hpp"
#include "util/config.hpp"

namespace {

using namespace caem;

struct ScalePoint {
  std::size_t n = 0;
  double field_size_m = 0.0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  double sim_end_s = 0.0;
  double peak_rss_mb = 0.0;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

ScalePoint run_point(std::size_t n, std::uint64_t seed, double sim_s) {
  core::NetworkConfig config;
  config.node_count = n;
  // Constant density: the paper's 100 nodes / (100 m)^2.
  config.field_size_m = 100.0 * std::sqrt(static_cast<double>(n) / 100.0);
  config.traffic_rate_pps = 1.0;
  config.channel.radio_range_m = 150.0;
  config.channel.spatial_bin_m = 0.0;  // auto
  core::RunOptions options;
  options.max_sim_s = sim_s;
  options.run_to_death = false;

  const core::Protocol protocol = core::protocol_from_string("caem-scheme1");
  ScalePoint point;
  point.n = n;
  point.field_size_m = config.field_size_m;
  const auto start = std::chrono::steady_clock::now();
  const core::RunResult result = core::SimulationRunner::run(config, protocol, seed, options);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  point.wall_s = elapsed.count();
  point.events = result.executed_events;
  point.sim_end_s = result.sim_end_s;
  point.peak_rss_mb = peak_rss_mb();
  return point;
}

void write_json(const std::vector<ScalePoint>& points, double growth_1k_10k,
                double rss_growth_1k_10k, bool sub_quadratic, double sim_s,
                const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out,
               "{\n"
               "  \"workload\": \"caem-scheme1, constant density, radio_range_m=150, "
               "auto spatial bin, %.0f s horizon per point\",\n"
               "  \"points\": [\n",
               sim_s);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    std::fprintf(out,
                 "    {\"n\": %zu, \"field_size_m\": %.1f, \"wall_s\": %.3f, "
                 "\"events\": %llu, \"events_per_sec\": %.0f, \"peak_rss_mb\": %.1f}%s\n",
                 p.n, p.field_size_m, p.wall_s, static_cast<unsigned long long>(p.events),
                 p.wall_s > 0.0 ? static_cast<double>(p.events) / p.wall_s : 0.0,
                 p.peak_rss_mb, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"wall_growth_1k_to_10k\": %.2f,\n"
               "  \"quadratic_would_be\": 100.0,\n"
               "  \"sub_quadratic\": %s,\n"
               "  \"peak_rss_growth_1k_to_10k\": %.2f\n"
               "}\n",
               growth_1k_10k, sub_quadratic ? "true" : "false", rss_growth_1k_10k);
  std::fclose(out);
  std::printf("\nBENCH_scale -> %s\n", path.c_str());
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
  std::string json_path = "BENCH_scale.json";
  try {
    const util::Config overrides = util::Config::from_args(tokens);
    fast = overrides.get_bool("fast", fast);
    seed = static_cast<std::uint64_t>(overrides.get_int("seed", 2005));
    sim_s = overrides.get_double("sim_s", 0.0);
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
  if (sim_s <= 0.0) sim_s = fast ? 20.0 : 40.0;

  std::vector<std::size_t> sizes{100, 1000, 10000};
  if (!fast) {
    sizes.push_back(50000);
    sizes.push_back(100000);
  }

  std::printf("==== bench_scale ====\n");
  std::printf("%8s %12s %10s %14s %14s %12s\n", "nodes", "field (m)", "wall (s)", "events",
              "events/s", "peak RSS MB");
  std::vector<ScalePoint> points;
  double wall_1k = 0.0;
  double wall_10k = 0.0;
  double rss_1k = 0.0;
  double rss_10k = 0.0;
  for (const std::size_t n : sizes) {
    const ScalePoint point = run_point(n, seed, sim_s);
    std::printf("%8zu %12.1f %10.3f %14llu %14.0f %12.1f\n", point.n, point.field_size_m,
                point.wall_s, static_cast<unsigned long long>(point.events),
                point.wall_s > 0.0 ? static_cast<double>(point.events) / point.wall_s : 0.0,
                point.peak_rss_mb);
    std::fflush(stdout);
    if (point.n == 1000) {
      wall_1k = point.wall_s;
      rss_1k = point.peak_rss_mb;
    }
    if (point.n == 10000) {
      wall_10k = point.wall_s;
      rss_10k = point.peak_rss_mb;
    }
    points.push_back(point);
  }

  const double growth = wall_1k > 0.0 ? wall_10k / wall_1k : 0.0;
  const bool sub_quadratic = growth > 0.0 && growth < 100.0;
  std::printf("\nwall growth 1k -> 10k: %.2fx (quadratic would be 100x) -> %s\n", growth,
              sub_quadratic ? "sub-quadratic" : "NOT sub-quadratic");
  const double rss_growth = rss_1k > 0.0 ? rss_10k / rss_1k : 0.0;
  std::printf("peak RSS growth 1k -> 10k: %.2fx\n", rss_growth);
  write_json(points, growth, rss_growth, sub_quadratic, sim_s, json_path);
  return sub_quadratic ? 0 : 1;
}
