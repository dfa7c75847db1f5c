// bench_common.hpp — shared plumbing for the figure-reproduction benches.
//
// Every bench accepts `key=value` overrides (see NetworkConfig::
// apply_overrides) plus:
//   seed=<n>           base seed (default 2005)
//   reps=<n>           replications per point (default 2)
//   fast=1             shrink the sweep for smoke runs
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/simulation_runner.hpp"
#include "scenario/engine.hpp"
#include "util/config.hpp"
#include "util/table_writer.hpp"

namespace caem::bench {

struct BenchArgs {
  core::NetworkConfig config;
  std::uint64_t seed = 2005;
  std::size_t reps = 2;
  bool fast = false;
};

/// Parse bench CLI overrides.  Exits non-zero on malformed tokens and on
/// any key no getter consumed: a typo'd override (`dopler_hz=5`) must
/// never silently report results under the wrong provenance.
inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  std::vector<std::string> tokens(argv + 1, argv + argc);
  try {
    const util::Config overrides = util::Config::from_args(tokens);
    args.seed = static_cast<std::uint64_t>(overrides.get_int("seed", 2005));
    args.reps = static_cast<std::size_t>(overrides.get_int("reps", 2));
    args.fast = overrides.get_bool("fast", false);
    args.config.apply_overrides(overrides);
    const std::vector<std::string> typos = overrides.unconsumed();
    if (!typos.empty()) {
      std::cerr << "unknown override key(s):";
      for (const std::string& key : typos) std::cerr << " '" << key << "'";
      std::cerr << "\n";
      std::exit(1);
    }
  } catch (const std::exception& error) {
    std::cerr << "bad arguments: " << error.what() << "\n";
    std::exit(1);
  }
  return args;
}

/// Mean over a replicated point (folds -1 lifetimes as the horizon).
using core::Replicated;
using core::RunOptions;
using core::RunResult;

/// Run every protocol at one config, replicated, on ONE flattened job
/// queue (no per-protocol barrier — all protocols' replications
/// interleave freely across the pool).  Results are identical to a
/// sequential per-protocol loop of replications: job (protocol, rep)
/// always runs seed `seed + rep`, and fold_runs is order-deterministic.
inline std::vector<Replicated> all_protocols(const core::NetworkConfig& config,
                                             std::uint64_t seed, std::size_t reps,
                                             const RunOptions& options) {
  scenario::ScenarioSpec spec;
  spec.base_config = config;
  spec.base_seed = seed;
  spec.replications = reps;
  spec.options = options;
  const scenario::ScenarioResult result = scenario::run_scenario(spec);
  std::vector<Replicated> out;
  out.reserve(result.points[0].protocols.size());
  for (const scenario::ProtocolResult& entry : result.points[0].protocols) {
    out.push_back(entry.replicated);
  }
  return out;
}

inline void print_header(const std::string& title, const std::string& paper_reference) {
  std::cout << "==== " << title << " ====\n"
            << "reproduces: " << paper_reference << "\n\n";
}

}  // namespace caem::bench
