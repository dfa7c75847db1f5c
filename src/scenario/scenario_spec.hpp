// scenario_spec.hpp — declarative description of one experiment sweep.
//
// A scenario is a plain key=value file (util::Config syntax: comments,
// includes, CRLF tolerated) with three reserved prefixes:
//
//   scenario.*   run control: name, protocols, seed, reps, max_sim_s,
//                run_to_death, threads, cache_dir
//   sweep.*      grid axes over NetworkConfig keys (list:/range: specs;
//                a comma-joint key sweeps several keys in lockstep)
//   output.*     artifact paths: output.csv, output.json, output.trace
//                (per-cell time-series CSV dir; output.trace_points sets
//                the sample count)
//
// Every other key is a NetworkConfig override applied to the base
// config of every grid point.  Unknown keys — in any namespace — are a
// hard error, so a typo'd scenario can never silently run the wrong
// experiment (the bug class this subsystem was built to kill).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "core/simulation_runner.hpp"
#include "scenario/sweep.hpp"
#include "util/config.hpp"

namespace caem::scenario {

struct ProgressSink;  // engine.hpp

struct ScenarioSpec {
  std::string name = "unnamed";
  /// Resolved registry handles; `scenario.protocols` accepts any
  /// registered name/alias, plus "all" for the paper trio.
  std::vector<core::Protocol> protocols = core::paper_protocols();
  std::uint64_t base_seed = 2005;
  std::size_t replications = 2;
  core::RunOptions options;   ///< scenario.max_sim_s / scenario.run_to_death
  std::size_t threads = 0;    ///< 0 = hardware concurrency
  /// Upper bound on scenario.threads (and serve.workers): each lane is
  /// an OS thread.
  static constexpr std::size_t kMaxThreads = 1024;

  /// Starting NetworkConfig before file/CLI overrides (the file path
  /// starts from defaults).
  core::NetworkConfig base_config;
  /// NetworkConfig overrides shared by every grid point.
  util::Config base_overrides;
  /// Sweep axes in sorted key order (deterministic expansion).
  std::vector<Axis> axes;

  std::string csv_path;   ///< output.csv ("" = skip)
  std::string json_path;  ///< output.json ("" = skip)
  /// output.trace: directory receiving one cross-replication time-series
  /// CSV per (grid point, protocol) cell ("" = skip).
  std::string trace_dir;
  /// output.trace_points: samples per trace CSV (uniform grid over the
  /// cell's simulated span).
  std::size_t trace_points = 101;

  /// scenario.cache_dir / `caem run --cache-dir`: digest-keyed result
  /// cache root ("" = caching disabled).  See scenario/result_cache.hpp.
  std::string cache_dir;
  /// `caem run --no-cache`: keep cache_dir (for provenance/stats) but
  /// neither read nor write it.
  bool use_cache = true;

  /// `caem run --cache-dir=<dir> --lease=<secs>`: staleness horizon
  /// for this run's claims (scenario/work_queue.hpp) — a claim not
  /// refreshed for this long is presumed crashed and stolen.  The
  /// holder refreshes every lease_s/3 while computing.
  double lease_s = 30.0;

  /// `caem run --progress[=secs]` (CLI-only): emit a one-line progress
  /// report (cells done/total, hit/executed split, cells/s, ETA) every
  /// this many seconds while draining.  0 = off.
  double progress_s = 0.0;
  /// Progress destination; null = std::cerr (keeps stdout clean for the
  /// summary table).  Tests inject a stringstream here.
  std::ostream* progress_stream = nullptr;

  // -- engine-injected hooks (never file keys: they are process-local
  //    pointers a host embeds, not experiment inputs) --

  /// Live drain counters (engine.hpp).  Null = the engine counts into a
  /// private sink.  The sweep service points every drain thread at a
  /// per-thread sink and aggregates them for /sweeps/<id> polling.
  ProgressSink* progress_sink = nullptr;

  /// Cooperative cancellation: when non-null and it reads true, the
  /// engine stops launching cells and throws SweepCancelled (no partial
  /// fold is ever rendered).  A cached run has released every claim by
  /// then and keeps every cell it finished stored — cancellation never
  /// loses work.  `caem run` raises it on SIGINT/SIGTERM.  A drain
  /// blocked on peers' claims re-checks the flag when woken: raise it,
  /// then call ClaimBoard::wake_waiters() (work_queue.hpp).
  const std::atomic<bool>* cancel = nullptr;

  /// Record every cache hit in the entry's `.touch` sidecar so the
  /// store janitor can score utility (result_cache.hpp).  Off by
  /// default: one-shot CLI runs shouldn't pay the extra write.
  bool record_touches = false;

  /// Load a scenario file.  Throws std::invalid_argument on syntax
  /// errors, unknown keys, bad axis specs or inconsistent config values.
  static ScenarioSpec from_file(const std::string& path);

  /// Build from an already-parsed Config (same key namespace as files).
  static ScenarioSpec from_config(const util::Config& config);

  /// Apply `key=value` CLI overrides on top of a loaded spec.  Accepts
  /// the full file namespace (scenario.*, sweep.*, output.*, config
  /// keys); a `sweep.` override replaces that axis.  Throws on unknown
  /// keys.
  void apply_cli_overrides(const util::Config& overrides);

  /// Materialise the NetworkConfig of one grid point: base_config +
  /// base_overrides + the point's axis assignments, then validate().
  /// Throws std::invalid_argument naming any unknown override key.
  [[nodiscard]] core::NetworkConfig config_at(const GridPoint& point) const;

  /// grid_size(axes) * protocols * replications — the flattened queue
  /// length.
  [[nodiscard]] std::size_t total_jobs() const;

 private:
  void apply_entry(const std::string& key, const std::string& value);
  void validate_base_overrides() const;
};

}  // namespace caem::scenario
