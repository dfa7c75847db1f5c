// engine.hpp — execute a ScenarioSpec as one job queue.
//
// The engine expands the whole (grid point x protocol x replication)
// cross product up front and drains it as ONE queue — the
// irregular-wavefront idiom (arXiv:1605.00930): keep every worker busy
// as long as ANY job remains, regardless of which sweep point it
// belongs to, instead of joining a small pool per (point, protocol).
// Results are folded back per (point, protocol) afterwards; folding is
// cheap and sequential, so determinism is preserved bit-for-bit: job
// (p, proto, rep) always runs seed base_seed + rep on an identical
// config, whatever thread or process picks it up.
//
// There are exactly two drains:
//
//   * uncached — core::parallel_runs_ordered over the cost order, all
//     in memory;
//   * claimed — every cached run (`caem run --cache-dir`, the service's
//     drains).  Cells are claimed by record locks on the shared cache
//     dir's claims.lock (scenario/work_queue.hpp) and stored the moment
//     they finish, so any number of processes can drain one sweep (or
//     sweeps sharing cells) together and an interrupted run keeps every
//     cell it completed.  Every run that drains to the end folds the
//     whole sweep.
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <vector>

#include "core/experiment.hpp"
#include "scenario/scenario_spec.hpp"
#include "util/table_writer.hpp"

namespace caem::scenario {

/// Live drain counters a host can watch while run_scenario executes
/// (ScenarioSpec::progress_sink).  `total` is set once the queue is
/// expanded; `hits`/`executed` tick as cells resolve, so done ==
/// hits + executed at any instant.  The sweep service polls these from
/// HTTP handler threads while drain threads write them.
struct ProgressSink {
  std::atomic<std::size_t> total{0};
  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> executed{0};
};

/// Thrown by run_scenario when ScenarioSpec::cancel flips mid-drain,
/// after its held claims are released; in a cached run the cells it
/// already finished stay stored.
class SweepCancelled : public std::runtime_error {
 public:
  SweepCancelled() : std::runtime_error("sweep cancelled") {}
};

/// Folded replications of one protocol at one grid point.
struct ProtocolResult {
  core::Protocol protocol;  ///< default-constructs to pure-leach
  core::Replicated replicated;
};

/// One grid point: its materialised config and per-protocol summaries
/// (aligned with ScenarioSpec::protocols).
struct PointResult {
  GridPoint point;
  core::NetworkConfig config;
  std::vector<ProtocolResult> protocols;
};

struct ScenarioResult {
  std::string scenario_name;
  /// Component axis keys (joint axes split), sorted by axis, matching
  /// each point's assignment order.
  std::vector<std::string> axis_keys;
  std::vector<PointResult> points;     ///< grid expansion order
  std::size_t total_jobs = 0;
  bool cache_enabled = false;
  /// Stats contract: cache_hits counts the cells this process looked up
  /// and found stored — at scan time, or mid-drain after a peer
  /// process stored them — executed_jobs the cells it simulated, and
  /// cache_misses == executed_jobs.  A run that drains to completion
  /// therefore has cache_hits + executed_jobs == total_jobs, and
  /// summing executed_jobs over every process draining one sweep
  /// reconstructs the sweep's miss count.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t executed_jobs = 0;
  double wall_s = 0.0;  ///< end-to-end engine time (expansion + runs + fold)
};

/// Decomposed flattened job index: job i is replication `rep` of
/// `protocols[protocol]` at grid point `point` (rep varies fastest,
/// point slowest), simulated at seed base_seed + rep.
struct JobCoords {
  std::size_t point = 0;
  std::size_t protocol = 0;
  std::size_t rep = 0;
};

/// The (point, protocol, rep) coordinates of flattened job `index`.
[[nodiscard]] JobCoords job_coords(const ScenarioSpec& spec, std::size_t index);

/// Run the scenario.
///
/// Without a cache (spec.cache_dir empty) every job runs in memory on
/// spec.threads workers and the results fold.
///
/// With the cache, every (config digest, protocol, seed) cell is first
/// looked up in the ResultCache: hits are never executed, so re-running
/// a sweep after editing one axis only executes the new cells.  The
/// misses drain on spec.threads lanes, each claiming cells with a
/// record lock in the cache dir's claims.lock (scenario/work_queue.hpp)
/// and storing each cell as it finishes.  The drain ends once every
/// cell is stored — by this process or by any peer draining a sweep
/// that shares the cell — and a peer's crash frees its claims at once.
/// The run then folds the whole sweep, rendering byte-identically to an
/// uncached run.
///
/// A raised spec.cancel stops either drain between cells: cells in
/// flight finish (and, cached, are stored and their claims released),
/// then SweepCancelled is thrown.
///
/// Both drains take cells in descending expected cost (LPT): a-priori
/// node_count x horizon, refined by the measured wall_ms of cache
/// entries already present for the same (protocol, node_count) family.
/// Order affects wall clock only — results bind to job indices, never
/// to drain order.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Summary table: one row per (point, protocol) with the axis columns
/// first, then the headline scalars.  `reps` counts all folded runs;
/// `n_delivering` counts the runs that delivered at least one packet
/// over the air and therefore contributed to the delivery_rate /
/// delay / energy-per-packet means (core::fold_runs excludes the rest —
/// this column is that exclusion contract made visible).
[[nodiscard]] util::TableWriter summary_table(const ScenarioResult& result);

/// Write spec-requested artifacts: CSV/JSON of the summary table, plus —
/// when spec.trace_dir is set — one per-(point, protocol) time-series
/// CSV (`t_s, avg_remaining_energy_j, nodes_alive`, replication-mean,
/// spec.trace_points samples over the cell's simulated span).  Every
/// file is published by write-then-rename (util::atomic_write_file), so
/// concurrent runs folding one sweep into the same paths never leave a
/// torn file.  Logs each written path to `log`.  Throws on unwritable
/// paths.
void write_outputs(const ScenarioResult& result, const ScenarioSpec& spec, std::ostream& log);

}  // namespace caem::scenario
