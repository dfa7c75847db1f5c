// experiment.hpp — parallel execution of independent simulation runs.
//
// The benchmark harness sweeps (protocol x load x seed) grids; every
// point is an independent Network, so we parallelise with a plain thread
// pool over the job list (explicit parallelism, no shared mutable state —
// the HPC-guide idiom).  Replication averaging helpers live here too.
#pragma once

#include <functional>
#include <thread>
#include <vector>

#include "core/simulation_runner.hpp"
#include "util/stats.hpp"

namespace caem::core {

/// Run `job(order[k])` for every k on up to `threads` workers, DRAINING
/// the queue in the order given, and return results indexed by original
/// job id (`result[order[k]] = job(order[k])`; slots not named in
/// `order` stay default-constructed).  The drain order is pure
/// scheduling — each job's result depends only on its own id — so
/// callers reorder freely for load balance (the scenario engine feeds a
/// longest-expected-first order so the final worker is never stuck
/// behind a long-running job queued last) without touching results.
/// `order` entries must be unique and < result_size; throws
/// std::invalid_argument otherwise (or for a null job).  threads = 0
/// means hardware concurrency.  Exceptions in jobs propagate to the
/// caller (first one wins) after every worker has joined.
std::vector<RunResult> parallel_runs_ordered(std::size_t result_size,
                                             const std::vector<std::size_t>& order,
                                             const std::function<RunResult(std::size_t)>& job,
                                             std::size_t threads = 0);

/// Scalar summary over replications.
struct Replicated {
  util::OnlineStats lifetime_s;          ///< network lifetime (dead-fraction)
  util::OnlineStats first_death_s;
  util::OnlineStats energy_per_packet_j;
  util::OnlineStats delivery_rate;
  util::OnlineStats mean_delay_s;
  util::OnlineStats p95_delay_s;
  util::OnlineStats throughput_bps;
  util::OnlineStats queue_stddev;
  util::OnlineStats total_consumed_j;
  std::vector<RunResult> runs;           ///< the raw per-seed results
};

/// Fold already-computed runs into the replication summary.  Delay and
/// delivery statistics only exist when a run delivered at least one
/// packet over the air — runs with `delivered_air == 0` would report a
/// meaningless 0 and drag the replication mean toward it, so they are
/// excluded from `delivery_rate`, `mean_delay_s`, `p95_delay_s` and
/// `energy_per_packet_j` (check `.count()` against `runs.size()` to see
/// how many contributed).  Lifetimes of -1 (never crossed inside the
/// horizon) fold as the horizon, a conservative lower bound.
Replicated fold_runs(std::vector<RunResult> runs);

}  // namespace caem::core
