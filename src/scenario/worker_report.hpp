// worker_report.hpp — sweep identity and per-worker telemetry reports.
//
// A distributed sweep has no control plane: the shared result-cache
// directory is the only coordination substrate (the UtilCache idea — a
// shared cache doubles as the merge point).  Workers claim cells
// dynamically (scenario/work_queue.hpp) and, on exit, each publishes a
// telemetry report
//
//   <cache-dir>/sweeps/<sweep digest>/worker_<sanitized token>.done
//
// recording which cells it executed and at what cost, so `caem merge`
// can print the straggler census instead of leaving load imbalance
// invisible.  The reports claim nothing — completion is always read
// from the cache itself — so a missing or corrupt report costs only
// telemetry.
//
// The sweep digest pins the whole flattened job list (every cell's
// cache key, in job order), so claims and reports from a different
// scenario, seed, or axis edit can never be mistaken for this sweep's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace caem::scenario {

/// Digest of a sweep's flattened job list: the ordered cache entry keys
/// (ResultCache::entry_key) of every job.  Identical for every worker of
/// the same sweep; different for any edit that changes a cell or the
/// job-index mapping.
[[nodiscard]] std::string sweep_digest(const std::vector<std::string>& job_keys);

/// Per-worker completion report for a dynamically claimed sweep
/// (`caem run --worker`).  It claims nothing — the claim protocol
/// (work_queue.hpp) already settled ownership cell by cell — it is pure
/// telemetry: which cells this worker actually drained and at what
/// cost.
struct WorkerReport {
  std::string token;                ///< ClaimBoard token (host:pid:nonce-…)
  std::string host;
  std::uint64_t pid = 0;
  std::size_t total_jobs = 0;       ///< flattened queue length of the sweep
  std::size_t cache_hits = 0;       ///< cells this worker found already stored
  std::size_t stolen = 0;           ///< stale/corrupt claims this worker stole
  double wall_ms = 0.0;             ///< worker wall clock, drain start to finish
  std::vector<std::size_t> stored;  ///< job indices this worker executed and stored
};

/// Report I/O rooted at `<cache-dir>/sweeps/<sweep digest>/`.  Reports
/// are plain `key = value` text (util::Config syntax) written with the
/// same write-then-rename discipline as cache entries; anything
/// unreadable, unparseable, or stamped with a different sweep digest
/// reads as absent, never as data.
class WorkerReports {
 public:
  WorkerReports(const std::string& cache_root, const std::string& sweep);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// `worker_<sanitized token>.done` under dir().
  [[nodiscard]] std::string path(const std::string& token) const;

  /// Atomically publish a worker's completion report (creates the sweep
  /// dir).  Throws std::runtime_error on an unwritable path and
  /// std::invalid_argument on an empty token.
  void write(const WorkerReport& report) const;

  /// Every valid worker report present for this sweep, sorted by token.
  [[nodiscard]] std::vector<WorkerReport> collect() const;

 private:
  std::string sweep_;
  std::string dir_;
};

}  // namespace caem::scenario
