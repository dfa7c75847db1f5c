#include "scenario/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "scenario/cost_model.hpp"
#include "scenario/result_cache.hpp"
#include "sim/kernel_stats.hpp"
#include "scenario/shard_manifest.hpp"
#include "scenario/work_queue.hpp"
#include "util/table_writer.hpp"
#include "util/time_series.hpp"

namespace caem::scenario {

namespace {

const std::string& exec_hostname() {
  static const std::string host = [] {
    char buffer[256] = {0};
    if (::gethostname(buffer, sizeof(buffer) - 1) != 0 || buffer[0] == '\0') {
      return std::string("unknown-host");
    }
    return std::string(buffer);
  }();
  return host;
}

/// Periodic one-line drain report on its own thread: cells done/total,
/// hit/executed split, executed cells/s and the ETA that rate implies.
/// Interval <= 0 constructs a no-op (no thread).  stop() is idempotent
/// and joins; the destructor stops too, so the reporter can never
/// outlive the counters or stream it watches.
class ProgressReporter {
 public:
  ProgressReporter(double interval_s, std::ostream& out, std::size_t total,
                   const std::atomic<std::size_t>& hits, const std::atomic<std::size_t>& executed)
      : interval_s_(interval_s), out_(out), total_(total), hits_(hits), executed_(executed) {
    if (interval_s_ > 0.0) thread_ = std::thread([this] { loop(); });
  }

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  ~ProgressReporter() { stop(); }

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    const auto started = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    const auto interval = std::chrono::duration<double>(interval_s_);
    while (!cv_.wait_for(lock, interval, [this] { return stopped_; })) {
      report(started);
    }
  }

  void report(std::chrono::steady_clock::time_point started) const {
    const std::size_t hits = hits_.load();
    const std::size_t executed = executed_.load();
    const std::size_t done = std::min(hits + executed, total_);
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
    const double rate = elapsed_s > 0.0 ? static_cast<double>(executed) / elapsed_s : 0.0;
    out_ << "progress: " << done << "/" << total_ << " cell(s) (" << hits << " hit, "
         << executed << " executed), " << util::format_fixed(rate, 2) << " cells/s, ETA ";
    if (done >= total_) {
      out_ << "0 s";
    } else if (rate > 0.0) {
      out_ << util::format_fixed(static_cast<double>(total_ - done) / rate, 0) << " s";
    } else {
      out_ << "unknown";
    }
    // Kernel op totals across every completed run in this process
    // (counters fold in when a cell finishes, so they trail in-flight
    // cells slightly).
    const sim::KernelCounters kernel = sim::kernel_totals();
    out_ << "; kernel: " << kernel.scheduled << " sched / " << kernel.fired << " fired / "
         << kernel.cancelled << " cancelled / " << kernel.tombstones_pruned << " pruned";
    out_ << std::endl;  // flush per line: progress is watched live
  }

  double interval_s_;
  std::ostream& out_;
  std::size_t total_;
  const std::atomic<std::size_t>& hits_;
  const std::atomic<std::size_t>& executed_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

/// RAII heartbeat on one claimed cell: re-stamps the claim every
/// lease/3 so a healthy holder is never mistaken for a crashed one.
/// Join (destruct) BEFORE releasing the claim — a refresh racing the
/// release would resurrect the claim file.
class LeaseRefresher {
 public:
  LeaseRefresher(const ClaimBoard& board, std::size_t job, double lease_s)
      : thread_([this, &board, job, lease_s] {
          std::unique_lock<std::mutex> lock(mutex_);
          const auto period = std::chrono::duration<double>(lease_s / 3.0);
          while (!cv_.wait_for(lock, period, [this] { return stopped_; })) {
            board.refresh(job);
          }
        }) {}

  LeaseRefresher(const LeaseRefresher&) = delete;
  LeaseRefresher& operator=(const LeaseRefresher&) = delete;

  ~LeaseRefresher() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopped_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace

JobCoords job_coords(const ScenarioSpec& spec, std::size_t index) {
  const std::size_t reps = spec.replications;
  const std::size_t protocol_count = spec.protocols.size();
  return JobCoords{index / (reps * protocol_count), (index / reps) % protocol_count,
                   index % reps};
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  const auto started = std::chrono::steady_clock::now();

  ScenarioResult result;
  result.scenario_name = spec.name;
  for (const Axis& axis : spec.axes) {
    for (std::string& key : axis_key_components(axis.key)) {
      result.axis_keys.push_back(std::move(key));
    }
  }

  const std::vector<GridPoint> grid = expand_grid(spec.axes);
  const std::size_t protocol_count = spec.protocols.size();
  const std::size_t reps = spec.replications;

  // Snapshot every point's NetworkConfig before fanning out: workers
  // receive value copies and never touch a shared util::Config.
  std::vector<core::NetworkConfig> configs;
  configs.reserve(grid.size());
  for (const GridPoint& point : grid) configs.push_back(spec.config_at(point));

  result.total_jobs = grid.size() * protocol_count * reps;
  result.cache_enabled = !spec.cache_dir.empty() && spec.use_cache;
  result.shard_index = spec.shard_index;
  result.shard_count = spec.shard_count;
  result.merged = spec.merge_shards;
  if (result.cache_enabled && !spec.flatten) {
    throw std::invalid_argument(
        "scenario.flatten=0 is incompatible with the result cache (cache lookups partition the "
        "flattened queue; drop scenario.cache_dir or re-enable flattening)");
  }
  const bool sharded = spec.shard_count >= 1;
  result.worker_mode = spec.worker_mode;
  if (sharded || spec.merge_shards || spec.worker_mode) {
    if (sharded && spec.merge_shards) {
      throw std::invalid_argument(
          "a shard run cannot also merge: --shard and merge/--require-complete are mutually "
          "exclusive");
    }
    if (spec.worker_mode && sharded) {
      throw std::invalid_argument(
          "--worker and --shard are mutually exclusive: a worker drains the one shared queue, "
          "a shard a static residue slice");
    }
    if (spec.worker_mode && spec.merge_shards) {
      throw std::invalid_argument(
          "a worker cannot also merge: run `caem merge` once every worker has exited");
    }
    if (!result.cache_enabled) {
      throw std::invalid_argument(
          "distributed execution requires the result cache — the shared cache directory is the "
          "coordination substrate workers and shards merge through (set "
          "--cache-dir/scenario.cache_dir and drop --no-cache)");
    }
  }
  if (sharded && (spec.shard_index < 1 || spec.shard_index > spec.shard_count)) {
    throw std::invalid_argument("shard index out of range: --shard=i/N needs 1 <= i <= N");
  }
  if (spec.worker_mode && !(spec.lease_s > 0.0)) {
    throw std::invalid_argument("--lease must be a positive number of seconds");
  }

  // Job order is (point, protocol, rep) row-major so fold-back is an
  // index computation, and each job's seed depends only on its rep
  // index — results are independent of thread scheduling.
  const auto run_job = [&](std::size_t i) {
    const JobCoords c = job_coords(spec, i);
    return core::SimulationRunner::run(configs[c.point], spec.protocols[c.protocol],
                                       spec.base_seed + c.rep, spec.options);
  };

  // Live drain counters for --progress, the worker report, and any
  // embedding host (caem serve) watching through spec.progress_sink.
  // Scan hits are added before the drain starts; executions tick as
  // they finish on whatever thread ran them.
  ProgressSink local_sink;
  ProgressSink& sink = spec.progress_sink != nullptr ? *spec.progress_sink : local_sink;
  sink.total.store(result.total_jobs);
  std::atomic<std::size_t>& hit_count = sink.hits;
  std::atomic<std::size_t>& executed_count = sink.executed;
  const auto cancel_requested = [&spec] {
    return spec.cancel != nullptr && spec.cancel->load();
  };
  std::ostream& progress_out =
      spec.progress_stream != nullptr ? *spec.progress_stream : std::cerr;

  // LPT drain order: longest-expected cells first, so the queue never
  // saves a run-to-extinction cell for last (scenario/cost_model.hpp).
  // Purely a scheduling hint — every result binds to its job index.
  CostModel model;
  const auto observe_entry = [&](std::size_t i, const core::RunResult& entry) {
    const JobCoords c = job_coords(spec, i);
    model.observe(core::to_string(spec.protocols[c.protocol]), configs[c.point].node_count,
                  spec.options.max_sim_s, entry.wall_ms);
  };
  const auto job_cost = [&](std::size_t i) {
    const JobCoords c = job_coords(spec, i);
    return model.estimate_ms(core::to_string(spec.protocols[c.protocol]),
                             configs[c.point].node_count, spec.options.max_sim_s);
  };

  std::vector<core::RunResult> runs;
  if (result.cache_enabled) {
    // Cache-partitioned flattened queue: hits fill their slot without
    // ever being enqueued; only the misses run, then get stored.
    const ResultCache cache(spec.cache_dir);
    std::vector<std::string> keys(result.total_jobs);
    std::vector<std::string> paths(result.total_jobs);
    for (std::size_t i = 0; i < result.total_jobs; ++i) {
      const JobCoords c = job_coords(spec, i);
      keys[i] = cache.entry_key(configs[c.point], spec.protocols[c.protocol],
                                spec.base_seed + c.rep, spec.options);
      paths[i] = (std::filesystem::path(spec.cache_dir) / keys[i]).string();
    }
    result.sweep_digest = sweep_digest(keys);
    const ShardManifest manifest(spec.cache_dir, result.sweep_digest);
    std::vector<std::size_t> pending;

    // Execution provenance is stamped here — by the engine, only on
    // runs headed for the cache — so the simulator itself stays a pure
    // function of (config, protocol, seed) and two fresh computations
    // remain bit-identical (a tested contract).
    const auto timed_run = [&](std::size_t i) {
      const auto t0 = std::chrono::steady_clock::now();
      core::RunResult run = run_job(i);
      run.wall_ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
              .count();
      run.exec_host = exec_hostname();
      run.exec_pid = static_cast<std::uint64_t>(::getpid());
      executed_count.fetch_add(1);
      return run;
    };

    // Utility bookkeeping for the store janitor: every observed hit
    // bumps the entry's touch sidecar when the host asked for it.
    const auto note_hit = [&](const std::string& path) {
      if (spec.record_touches) cache.touch(path);
    };

    // Shared by the shard and unsharded/merge paths so store/retry
    // semantics can never diverge between them; `fold_into` is null on
    // a shard run, which stores cells but never folds them.  `pending`
    // stays in ascending scan order (markers record it); only the
    // DRAIN is cost-ordered.  Cancellation throws from the queue:
    // parallel_runs joins every thread, propagates the first exception,
    // and nothing partial is ever stored or folded.
    const auto execute_and_store = [&](std::vector<core::RunResult>* fold_into) {
      const std::vector<std::size_t> order = cost_order(pending, job_cost);
      std::vector<core::RunResult> executed = core::parallel_runs(
          order.size(),
          [&](std::size_t k) {
            if (cancel_requested()) throw SweepCancelled();
            return timed_run(order[k]);
          },
          spec.threads);
      for (std::size_t k = 0; k < order.size(); ++k) {
        cache.store(paths[order[k]], executed[k]);
        if (fold_into != nullptr) (*fold_into)[order[k]] = std::move(executed[k]);
      }
    };

    if (spec.worker_mode) {
      // -- the dynamic work-stealing drain (tentpole path) --
      //
      // One shared queue, any number of workers: each cell is won by
      // whichever worker claims it first (work_queue.hpp), so a fast
      // worker simply claims more cells and the sweep's makespan stops
      // being hostage to the unluckiest static slice.  The loop below
      // repeats passes over the not-yet-cached cells until the CACHE
      // says the sweep is complete — claims gate execution, never
      // completion — so this worker also outlives its peers' crashes:
      // their stale claims expire and are stolen here.
      ClaimBoard board(spec.cache_dir, result.sweep_digest, spec.lease_s);
      {
        std::error_code error;
        std::filesystem::create_directories(board.dir(), error);
        if (error) {
          throw std::runtime_error("cannot create claim dir '" + board.dir() +
                                   "': " + error.message());
        }
      }
      result.worker_token = board.token();

      std::vector<std::size_t> todo;
      for (std::size_t i = 0; i < result.total_jobs; ++i) {
        if (std::optional<core::RunResult> hit = cache.load(paths[i])) {
          observe_entry(i, *hit);
          note_hit(paths[i]);
          ++result.cache_hits;
        } else {
          todo.push_back(i);
        }
      }
      hit_count.store(result.cache_hits);
      ProgressReporter reporter(spec.progress_s, progress_out, result.total_jobs, hit_count,
                                executed_count);

      std::vector<std::size_t> stored;
      std::vector<std::size_t> queue = cost_order(todo, job_cost);
      // While every remaining cell is held by a healthy peer, block on
      // the sweep's release epoch (work_queue.hpp, WAIT): a peer in
      // this process wakes us the moment it stores and releases a cell,
      // and a cancel wakes us too.  The timeout is the filesystem poll
      // for peers in OTHER processes — their releases are invisible to
      // the epoch — kept well under the lease so a stale claim is
      // stolen soon after expiry.
      const auto poll = std::chrono::duration<double>(std::min(0.5, spec.lease_s / 4.0));
      bool stopped = false;
      while (!queue.empty() && !stopped) {
        // Snapshot before the pass: a release after it ends the wait
        // below; one before it stored its cell, which this pass sees.
        const std::uint64_t epoch = board.release_epoch();
        bool progressed = false;
        std::vector<std::size_t> blocked;
        for (const std::size_t job : queue) {
          // Cooperative stop between cells (never mid-cell: a started
          // cell completes and stores — cancellation never wastes work
          // already done, and a held claim is released below).
          if (cancel_requested()) {
            stopped = true;
            break;
          }
          if (cache.load(paths[job]).has_value()) {
            // A peer finished it since our last look: a hit, not ours.
            note_hit(paths[job]);
            ++result.cache_hits;
            hit_count.fetch_add(1);
            progressed = true;
            continue;
          }
          if (board.try_claim(job) == ClaimBoard::Claim::kBusy) {
            blocked.push_back(job);
            continue;
          }
          // Won.  Re-check under the claim: the previous holder may
          // have stored and released between our load and our acquire.
          if (cache.load(paths[job]).has_value()) {
            board.release(job);
            note_hit(paths[job]);
            ++result.cache_hits;
            hit_count.fetch_add(1);
            progressed = true;
            continue;
          }
          try {
            // Heartbeat while computing; joined before the release so a
            // late refresh can never resurrect a released claim.
            const LeaseRefresher heartbeat(board, job, spec.lease_s);
            cache.store(paths[job], timed_run(job));
          } catch (...) {
            // Never exit holding a claim: peers would wait a full lease
            // to steal a cell this worker isn't computing.
            board.release(job);
            throw;
          }
          board.release(job);
          stored.push_back(job);
          progressed = true;
        }
        queue = std::move(blocked);
        sink.stolen.store(board.stolen());
        if (!queue.empty() && !stopped && !progressed) {
          (void)board.wait_release(epoch, poll, spec.cancel);
        }
      }
      reporter.stop();
      result.cancelled = stopped;

      result.executed_jobs = stored.size();
      result.cache_misses = stored.size();
      result.claims_stolen = board.stolen();
      result.wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();

      WorkerMarker report;
      report.token = board.token();
      report.host = board.host();
      report.pid = static_cast<std::uint64_t>(::getpid());
      report.total_jobs = result.total_jobs;
      report.cache_hits = result.cache_hits;
      report.stolen = board.stolen();
      report.wall_ms = result.wall_s * 1000.0;
      std::sort(stored.begin(), stored.end());
      report.stored = std::move(stored);
      manifest.write_worker_done(report);
      result.marker_path = manifest.worker_marker_path(board.token());
      // No fold: `caem merge` folds the full sweep from pure cache hits
      // once the last worker exits.
      return result;
    }

    if (sharded) {
      // One worker of a distributed launch.  Scan only this shard's
      // slice: claims are keyed by job-index residue (i ≡ shard-1 mod
      // N), so the partition is identical however the N processes
      // interleave — another shard's stores land in other residue
      // classes and can never shift this slice (shard_manifest.hpp).
      for (std::size_t i = spec.shard_index - 1; i < result.total_jobs;
           i += spec.shard_count) {
        ++result.shard_jobs;
        if (std::optional<core::RunResult> hit = cache.load(paths[i])) {
          observe_entry(i, *hit);
          note_hit(paths[i]);
          ++result.cache_hits;
        } else {
          pending.push_back(i);
        }
      }
      hit_count.store(result.cache_hits);
      ProgressReporter reporter(spec.progress_s, progress_out, result.shard_jobs, hit_count,
                                executed_count);
      execute_and_store(nullptr);
      reporter.stop();
      // Publish the completion marker only now: every claimed cell is
      // durably stored first, so a marker can never lie about coverage.
      ShardMarker marker;
      marker.shard = spec.shard_index;
      marker.of = spec.shard_count;
      marker.total_jobs = result.total_jobs;
      marker.cache_hits = result.cache_hits;
      marker.stored = pending;
      manifest.write_done(marker);
      result.marker_path = manifest.marker_path(spec.shard_index, spec.shard_count);
      result.executed_jobs = pending.size();
      result.cache_misses = pending.size();
      // No fold: this process holds a partial result set.  `caem merge`
      // folds the full sweep from pure cache hits.
      result.wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
      return result;
    }

    runs.resize(result.total_jobs);
    for (std::size_t i = 0; i < result.total_jobs; ++i) {
      if (std::optional<core::RunResult> hit = cache.load(paths[i])) {
        observe_entry(i, *hit);
        note_hit(paths[i]);
        runs[i] = std::move(*hit);
        ++result.cache_hits;
      } else {
        pending.push_back(i);
      }
    }
    if (spec.merge_shards) {
      // Census the completion markers: shards without a `.done` marker
      // crashed (or never ran).  The cells they left unfinished are
      // exactly the remaining cache misses, which this process now
      // claims and executes below.  When markers for several shard
      // counts coexist (an aborted launch re-started with a different
      // N), trust the N with the most markers — the majority launch —
      // breaking ties toward the larger N; the stale markers only ever
      // affect this report, never the fold (misses are ground truth).
      const std::vector<ShardMarker> markers = manifest.collect();
      std::size_t best_count = 0;
      for (const ShardMarker& marker : markers) {
        std::size_t count = 0;
        for (const ShardMarker& other : markers) count += other.of == marker.of;
        if (count > best_count ||
            (count == best_count && marker.of > result.shards_expected)) {
          best_count = count;
          result.shards_expected = marker.of;
        }
      }
      for (std::size_t id = 1; id <= result.shards_expected; ++id) {
        const bool done =
            std::any_of(markers.begin(), markers.end(), [&](const ShardMarker& m) {
              return m.of == result.shards_expected && m.shard == id;
            });
        if (done) {
          ++result.shards_done;
        } else {
          result.shards_missing.push_back(id);
        }
      }
      // Worker telemetry census: which worker drained what, at what
      // cost — load imbalance and crash recovery made visible.
      result.workers = manifest.collect_workers();
    }
    hit_count.store(result.cache_hits);
    {
      ProgressReporter reporter(spec.progress_s, progress_out, result.total_jobs, hit_count,
                                executed_count);
      execute_and_store(&runs);
    }
    result.executed_jobs = pending.size();
    if (spec.merge_shards) {
      // Claim the crashed shards' markers so a later merge (or
      // --require-complete) sees a complete census: their unfinished
      // cells are now durably stored by this process.
      for (const std::size_t id : result.shards_missing) {
        ShardMarker claim;
        claim.shard = id;
        claim.of = result.shards_expected;
        claim.total_jobs = result.total_jobs;
        claim.claimed_by_merge = true;
        claim.stored = shard_slice(pending, id, result.shards_expected);
        manifest.write_done(claim);
      }
    }
  } else if (spec.flatten) {
    // One queue over the whole cross product — the irregular-wavefront
    // idiom: keep every worker busy as long as ANY job remains — drained
    // longest-expected-first so the big cells never land on an
    // otherwise-empty pool (a-priori costs only: with no cache there is
    // nothing measured to refine them with).
    std::vector<std::size_t> all(result.total_jobs);
    std::iota(all.begin(), all.end(), std::size_t{0});
    ProgressReporter reporter(spec.progress_s, progress_out, result.total_jobs, hit_count,
                              executed_count);
    runs = core::parallel_runs_ordered(
        result.total_jobs, cost_order(all, job_cost),
        [&](std::size_t i) {
          if (cancel_requested()) throw SweepCancelled();
          core::RunResult run = run_job(i);
          executed_count.fetch_add(1);
          return run;
        },
        spec.threads);
    reporter.stop();
    result.executed_jobs = result.total_jobs;
  } else {
    // Legacy barrier mode: one small pool per (point, protocol), joined
    // before the next starts.  Kept for wall-clock A/B comparisons.
    runs.reserve(result.total_jobs);
    for (std::size_t p = 0; p < grid.size(); ++p) {
      for (const core::Protocol protocol : spec.protocols) {
        if (cancel_requested()) throw SweepCancelled();
        core::Replicated replicated = core::run_replicated(
            configs[p], protocol, spec.base_seed, reps, spec.options, spec.threads);
        for (core::RunResult& run : replicated.runs) runs.push_back(std::move(run));
      }
    }
    result.executed_jobs = result.total_jobs;
  }
  result.cache_misses = result.executed_jobs;

  // Fold back per (point, protocol) in expansion order.
  result.points.reserve(grid.size());
  for (std::size_t p = 0; p < grid.size(); ++p) {
    PointResult point_result;
    point_result.point = grid[p];
    point_result.config = configs[p];
    point_result.protocols.reserve(protocol_count);
    for (std::size_t pr = 0; pr < protocol_count; ++pr) {
      const std::size_t base = (p * protocol_count + pr) * reps;
      std::vector<core::RunResult> slice(runs.begin() + static_cast<std::ptrdiff_t>(base),
                                         runs.begin() + static_cast<std::ptrdiff_t>(base + reps));
      point_result.protocols.push_back({spec.protocols[pr], core::fold_runs(std::move(slice))});
    }
    result.points.push_back(std::move(point_result));
  }

  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  return result;
}

util::TableWriter summary_table(const ScenarioResult& result) {
  std::vector<std::string> headers = result.axis_keys;
  for (const char* column :
       {"protocol", "lifetime_s", "first_death_s", "delivery_rate", "mean_delay_s",
        "p95_delay_s", "energy_per_packet_j", "throughput_bps", "queue_stddev",
        "consumed_j", "reps", "n_delivering"}) {
    headers.emplace_back(column);
  }
  util::TableWriter table(std::move(headers));
  for (const PointResult& point : result.points) {
    for (const ProtocolResult& entry : point.protocols) {
      table.new_row();
      for (const auto& [key, value] : point.point.assignments) {
        (void)key;
        table.cell(value);
      }
      const core::Replicated& r = entry.replicated;
      table.cell(std::string(core::to_string(entry.protocol)))
          .cell(r.lifetime_s.mean(), 1)
          .cell(r.first_death_s.mean(), 1)
          .cell(r.delivery_rate.mean(), 4)
          .cell(r.mean_delay_s.mean(), 4)
          .cell(r.p95_delay_s.mean(), 4)
          .cell(r.energy_per_packet_j.mean(), 6)
          .cell(r.throughput_bps.mean(), 0)
          .cell(r.queue_stddev.mean(), 3)
          .cell(r.total_consumed_j.mean(), 2)
          .cell(r.runs.size())
          // Runs that delivered over the air — the only ones fold_runs
          // lets contribute to the delivery/delay/energy-per-packet
          // means above.  n_delivering < reps flags cells whose means
          // rest on a subset of the replications.
          .cell(r.delivery_rate.count());
    }
  }
  return table;
}

namespace {

void write_with(const util::TableWriter& table, const std::string& path, const char* what,
                void (util::TableWriter::*render)(std::ostream&) const, std::ostream& log) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error(std::string("cannot write ") + what + " to '" + path + "'");
  (table.*render)(out);
  log << "wrote " << what << ": " << path << "\n";
}

/// One trace CSV per (point, protocol): the replication-mean Fig 8
/// (remaining energy, piecewise-linear) and Fig 9 (nodes alive, step)
/// traces on a uniform grid over the cell's simulated span.  Every value
/// is rendered at full round-trip precision, so a sweep re-run from pure
/// cache hits produces byte-identical files (a tested contract).
void write_trace_artifacts(const ScenarioResult& result, const ScenarioSpec& spec,
                           std::ostream& log) {
  namespace fs = std::filesystem;
  std::error_code error;
  fs::create_directories(spec.trace_dir, error);
  if (error) {
    throw std::runtime_error("cannot create trace dir '" + spec.trace_dir +
                             "': " + error.message());
  }
  for (const PointResult& point : result.points) {
    for (const ProtocolResult& entry : point.protocols) {
      const std::vector<core::RunResult>& runs = entry.replicated.runs;
      double span_s = 0.0;
      std::vector<const util::TimeSeries*> energy;
      std::vector<const util::TimeSeries*> alive;
      energy.reserve(runs.size());
      alive.reserve(runs.size());
      for (const core::RunResult& run : runs) {
        span_s = std::max(span_s, run.sim_end_s);
        energy.push_back(&run.avg_remaining_energy);
        alive.push_back(&run.nodes_alive);
      }
      const std::vector<double> grid = util::uniform_grid(0.0, span_s, spec.trace_points);
      const util::TimeSeries energy_mean = util::fold_mean(energy, grid, util::FoldMode::kLinear);
      const util::TimeSeries alive_mean = util::fold_mean(alive, grid, util::FoldMode::kStep);

      const fs::path path = fs::path(spec.trace_dir) /
                            ("p" + std::to_string(point.point.index) + "_" +
                             core::to_string(entry.protocol) + ".csv");
      std::ofstream out(path);
      if (!out) throw std::runtime_error("cannot write trace to '" + path.string() + "'");
      out << "# scenario " << result.scenario_name << ": " << describe(point.point)
          << "; protocol " << core::to_string(entry.protocol) << "; reps " << runs.size()
          << "\n";
      out << "t_s,avg_remaining_energy_j,nodes_alive\n";
      for (std::size_t i = 0; i < grid.size(); ++i) {
        out << util::format_full(energy_mean.points()[i].time_s) << ','
            << util::format_full(energy_mean.points()[i].value) << ','
            << util::format_full(alive_mean.points()[i].value) << '\n';
      }
      log << "wrote trace: " << path.string() << "\n";
    }
  }
}

}  // namespace

void write_outputs(const ScenarioResult& result, const ScenarioSpec& spec, std::ostream& log) {
  if (!spec.csv_path.empty() || !spec.json_path.empty()) {
    const util::TableWriter table = summary_table(result);
    if (!spec.csv_path.empty()) {
      write_with(table, spec.csv_path, "csv", &util::TableWriter::render_csv, log);
    }
    if (!spec.json_path.empty()) {
      write_with(table, spec.json_path, "json", &util::TableWriter::render_json, log);
    }
  }
  if (!spec.trace_dir.empty()) write_trace_artifacts(result, spec, log);
}

}  // namespace caem::scenario
