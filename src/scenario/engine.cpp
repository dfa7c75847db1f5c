#include "scenario/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "scenario/cost_model.hpp"
#include "scenario/result_cache.hpp"
#include "scenario/work_queue.hpp"
#include "sim/kernel_stats.hpp"
#include "util/atomic_file.hpp"
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
  result.cache_enabled = !spec.cache_dir.empty();

  // Job order is (point, protocol, rep) row-major so fold-back is an
  // index computation, and each job's seed depends only on its rep
  // index — results are independent of thread scheduling.
  const auto run_job = [&](std::size_t i) {
    const JobCoords c = job_coords(spec, i);
    return core::SimulationRunner::run(configs[c.point], spec.protocols[c.protocol],
                                       spec.base_seed + c.rep, spec.options);
  };

  // Live drain counters for --progress and any embedding host (caem
  // serve, the CLI's interrupt report) watching through
  // spec.progress_sink.  Scan hits are added before the drain starts;
  // executions tick as they finish on whatever thread ran them.
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
  if (!result.cache_enabled) {
    // -- the uncached drain: one in-memory queue over the whole cross
    //    product (a-priori costs only: with no cache there is nothing
    //    measured to refine them with) --
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
    // -- the claim drain --
    //
    // One shared queue, any number of processes: each cell is won by
    // whichever lane claims it first (work_queue.hpp), so a fast
    // process simply claims more cells, and each cell is stored the
    // moment it finishes.  Every lane repeats passes over its
    // unresolved cells until the CACHE holds them — claims gate
    // execution, never completion — so the drain also outlives a peer's
    // crash: the kernel frees a dead holder's claims and a lane here
    // takes them over.
    const ResultCache cache(spec.cache_dir);
    std::vector<std::string> keys(result.total_jobs);
    std::vector<std::string> paths(result.total_jobs);
    for (std::size_t i = 0; i < result.total_jobs; ++i) {
      const JobCoords c = job_coords(spec, i);
      keys[i] = cache.entry_key(configs[c.point], spec.protocols[c.protocol],
                                spec.base_seed + c.rep, spec.options);
      paths[i] = (std::filesystem::path(spec.cache_dir) / keys[i]).string();
    }

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

    // Scan: hits fill their fold slot and never enter the queue.
    runs.resize(result.total_jobs);
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < result.total_jobs; ++i) {
      if (std::optional<core::RunResult> hit = cache.load(paths[i])) {
        observe_entry(i, *hit);
        note_hit(paths[i]);
        runs[i] = std::move(*hit);
        ++result.cache_hits;
      } else {
        todo.push_back(i);
      }
    }
    hit_count.store(result.cache_hits);
    ProgressReporter reporter(spec.progress_s, progress_out, result.total_jobs, hit_count,
                              executed_count);

    const std::vector<std::size_t> queue = cost_order(todo, job_cost);
    const std::size_t threads =
        spec.threads != 0 ? spec.threads
                          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
    // No lanes (and no lock file touched) when the scan found every cell.
    const std::size_t lanes = std::min(threads, queue.size());
    // One board (one open file description, hence one claimant) per lane.
    std::vector<ClaimBoard> boards;
    boards.reserve(lanes);
    for (std::size_t k = 0; k < lanes; ++k) boards.emplace_back(spec.cache_dir);

    struct Lane {
      std::size_t stored = 0;           ///< cells this lane executed and stored
      std::size_t hits = 0;             ///< cells it found stored mid-drain
      bool stopped = false;             ///< left cells unresolved (cancel or a sibling's error)
      std::exception_ptr error;
    };
    std::vector<Lane> lane_results(lanes);
    // Lanes of this process split the queue through `taken` instead of
    // contending on claims: the first pass takes each cell for
    // exactly one lane, which then owns it until it is resolved.
    std::vector<std::atomic<bool>> taken(result.total_jobs);
    std::atomic<bool> failed{false};
    // While every cell a lane owns is held by a peer, it blocks on the
    // store's release epoch (work_queue.hpp, WAIT): a release in this
    // process wakes it at once, and a cancel does too.  The timeout
    // (ClaimBoard::kPeerPoll) picks up releases and deaths of peers in
    // OTHER processes, which are invisible to the epoch.
    const auto drain = [&](std::size_t lane) {
      ClaimBoard& board = boards[lane];
      Lane& out = lane_results[lane];
      const auto settle_hit = [&](std::size_t job, core::RunResult& hit) {
        // A peer finished it since the scan: a hit, not ours.
        note_hit(paths[job]);
        ++out.hits;
        hit_count.fetch_add(1);
        runs[job] = std::move(hit);
      };
      try {
        std::vector<std::size_t> pending = queue;
        for (bool first_pass = true; !pending.empty(); first_pass = false) {
          // Snapshot before the pass: a release after it ends the wait
          // below; one before it stored its cell, which this pass sees.
          const std::uint64_t epoch = board.release_epoch();
          bool progressed = false;
          std::vector<std::size_t> blocked;
          for (const std::size_t job : pending) {
            if (first_pass && taken[job].exchange(true)) continue;  // a sibling lane's
            // Cooperative stop between cells (never mid-cell: a started
            // cell completes and stores — stopping never wastes work
            // already done, and no claim is held here).  Checked only
            // on a cell this lane owns, so a stop after the last cell
            // started leaves nothing unresolved and the run still folds.
            if (cancel_requested() || failed.load()) {
              out.stopped = true;
              break;
            }
            if (std::optional<core::RunResult> hit = cache.load(paths[job])) {
              settle_hit(job, *hit);
              progressed = true;
              continue;
            }
            if (board.try_claim(keys[job]) == ClaimBoard::Claim::kBusy) {
              blocked.push_back(job);
              continue;
            }
            // Won.  Re-check under the claim: the previous holder may
            // have stored and released between our load and our acquire.
            if (std::optional<core::RunResult> hit = cache.load(paths[job])) {
              board.release(keys[job]);
              settle_hit(job, *hit);
              progressed = true;
              continue;
            }
            core::RunResult run;
            try {
              run = timed_run(job);
              cache.store(paths[job], run);
            } catch (...) {
              // Release now, so a peer waiting in this process wakes at
              // once instead of at its next poll.
              board.release(keys[job]);
              throw;
            }
            board.release(keys[job]);
            ++out.stored;
            runs[job] = std::move(run);
            progressed = true;
          }
          if (out.stopped) break;
          pending = std::move(blocked);
          if (!pending.empty() && !progressed) {
            (void)board.wait_release(epoch, ClaimBoard::kPeerPoll, spec.cancel);
          }
        }
      } catch (...) {
        out.error = std::current_exception();
        out.stopped = true;
        failed.store(true);
      }
    };
    {
      std::vector<std::thread> helpers;
      try {
        for (std::size_t k = 1; k < lanes; ++k) helpers.emplace_back(drain, k);
      } catch (...) {
        failed.store(true);  // a thread failed to start: stop the started lanes
        for (std::thread& helper : helpers) helper.join();
        throw;
      }
      if (lanes > 0) drain(0);
      for (std::thread& helper : helpers) helper.join();
    }
    reporter.stop();

    bool stopped = false;
    for (std::size_t k = 0; k < lanes; ++k) {
      const Lane& lane = lane_results[k];
      if (lane.error) std::rethrow_exception(lane.error);
      result.executed_jobs += lane.stored;
      result.cache_hits += lane.hits;
      stopped = stopped || lane.stopped;
    }
    // Every claim is released by now and every finished cell stored.
    if (stopped) throw SweepCancelled();
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
  std::ostringstream out;
  (table.*render)(out);
  util::atomic_write_file(path, out.str(), what);
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
      std::ostringstream out;
      out << "# scenario " << result.scenario_name << ": " << describe(point.point)
          << "; protocol " << core::to_string(entry.protocol) << "; reps " << runs.size()
          << "\n";
      out << "t_s,avg_remaining_energy_j,nodes_alive\n";
      for (std::size_t i = 0; i < grid.size(); ++i) {
        out << util::format_full(energy_mean.points()[i].time_s) << ','
            << util::format_full(energy_mean.points()[i].value) << ','
            << util::format_full(alive_mean.points()[i].value) << '\n';
      }
      util::atomic_write_file(path.string(), out.str(), "trace");
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
