#include "service/sweep_service.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "scenario/result_cache.hpp"
#include "scenario/sweep.hpp"
#include "scenario/work_queue.hpp"
#include "sim/kernel_stats.hpp"
#include "util/config.hpp"
#include "util/table_writer.hpp"

namespace caem::service {

namespace fs = std::filesystem;

namespace {

HttpResponse json_response(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

HttpResponse error_response(int status, const std::string& message) {
  return json_response(status, "{\"error\":\"" + util::json_escape(message) + "\"}\n");
}

/// Split "/sweeps/s1/artifacts/traces/p0_leach.csv" into segments.
std::vector<std::string> split_target(const std::string& target) {
  std::vector<std::string> segments;
  std::string::size_type start = 1;  // skip leading '/'
  while (start <= target.size()) {
    const auto pos = target.find('/', start);
    if (pos == std::string::npos) {
      if (start < target.size()) segments.push_back(target.substr(start));
      break;
    }
    if (pos > start) segments.push_back(target.substr(start, pos - start));
    start = pos + 1;
  }
  return segments;
}

const char* content_type_for(const fs::path& path) {
  const std::string ext = path.extension().string();
  if (ext == ".json") return "application/json";
  if (ext == ".csv") return "text/csv";
  return "application/octet-stream";
}

}  // namespace

const char* SweepService::to_string(State state) {
  switch (state) {
    case State::kQueued: return "queued";
    case State::kRunning: return "running";
    case State::kDone: return "done";
    case State::kFailed: return "failed";
    case State::kCancelled: return "cancelled";
  }
  return "unknown";
}

SweepService::SweepService(ServeConfig config) : config_(std::move(config)) {
  if (config_.store_dir.empty()) {
    throw std::invalid_argument("SweepService: serve.store_dir is required");
  }
  std::error_code error;
  fs::create_directories(config_.store_dir, error);
  if (error) {
    throw std::runtime_error("SweepService: cannot create store '" + config_.store_dir +
                             "': " + error.message());
  }
  // A previous service's artifacts are reachable only through a reused
  // sweep id, so they go before this service hands out s1.
  const fs::path artifacts = fs::path(config_.store_dir) / "artifacts";
  fs::remove_all(artifacts, error);
  if (error) {
    throw std::runtime_error("SweepService: cannot clear '" + artifacts.string() +
                             "': " + error.message());
  }
  janitor_ = std::make_unique<CacheJanitor>(config_.store_dir, config_.store_budget_bytes,
                                            [this] { return pinned_paths(); });
  if (config_.janitor_interval_s > 0.0 && config_.store_budget_bytes > 0) {
    janitor_->start(config_.janitor_interval_s);
  }
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

SweepService::~SweepService() { stop(); }

void SweepService::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    for (auto& [id, sweep] : sweeps_) {
      (void)id;
      sweep->cancel.store(true);
      if (sweep->state == State::kQueued) sweep->state = State::kCancelled;
    }
  }
  scenario::ClaimBoard::wake_waiters();  // drains blocked on a peer's claim
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  janitor_->stop();
}

std::vector<std::string> SweepService::pinned_paths() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> pins;
  for (const auto& [id, sweep] : sweeps_) {
    (void)id;
    if (sweep->state == State::kQueued || sweep->state == State::kRunning) {
      pins.insert(pins.end(), sweep->entry_paths.begin(), sweep->entry_paths.end());
      pins.push_back(sweep->artifacts_dir);
    }
  }
  return pins;
}

HttpResponse SweepService::handle(const HttpRequest& request) {
  const std::vector<std::string> segments = split_target(request.target);
  if (request.target == "/healthz") {
    if (request.method != "GET") return error_response(405, "GET only");
    HttpResponse response;
    response.content_type = "text/plain";
    response.body = "ok\n";
    return response;
  }
  if (request.target == "/stats") {
    if (request.method != "GET") return error_response(405, "GET only");
    return stats();
  }
  if (!segments.empty() && segments[0] == "sweeps") {
    if (segments.size() == 1) {
      if (request.method != "POST") return error_response(405, "POST a scenario body");
      return submit(request);
    }
    const std::string& id = segments[1];
    if (segments.size() == 2) {
      if (request.method == "GET") return sweep_status(id);
      if (request.method == "DELETE") return sweep_cancel(id);
      return error_response(405, "GET or DELETE");
    }
    if (segments[2] == "artifacts") {
      if (request.method != "GET") return error_response(405, "GET only");
      std::string rel;
      for (std::size_t i = 3; i < segments.size(); ++i) {
        if (!rel.empty()) rel += '/';
        rel += segments[i];
      }
      return artifact(id, rel);
    }
  }
  return error_response(404, "no such route");
}

HttpResponse SweepService::submit(const HttpRequest& request) {
  if (request.body.empty()) return error_response(400, "empty scenario body");

  auto sweep = std::make_unique<Sweep>();
  try {
    // Same parser and namespace as `caem run <file> key=value...`:
    // client overrides arrive appended to the body, and last assignment
    // wins exactly like CLI overrides do.
    sweep->spec = scenario::ScenarioSpec::from_config(util::Config::from_text(request.body));
  } catch (const std::exception& error) {
    return error_response(400, error.what());
  }

  // The service owns execution policy: the store is the cache.
  sweep->spec.cache_dir = config_.store_dir;
  sweep->spec.progress_s = 0.0;

  // Expand the grid NOW: a bad axis/config fails the submit with a 400
  // instead of a failed sweep later, and the entry paths double as the
  // janitor pin set and the precached count.
  std::vector<std::string> keys;
  try {
    const scenario::ResultCache cache(config_.store_dir);
    const std::vector<scenario::GridPoint> grid = scenario::expand_grid(sweep->spec.axes);
    std::vector<core::NetworkConfig> configs;
    configs.reserve(grid.size());
    for (const scenario::GridPoint& point : grid) {
      configs.push_back(sweep->spec.config_at(point));
    }
    sweep->total_jobs = sweep->spec.total_jobs();
    keys.reserve(sweep->total_jobs);
    for (std::size_t i = 0; i < sweep->total_jobs; ++i) {
      const scenario::JobCoords c = scenario::job_coords(sweep->spec, i);
      keys.push_back(cache.entry_key(configs[c.point], sweep->spec.protocols[c.protocol],
                                     sweep->spec.base_seed + c.rep, sweep->spec.options));
    }
  } catch (const std::exception& error) {
    return error_response(400, error.what());
  }
  for (const std::string& key : keys) {
    std::string path = (fs::path(config_.store_dir) / key).string();
    std::error_code error;
    if (fs::exists(path, error) && !error) ++sweep->precached;
    sweep->entry_paths.push_back(std::move(path));
  }

  std::string id;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return error_response(409, "service is shutting down");
    id = "s" + std::to_string(next_id_++);
    sweep->id = id;
    sweep->artifacts_dir = (fs::path(config_.store_dir) / "artifacts" / id).string();
    // Artifacts render into the store's own tree so GET can stream them
    // and a store wipe removes them coherently.
    sweep->spec.csv_path = (fs::path(sweep->artifacts_dir) / "out.csv").string();
    sweep->spec.json_path = (fs::path(sweep->artifacts_dir) / "out.json").string();
    if (!sweep->spec.trace_dir.empty()) {
      sweep->spec.trace_dir = (fs::path(sweep->artifacts_dir) / "traces").string();
    }
    sweeps_.emplace(id, std::move(sweep));
    queue_.push_back(id);
  }
  cv_.notify_all();
  return json_response(201, "{\"id\":\"" + id + "\"}\n");
}

HttpResponse SweepService::sweep_status(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sweeps_.find(id);
  if (it == sweeps_.end()) return error_response(404, "no sweep '" + id + "'");
  const Sweep& sweep = *it->second;

  const std::size_t executed = sweep.progress.executed.load();
  const std::size_t done = std::min(sweep.total_jobs, sweep.precached + executed);
  double elapsed_s = sweep.wall_s;
  if (sweep.state == State::kRunning) {
    elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep.started).count();
  }
  const double rate = elapsed_s > 0.0 ? static_cast<double>(executed) / elapsed_s : 0.0;

  std::ostringstream out;
  out << "{\"id\":\"" << sweep.id << "\",\"state\":\"" << to_string(sweep.state) << '"'
      << ",\"total\":" << sweep.total_jobs << ",\"done\":" << done
      << ",\"precached\":" << sweep.precached << ",\"executed\":" << executed
      << ",\"cells_per_s\":" << util::format_full(rate)
      << ",\"eta_s\":";
  if (done >= sweep.total_jobs) {
    out << 0;
  } else if (rate > 0.0) {
    out << util::format_full(static_cast<double>(sweep.total_jobs - done) / rate);
  } else {
    out << -1;  // unknown yet
  }
  out << ",\"wall_s\":" << util::format_full(elapsed_s);
  if (!sweep.error.empty()) out << ",\"error\":\"" << util::json_escape(sweep.error) << '"';
  if (sweep.state == State::kDone) {
    out << ",\"artifacts\":[";
    bool first = true;
    std::error_code error;
    for (fs::recursive_directory_iterator walk(sweep.artifacts_dir, error), end;
         !error && walk != end; walk.increment(error)) {
      if (!walk->is_regular_file(error) || error) continue;
      if (!first) out << ',';
      first = false;
      out << '"' << util::json_escape(fs::relative(walk->path(), sweep.artifacts_dir).string())
          << '"';
    }
    out << ']';
  }
  out << "}\n";
  return json_response(200, out.str());
}

HttpResponse SweepService::sweep_cancel(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sweeps_.find(id);
  if (it == sweeps_.end()) return error_response(404, "no sweep '" + id + "'");
  Sweep& sweep = *it->second;
  sweep.cancel.store(true);
  scenario::ClaimBoard::wake_waiters();  // drains blocked on a peer's claim
  if (sweep.state == State::kQueued) sweep.state = State::kCancelled;
  return json_response(200, "{\"id\":\"" + id + "\",\"state\":\"" +
                                to_string(sweep.state) + "\",\"cancelling\":true}\n");
}

HttpResponse SweepService::artifact(const std::string& id, const std::string& rel) {
  std::string artifacts_dir;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sweeps_.find(id);
    if (it == sweeps_.end()) return error_response(404, "no sweep '" + id + "'");
    if (it->second->state != State::kDone) {
      return error_response(409, "sweep '" + id + "' is " + to_string(it->second->state) +
                                     " — artifacts appear when it is done");
    }
    artifacts_dir = it->second->artifacts_dir;
  }
  if (rel.empty()) return error_response(404, "artifact path required");
  // Reject traversal: the URL may only name files under artifacts_dir.
  const fs::path rel_path(rel);
  if (rel_path.is_absolute()) return error_response(400, "artifact path must be relative");
  for (const fs::path& segment : rel_path) {
    if (segment == "..") return error_response(400, "artifact path may not contain '..'");
  }
  const fs::path full = fs::path(artifacts_dir) / rel_path;
  std::ifstream in(full, std::ios::binary);
  if (!in) {
    std::error_code error;
    if (!fs::exists(artifacts_dir, error) && !error) {
      return error_response(410, "sweep '" + id +
                                     "' artifacts were evicted to keep the store within "
                                     "serve.store_budget_bytes; resubmit the scenario to "
                                     "render them again from its cached cells");
    }
    return error_response(404, "no artifact '" + rel + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  HttpResponse response;
  response.content_type = content_type_for(full);
  response.body = buffer.str();
  return response;
}

HttpResponse SweepService::stats() {
  std::uint64_t store_bytes = 0;
  std::size_t store_entries = 0;
  for (const scenario::CacheEntryInfo& entry :
       scenario::ResultCache(config_.store_dir).enumerate()) {
    store_bytes += entry.bytes;
    ++store_entries;
  }
  std::size_t queued = 0;
  std::size_t running = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, sweep] : sweeps_) {
      (void)id;
      switch (sweep->state) {
        case State::kQueued: ++queued; break;
        case State::kRunning: ++running; break;
        case State::kDone: ++done; break;
        case State::kFailed: ++failed; break;
        case State::kCancelled: ++cancelled; break;
      }
    }
  }
  std::ostringstream out;
  out << "{\"store\":{\"dir\":\"" << util::json_escape(config_.store_dir)
      << "\",\"bytes\":" << store_bytes << ",\"entries\":" << store_entries
      << ",\"budget_bytes\":" << config_.store_budget_bytes
      << ",\"evicted\":" << janitor_->total_evicted()
      << ",\"bytes_evicted\":" << janitor_->total_bytes_evicted() << "}"
      << ",\"sweeps\":{\"queued\":" << queued << ",\"running\":" << running
      << ",\"done\":" << done << ",\"failed\":" << failed << ",\"cancelled\":" << cancelled
      << "}";
  // Process-wide kernel op totals (folded in as runs complete).
  const sim::KernelCounters kernel = sim::kernel_totals();
  out << ",\"kernel\":{\"scheduled\":" << kernel.scheduled << ",\"fired\":" << kernel.fired
      << ",\"cancelled\":" << kernel.cancelled
      << ",\"tombstones_pruned\":" << kernel.tombstones_pruned << "}}\n";
  return json_response(200, out.str());
}

bool SweepService::wait_idle(double timeout_s) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Judge by state alone: a sweep cancelled while queued stays in
  // queue_ until the dispatcher pops it, and that pop notifies nobody —
  // waiting on an empty queue_ would sleep out the whole timeout.
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), [this] {
    for (const auto& [id, sweep] : sweeps_) {
      (void)id;
      if (sweep->state == State::kQueued || sweep->state == State::kRunning) return false;
    }
    return true;
  });
}

void SweepService::dispatch_loop() {
  for (;;) {
    Sweep* sweep = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      const std::string id = queue_.front();
      queue_.pop_front();
      const auto it = sweeps_.find(id);
      if (it == sweeps_.end() || it->second->state != State::kQueued) continue;
      it->second->state = State::kRunning;
      it->second->started = std::chrono::steady_clock::now();
      sweep = it->second.get();
    }
    run_sweep(*sweep);
    cv_.notify_all();  // wake wait_idle watchers
  }
}

void SweepService::run_sweep(Sweep& sweep) {
  // One cached run against the store: its lanes claim, compute and
  // store each cell, then fold from memory and render the artifacts.
  State terminal = State::kDone;
  std::string error_text;
  try {
    scenario::ScenarioSpec run = sweep.spec;
    run.threads = std::max<std::size_t>(1, config_.drain_threads);
    run.progress_sink = &sweep.progress;
    run.cancel = &sweep.cancel;
    run.record_touches = true;
    const scenario::ScenarioResult result = scenario::run_scenario(run);
    std::error_code error;
    fs::create_directories(sweep.artifacts_dir, error);
    if (error) {
      throw std::runtime_error("cannot create artifacts dir '" + sweep.artifacts_dir +
                               "': " + error.message());
    }
    std::ostringstream log;
    scenario::write_outputs(result, run, log);
  } catch (const scenario::SweepCancelled&) {
    terminal = State::kCancelled;
  } catch (const std::exception& error) {
    error_text = error.what();
    terminal = State::kFailed;
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  sweep.state = terminal;
  sweep.error = error_text;
  sweep.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep.started).count();
}

}  // namespace caem::service
