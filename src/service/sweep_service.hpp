// sweep_service.hpp — the long-running sweep daemon behind `caem serve`.
//
// One process owns one result store and executes submitted sweeps
// against it, so the cache stops being a per-invocation accident and
// becomes managed infrastructure:
//
//   POST /sweeps                submit a scenario (request body = the
//                               .scn text; client-side overrides are
//                               appended as ordinary key=value lines —
//                               last assignment wins, same as the CLI)
//   GET  /sweeps/<id>           live progress JSON: done/total cells,
//                               hit/executed split, stolen claims,
//                               cells/s, ETA — safe to poll from any
//                               number of clients
//   GET  /sweeps/<id>/artifacts/<path>   rendered outputs (CSV/JSON/
//                               trace files), byte-identical to a
//                               direct `caem run` of the same scenario
//   DELETE /sweeps/<id>         cooperative cancel (finished cells stay
//                               cached; no partial artifacts appear)
//   GET  /healthz               liveness probe ("ok")
//   GET  /stats                 store size/entries, eviction counters,
//                               sweep-state census
//
// Execution reuses the engine wholesale — no second scheduler: a
// submitted sweep is ONE cached run_scenario against the store with
// serve.workers lanes.  The lanes split the queue in memory, claim each
// cell in the store's ClaimBoard (so external `caem run --cache-dir`
// processes pointed at the store can join the drain), store every cell
// as it finishes, and fold from memory into artifacts byte-identical to
// `caem run`.  Progress is observed through ScenarioSpec::progress_sink
// and cancellation through ScenarioSpec::cancel — the hooks exist
// precisely so the service never has to reimplement drain logic.
//
// The store is bounded by a CacheJanitor (serve.store_budget_bytes)
// scoring entries touches x wall_ms / bytes; entries of queued/running
// sweeps are pinned so eviction can never run a live drain backwards.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "scenario/engine.hpp"
#include "scenario/scenario_spec.hpp"
#include "service/cache_janitor.hpp"
#include "service/http_endpoint.hpp"

namespace caem::service {

struct ServeConfig {
  std::string store_dir;                 ///< result store root (required)
  std::uint64_t store_budget_bytes = 0;  ///< 0 = unbounded store
  std::size_t drain_threads = 2;         ///< drain lanes per sweep
  double lease_s = 30.0;                 ///< claim lease for the drain
  double janitor_interval_s = 2.0;       ///< <= 0: sweep only on demand
};

class SweepService {
 public:
  explicit SweepService(ServeConfig config);

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Cancels everything in flight and joins; destructor stops too.
  ~SweepService();
  void stop();

  /// Route one request.  Pure state-machine entry point — the HTTP
  /// endpoint calls it per connection, tests call it directly.
  [[nodiscard]] HttpResponse handle(const HttpRequest& request);

  /// Block until no sweep is queued or running (test/shutdown helper).
  /// False on timeout.
  bool wait_idle(double timeout_s);

  [[nodiscard]] CacheJanitor& janitor() noexcept { return *janitor_; }
  [[nodiscard]] const std::string& store_dir() const noexcept { return config_.store_dir; }

 private:
  enum class State { kQueued, kRunning, kDone, kFailed, kCancelled };
  static const char* to_string(State state);

  struct Sweep {
    std::string id;
    scenario::ScenarioSpec spec;  ///< cache forced on, outputs remapped
    std::vector<std::string> entry_paths;  ///< pin set, absolute
    std::size_t total_jobs = 0;
    std::size_t precached = 0;  ///< entries already stored at submit
    State state = State::kQueued;
    std::string error;
    /// The drain's live counters; status polls read them before,
    /// while and after the run.
    scenario::ProgressSink progress;
    std::atomic<bool> cancel{false};
    std::chrono::steady_clock::time_point started{};
    double wall_s = 0.0;  ///< drain+fold wall clock once terminal
    std::string artifacts_dir;
  };

  HttpResponse submit(const HttpRequest& request);
  HttpResponse sweep_status(const std::string& id);
  HttpResponse sweep_cancel(const std::string& id);
  HttpResponse artifact(const std::string& id, const std::string& rel);
  HttpResponse stats();

  void dispatch_loop();
  void run_sweep(Sweep& sweep);
  std::vector<std::string> pinned_paths();

  ServeConfig config_;
  std::unique_ptr<CacheJanitor> janitor_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::string, std::unique_ptr<Sweep>> sweeps_;
  std::deque<std::string> queue_;  ///< FIFO of queued sweep ids
  std::size_t next_id_ = 1;
  bool stopping_ = false;
  std::thread dispatcher_;
};

}  // namespace caem::service
