// serve_workload.cpp — sweeps drained through an in-process `caem serve`.
//
// A closed loop: one client thread, one connection at a time, against a
// SweepService (default 2 drain threads) behind an HttpEndpoint on
// 127.0.0.1, port 0.  Each cycle POSTs a distinct-seed routed corner-sink
// sweep (caem-scheme1, 100 nodes, 200 m field, sink at (0,0), routing.kind
// in {direct, greedy, chain}, 2 reps: 6 cells), polls GET /sweeps/<id>
// until it is done, fetches the CSV/JSON artifacts, then resubmits the
// same text so every cell is a store hit.  Cold sweeps load the store's
// write path (claims, stores, fold, render, the drain tail) and the
// routing layer, which runs nowhere else; warm sweeps load its read path.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/run_result_io.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_cache.hpp"
#include "scenario/scenario_spec.hpp"
#include "service/http_endpoint.hpp"
#include "service/sweep_service.hpp"
#include "sim/kernel_stats.hpp"
#include "util/config.hpp"

namespace caembench {
namespace {

namespace fs = std::filesystem;
using caem::service::HttpRequest;
using caem::service::HttpResponse;

// Status polls back off from 0.25 ms by 1.5x per poll up to 16 ms: fine
// enough early on to time warm sweeps, yet few connections per run (each
// leaves a TIME_WAIT socket on the host for 60 s).
constexpr double kFirstPoll_s = 0.25e-3;
constexpr double kPollBackoff = 1.5;
constexpr double kMaxPoll_s = 16e-3;
// Set-up samples, all taken before the run opens any connection of its own.
constexpr int kSetupSamples = 25;
// Peak memory is read after this many cycles, not at the end of the run:
// the service keeps a record of every sweep it served, so a peak over the
// whole run would grow with the number of cycles a faster program fits in.
constexpr std::size_t kRssCycles = 10;
constexpr double kSweepTimeout_s = 120.0;
constexpr const char* kArtifacts[] = {"out.csv", "out.json"};

std::string sweep_text(const std::string& protocol, std::uint64_t seed) {
  return "scenario.name = bench-serve\n"
         "scenario.protocols = " + protocol + "\n"
         "scenario.seed = " + std::to_string(seed) + "\n"
         "scenario.reps = 2\n"
         "scenario.max_sim_s = 20\n"
         "node_count = 100\n"
         "field_size_m = 200\n"
         "ch_fraction = 0.08\n"
         "channel.radio_range_m = 150\n"
         "routing.sink_x_m = 0\n"
         "routing.sink_y_m = 0\n"
         "sweep.routing.kind = list:direct,greedy,chain\n";
}

caem::scenario::ScenarioSpec spec_of(const std::string& text) {
  return caem::scenario::ScenarioSpec::from_config(caem::util::Config::from_text(text));
}

/// Where `cache` keeps each cell of `spec`, in job order.
std::vector<std::string> cell_paths(const caem::scenario::ResultCache& cache,
                                    const caem::scenario::ScenarioSpec& spec) {
  const std::vector<caem::scenario::GridPoint> grid = caem::scenario::expand_grid(spec.axes);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < spec.total_jobs(); ++i) {
    const caem::scenario::JobCoords c = caem::scenario::job_coords(spec, i);
    paths.push_back(cache.entry_path(spec.config_at(grid[c.point]), spec.protocols[c.protocol],
                                     spec.base_seed + c.rep, spec.options));
  }
  return paths;
}

/// Raw token after `"key":` in a flat JSON document ("" when absent).
std::string json_field(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return "";
  std::size_t begin = at + needle.size();
  std::size_t end = begin;
  if (body[begin] == '"') {
    end = body.find('"', ++begin);
  } else {
    while (end < body.size() && body[end] != ',' && body[end] != '}') ++end;
  }
  return end == std::string::npos ? "" : body.substr(begin, end - begin);
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string artifacts_fnv(const std::vector<std::string>& bodies) {
  std::string framed;
  for (const std::string& body : bodies) framed += std::to_string(body.size()) + ':' + body;
  return fnv1a_hex(framed);
}

/// Route label of a request, for per-route handler timing.
std::string route_of(const HttpRequest& request) {
  if (request.method == "POST") return "submit";
  if (request.target.find("/artifacts/") != std::string::npos) return "artifact";
  if (request.target.rfind("/sweeps/", 0) == 0) return "status";
  return "other";
}

/// SweepService::handle as the endpoint sees it; while tracing, each call
/// is timed per route and spanned under the client span waiting for it
/// (one connection at a time, so that span is unambiguous).
class TimedHandler {
 public:
  explicit TimedHandler(caem::service::SweepService* service) : service_(service) {}

  HttpResponse operator()(const HttpRequest& request) {
    if (!Tracer::instance().enabled()) return service_->handle(request);
    const std::string route = route_of(request);
    const ScopedSpan span("service.handle:" + route, 0, client_span.load());
    const auto start = Clock::now();
    HttpResponse response = service_->handle(request);
    const double us = 1e6 * seconds_since(start);
    const std::lock_guard<std::mutex> lock(mutex_);
    us_[route].push_back(us);
    last_us_ = us;
    return response;
  }

  /// The client span of the request in flight.
  std::atomic<std::uint64_t> client_span{0};

  /// Handler time of the most recent request (one connection at a time).
  double last_us() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return last_us_;
  }
  std::map<std::string, std::vector<double>> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(us_, {});
  }

 private:
  caem::service::SweepService* service_;
  std::mutex mutex_;
  std::map<std::string, std::vector<double>> us_;
  double last_us_ = 0.0;
};

/// The sweep service, up until destruction.  HttpEndpoints in front of it
/// come and go: an endpoint keeps the thread of every connection it
/// accepted until stop(), so a long-lived one would grow with the number
/// of requests a run fits in.
struct Service {
  explicit Service(const std::string& store_dir)
      : service(make_config(store_dir)), handler(&service) {}
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  static caem::service::ServeConfig make_config(const std::string& store_dir) {
    caem::service::ServeConfig config;  // defaults: 2 drain threads, 30 s lease
    config.store_dir = store_dir;
    return config;
  }

  caem::service::HttpEndpoint::Handler http_handler() {
    return [this](const HttpRequest& request) { return handler(request); };
  }

  caem::service::SweepService service;
  TimedHandler handler;
};

struct SweepOutcome {
  bool done = false;
  double latency_s = 0.0;  ///< POST sent -> state done observed
  double tail_ms = -1.0;   ///< done == total observed -> state done observed
  std::vector<double> poll_ms;
  std::vector<double> overhead_us;  ///< poll round trip minus handler time
  std::string final_status;
  /// FNV-1a of the artifact bodies, in kArtifacts order: a run keeps no
  /// bodies, so its memory does not grow with the cycles it fits in.
  std::string artifacts_fnv;
};

class Client {
 public:
  Client(Service& service, std::uint16_t port, Report& report)
      : service_(service), port_(port), report_(report) {}

  HttpResponse request(const std::string& method, const std::string& target,
                       const std::string& body = "") {
    service_.handler.client_span.store(ScopedSpan::current());
    HttpResponse response;
    try {
      response = caem::service::http_request(port_, method, target, body);
    } catch (const std::exception& error) {
      response.status = 0;
      response.body = error.what();
    }
    report_.check(response.status >= 200 && response.status < 300,
                  method + " " + target + " -> " + std::to_string(response.status) + " " +
                      response.body.substr(0, 200));
    return response;
  }

  SweepOutcome submit_and_wait(const std::string& text, const char* label) {
    const ScopedSpan sweep_span(std::string("client.sweep:") + label);
    SweepOutcome out;
    const auto start = Clock::now();
    std::string id;
    {
      const ScopedSpan span("client.submit");
      id = json_field(request("POST", "/sweeps", text).body, "id");
    }
    std::string state;
    std::optional<Clock::time_point> all_cells_done;
    for (double pause = kFirstPoll_s; !id.empty() && seconds_since(start) < kSweepTimeout_s;
         pause = std::min(pause * kPollBackoff, kMaxPoll_s)) {
      std::this_thread::sleep_for(std::chrono::duration<double>(pause));
      if (poll(id, start, out, state, all_cells_done)) break;
    }
    out.done = state == "done";
    report_.check(out.done, std::string(label) + " sweep " + id + " ended '" + state + "'");
    if (out.done) {
      const ScopedSpan span("client.fetch");
      std::vector<std::string> bodies;
      for (const char* name : kArtifacts) {
        bodies.push_back(request("GET", "/sweeps/" + id + "/artifacts/" + name).body);
      }
      out.artifacts_fnv = artifacts_fnv(bodies);
    }
    return out;
  }

 private:
  /// One status poll; true once the sweep reached a terminal state.
  bool poll(const std::string& id, Clock::time_point start, SweepOutcome& out,
            std::string& state, std::optional<Clock::time_point>& all_cells_done) {
    const ScopedSpan span("client.poll");
    const auto poll_start = Clock::now();
    const HttpResponse status = request("GET", "/sweeps/" + id);
    const auto poll_end = Clock::now();
    out.poll_ms.push_back(1e3 * seconds_between(poll_start, poll_end));
    out.overhead_us.push_back(1e6 * seconds_between(poll_start, poll_end) -
                              service_.handler.last_us());
    state = json_field(status.body, "state");
    const std::string done = json_field(status.body, "done");
    if (!all_cells_done && !done.empty() && done == json_field(status.body, "total")) {
      all_cells_done = poll_end;
    }
    if (state == "queued" || state == "running") return false;
    out.final_status = status.body;
    out.latency_s = seconds_between(start, poll_end);
    if (all_cells_done) out.tail_ms = 1e3 * seconds_between(*all_cells_done, poll_end);
    return true;
  }

  Service& service_;
  std::uint16_t port_;
  Report& report_;
};

/// One cold sweep and its warm resubmission.
struct Cycle {
  std::string text;
  SweepOutcome cold;
  SweepOutcome warm;
  double wall_s = 0.0;
};

/// Runs behind an endpoint of its own: stopping it at the end joins the
/// cycle's connection threads, so a run's memory does not depend on how
/// many cycles it fits in.
Cycle run_cycle(Service& service, std::string text, Report& report) {
  const caem::service::HttpEndpoint endpoint(0, service.http_handler());
  Client client(service, endpoint.port(), report);
  const std::uint64_t group = ScopedSpan::new_group();
  Tracer::instance().set_ambient_group(group);
  const ScopedSpan span("client.cycle", group);
  Cycle cycle;
  cycle.text = std::move(text);
  const auto start = Clock::now();
  cycle.cold = client.submit_and_wait(cycle.text, "cold");
  cycle.warm = client.submit_and_wait(cycle.text, "warm");
  cycle.wall_s = seconds_since(start);
  if (cycle.cold.done && cycle.warm.done) {
    report.check(cycle.warm.artifacts_fnv == cycle.cold.artifacts_fnv,
                 "warm artifacts differ from cold artifacts");
    report.check(json_field(cycle.warm.final_status, "executed") == "0",
                 "warm resubmission executed cells: " + cycle.warm.final_status);
  }
  return cycle;
}

void sample_cycle(const Cycle& cycle, Report& report) {
  report.sample("service.sweep_cold_p50_s", cycle.cold.latency_s);
  report.sample("service.sweep_warm_p50_s", cycle.warm.latency_s);
  report.sample("service.polls", static_cast<double>(cycle.cold.poll_ms.size()));
  if (cycle.cold.tail_ms >= 0.0) report.sample("service.tail_ms", cycle.cold.tail_ms);
  for (const SweepOutcome* sweep : {&cycle.cold, &cycle.warm}) {
    for (const double ms : sweep->poll_ms) report.sample("service.poll_p50_ms", ms);
  }
}

/// The tail of the status polls sampled so far.
void record_poll_p99(Report& report) {
  const std::vector<double> polls = report.samples("service.poll_p50_ms");
  if (!polls.empty()) report.set("service.poll_p99_ms", percentile(polls, 99.0));
}

/// The reference: run_scenario + write_outputs of the same text in this
/// process, without the store.  Fetched artifacts must match it byte for byte.
void check_against_direct_run(const Cycle& cycle, const fs::path& dir, Report& report) {
  if (!cycle.cold.done) return;
  fs::create_directories(dir);
  caem::scenario::ScenarioSpec spec = spec_of(cycle.text);
  spec.csv_path = (dir / kArtifacts[0]).string();
  spec.json_path = (dir / kArtifacts[1]).string();
  std::ostringstream log;
  caem::scenario::write_outputs(caem::scenario::run_scenario(spec), spec, log);
  const std::string direct = artifacts_fnv({read_file(spec.csv_path), read_file(spec.json_path)});
  report.check(direct == cycle.cold.artifacts_fnv,
               "served artifacts differ from a direct run_scenario of the same text");
  fs::remove_all(dir);
}

/// Service and endpoint up, and the first /healthz answered by the
/// service's handler.  Not over the socket: the round trip's hand-offs
/// between threads made this 0.1 ms figure move 2x with the host's state;
/// every cycle times the HTTP path.
double setup_once(const fs::path& store, Report& report) {
  const auto start = Clock::now();
  double seconds = 0.0;
  {
    Service service(store.string());
    const caem::service::HttpEndpoint endpoint(0, service.http_handler());
    HttpRequest healthz;
    healthz.method = "GET";
    healthz.target = "/healthz";
    const HttpResponse health = service.handler(healthz);
    seconds = seconds_since(start);
    report.check(health.status == 200,
                 "/healthz -> " + std::to_string(health.status) + " " + health.body);
  }
  return seconds;
}

/// Every stored cell of a sweep's text, in job order.
std::vector<caem::core::RunResult> stored_cells(const std::string& store,
                                                const std::string& text) {
  const caem::scenario::ResultCache cache(store);
  std::vector<caem::core::RunResult> cells;
  for (const std::string& path : cell_paths(cache, spec_of(text))) {
    if (auto result = cache.load(path)) cells.push_back(std::move(*result));
  }
  return cells;
}

void check_cells(const std::string& store, const Cycle& cycle, Report& report) {
  const caem::scenario::ScenarioSpec spec = spec_of(cycle.text);
  const std::vector<caem::core::RunResult> cells = stored_cells(store, cycle.text);
  report.check(cells.size() == spec.total_jobs(), "sweep cells missing from the store");
  for (const caem::core::RunResult& cell : cells) {
    const std::string error = conservation_error(cell, spec.base_config);
    report.check(error.empty(), "serve cell seed " + std::to_string(cell.seed) + ": " + error);
  }
}

// ------------------------------------------------------------ timed run

void timed_run(const Args& args, Report& report) {
  const fs::path work = args.work_dir;
  const fs::path store = work / "store";
  // On an existing, empty store: a restart, and no directory writes that
  // would wait on the host's disk.  A first burst, not sampled, faults in
  // the thread stacks and allocator state; measured, it ran about twice
  // as slow and spread wider from run to run.
  fs::create_directories(work / "setup");
  for (int k = 0; k < 2 * kSetupSamples; ++k) {
    const double seconds = setup_once(work / "setup", report);
    if (k >= kSetupSamples) report.sample("setup_s", seconds);
  }
  fs::remove_all(work / "setup");
  std::vector<Cycle> cycles;
  {
    Service service(store.string());
    const auto begin = Clock::now();
    for (std::uint64_t i = 0; i == 0 || seconds_since(begin) < args.seconds; ++i) {
      cycles.push_back(run_cycle(service, sweep_text("caem-scheme1", args.seed + 2 * i), report));
      sample_cycle(cycles.back(), report);
      report.sample("wall_s", cycles.back().wall_s);
      if (cycles.size() == kRssCycles) report.set("peak_rss_mb", peak_rss_mb());
    }
  }
  if (cycles.size() < kRssCycles) report.set("peak_rss_mb", peak_rss_mb());
  record_poll_p99(report);
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    check_cells(store.string(), cycles[i], report);
    check_against_direct_run(cycles[i], work / ("direct-" + std::to_string(i)), report);
  }
}

// ----------------------------------------------------------- traced run

SimCounts sweep_counts(const std::vector<caem::core::RunResult>& cells) {
  SimCounts counts;
  for (const caem::core::RunResult& cell : cells) counts += counts_of(cell);
  return counts;
}

void traced_run(const Args& args, Report& report) {
  const fs::path work = args.work_dir;
  const fs::path store = work / "store";
  const std::string builtin = "caem-scheme1";
  const std::string traced = traced_protocol(builtin, true).name();
  Tracer& tracer = Tracer::instance();

  std::vector<Cycle> cycles;
  {
    Service service(store.string());

    // The first traced cycle simulates the same cells as the untraced
    // reference cycle after it, and warms the process up for it.
    const caem::sim::KernelCounters kernel_before = caem::sim::kernel_totals();
    tracer.set_enabled(true);
    cycles.push_back(run_cycle(service, sweep_text(traced, args.seed), report));
    sample_cycle(cycles.back(), report);
    const LayerTotals totals = take_layer_totals();
    const caem::sim::KernelCounters kernel = caem::sim::kernel_totals();
    tracer.set_enabled(false);
    const Cycle reference = run_cycle(service, sweep_text(builtin, args.seed), report);
    tracer.set_enabled(true);

    const std::vector<caem::core::RunResult> cells =
        stored_cells(store.string(), cycles.front().text);
    const SimCounts counts = sweep_counts(cells);
    report.check(counts == sweep_counts(stored_cells(store.string(), reference.text)),
                 "traced sweep cells differ from the untraced sweep's");
    counts.record(report);
    report.set("sim.scheduled", static_cast<double>(kernel.scheduled - kernel_before.scheduled));
    report.set("sim.cancelled", static_cast<double>(kernel.cancelled - kernel_before.cancelled));
    double cell_wall_s = 0.0;
    for (const caem::core::RunResult& cell : cells) {
      cell_wall_s += cell.wall_ms / 1e3;
      report.sample("core.run_s." + builtin, cell.wall_ms / 1e3);
    }
    report.set("sim.events_per_s", static_cast<double>(counts.events) / cell_wall_s);
    report.note("core.run_s." + builtin, "per 20 s cell, as stamped by the engine (wall_ms)");
    report.set("routing.plans", static_cast<double>(totals.plans));
    report.set("routing.plan_ns", totals.plans == 0 ? 0.0
                                                    : static_cast<double>(totals.plan_ns) /
                                                          static_cast<double>(totals.plans));
    report.set("routing.relay_hops", static_cast<double>(totals.relay_hops));
    report.set("routing.unreachable", static_cast<double>(totals.unreachable));
    report.set("leach.rounds", static_cast<double>(totals.rounds));
    for (const double ms : totals.next_round_ms) report.sample("leach.next_round_ms", ms);
    const std::string stolen = json_field(cycles.front().cold.final_status, "stolen");
    report.set("scenario.stolen", stolen.empty() ? 0.0 : std::stod(stolen));

    // Traced cycles alternate with untraced ones on the same seeds (the
    // protocol names differ, so both are cold): the worker tail makes
    // single cycles vary two-fold, so the overhead compares medians.
    std::vector<double> untraced_wall_s = {reference.wall_s};
    const auto begin = Clock::now();
    for (std::uint64_t i = 1; i < 3 || seconds_since(begin) < args.seconds; ++i) {
      cycles.push_back(run_cycle(service, sweep_text(traced, args.seed + 2 * i), report));
      sample_cycle(cycles.back(), report);
      report.sample("wall_s", cycles.back().wall_s);
      tracer.set_enabled(false);
      untraced_wall_s.push_back(
          run_cycle(service, sweep_text(builtin, args.seed + 2 * i), report).wall_s);
      tracer.set_enabled(true);
    }
    record_poll_p99(report);
    report.set("trace.overhead_frac",
               median(report.samples("wall_s")) / median(untraced_wall_s) - 1.0);
    report.note("trace.overhead_frac",
                "median traced cycle wall_s over the median of " +
                    std::to_string(untraced_wall_s.size()) +
                    " interleaved untraced cycles, minus 1");

    for (const auto& [route, us] : service.handler.take()) {
      for (const double value : us) report.sample("service.handle_" + route + "_us", value);
    }
    for (const Cycle& cycle : cycles) {
      for (const SweepOutcome* sweep : {&cycle.cold, &cycle.warm}) {
        for (const double us : sweep->overhead_us) report.sample("service.http_overhead_us", us);
      }
    }

    // The janitor pass the service runs periodically, on this store.
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = Clock::now();
      (void)service.service.janitor().sweep_once();
      report.sample("service.janitor_sweep_ms", 1e3 * seconds_since(start));
    }
    report.note("service.janitor_sweep_ms",
                "replay: CacheJanitor::sweep_once on the workload's store after " +
                    std::to_string(2 * cycles.size() + 2) + " sweeps");
  }

  // Store and result-format replays on the first traced sweep's cells.
  const caem::scenario::ScenarioSpec spec = spec_of(cycles.front().text);
  const caem::scenario::ResultCache cache(store.string());
  const caem::scenario::ResultCache scratch((work / "replay-store").string());
  const std::vector<std::string> paths = cell_paths(cache, spec);
  const std::vector<std::string> scratch_paths = cell_paths(scratch, spec);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto cell = cache.load(paths[i]);
    if (!cell) continue;  // check_cells below counts the missing cell
    const std::string json = caem::core::to_json(*cell);
    report.sample("scenario.cache_load_us", median_call_us(21, [&] { (void)cache.load(paths[i]); }));
    report.sample("scenario.cache_store_us",
                  median_call_us(21, [&] { scratch.store(scratch_paths[i], *cell); }));
    report.sample("core.result_serialize_us",
                  median_call_us(21, [&] { (void)caem::core::to_json(*cell); }));
    report.sample("core.result_parse_us",
                  median_call_us(21, [&] { (void)caem::core::run_result_from_json(json); }));
  }
  for (const char* name : {"scenario.cache_load_us", "scenario.cache_store_us",
                           "core.result_serialize_us", "core.result_parse_us"}) {
    report.note(name, "replay over the " + std::to_string(paths.size()) +
                          " cells of the first traced sweep, median of 21 calls each");
  }

  // Fold + render from the store (every cell a hit), as the service's merge does.
  fs::create_directories(work / "fold");
  for (const Cycle& cycle : cycles) {
    caem::scenario::ScenarioSpec fold = spec_of(cycle.text);
    fold.cache_dir = store.string();
    fold.csv_path = (work / "fold" / kArtifacts[0]).string();
    fold.json_path = (work / "fold" / kArtifacts[1]).string();
    const auto start = Clock::now();
    std::ostringstream log;
    caem::scenario::write_outputs(caem::scenario::run_scenario(fold), fold, log);
    report.sample("scenario.fold_render_ms", 1e3 * seconds_since(start));
  }

  // Channel replay on the first cell's layout: its network, built here,
  // runs the first LEACH round through the decorator.
  {
    const caem::core::NetworkConfig config =
        spec.config_at(caem::scenario::expand_grid(spec.axes).front());
    caem::core::Network network(config, spec.protocols.front(), spec.base_seed);
    network.start();
    network.simulator().run_until(0.0);
    record_replays(spec.base_seed, config, last_leach_capture(), 0, report);
  }
  for (const Cycle& cycle : cycles) check_cells(store.string(), cycle, report);
  check_against_direct_run(cycles.front(), work / "direct-0", report);
}

}  // namespace

void run_serve_workload(const Args& args, Report& report) {
  if (args.trace) {
    traced_run(args, report);
  } else {
    timed_run(args, report);
  }
}

}  // namespace caembench
