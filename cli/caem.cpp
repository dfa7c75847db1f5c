// caem — unified scenario runner for the CAEM reproduction harness.
//
//   caem run <scenario.scn> [flags] [key=value ...]     run a sweep
//   caem expand <scenario.scn> [key=value ...]          print the grid and the
//                                                       resolved text, run nothing
//   caem protocols                                      list the protocol registry
//   caem serve serve.store_dir=<dir> [serve.* ...]      long-running sweep service
//   caem submit <scenario.scn> [--wait] [key=value ...] POST a sweep to the service
//   caem status [--port|--store] [<id>]                 sweep progress / service stats
//   caem fetch <id> <path> [--out=<file>]               download a finished artifact
//   caem help                                           usage
//
// Flags (run):
//   --cache-dir=<dir> | --cache-dir <dir>   digest-keyed result cache:
//       cells already computed for the same (config digest, protocol,
//       seed, horizon) load instead of executing.  Any number of runs
//       of one sweep may share the dir at once: they drain one claim
//       queue, longest-expected-first, and each folds the whole sweep
//       once every cell is stored
//   --no-cache                              ignore the cache entirely
//   --lease=<secs>       (cached run) claim staleness horizon: a claim
//       unrefreshed this long is presumed crashed and stolen
//   --progress[=secs]    periodic one-line drain report on stderr:
//       cells done/total, hit/executed split, cells/s, ETA
//
// SIGINT/SIGTERM stop a run between cells: the cells in flight finish
// (and, cached, are stored and their claims released), then it prints
// `interrupted` and exits 130.  A second signal terminates at once.
//
// Overrides use the scenario-file namespace (scenario.*, sweep.*,
// output.*, or any NetworkConfig key).  Unknown keys are fatal: a typo
// must never silently run the wrong experiment.  Every run sharing a
// sweep must receive the SAME config-affecting overrides — they change
// the sweep digest, and mismatched runs would simply drain different
// sweeps.
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <semaphore.h>

#include "core/protocol.hpp"
#include "scenario/engine.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/work_queue.hpp"
#include "service/http_endpoint.hpp"
#include "service/sweep_service.hpp"
#include "util/atomic_file.hpp"
#include "util/numeric.hpp"
#include "util/table_writer.hpp"

namespace {

/// SIGINT/SIGTERM latch.  The handler only sets the flag (the one
/// async-signal-safe thing worth doing); `caem serve` polls it and
/// `caem run` passes it as ScenarioSpec::cancel, so an interrupted
/// drain finishes its current cells, releases its claims and exits
/// instead of leaving a stale claim for peers to wait a whole lease on.
/// The handler is one-shot (SA_RESETHAND): a second signal takes the
/// default action and ends a process whose cells are too slow to wait
/// for.
std::atomic<bool> g_interrupted{false};
/// Posted by the handler after the latch is set (sem_post is
/// async-signal-safe; notifying a condition variable is not).
sem_t g_interrupt_posted;

void install_interrupt_handler() {
  ::sem_init(&g_interrupt_posted, 0, 0);
  struct sigaction action {};
  action.sa_handler = [](int) {
    g_interrupted.store(true);
    ::sem_post(&g_interrupt_posted);
  };
  action.sa_flags = SA_RESETHAND;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

/// Carries the latch to a drain blocked on peers' claims: waits for
/// the handler's post, then wakes every claim waiter so the drain sees
/// the flag now rather than at its next filesystem poll.  Destruction
/// posts once more to end the thread when no signal came.
class InterruptWaker {
 public:
  InterruptWaker()
      : thread_([] {
          while (::sem_wait(&g_interrupt_posted) != 0 && errno == EINTR) {
          }
          if (g_interrupted.load()) caem::scenario::ClaimBoard::wake_waiters();
        }) {}
  InterruptWaker(const InterruptWaker&) = delete;
  InterruptWaker& operator=(const InterruptWaker&) = delete;
  ~InterruptWaker() {
    ::sem_post(&g_interrupt_posted);
    thread_.join();
  }

 private:
  std::thread thread_;
};

int usage(std::ostream& out, int exit_code) {
  out << "usage:\n"
         "  caem run <scenario.scn> [flags] [key=value ...]  run the sweep\n"
         "  caem expand <scenario.scn> [key=value ...]       show grid points (and each one's\n"
         "                      cache directory) and the resolved scenario text\n"
         "                      `caem submit` would post, without running\n"
         "  caem protocols      list registered protocols (scenario.protocols accepts any\n"
         "                      name or alias shown there)\n"
         "  caem serve serve.store_dir=<dir> [serve.port=0] [serve.store_budget_bytes=N]\n"
         "             [serve.workers=K] [serve.lease_s=S] [serve.janitor_interval_s=S]\n"
         "                      long-running sweep service on 127.0.0.1 (port 0 = pick one);\n"
         "                      owns the result store, runs each submitted sweep as one\n"
         "                      cached run with K drain lanes, bounds the store to the byte\n"
         "                      budget by utility-ordered eviction (0 = unbounded); writes\n"
         "                      the chosen port to <dir>/serve.endpoint; SIGINT/SIGTERM stop\n"
         "                      it cleanly\n"
         "  caem submit <scenario.scn> [--port=<p>|--store=<dir>] [--wait] [key=value ...]\n"
         "                      POST a sweep to a running service (includes inlined\n"
         "                      first); prints the sweep id; --wait polls until it\n"
         "                      finishes (exit 0 only when done)\n"
         "  caem status [--port=<p>|--store=<dir>] [<id>]\n"
         "                      progress JSON for one sweep, or service /stats without an id\n"
         "  caem fetch <id> <artifact-path> [--port=<p>|--store=<dir>] [--out=<file>]\n"
         "                      download one artifact of a finished sweep (stdout by default)\n"
         "  caem help\n"
         "\n"
         "flags (run):\n"
         "  --cache-dir=<dir>   reuse cached results keyed by (config digest, protocol,\n"
         "                      seed); only cells absent from the cache execute, each\n"
         "                      claimed in the dir (crash-safe leases) and stored as it\n"
         "                      finishes.  Concurrent runs of one sweep share the drain,\n"
         "                      longest-expected-first, and each folds the whole sweep\n"
         "  --no-cache          neither read nor write the cache\n"
         "  --lease=<secs>      cached runs: claim staleness horizon (default 30); claims\n"
         "                      are refreshed every lease/3 while computing\n"
         "  --progress[=secs]   one-line progress report to stderr every <secs>\n"
         "                      (default 5) while draining: cells done/total,\n"
         "                      hit/executed split, cells/s, ETA\n"
         "SIGINT/SIGTERM stop a run after its cells in flight (stored and released when\n"
         "cached) and exit 130; a second signal ends it at once.\n"
         "\n"
         "overrides share the scenario-file namespace, e.g.\n"
         "  caem run examples/scenarios/fig10_lifetime_vs_load.scn scenario.reps=4 \\\n"
         "      sweep.traffic_rate_pps=list:5,15 output.csv=out.csv output.trace=traces \\\n"
         "      node_count=50\n"
         "\n"
         "several processes (or hosts, on a shared filesystem) drain one sweep with the\n"
         "same scenario + overrides; outputs off on all but one, and any of them, or a\n"
         "later run, folds:\n"
         "  for i in 1 2; do caem run sweep.scn --cache-dir=cache output.csv= \\\n"
         "      output.json= output.trace= & done\n"
         "  caem run sweep.scn --cache-dir=cache; wait\n";
  return exit_code;
}

/// The self-contained scenario text `caem submit` posts and `caem
/// expand` prints: the file with its includes inlined (the daemon never
/// opens a path it was sent), then each override appended as an
/// assignment — last assignment wins, the `caem run` override rule.
std::string resolved_text(const std::string& path, const std::vector<std::string>& overrides) {
  std::string body = caem::util::Config::resolve_includes(path);
  if (overrides.empty()) return body;
  body += "\n# appended overrides (last assignment wins)\n";
  for (const std::string& token : overrides) {
    if (token.find('=') == std::string::npos) {
      throw std::invalid_argument("override '" + token + "' is not key=value");
    }
    body += token + "\n";
  }
  return body;
}

caem::scenario::ScenarioSpec load_spec(const std::vector<std::string>& tokens,
                                       const std::string& path) {
  using caem::scenario::ScenarioSpec;
  ScenarioSpec spec = ScenarioSpec::from_file(path);
  if (!tokens.empty()) {
    spec.apply_cli_overrides(caem::util::Config::from_args(tokens));
  }
  return spec;
}

/// Split argv (after the scenario path) into flags we consume here and
/// key=value override tokens the spec consumes.  Throws on an unknown
/// `--` flag — same contract as unknown override keys.
struct CliArgs {
  std::string cache_dir;
  bool no_cache = false;
  double lease_s = -1.0;     ///< < 0 = flag absent (spec default applies)
  double progress_s = 0.0;   ///< 0 = off; --progress without a value = 5 s
  std::vector<std::string> overrides;
};

/// Strictly-positive seconds for --lease/--progress; rejects trailing
/// junk and non-positive values by name.
double parse_seconds(const std::string& flag, const std::string& text) {
  const std::optional<double> value = caem::util::parse_finite(text);
  if (!value || !(*value > 0.0)) {
    throw std::invalid_argument(flag + " expects a positive number of seconds, got '" + text +
                                "'");
  }
  return *value;
}

/// --cache-dir's directory; an empty one would silently run uncached.
std::string parse_cache_dir(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("--cache-dir expects a directory, got ''");
  return text;
}

CliArgs parse_cli(int argc, char** argv, int first) {
  CliArgs args;
  for (int i = first; i < argc; ++i) {
    const std::string token = argv[i];
    if (token == "--no-cache") {
      args.no_cache = true;
    } else if (token == "--cache-dir") {
      if (i + 1 >= argc) throw std::invalid_argument("--cache-dir needs a directory argument");
      args.cache_dir = parse_cache_dir(argv[++i]);
    } else if (token.rfind("--cache-dir=", 0) == 0) {
      args.cache_dir = parse_cache_dir(token.substr(12));
    } else if (token == "--lease") {
      if (i + 1 >= argc) throw std::invalid_argument("--lease needs a seconds argument");
      args.lease_s = parse_seconds("--lease", argv[++i]);
    } else if (token.rfind("--lease=", 0) == 0) {
      args.lease_s = parse_seconds("--lease", token.substr(8));
    } else if (token == "--progress") {
      args.progress_s = 5.0;
    } else if (token.rfind("--progress=", 0) == 0) {
      args.progress_s = parse_seconds("--progress", token.substr(11));
    } else if (token.rfind("--", 0) == 0) {
      throw std::invalid_argument("unknown flag '" + token + "'");
    } else {
      args.overrides.push_back(token);
    }
  }
  return args;
}

void print_banner(const caem::scenario::ScenarioSpec& spec, std::ostream& out) {
  out << "scenario: " << spec.name << "\n"
      << "grid: " << caem::scenario::grid_size(spec.axes) << " point(s) x "
      << spec.protocols.size() << " protocol(s) x " << spec.replications
      << " rep(s) = " << spec.total_jobs() << " job(s) on one queue\n";
  if (!spec.cache_dir.empty()) {
    out << "cache: " << spec.cache_dir << (spec.use_cache ? "" : " (disabled by --no-cache)")
        << "\n";
  }
}

int run_command(int argc, char** argv) {
  const CliArgs cli = parse_cli(argc, argv, 3);
  caem::scenario::ScenarioSpec spec = load_spec(cli.overrides, argv[2]);
  if (!cli.cache_dir.empty()) spec.cache_dir = cli.cache_dir;
  if (cli.no_cache) spec.use_cache = false;
  const bool cached = !spec.cache_dir.empty() && spec.use_cache;
  if (cli.lease_s >= 0.0) {
    if (!cached) throw std::invalid_argument("--lease only applies to a cached run (--cache-dir)");
    spec.lease_s = cli.lease_s;
  }
  spec.progress_s = cli.progress_s;
  // SIGINT/SIGTERM latch into the cooperative-cancel hook: the run
  // finishes the cells it holds, stores them, releases their claims and
  // exits 130 — nothing left for peers or the next run to steal.
  caem::scenario::ProgressSink drained;
  spec.progress_sink = &drained;
  install_interrupt_handler();
  spec.cancel = &g_interrupted;
  const InterruptWaker waker;
  print_banner(spec, std::cout);
  std::cout << "\n";
  caem::scenario::ScenarioResult result;
  try {
    result = caem::scenario::run_scenario(spec);
  } catch (const caem::scenario::SweepCancelled&) {
    std::cout << "interrupted: " << drained.executed.load() << " cell(s) executed, "
              << drained.hits.load() << " found cached, of " << drained.total.load();
    if (cached) {
      std::cout << "; claims released, finished cells stored in " << spec.cache_dir
                << " (rerun to resume)";
    }
    std::cout << "\n";
    return 130;
  }
  caem::scenario::summary_table(result).render(std::cout);
  std::cout << "\n";
  caem::scenario::write_outputs(result, spec, std::cout);
  if (result.cache_enabled) {
    std::cout << "cache: " << result.cache_hits << " hit(s), " << result.executed_jobs
              << " executed (" << result.cache_misses << " stored) in " << spec.cache_dir
              << "\n";
  }
  std::cout << "wall clock: " << caem::util::format_fixed(result.wall_s, 2) << " s for "
            << result.total_jobs << " job(s)\n";
  return 0;
}

int protocols_command() {
  // One row per registration, straight from the registry — the columns
  // are exactly what a ProtocolSpec controls.
  caem::util::TableWriter table({"name", "aliases", "threshold_policy", "deadline_override",
                                 "clustering", "routing", "uplink_energy", "summary"});
  for (const caem::core::Protocol protocol : caem::core::registered_protocols()) {
    const caem::core::ProtocolSpec& spec = protocol.spec();
    std::string aliases;
    for (const std::string& alias : spec.aliases) {
      if (!aliases.empty()) aliases += ",";
      aliases += alias;
    }
    table.new_row()
        .cell(spec.name)
        .cell(aliases.empty() ? "-" : aliases)
        .cell(std::string(caem::queueing::to_string(spec.policy)))
        .cell(spec.deadline_override ? "yes" : "no")
        .cell(spec.clustering_label())
        .cell(spec.routing_label())
        .cell(spec.uplink_energy_label())
        .cell(spec.summary);
  }
  table.render(std::cout);
  std::cout << "\nscenario files select protocols by name, e.g. scenario.protocols = "
               "leach,direct,static-cluster\n";
  return 0;
}

int expand_command(int argc, char** argv) {
  const CliArgs cli = parse_cli(argc, argv, 3);
  // Expand runs nothing, so accepting run-only flags would silently do
  // nothing — same contract as unknown keys: fail loudly, and name the
  // flag that does not apply so the caller knows exactly what to drop.
  const char* offending = nullptr;
  if (!cli.cache_dir.empty()) offending = "--cache-dir";
  else if (cli.no_cache) offending = "--no-cache";
  else if (cli.lease_s >= 0.0) offending = "--lease";
  else if (cli.progress_s > 0.0) offending = "--progress";
  if (offending != nullptr) {
    throw std::invalid_argument(std::string(offending) +
                                " only applies to 'caem run' (expand executes no jobs)");
  }
  const caem::scenario::ScenarioSpec spec = load_spec(cli.overrides, argv[2]);
  print_banner(spec, std::cout);
  // Each point's config digest names its directory in a --cache-dir,
  // where every cell's full RunResult JSON lives.
  const auto grid = caem::scenario::expand_grid(spec.axes);
  for (const auto& point : grid) {
    std::cout << "  [" << point.index << "] " << caem::scenario::describe(point)
              << "  (cells: " << spec.config_at(point).digest() << "/)\n";
  }
  // What the daemon would run: everything after this marker line is
  // the exact body `caem submit` posts for the same arguments.
  std::cout << "\n# resolved scenario text (the body `caem submit` posts):\n"
            << resolved_text(argv[2], cli.overrides);
  return 0;
}

/// "<store>/serve.endpoint" — written by `caem serve` after binding, so
/// client verbs pointed at the store find the daemon's (possibly
/// ephemeral) port without the caller tracking it.
std::string endpoint_file(const std::string& store_dir) {
  return store_dir + "/serve.endpoint";
}

/// --port wins; otherwise the store's endpoint file names the port.
std::uint16_t resolve_port(const std::string& port_text, const std::string& store_dir) {
  if (!port_text.empty()) {
    const std::optional<unsigned long long> port = caem::util::parse_uint(port_text);
    if (!port || *port == 0 || *port > 65535) {
      throw std::invalid_argument("--port expects a TCP port (1-65535), got '" + port_text +
                                  "'");
    }
    return static_cast<std::uint16_t>(*port);
  }
  if (store_dir.empty()) {
    throw std::invalid_argument(
        "no service named: pass --port=<p> or --store=<dir> (the dir given to `caem serve`)");
  }
  const caem::util::Config endpoint = caem::util::Config::from_file(endpoint_file(store_dir));
  const long long port = endpoint.get_int("port", 0);
  if (port <= 0 || port > 65535) {
    throw std::invalid_argument("malformed endpoint file " + endpoint_file(store_dir));
  }
  return static_cast<std::uint16_t>(port);
}

/// Top-level string field from the service's own (flat, escaped) JSON.
/// Good enough for "id"/"state"; not a general JSON parser.
std::string json_string_field(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::string::size_type pos = body.find(needle);
  if (pos == std::string::npos) return "";
  const std::string::size_type start = pos + needle.size();
  const std::string::size_type end = body.find('"', start);
  return end == std::string::npos ? "" : body.substr(start, end - start);
}

int serve_command(int argc, char** argv) {
  const std::vector<std::string> tokens(argv + 2, argv + argc);
  const caem::util::Config options = caem::util::Config::from_args(tokens);
  caem::service::ServeConfig config;
  config.store_dir = options.get_string("serve.store_dir", "");
  if (config.store_dir.empty()) {
    throw std::invalid_argument("serve.store_dir=<dir> is required");
  }
  const auto port_value = options.get_uint("serve.port", 0, 65535);  // 0 = ephemeral
  config.store_budget_bytes = options.get_uint("serve.store_budget_bytes", 0);
  config.drain_threads = options.get_uint("serve.workers", config.drain_threads,
                                          caem::scenario::ScenarioSpec::kMaxThreads);
  if (config.drain_threads < 1) throw std::invalid_argument("serve.workers must be >= 1");
  config.lease_s = options.get_double("serve.lease_s", config.lease_s);
  if (!(config.lease_s > 0.0)) throw std::invalid_argument("serve.lease_s must be > 0");
  config.janitor_interval_s =
      options.get_double("serve.janitor_interval_s", config.janitor_interval_s);
  const std::vector<std::string> unknown = options.unconsumed();
  if (!unknown.empty()) {
    throw std::invalid_argument("unknown serve option '" + unknown.front() +
                                "' (serve takes serve.* keys only)");
  }

  caem::service::SweepService service(config);
  caem::service::HttpEndpoint endpoint(
      static_cast<std::uint16_t>(port_value),
      [&service](const caem::service::HttpRequest& request) { return service.handle(request); });
  caem::util::atomic_write_file(endpoint_file(config.store_dir),
                                "port = " + std::to_string(endpoint.port()) + "\n",
                                "serve endpoint file");
  std::cout << "serve: listening on 127.0.0.1:" << endpoint.port() << "\n"
            << "serve: store " << config.store_dir << " ("
            << (config.store_budget_bytes == 0
                    ? std::string("unbounded")
                    : "budget " + std::to_string(config.store_budget_bytes) + " bytes")
            << "), " << config.drain_threads << " drain thread(s), lease "
            << caem::util::format_fixed(config.lease_s, 0) << " s\n"
            << "serve: endpoint file " << endpoint_file(config.store_dir) << "\n"
            << std::flush;
  install_interrupt_handler();
  while (!g_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "serve: signal received, shutting down\n";
  endpoint.stop();   // no new requests ...
  service.stop();    // ... then cancel in-flight sweeps and join
  std::cout << "serve: stopped cleanly\n";
  return 0;
}

int submit_command(int argc, char** argv) {
  const std::string path = argv[2];
  std::string port_text;
  std::string store_dir;
  bool wait = false;
  std::vector<std::string> overrides;
  for (int i = 3; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--port=", 0) == 0) {
      port_text = token.substr(7);
    } else if (token.rfind("--store=", 0) == 0) {
      store_dir = token.substr(8);
    } else if (token == "--wait") {
      wait = true;
    } else if (token.rfind("--", 0) == 0) {
      throw std::invalid_argument("unknown flag '" + token + "'");
    } else {
      overrides.push_back(token);
    }
  }
  const std::string body = resolved_text(path, overrides);
  const std::uint16_t port = resolve_port(port_text, store_dir);

  const caem::service::HttpResponse created =
      caem::service::http_request(port, "POST", "/sweeps", body);
  if (created.status != 201) {
    std::cerr << "caem submit: service returned " << created.status << ": " << created.body
              << "\n";
    return 1;
  }
  const std::string id = json_string_field(created.body, "id");
  std::cout << "sweep " << id << "\n";
  if (!wait) return 0;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const caem::service::HttpResponse status =
        caem::service::http_request(port, "GET", "/sweeps/" + id);
    if (status.status != 200) {
      std::cerr << "caem submit: poll returned " << status.status << ": " << status.body << "\n";
      return 1;
    }
    const std::string state = json_string_field(status.body, "state");
    if (state == "done") {
      std::cout << "sweep " << id << ": done\n";
      return 0;
    }
    if (state == "failed" || state == "cancelled") {
      std::cerr << "caem submit: sweep " << id << " " << state << ": " << status.body << "\n";
      return 1;
    }
  }
}

int status_command(int argc, char** argv) {
  std::string port_text;
  std::string store_dir;
  std::string id;
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--port=", 0) == 0) {
      port_text = token.substr(7);
    } else if (token.rfind("--store=", 0) == 0) {
      store_dir = token.substr(8);
    } else if (token.rfind("--", 0) == 0) {
      throw std::invalid_argument("unknown flag '" + token + "'");
    } else if (id.empty()) {
      id = token;
    } else {
      throw std::invalid_argument("at most one sweep id, got '" + id + "' and '" + token + "'");
    }
  }
  const std::uint16_t port = resolve_port(port_text, store_dir);
  const std::string target = id.empty() ? "/stats" : "/sweeps/" + id;
  const caem::service::HttpResponse response = caem::service::http_request(port, "GET", target);
  if (response.status != 200) {
    std::cerr << "caem status: service returned " << response.status << ": " << response.body
              << "\n";
    return 1;
  }
  std::cout << response.body << "\n";
  return 0;
}

int fetch_command(int argc, char** argv) {
  const std::string id = argv[2];
  const std::string rel = argv[3];
  std::string port_text;
  std::string store_dir;
  std::string out_path;
  for (int i = 4; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--port=", 0) == 0) {
      port_text = token.substr(7);
    } else if (token.rfind("--store=", 0) == 0) {
      store_dir = token.substr(8);
    } else if (token.rfind("--out=", 0) == 0) {
      out_path = token.substr(6);
    } else {
      throw std::invalid_argument("unknown argument '" + token + "'");
    }
  }
  const std::uint16_t port = resolve_port(port_text, store_dir);
  const caem::service::HttpResponse response =
      caem::service::http_request(port, "GET", "/sweeps/" + id + "/artifacts/" + rel);
  if (response.status != 200) {
    std::cerr << "caem fetch: service returned " << response.status << ": " << response.body
              << "\n";
    return 1;
  }
  if (out_path.empty()) {
    std::cout << response.body;
    return 0;
  }
  caem::util::atomic_write_file(out_path, response.body, "fetched artifact");
  std::cout << "fetched " << rel << " -> " << out_path << " (" << response.body.size()
            << " bytes)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  if (command == "help" || command == "--help" || command == "-h") {
    return usage(std::cout, 0);
  }
  if (command != "run" && command != "expand" &&
      command != "protocols" && command != "serve" && command != "submit" &&
      command != "status" && command != "fetch") {
    return usage(std::cerr, 2);
  }
  if (command == "protocols") {
    if (argc > 2) {
      std::cerr << "caem protocols: takes no arguments\n";
      return 2;
    }
    return protocols_command();
  }
  if ((command == "run" || command == "expand" || command == "submit") && argc < 3) {
    std::cerr << "caem " << command << ": missing scenario file\n";
    return usage(std::cerr, 2);
  }
  if (command == "fetch" && argc < 4) {
    std::cerr << "caem fetch: usage: caem fetch <id> <artifact-path> "
                 "[--port=<p>|--store=<dir>] [--out=<file>]\n";
    return 2;
  }
  try {
    if (command == "expand") return expand_command(argc, argv);
    if (command == "serve") return serve_command(argc, argv);
    if (command == "submit") return submit_command(argc, argv);
    if (command == "status") return status_command(argc, argv);
    if (command == "fetch") return fetch_command(argc, argv);
    return run_command(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "caem " << command << ": " << error.what() << "\n";
    return 1;
  }
}
