// Tests for the sweep-service stack behind `caem serve`: the loopback
// HTTP endpoint round-trip, the submit -> drain -> fetch lifecycle
// (artifacts byte-identical to a direct run), concurrent status
// pollers, cooperative cancel, the utility-ordered cache janitor, the
// in-flight pin guarantee, and the interrupted-run claim-release
// contract the service's drains (and `caem run` under SIGINT) rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "scenario/engine.hpp"
#include "scenario/result_cache.hpp"
#include "scenario/scenario_spec.hpp"
#include "service/cache_janitor.hpp"
#include "service/http_endpoint.hpp"
#include "service/sweep_service.hpp"
#include "util/config.hpp"

namespace caem::service {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch dir per test (ctest runs tests concurrently).
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("caem_service_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

HttpRequest make_request(std::string method, std::string target, std::string body = "") {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.body = std::move(body);
  return request;
}

/// Small but non-trivial sweep: 2 points x 2 protocols x 2 reps = 8
/// cells, each a fraction of a second — the same shape the worker
/// battery uses.
constexpr const char* kScenarioText =
    "scenario.name = svc-bat\n"
    "scenario.protocols = leach,scheme2\n"
    "scenario.seed = 42\n"
    "scenario.reps = 2\n"
    "scenario.max_sim_s = 8\n"
    "sweep.traffic_rate_pps = list:3,6\n"
    "node_count = 10\n"
    "field_size_m = 40\n"
    "ch_fraction = 0.2\n"
    "round_duration_s = 5\n";

ServeConfig serve_config(const fs::path& store) {
  ServeConfig config;
  config.store_dir = store.string();
  config.drain_threads = 2;
  config.lease_s = 5.0;
  config.janitor_interval_s = 0.0;  // on-demand only unless a test opts in
  return config;
}

// --------------------------------------------------------- HTTP endpoint

TEST(HttpEndpoint, RoundTripsRequestsOverLoopback) {
  HttpEndpoint endpoint(0, [](const HttpRequest& request) {
    HttpResponse response;
    if (request.target == "/missing") {
      response.status = 404;
      response.body = "gone";
      return response;
    }
    response.content_type = "text/plain";
    response.body = request.method + " " + request.target + " [" + request.body + "]";
    return response;
  });
  ASSERT_GT(endpoint.port(), 0);  // ephemeral port resolved

  const HttpResponse echoed = http_request(endpoint.port(), "POST", "/echo", "payload");
  EXPECT_EQ(echoed.status, 200);
  EXPECT_EQ(echoed.content_type, "text/plain");
  EXPECT_EQ(echoed.body, "POST /echo [payload]");

  // Status codes and bodies survive the wire both ways; several clients
  // may hit the endpoint at once (thread-per-connection).
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&endpoint, &ok, i] {
      const std::string body = "c" + std::to_string(i);
      const HttpResponse response = http_request(endpoint.port(), "POST", "/n", body);
      if (response.status == 200 && response.body == "POST /n [" + body + "]") ++ok;
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(ok.load(), 4);

  EXPECT_EQ(http_request(endpoint.port(), "GET", "/missing").status, 404);
  endpoint.stop();
}

TEST(HttpEndpoint, FinishedConnectionThreadsAreJoinedWhileServing) {
  // A long-running daemon must not hold one thread (and its stack
  // mapping) per request ever served: finished connections are joined
  // as new ones arrive, so sequential traffic keeps the count bounded.
  HttpEndpoint endpoint(0, [](const HttpRequest&) { return HttpResponse{}; });
  constexpr int kRequests = 300;
  std::size_t most_held = 0;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(http_request(endpoint.port(), "GET", "/ping").status, 200);
    most_held = std::max(most_held, endpoint.held_connections());
  }
  EXPECT_LE(most_held, 8u) << "connection threads accumulate instead of being joined";
  endpoint.stop();
  EXPECT_EQ(endpoint.held_connections(), 0u);
}

// ------------------------------------------------------ sweep lifecycle

TEST(SweepService, SubmitDrainFetchMatchesDirectRun) {
  const fs::path store = scratch_dir("lifecycle_store");
  SweepService service(serve_config(store));

  const HttpResponse created = service.handle(make_request("POST", "/sweeps", kScenarioText));
  ASSERT_EQ(created.status, 201) << created.body;
  EXPECT_TRUE(contains(created.body, "\"id\":\"s1\""));

  ASSERT_TRUE(service.wait_idle(120.0));
  const HttpResponse status = service.handle(make_request("GET", "/sweeps/s1"));
  ASSERT_EQ(status.status, 200);
  EXPECT_TRUE(contains(status.body, "\"state\":\"done\"")) << status.body;
  EXPECT_TRUE(contains(status.body, "\"total\":8"));
  EXPECT_TRUE(contains(status.body, "\"done\":8"));
  EXPECT_TRUE(contains(status.body, "\"artifacts\":"));
  EXPECT_TRUE(contains(status.body, "\"out.csv\""));
  EXPECT_TRUE(contains(status.body, "\"out.json\""));

  const HttpResponse csv = service.handle(make_request("GET", "/sweeps/s1/artifacts/out.csv"));
  ASSERT_EQ(csv.status, 200);
  EXPECT_EQ(csv.content_type, "text/csv");
  const HttpResponse json = service.handle(make_request("GET", "/sweeps/s1/artifacts/out.json"));
  ASSERT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");

  // The service's artifacts must be byte-identical to a direct
  // single-process run of the same scenario text — the whole point of
  // draining through the same engine and folding through the same merge.
  const fs::path ref = scratch_dir("lifecycle_ref");
  scenario::ScenarioSpec direct =
      scenario::ScenarioSpec::from_config(util::Config::from_text(kScenarioText));
  direct.csv_path = (ref / "out.csv").string();
  direct.json_path = (ref / "out.json").string();
  const scenario::ScenarioResult reference = scenario::run_scenario(direct);
  std::ostringstream log;
  scenario::write_outputs(reference, direct, log);
  EXPECT_EQ(csv.body, read_file(direct.csv_path));
  EXPECT_EQ(json.body, read_file(direct.json_path));

  // Route hygiene: unknown sweeps and artifacts are 404, traversal is
  // rejected, and unknown routes fall through to 404.
  EXPECT_EQ(service.handle(make_request("GET", "/sweeps/s9")).status, 404);
  EXPECT_EQ(service.handle(make_request("GET", "/sweeps/s1/artifacts/nope.csv")).status, 404);
  EXPECT_EQ(service.handle(make_request("GET", "/sweeps/s1/artifacts/../out.csv")).status, 400);
  EXPECT_EQ(service.handle(make_request("GET", "/nothing")).status, 404);
  EXPECT_EQ(service.handle(make_request("PUT", "/sweeps/s1")).status, 405);
  EXPECT_EQ(service.handle(make_request("GET", "/healthz")).body, "ok\n");

  service.stop();
  fs::remove_all(store);
  fs::remove_all(ref);
}

TEST(SweepService, ConcurrentPollersSeeConsistentProgress) {
  const fs::path store = scratch_dir("pollers_store");
  SweepService service(serve_config(store));

  const HttpResponse created = service.handle(make_request("POST", "/sweeps", kScenarioText));
  ASSERT_EQ(created.status, 201);

  // Many clients poll the same sweep while it drains: every response
  // must be a complete 200 document naming the sweep, never a torn or
  // errored one.  Each poller stops once it observes a terminal state.
  std::atomic<bool> failed{false};
  std::vector<std::thread> pollers;
  for (int p = 0; p < 4; ++p) {
    pollers.emplace_back([&service, &failed] {
      for (int i = 0; i < 20000; ++i) {
        const HttpResponse response = service.handle(make_request("GET", "/sweeps/s1"));
        if (response.status != 200 || !contains(response.body, "\"id\":\"s1\"")) {
          failed.store(true);
          return;
        }
        if (contains(response.body, "\"state\":\"done\"") ||
            contains(response.body, "\"state\":\"failed\"") ||
            contains(response.body, "\"state\":\"cancelled\"")) {
          return;
        }
        std::this_thread::yield();
      }
      failed.store(true);  // never reached a terminal state
    });
  }
  for (std::thread& poller : pollers) poller.join();
  EXPECT_FALSE(failed.load());

  ASSERT_TRUE(service.wait_idle(120.0));
  EXPECT_TRUE(contains(service.handle(make_request("GET", "/sweeps/s1")).body,
                       "\"state\":\"done\""));
  const HttpResponse stats = service.handle(make_request("GET", "/stats"));
  EXPECT_EQ(stats.status, 200);
  EXPECT_TRUE(contains(stats.body, "\"entries\":8")) << stats.body;
  EXPECT_TRUE(contains(stats.body, "\"done\":1"));
  service.stop();
  fs::remove_all(store);
}

TEST(SweepService, RepeatedSubmissionsLeaveNoWorkerMarkers) {
  // Each sweep is one cached run: no worker-mode drain, so nothing
  // writes worker_<token>.done telemetry the janitor would never evict.
  const fs::path store = scratch_dir("markers_store");
  SweepService service(serve_config(store));
  for (int i = 1; i <= 3; ++i) {
    ASSERT_EQ(service.handle(make_request("POST", "/sweeps", kScenarioText)).status, 201);
    ASSERT_TRUE(service.wait_idle(120.0));
    const std::string id = "s" + std::to_string(i);
    const HttpResponse status = service.handle(make_request("GET", "/sweeps/" + id));
    EXPECT_TRUE(contains(status.body, "\"state\":\"done\"")) << status.body;
    EXPECT_TRUE(contains(status.body, i == 1 ? "\"executed\":8" : "\"executed\":0"))
        << status.body;
    EXPECT_FALSE(contains(status.body, "\"workers\""));
  }
  std::size_t markers = 0;
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(store)) {
    if (entry.path().filename().string().rfind("worker_", 0) == 0) ++markers;
  }
  EXPECT_EQ(markers, 0u);
  service.stop();
  fs::remove_all(store);
}

TEST(SweepService, ErrorBodiesEscapeControlBytes) {
  // A key with an embedded CR (a hand-edited CRLF body) is echoed back
  // in the 400 message: the JSON must carry it escaped, never raw.
  const fs::path store = scratch_dir("escape_store");
  SweepService service(serve_config(store));
  const HttpResponse rejected =
      service.handle(make_request("POST", "/sweeps", "scenario.name = x\r\nbad\rkey\x01 = 1\r\n"));
  EXPECT_EQ(rejected.status, 400);
  EXPECT_TRUE(contains(rejected.body, "bad\\rkey\\u0001")) << rejected.body;
  for (const char c : rejected.body.substr(0, rejected.body.size() - 1)) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << rejected.body;
  }
  service.stop();
  fs::remove_all(store);
}

TEST(SweepService, IncludeInBodyIsRejectedNamingTheLine) {
  // Clients inline includes before submitting; the service never opens
  // a path it was sent, so a leftover directive is a 400 naming it.
  const fs::path store = scratch_dir("include_store");
  SweepService service(serve_config(store));
  const HttpResponse rejected = service.handle(
      make_request("POST", "/sweeps", "scenario.name = x\ninclude fig9_nodes_alive.scn\n"));
  EXPECT_EQ(rejected.status, 400);
  EXPECT_TRUE(contains(rejected.body, "line 2")) << rejected.body;
  EXPECT_TRUE(contains(rejected.body, "include fig9_nodes_alive.scn")) << rejected.body;
  service.stop();
  fs::remove_all(store);
}

TEST(SweepService, QueuedSweepCancelsImmediatelyAndGatesArtifacts) {
  const fs::path store = scratch_dir("cancel_store");
  SweepService service(serve_config(store));

  // One sweep at a time: s2 sits queued behind s1, so DELETE lands
  // before a single one of its cells runs.
  ASSERT_EQ(service.handle(make_request("POST", "/sweeps", kScenarioText)).status, 201);
  const HttpResponse second = service.handle(make_request("POST", "/sweeps", kScenarioText));
  ASSERT_EQ(second.status, 201);
  EXPECT_TRUE(contains(second.body, "\"id\":\"s2\""));

  // Artifacts of an unfinished sweep are a 409, not an empty file.
  EXPECT_EQ(service.handle(make_request("GET", "/sweeps/s2/artifacts/out.csv")).status, 409);

  const HttpResponse cancelled = service.handle(make_request("DELETE", "/sweeps/s2"));
  EXPECT_EQ(cancelled.status, 200);
  EXPECT_TRUE(contains(cancelled.body, "\"cancelling\":true"));

  // The cancelled queue entry must not leave wait_idle sleeping out its
  // timeout once s1 is done.
  const auto idle_from = std::chrono::steady_clock::now();
  ASSERT_TRUE(service.wait_idle(120.0));
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - idle_from).count(),
            60.0);
  EXPECT_TRUE(contains(service.handle(make_request("GET", "/sweeps/s1")).body,
                       "\"state\":\"done\""));
  EXPECT_TRUE(contains(service.handle(make_request("GET", "/sweeps/s2")).body,
                       "\"state\":\"cancelled\""));
  EXPECT_EQ(service.handle(make_request("GET", "/sweeps/s2/artifacts/out.csv")).status, 409);
  EXPECT_EQ(service.handle(make_request("DELETE", "/sweeps/s9")).status, 404);
  EXPECT_TRUE(contains(service.handle(make_request("GET", "/stats")).body, "\"cancelled\":1"));
  service.stop();
  fs::remove_all(store);
}

TEST(SweepService, TinyBudgetNeverBreaksAnInFlightSweep) {
  // An absurdly small budget with an aggressive janitor interval keeps
  // the store permanently over budget while the sweep drains — but the
  // in-flight pin set means eviction can never delete a cell the drain
  // has stored, so the sweep still completes with correct artifacts.
  const fs::path store = scratch_dir("budget_store");
  ServeConfig config = serve_config(store);
  config.store_budget_bytes = 64;  // less than one entry
  config.janitor_interval_s = 0.01;
  SweepService service(config);

  ASSERT_EQ(service.handle(make_request("POST", "/sweeps", kScenarioText)).status, 201);
  ASSERT_TRUE(service.wait_idle(120.0));
  const HttpResponse status = service.handle(make_request("GET", "/sweeps/s1"));
  EXPECT_TRUE(contains(status.body, "\"state\":\"done\"")) << status.body;
  const HttpResponse csv = service.handle(make_request("GET", "/sweeps/s1/artifacts/out.csv"));
  ASSERT_EQ(csv.status, 200);

  const fs::path ref = scratch_dir("budget_ref");
  scenario::ScenarioSpec direct =
      scenario::ScenarioSpec::from_config(util::Config::from_text(kScenarioText));
  direct.csv_path = (ref / "out.csv").string();
  const scenario::ScenarioResult reference = scenario::run_scenario(direct);
  std::ostringstream log;
  scenario::write_outputs(reference, direct, log);
  EXPECT_EQ(csv.body, read_file(direct.csv_path));

  // Once the sweep is done its pins lift: the janitor (background or
  // this on-demand pass) shrinks the store towards the budget.
  (void)service.janitor().sweep_once();
  EXPECT_GT(service.janitor().total_evicted(), 0u);
  service.stop();
  fs::remove_all(store);
  fs::remove_all(ref);
}

// --------------------------------------------------------- cache janitor

/// Store one synthetic entry and stamp it with `touches`; `trace_points`
/// pads its nodes_alive trace to make the entry larger on disk.
std::string seed_entry(const scenario::ResultCache& cache, const fs::path& store,
                       const std::string& digest, const std::string& name, double wall_ms,
                       std::uint64_t touches, std::size_t trace_points = 0) {
  core::RunResult result;
  result.wall_ms = wall_ms;
  for (std::size_t i = 0; i < trace_points; ++i) {
    result.nodes_alive.add(static_cast<double>(i), 100.0);
  }
  const std::string path = (store / digest / (name + ".json")).string();
  cache.store(path, result);
  for (std::uint64_t i = 0; i < touches; ++i) cache.touch(path);
  return path;
}

TEST(CacheJanitor, EvictsLowestUtilityFirstUntilUnderBudget) {
  const fs::path store = scratch_dir("janitor_order");
  const scenario::ResultCache cache(store.string());
  // Utility = touches x wall_ms / bytes.  The order is: never-touched
  // (0) < cheap-and-touched < bulky < dear-and-touched, where bulky has
  // dear's touches and wall time but many times its bytes.
  const std::string untouched =
      seed_entry(cache, store, "aaaaaaaaaaaaaaaa", "leach_s1_h8_d0", 1000.0, 0);
  const std::string cheap = seed_entry(cache, store, "bbbbbbbbbbbbbbbb", "leach_s2_h8_d0", 10.0, 5);
  const std::string dear = seed_entry(cache, store, "cccccccccccccccc", "leach_s3_h8_d0", 1000.0, 5);
  const std::string bulky =
      seed_entry(cache, store, "dddddddddddddddd", "leach_s4_h8_d0", 1000.0, 5, 2000);

  std::uint64_t total = 0;
  std::uint64_t dear_bytes = 0;
  std::uint64_t bulky_bytes = 0;
  for (const scenario::CacheEntryInfo& entry : cache.enumerate()) {
    total += entry.bytes;
    if (entry.path == dear) dear_bytes = entry.bytes;
    if (entry.path == bulky) bulky_bytes = entry.bytes;
  }
  ASSERT_GT(total, 0u);
  // cheap < bulky < dear: bulky outweighs dear in bytes, but by less
  // than the 100x wall time that separates dear from cheap.
  ASSERT_GT(bulky_bytes, dear_bytes);
  ASSERT_LT(bulky_bytes, 100 * dear_bytes);

  // Budget just below the full size: exactly one eviction suffices, and
  // it must be the zero-utility entry.
  CacheJanitor one_out(store.string(), total - 1);
  const JanitorReport first = one_out.sweep_once();
  EXPECT_EQ(first.entries, 4u);
  EXPECT_EQ(first.evicted, 1u);
  EXPECT_FALSE(fs::exists(untouched));
  EXPECT_TRUE(fs::exists(cheap));
  EXPECT_TRUE(fs::exists(dear));
  EXPECT_TRUE(fs::exists(bulky));

  // Budget of dear alone: one sweep evicts cheap, then bulky, and stops.
  // Ranking by touches x wall_ms without the byte divisor would tie
  // bulky with dear and evict dear (the smaller key) first.
  CacheJanitor two_out(store.string(), dear_bytes);
  const JanitorReport second = two_out.sweep_once();
  EXPECT_EQ(second.evicted, 2u);
  EXPECT_FALSE(fs::exists(cheap));
  EXPECT_FALSE(fs::exists(bulky));
  EXPECT_TRUE(fs::exists(dear));
  EXPECT_FALSE(fs::exists(scenario::ResultCache::touch_path(cheap)));  // sidecar went too

  // Under budget: a sweep is a no-op; budget 0 disables eviction.
  const JanitorReport idle = two_out.sweep_once();
  EXPECT_EQ(idle.evicted, 0u);
  CacheJanitor unbounded(store.string(), 0);
  EXPECT_EQ(unbounded.sweep_once().evicted, 0u);
  fs::remove_all(store);
}

TEST(CacheJanitor, PinnedEntriesSurviveEvenOverBudget) {
  const fs::path store = scratch_dir("janitor_pins");
  const scenario::ResultCache cache(store.string());
  const std::string pinned =
      seed_entry(cache, store, "aaaaaaaaaaaaaaaa", "leach_s1_h8_d0", 0.0, 0);
  const std::string victim =
      seed_entry(cache, store, "bbbbbbbbbbbbbbbb", "leach_s2_h8_d0", 0.0, 0);

  // Budget forces both out; the pin spares one even though the store
  // then stays over budget — correctness of an in-flight drain beats
  // the byte target.
  CacheJanitor janitor(store.string(), 1, [&pinned] {
    return std::vector<std::string>{pinned};
  });
  const JanitorReport report = janitor.sweep_once();
  EXPECT_TRUE(fs::exists(pinned));
  EXPECT_FALSE(fs::exists(victim));
  EXPECT_EQ(report.evicted, 1u);
  EXPECT_GE(report.pinned_kept, 1u);
  EXPECT_GT(report.bytes_after, report.budget_bytes);
  fs::remove_all(store);
}

// ------------------------------------------------- interrupted cached run

/// Regular files living under any .../claims/ directory.
std::size_t claim_files(const fs::path& cache_dir) {
  std::size_t count = 0;
  std::error_code error;
  for (fs::recursive_directory_iterator walk(cache_dir, error), end; !error && walk != end;
       walk.increment(error)) {
    if (walk->is_regular_file(error) && walk->path().parent_path().filename() == "claims") {
      ++count;
    }
  }
  return count;
}

TEST(Engine, InterruptedCachedRunReleasesClaimsAndResumes) {
  const fs::path cache_dir = scratch_dir("run_interrupt");
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::from_config(util::Config::from_text(kScenarioText));
  spec.cache_dir = cache_dir.string();
  spec.lease_s = 5.0;

  // Simulate SIGINT landing mid-drain: the moment the first cell is
  // stored, raise the cancel flag the CLI's signal handler would set.
  scenario::ProgressSink sink;
  std::atomic<bool> cancel{false};
  spec.progress_sink = &sink;
  spec.cancel = &cancel;
  std::thread interrupter([&sink, &cancel] {
    while (sink.executed.load() == 0) std::this_thread::yield();
    cancel.store(true);
  });
  EXPECT_THROW((void)scenario::run_scenario(spec), scenario::SweepCancelled);
  interrupter.join();

  const std::size_t stored = sink.executed.load();
  EXPECT_GE(stored, 1u);
  EXPECT_LT(stored, spec.total_jobs());
  // An interrupted run leaves NO claim behind: nothing for peers or the
  // resume to wait a lease on.
  EXPECT_EQ(claim_files(cache_dir), 0u);

  // The sweep resumes cleanly: a fresh run drains the remainder
  // immediately (no lease to wait out) and folds the full sweep; a
  // later fold is pure cache hits.
  scenario::ScenarioSpec resume = spec;
  resume.progress_sink = nullptr;
  resume.cancel = nullptr;
  const scenario::ScenarioResult finished = scenario::run_scenario(resume);
  EXPECT_EQ(finished.cache_hits, stored);
  EXPECT_EQ(finished.executed_jobs + finished.cache_hits, finished.total_jobs);
  EXPECT_EQ(finished.claims_stolen, 0u);
  EXPECT_FALSE(finished.points.empty());

  const scenario::ScenarioResult folded = scenario::run_scenario(resume);
  EXPECT_EQ(folded.cache_hits, folded.total_jobs);
  EXPECT_EQ(folded.executed_jobs, 0u);
  fs::remove_all(cache_dir);
}

}  // namespace
}  // namespace caem::service
