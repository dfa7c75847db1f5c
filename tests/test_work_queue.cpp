// Tests for dynamic work claiming (the claim drain every cached sweep
// uses): the ClaimBoard record-lock acquire/release protocol and its
// behaviour when a holder dies, the longest-expected-first cost model,
// concurrent-writer atomicity of cache entries and artifacts, the
// equivalence batteries (N concurrent cached runs + a later fold == one
// uncached run, byte for byte), crash recovery (half-stored cells
// skipped, a dead holder's cells taken over), sweeps sharing cells,
// cancellation that keeps finished cells, the stats contract, the
// progress reporter, and the store validation surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "scenario/cost_model.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_cache.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep.hpp"
#include "scenario/work_queue.hpp"

namespace caem::scenario {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch dir per test (ctest runs tests concurrently).
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("caem_wq_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A claim holder in another process: a forked child that takes the
/// claim lock on every key, reports through a pipe, then sleeps until
/// it is killed.  The child makes only async-signal-safe calls (the
/// parent may run other threads), so everything it needs is computed
/// before the fork.
class ForeignHolder {
 public:
  ForeignHolder(const fs::path& cache, const std::vector<std::string>& keys) {
    const std::string lock_path = (cache / "claims.lock").string();
    std::vector<std::int64_t> offsets;
    for (const std::string& key : keys) offsets.push_back(ClaimBoard::lock_offset(key));
    int report[2];
    if (::pipe(report) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ == 0) {
      const int fd = ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666);
      char held = fd >= 0 ? 'y' : 'n';
      for (const std::int64_t offset : offsets) {
        struct flock lock {};
        lock.l_type = F_WRLCK;
        lock.l_whence = SEEK_SET;
        lock.l_start = static_cast<off_t>(offset);
        lock.l_len = 1;
        if (::fcntl(fd, F_OFD_SETLK, &lock) != 0) held = 'n';
      }
      (void)::write(report[1], &held, 1);
      for (;;) ::pause();
    }
    ::close(report[1]);
    char held = 'n';
    const bool reported = ::read(report[0], &held, 1) == 1;
    ::close(report[0]);
    if (!reported || held != 'y') {
      kill();
      throw std::runtime_error("foreign holder could not take its claims");
    }
  }
  ForeignHolder(const ForeignHolder&) = delete;
  ForeignHolder& operator=(const ForeignHolder&) = delete;
  ~ForeignHolder() { kill(); }

  /// SIGKILL the holder and reap it: its claims are gone once this returns.
  void kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// True when the store holds the claim lock file and no per-sweep claim
/// tree.
bool claim_layout_ok(const fs::path& cache) {
  return fs::exists(cache / "claims.lock") && !fs::exists(cache / "sweeps");
}

constexpr const char* kKey = "feedfacefeedface/leach_s1_h8_d0.json";

// ---------------------------------------------------------- claim board

TEST(ClaimBoard, CtorValidatesInputs) {
  EXPECT_THROW((ClaimBoard("")), std::invalid_argument);
  // A store that cannot be created fails by name.
  const fs::path dir = scratch_dir("claim_ctor");
  std::ofstream(dir / "file") << "x";
  try {
    const ClaimBoard board((dir / "file" / "store").string());
    ADD_FAILURE() << "a store under a regular file was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find((dir / "file" / "store").string()),
              std::string::npos)
        << error.what();
  }
  // The lock file is created with the board and stays empty.
  const ClaimBoard board((dir / "store").string());
  EXPECT_EQ(board.lock_path(), (dir / "store" / "claims.lock").string());
  EXPECT_EQ(fs::file_size(board.lock_path()), 0u);
  fs::remove_all(dir);
}

TEST(ClaimBoard, AcquirePeekReclaimReleaseRoundTrip) {
  const fs::path cache = scratch_dir("claim_rt");
  ClaimBoard board(cache.string());
  ASSERT_EQ(board.try_claim(kKey), ClaimBoard::Claim::kWon);
  // Re-claiming our own cell is idempotent (a retry loop may do it).
  EXPECT_EQ(board.try_claim(kKey), ClaimBoard::Claim::kWon);

  // A second board — another claimant, even in this process — is busy.
  ClaimBoard other(cache.string());
  EXPECT_EQ(other.try_claim(kKey), ClaimBoard::Claim::kBusy);
  // Claims are per key: a different cell is free.
  EXPECT_EQ(other.try_claim("feedfacefeedface/leach_s2_h8_d0.json"), ClaimBoard::Claim::kWon);

  // Release frees the cell for anyone.
  board.release(kKey);
  EXPECT_EQ(other.try_claim(kKey), ClaimBoard::Claim::kWon);
  EXPECT_EQ(board.try_claim(kKey), ClaimBoard::Claim::kBusy);
  EXPECT_TRUE(claim_layout_ok(cache));
  EXPECT_EQ(fs::file_size(board.lock_path()), 0u);  // a lock table, never data
  fs::remove_all(cache);
}

TEST(ClaimBoard, ContendedAcquireHasExactlyOneWinner) {
  // The safety property: N boards race to claim ONE cell and exactly one
  // wins — the kernel grants a write lock on a byte to one holder.
  const fs::path cache = scratch_dir("claim_race");
  constexpr std::size_t kRacers = 8;
  std::vector<ClaimBoard> boards;
  boards.reserve(kRacers);
  for (std::size_t i = 0; i < kRacers; ++i) boards.emplace_back(cache.string());

  std::atomic<std::size_t> ready{0};
  std::atomic<std::size_t> busy{0};
  std::atomic<int> winner{-1};
  std::vector<std::thread> racers;
  for (std::size_t i = 0; i < kRacers; ++i) {
    racers.emplace_back([&, i] {
      ++ready;
      while (ready.load() < kRacers) std::this_thread::yield();  // start together
      if (boards[i].try_claim(kKey) == ClaimBoard::Claim::kWon) {
        winner.store(static_cast<int>(i));
      } else {
        ++busy;
      }
    });
  }
  for (std::thread& t : racers) t.join();
  EXPECT_EQ(busy.load(), kRacers - 1);  // so exactly one won
  ASSERT_GE(winner.load(), 0);
  // The standing claim is the winner's: it re-claims, the rest stay busy
  // until it releases.
  ClaimBoard& held = boards[static_cast<std::size_t>(winner.load())];
  ClaimBoard& loser = boards[(static_cast<std::size_t>(winner.load()) + 1) % kRacers];
  EXPECT_EQ(held.try_claim(kKey), ClaimBoard::Claim::kWon);
  EXPECT_EQ(loser.try_claim(kKey), ClaimBoard::Claim::kBusy);
  held.release(kKey);
  EXPECT_EQ(loser.try_claim(kKey), ClaimBoard::Claim::kWon);
  fs::remove_all(cache);
}

TEST(ClaimBoard, DeadHolderIsFreeAtOnce) {
  // A holder killed mid-cell frees its claim the moment it dies.
  const fs::path cache = scratch_dir("claim_dead");
  ClaimBoard board(cache.string());
  ForeignHolder holder(cache, {kKey});
  EXPECT_EQ(board.try_claim(kKey), ClaimBoard::Claim::kBusy);
  holder.kill();
  EXPECT_EQ(board.try_claim(kKey), ClaimBoard::Claim::kWon);
  fs::remove_all(cache);
}

TEST(ClaimBoard, ClosingAnotherBoardKeepsMyClaim) {
  // Claims belong to a board's open file, not to the process: closing
  // another board on the same store (a finished lane) must not drop
  // them.  Process-owned F_SETLK locks would fail here twice over.
  const fs::path cache = scratch_dir("claim_close");
  ClaimBoard mine(cache.string());
  ASSERT_EQ(mine.try_claim(kKey), ClaimBoard::Claim::kWon);
  const std::string theirs = "feedfacefeedface/leach_s2_h8_d0.json";
  {
    ClaimBoard other(cache.string());
    EXPECT_EQ(other.try_claim(theirs), ClaimBoard::Claim::kWon);
  }  // closed while holding `theirs`
  ClaimBoard probe(cache.string());
  EXPECT_EQ(probe.try_claim(kKey), ClaimBoard::Claim::kBusy);   // still mine
  EXPECT_EQ(probe.try_claim(theirs), ClaimBoard::Claim::kWon);  // closed with its board
  EXPECT_EQ(mine.try_claim(kKey), ClaimBoard::Claim::kWon);
  fs::remove_all(cache);
}

// ------------------------------------------------- in-process release wake

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

TEST(ClaimBoard, WakeOnReleaseIsNeverLost) {
  const fs::path cache = scratch_dir("wake_lost");
  ClaimBoard holder(cache.string());
  const ClaimBoard waiter(cache.string());
  const std::string other_key = "feedfacefeedface/leach_s2_h8_d0.json";

  // A release that lands between the snapshot and the wait: the epoch
  // has already moved, so the wait returns at once instead of sleeping
  // out its timeout.
  const std::uint64_t seen = waiter.release_epoch();
  ASSERT_EQ(holder.try_claim(kKey), ClaimBoard::Claim::kWon);
  holder.release(kKey);
  EXPECT_NE(waiter.release_epoch(), seen);
  auto start = Clock::now();
  EXPECT_TRUE(waiter.wait_release(seen, std::chrono::seconds(60)));
  EXPECT_LT(seconds_since(start), 5.0);

  // A release while the waiter is already asleep wakes it too.
  const std::uint64_t current = waiter.release_epoch();
  ASSERT_EQ(holder.try_claim(other_key), ClaimBoard::Claim::kWon);
  std::atomic<bool> woken{false};
  start = Clock::now();
  std::thread sleeper([&] { woken.store(waiter.wait_release(current, std::chrono::seconds(60))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  holder.release(other_key);
  sleeper.join();
  EXPECT_TRUE(woken.load());
  EXPECT_LT(seconds_since(start), 5.0);

  // Nothing released: the wait is the plain timeout.
  EXPECT_FALSE(waiter.wait_release(waiter.release_epoch(), std::chrono::milliseconds(20)));
  fs::remove_all(cache);
}

TEST(ClaimBoard, WakeIsScopedToTheReleasingSweep) {
  // The epoch belongs to the store: a release in store A wakes every
  // board on A (whatever sweep it drains) and no board on store B.
  const fs::path store_a = scratch_dir("wake_scoped_a");
  const fs::path store_b = scratch_dir("wake_scoped_b");
  ClaimBoard board_a(store_a.string());
  const ClaimBoard board_b(store_b.string());
  // A second spelling of store A's root shares A's epoch.
  const ClaimBoard board_a_alias((store_a / "." / "").string());

  const std::uint64_t seen_a = board_a_alias.release_epoch();
  const std::uint64_t seen_b = board_b.release_epoch();
  std::atomic<bool> b_woken{true};
  std::thread waiter_b([&] {
    b_woken.store(board_b.wait_release(seen_b, std::chrono::milliseconds(300)));
  });
  ASSERT_EQ(board_a.try_claim(kKey), ClaimBoard::Claim::kWon);
  board_a.release(kKey);
  waiter_b.join();
  EXPECT_FALSE(b_woken.load());  // B timed out: A's release is not B's
  EXPECT_EQ(board_b.release_epoch(), seen_b);
  EXPECT_NE(board_a_alias.release_epoch(), seen_a);
  EXPECT_TRUE(board_a_alias.wait_release(seen_a, std::chrono::seconds(60)));
  fs::remove_all(store_a);
  fs::remove_all(store_b);
}

TEST(ClaimBoard, WakeWaitersEndsACancelledWait) {
  const fs::path cache = scratch_dir("wake_cancel");
  const ClaimBoard board(cache.string());
  std::atomic<bool> cancel{false};
  std::atomic<bool> woken{false};
  const auto start = Clock::now();
  std::thread waiter([&] {
    woken.store(board.wait_release(board.release_epoch(), std::chrono::seconds(60), &cancel));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cancel.store(true);
  ClaimBoard::wake_waiters();
  waiter.join();
  EXPECT_TRUE(woken.load());
  EXPECT_LT(seconds_since(start), 5.0);
  // A raised flag also short-circuits a wait that starts after it.
  EXPECT_TRUE(board.wait_release(board.release_epoch(), std::chrono::seconds(60), &cancel));
  fs::remove_all(cache);
}

TEST(ClaimBoard, WakeRegistryForgetsASweepWithItsLastBoard) {
  // A daemon must not keep one epoch per store it ever drained: the
  // entry lives exactly as long as its boards.
  const fs::path store_c = scratch_dir("wake_registry_c");
  const fs::path store_d = scratch_dir("wake_registry_d");
  const std::size_t before = ClaimBoard::tracked_stores();
  {
    const ClaimBoard first(store_c.string());
    EXPECT_EQ(ClaimBoard::tracked_stores(), before + 1);
    {
      const ClaimBoard second(store_c.string());
      const ClaimBoard other(store_d.string());
      EXPECT_EQ(ClaimBoard::tracked_stores(), before + 2);
    }
    EXPECT_EQ(ClaimBoard::tracked_stores(), before + 1);  // `first` still live
  }
  EXPECT_EQ(ClaimBoard::tracked_stores(), before);
  // A store drained again later starts a fresh entry, and drops it again.
  {
    const ClaimBoard again(store_c.string());
    EXPECT_EQ(ClaimBoard::tracked_stores(), before + 1);
  }
  EXPECT_EQ(ClaimBoard::tracked_stores(), before);
  fs::remove_all(store_c);
  fs::remove_all(store_d);
}

// ----------------------------------------------------------- cost model

TEST(CostModel, StaticCostIsNodesTimesHorizon) {
  EXPECT_EQ(CostModel::static_cost(100, 2.0), 200.0);
  EXPECT_EQ(CostModel::static_cost(0, 5.0), 0.0);
}

TEST(CostModel, FamilyMeanRefinesAndCalibratesColdFamilies) {
  CostModel model;
  // Nothing measured: raw a-priori cost.
  EXPECT_EQ(model.estimate_ms("leach", 10, 8.0), 80.0);
  EXPECT_EQ(model.observations(), 0u);

  // Unrecorded legacy walls are ignored.
  model.observe("leach", 10, 8.0, 0.0);
  model.observe("leach", 10, 8.0, -3.0);
  EXPECT_EQ(model.observations(), 0u);
  EXPECT_EQ(model.estimate_ms("leach", 10, 8.0), 80.0);

  // Two measurements for (leach, 10): the family estimate is their mean.
  model.observe("leach", 10, 8.0, 300.0);
  model.observe("leach", 10, 8.0, 500.0);
  EXPECT_EQ(model.observations(), 2u);
  EXPECT_EQ(model.estimate_ms("leach", 10, 8.0), 400.0);

  // A COLD family scales its a-priori cost by the global measured /
  // a-priori ratio (800 measured over 160 static = 5x), so warmed and
  // cold families stay comparable in one queue.
  EXPECT_EQ(model.estimate_ms("leach", 20, 8.0), 800.0);
  EXPECT_EQ(model.estimate_ms("scheme2", 10, 8.0), 400.0);

  // Protocol is part of the family key: measuring scheme2 separately
  // leaves the leach family mean untouched.
  model.observe("scheme2", 10, 8.0, 100.0);
  EXPECT_EQ(model.estimate_ms("scheme2", 10, 8.0), 100.0);
  EXPECT_EQ(model.estimate_ms("leach", 10, 8.0), 400.0);
}

TEST(CostOrder, DescendingWithTiesTowardLowerId) {
  const std::vector<std::size_t> jobs = {0, 1, 2, 3, 4};
  const std::vector<double> costs = {5.0, 9.0, 9.0, 1.0, 9.0};
  const auto order = cost_order(jobs, [&](std::size_t j) { return costs[j]; });
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 4, 0, 3}));
  EXPECT_TRUE(cost_order({}, [](std::size_t) { return 0.0; }).empty());
  EXPECT_THROW((void)cost_order(jobs, nullptr), std::invalid_argument);
}

// ------------------------------------------------- concurrent cache writers

TEST(Cache, ConcurrentStoresOnOneCellNeverTearReads) {
  // Two writers that share no claims.lock (processes pointed at one
  // cache through different mounts, say) may store one cell at once;
  // readers must only ever see one complete entry or the other.
  const fs::path dir = scratch_dir("concurrent_store");
  const ResultCache cache(dir.string());
  core::NetworkConfig config;
  core::RunOptions options;
  core::RunResult a;
  a.protocol = core::protocol_from_string("scheme2");
  a.seed = 1;
  a.total_consumed_j = 111.5;
  a.avg_remaining_energy.add(0.0, 10.0);
  core::RunResult b = a;
  b.total_consumed_j = 222.25;
  const std::string path =
      cache.entry_path(config, core::protocol_from_string("scheme2"), 1, options);

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<int> observed{0};
  std::thread reader([&] {
    bool seen = false;
    while (!stop.load()) {
      const std::optional<core::RunResult> loaded = cache.load(path);
      if (loaded.has_value()) {
        seen = true;
        ++observed;
        if (loaded->total_consumed_j != 111.5 && loaded->total_consumed_j != 222.25) ++torn;
      } else if (seen) {
        ++torn;  // entry vanished or tore after the first complete write
      }
    }
  });
  std::thread writer_a([&] {
    for (int i = 0; i < 200; ++i) cache.store(path, a);
  });
  std::thread writer_b([&] {
    for (int i = 0; i < 200; ++i) cache.store(path, b);
  });
  writer_a.join();
  writer_b.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(observed.load(), 0);
  // Whoever renamed last wins; either way the entry is one valid run.
  const std::optional<core::RunResult> final_entry = cache.load(path);
  ASSERT_TRUE(final_entry.has_value());
  EXPECT_TRUE(final_entry->total_consumed_j == 111.5 ||
              final_entry->total_consumed_j == 222.25);
  // No temp litter: every write was finalised or cleaned up.
  std::size_t temps = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.path().filename().string().find(".tmp.") != std::string::npos) ++temps;
  }
  EXPECT_EQ(temps, 0u);
  fs::remove_all(dir);
}

// --------------------------------------------------- engine battery prep

ScenarioSpec battery_spec() {
  ScenarioSpec spec;
  spec.name = "drainbat";
  spec.base_config.node_count = 10;
  spec.base_config.field_size_m = 40.0;
  spec.base_config.ch_fraction = 0.2;
  spec.base_config.round_duration_s = 5.0;
  spec.base_seed = 42;
  spec.replications = 2;
  spec.options.max_sim_s = 8.0;
  spec.threads = 1;
  spec.protocols = {core::protocol_from_string("leach"), core::protocol_from_string("scheme2")};
  spec.axes = {Axis{"traffic_rate_pps", {"3", "6"}}};
  return spec;  // 2 points x 2 protocols x 2 reps = 8 jobs
}

/// Entry path of every flattened job, in job order.
std::vector<std::string> job_paths(const ScenarioSpec& spec, const ResultCache& cache) {
  const std::vector<GridPoint> grid = expand_grid(spec.axes);
  std::vector<std::string> paths(spec.total_jobs());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const JobCoords c = job_coords(spec, i);
    paths[i] = cache.entry_path(spec.config_at(grid[c.point]), spec.protocols[c.protocol],
                                spec.base_seed + c.rep, spec.options);
  }
  return paths;
}

/// Cache entry key of every flattened job, in job order.
std::vector<std::string> job_keys(const ScenarioSpec& spec, const ResultCache& cache) {
  const std::vector<GridPoint> grid = expand_grid(spec.axes);
  std::vector<std::string> keys(spec.total_jobs());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const JobCoords c = job_coords(spec, i);
    keys[i] = cache.entry_key(spec.config_at(grid[c.point]), spec.protocols[c.protocol],
                              spec.base_seed + c.rep, spec.options);
  }
  return keys;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Artifacts {
  std::string csv;
  std::string json;
  std::map<std::string, std::string> traces;  ///< filename -> bytes
};

/// Render CSV + JSON + trace artifacts of `result` into `dir`.
Artifacts render_to(const ScenarioResult& result, ScenarioSpec spec, const fs::path& dir) {
  spec.csv_path = (dir / "out.csv").string();
  spec.json_path = (dir / "out.json").string();
  spec.trace_dir = (dir / "traces").string();
  spec.trace_points = 9;
  std::ostringstream log;
  write_outputs(result, spec, log);
  Artifacts artifacts;
  artifacts.csv = read_file(spec.csv_path);
  artifacts.json = read_file(spec.json_path);
  for (const auto& entry : fs::directory_iterator(spec.trace_dir)) {
    artifacts.traces[entry.path().filename().string()] = read_file(entry.path());
  }
  return artifacts;
}

/// Jobs of `paths` the cache does not hold yet.
std::vector<std::size_t> miss_list(const std::vector<std::string>& paths,
                                   const ResultCache& cache) {
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (!cache.load(paths[i]).has_value()) misses.push_back(i);
  }
  return misses;
}

/// Fill `cache_dir` with the traffic=3 point of the battery: its cells
/// digest identically to the battery sweep's jobs 0..3.
void prewarm(const ScenarioSpec& spec, const fs::path& cache_dir) {
  ScenarioSpec warm = spec;
  warm.axes = {Axis{"traffic_rate_pps", {"3"}}};
  warm.cache_dir = cache_dir.string();
  (void)run_scenario(warm);
}

/// Drain `spec` with `count` concurrent cached runs on `cache_dir`.
/// Each run checks its own stats and folds the whole sweep into
/// artifacts byte-identical to `ref`; returns the cells they executed
/// between them.
std::size_t drain_concurrently(ScenarioSpec spec, const fs::path& cache_dir, std::size_t count,
                               const Artifacts& ref, const std::string& tag) {
  spec.cache_dir = cache_dir.string();
  std::vector<ScenarioResult> results(count);
  {
    std::vector<std::thread> runs;
    for (std::size_t i = 0; i < count; ++i) {
      runs.emplace_back([&, i] { results[i] = run_scenario(spec); });
    }
    for (std::thread& t : runs) t.join();
  }
  std::size_t executed = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const ScenarioResult& result = results[i];
    // A run that drained to completion observed every cell: the ones it
    // executed plus the ones it found stored (at scan time or by losing
    // a claim race mid-drain).
    EXPECT_EQ(result.cache_hits + result.executed_jobs, result.total_jobs) << tag;
    EXPECT_EQ(result.cache_misses, result.executed_jobs) << tag;
    executed += result.executed_jobs;
    const fs::path dir = scratch_dir("run_" + tag + "_" + std::to_string(i));
    const Artifacts out = render_to(result, spec, dir);
    EXPECT_EQ(out.csv, ref.csv) << tag << " run " << i;
    EXPECT_EQ(out.json, ref.json) << tag << " run " << i;
    EXPECT_EQ(out.traces, ref.traces) << tag << " run " << i;
    fs::remove_all(dir);
  }
  return executed;
}

/// Fold `spec` from `cache_dir` once every cell is stored: nothing
/// executes, every cell is a hit, and the artifacts match `ref` byte
/// for byte.
void expect_fold_matches(const ScenarioSpec& spec, const fs::path& cache_dir,
                         const Artifacts& ref, const std::string& tag) {
  ScenarioSpec fold = spec;
  fold.cache_dir = cache_dir.string();
  const ScenarioResult folded = run_scenario(fold);
  EXPECT_EQ(folded.executed_jobs, 0u) << tag;
  EXPECT_EQ(folded.cache_hits, spec.total_jobs()) << tag;
  const fs::path dir = scratch_dir("folded_" + tag);
  const Artifacts out = render_to(folded, spec, dir);
  EXPECT_EQ(out.csv, ref.csv) << tag;
  EXPECT_EQ(out.json, ref.json) << tag;
  EXPECT_EQ(out.traces, ref.traces) << tag;
  fs::remove_all(dir);
}

// ----------------------------------------------- equivalence battery

TEST(Drain, ConcurrentCachedRunsMatchUncachedByteForByte) {
  // Reference: one uncached single-process run — dynamic claiming must
  // reproduce pure in-memory compute exactly.
  const ScenarioSpec spec = battery_spec();
  const fs::path ref_dir = scratch_dir("concurrent_ref");
  const Artifacts ref = render_to(run_scenario(spec), spec, ref_dir);

  const fs::path cache_dir = scratch_dir("concurrent_cache");
  // Claims partition the queue: between them the runs execute every
  // cell exactly once (every cell ends up stored, and the executions
  // add up to the cell count), and each folds the whole sweep.
  EXPECT_EQ(drain_concurrently(spec, cache_dir, 3, ref, "concurrent"), spec.total_jobs());
  const ResultCache cache(cache_dir.string());
  EXPECT_TRUE(miss_list(job_paths(spec, cache), cache).empty());

  // A later fold: pure cache hits, byte-identical to the reference.
  expect_fold_matches(spec, cache_dir, ref, "concurrent");
  fs::remove_all(ref_dir);
  fs::remove_all(cache_dir);
}

TEST(Drain, EquivalenceBatteryAcrossProcessCounts) {
  // N concurrent cached runs + a fold == one uncached process, for N in
  // {1, 2, 3, 7}, starting from a cache that already holds jobs 0..3.
  const ScenarioSpec spec = battery_spec();
  const fs::path ref_dir = scratch_dir("bat_ref");
  const Artifacts ref = render_to(run_scenario(spec), spec, ref_dir);
  ASSERT_EQ(ref.traces.size(), 4u);  // 2 points x 2 protocols

  for (const std::size_t n : {1u, 2u, 3u, 7u}) {
    const std::string tag = "n" + std::to_string(n);
    const fs::path cache_dir = scratch_dir("bat_cache_" + tag);
    prewarm(spec, cache_dir);
    const ResultCache cache(cache_dir.string());
    const std::vector<std::string> paths = job_paths(spec, cache);
    const std::vector<std::size_t> misses = miss_list(paths, cache);
    ASSERT_EQ(misses, (std::vector<std::size_t>{4, 5, 6, 7})) << tag;
    // The runs executed exactly the misses: as many executions as
    // misses, all of them stored now, so prior hits never re-ran.
    EXPECT_EQ(drain_concurrently(spec, cache_dir, n, ref, tag), misses.size()) << tag;
    EXPECT_TRUE(miss_list(paths, cache).empty()) << tag;
    expect_fold_matches(spec, cache_dir, ref, tag);
    fs::remove_all(cache_dir);
  }
  fs::remove_all(ref_dir);
}

// --------------------------------------------------- crashed-run recovery

TEST(Drain, HalfStoredCellsAreSkippedAndStaleClaimsStolenExactlyOnce) {
  // A live run in another process holds a STORED cell (job 1: between
  // its store and its release) and an UNSTORED one (job 5: mid-execute),
  // while jobs 0..3 are durably stored.  A fresh run must treat job 1 as
  // done — completion comes from the cache, never from claims — wait on
  // job 5 while its holder lives, and take it over exactly once the
  // holder dies.
  const ScenarioSpec spec = battery_spec();
  const fs::path cache_dir = scratch_dir("crash_half_stored");
  prewarm(spec, cache_dir);
  const ResultCache cache(cache_dir.string());
  const std::vector<std::string> paths = job_paths(spec, cache);
  const std::vector<std::string> keys = job_keys(spec, cache);
  ASSERT_TRUE(cache.load(paths[1]).has_value());
  ASSERT_FALSE(cache.load(paths[5]).has_value());
  const std::string half_stored_bytes = read_file(paths[1]);
  ForeignHolder holder(cache_dir, {keys[1], keys[5]});

  ScenarioSpec resume = spec;
  resume.cache_dir = cache_dir.string();
  ProgressSink sink;
  resume.progress_sink = &sink;
  std::atomic<bool> done{false};
  ScenarioResult result;
  std::thread run([&] {
    result = run_scenario(resume);
    done.store(true);
  });
  // Every cell but the held one completes; the run then waits on it.
  while (sink.executed.load() < 3) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(done.load());
  EXPECT_EQ(sink.executed.load(), 3u);
  holder.kill();
  run.join();

  EXPECT_EQ(result.executed_jobs, 4u);  // exactly the unstored cells
  EXPECT_EQ(result.cache_hits, 4u);
  // The half-stored cell was never re-executed or re-stored.
  EXPECT_EQ(read_file(paths[1]), half_stored_bytes);
  EXPECT_TRUE(miss_list(paths, cache).empty());
  EXPECT_TRUE(claim_layout_ok(cache_dir));
  fs::remove_all(cache_dir);
}

TEST(Drain, CrashRecoveryExecutesExactlyTheMissingCells) {
  // What two killed runs leave behind: one stored jobs 0, 2, 4, 6; the
  // other stored jobs 1 and 3 and died holding job 5.  The kernel freed
  // that claim with its holder, so the next run executes exactly the
  // unstored cells (5 and 7) — the stored half is not re-run — and
  // folds byte-identically to a single-process run.
  const ScenarioSpec spec = battery_spec();
  const fs::path cache_dir = scratch_dir("crash_cache");
  const ResultCache cache(cache_dir.string());
  const std::vector<std::string> paths = job_paths(spec, cache);
  const std::vector<GridPoint> grid = expand_grid(spec.axes);
  for (const std::size_t job : {0u, 1u, 2u, 3u, 4u, 6u}) {
    const JobCoords c = job_coords(spec, job);
    cache.store(paths[job],
                core::SimulationRunner::run(spec.config_at(grid[c.point]),
                                            spec.protocols[c.protocol],
                                            spec.base_seed + c.rep, spec.options));
  }
  ForeignHolder(cache_dir, {job_keys(spec, cache)[5]}).kill();

  ScenarioSpec resume = spec;
  resume.cache_dir = cache_dir.string();
  const ScenarioResult resumed = run_scenario(resume);
  EXPECT_EQ(resumed.executed_jobs, 2u);
  EXPECT_EQ(resumed.cache_hits, 6u);
  // A second run finds everything stored and executes nothing.
  const fs::path ref_dir = scratch_dir("crash_ref");
  expect_fold_matches(spec, cache_dir, render_to(run_scenario(spec), spec, ref_dir), "crash");
  fs::remove_all(cache_dir);
  fs::remove_all(ref_dir);
}

TEST(Drain, CellSharedByTwoSweepsRunsOnce) {
  // Claims are per cell, so two DIFFERENT sweeps sharing cells (here the
  // traffic=6 point: 4 cells) drain concurrently on one cache without
  // computing a shared cell twice: their executions sum to the distinct
  // cells.
  ScenarioSpec first = battery_spec();
  ScenarioSpec second = battery_spec();
  second.axes = {Axis{"traffic_rate_pps", {"6", "9"}}};
  const fs::path cache_dir = scratch_dir("shared_cells");
  first.cache_dir = cache_dir.string();
  second.cache_dir = cache_dir.string();
  ScenarioResult a;
  ScenarioResult b;
  std::thread run_a([&] { a = run_scenario(first); });
  std::thread run_b([&] { b = run_scenario(second); });
  run_a.join();
  run_b.join();
  EXPECT_EQ(a.cache_hits + a.executed_jobs, a.total_jobs);
  EXPECT_EQ(b.cache_hits + b.executed_jobs, b.total_jobs);
  EXPECT_EQ(a.executed_jobs + b.executed_jobs, 12u);  // 3 points x 2 protocols x 2 reps
  const ResultCache cache(cache_dir.string());
  EXPECT_TRUE(miss_list(job_paths(first, cache), cache).empty());
  EXPECT_TRUE(miss_list(job_paths(second, cache), cache).empty());
  fs::remove_all(cache_dir);
}

TEST(Drain, StatsCoherentPerRunAndFolded) {
  ScenarioSpec spec = battery_spec();
  spec.replications = 1;
  spec.protocols = {core::protocol_from_string("scheme2")};  // 2 jobs total
  const fs::path ref_dir = scratch_dir("stats_ref");
  const Artifacts ref = render_to(run_scenario(spec), spec, ref_dir);
  const fs::path cache_dir = scratch_dir("stats_cache");
  // Two runs one after the other (drain_concurrently checks each one's
  // hits + executed == total): the first executes every cell, the
  // second finds them all stored.
  EXPECT_EQ(drain_concurrently(spec, cache_dir, 1, ref, "stats1"), spec.total_jobs());
  EXPECT_EQ(drain_concurrently(spec, cache_dir, 1, ref, "stats2"), 0u);

  ScenarioSpec fold = spec;
  fold.cache_dir = cache_dir.string();
  const ScenarioResult folded = run_scenario(fold);
  EXPECT_EQ(folded.cache_hits, spec.total_jobs());
  EXPECT_EQ(folded.executed_jobs, 0u);
  EXPECT_EQ(folded.cache_misses, 0u);
  EXPECT_EQ(folded.cache_hits + folded.executed_jobs, folded.total_jobs);
  fs::remove_all(ref_dir);
  fs::remove_all(cache_dir);
}

TEST(Drain, ConcurrentFoldsPublishWholeArtifacts) {
  // Concurrent runs of one sweep fold into the same output paths.  Every
  // artifact is published by rename, so a reader racing the writers only
  // ever sees one writer's complete bytes, and no temp file is left.
  ScenarioSpec spec = battery_spec();
  const ScenarioResult result = run_scenario(spec);
  const fs::path ref_dir = scratch_dir("artifacts_ref");
  const Artifacts ref = render_to(result, spec, ref_dir);

  const fs::path dir = scratch_dir("artifacts_shared");
  spec.csv_path = (dir / "out.csv").string();
  spec.json_path = (dir / "out.json").string();
  spec.trace_dir = (dir / "traces").string();
  spec.trace_points = 9;
  const fs::path trace = fs::path(spec.trace_dir) / ref.traces.begin()->first;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    while (!stop.load()) {
      // Absent before the first publish; complete ever after.
      if (fs::exists(spec.csv_path) && read_file(spec.csv_path) != ref.csv) ++torn;
      if (fs::exists(trace) && read_file(trace) != ref.traces.begin()->second) ++torn;
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        std::ostringstream log;
        write_outputs(result, spec, log);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(read_file(spec.csv_path), ref.csv);
  EXPECT_EQ(read_file(spec.json_path), ref.json);
  std::map<std::string, std::string> traces;
  std::size_t temps = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) ++temps;
    if (entry.path().parent_path() == fs::path(spec.trace_dir)) {
      traces[name] = read_file(entry.path());
    }
  }
  EXPECT_EQ(temps, 0u);
  EXPECT_EQ(traces, ref.traces);
  fs::remove_all(ref_dir);
  fs::remove_all(dir);
}

// ------------------------------------------- cancellation keeps its work

TEST(Drain, CancelledCachedRunKeepsEveryFinishedCell) {
  // A folding cached run cancelled mid-drain throws, but every cell it
  // finished is already stored (and no claim is left behind): the
  // re-run resumes from them instead of starting over.
  ScenarioSpec spec = battery_spec();
  const fs::path cache_dir = scratch_dir("cancel_keeps");
  spec.cache_dir = cache_dir.string();
  const ResultCache cache(cache_dir.string());
  const std::vector<std::string> keys = job_keys(spec, cache);
  // A peer holds job 0, so the drain is still running when the cancel
  // lands, however fast its other cells are.
  ClaimBoard peer(cache_dir.string());
  ASSERT_EQ(peer.try_claim(keys[0]), ClaimBoard::Claim::kWon);
  ProgressSink sink;
  std::atomic<bool> cancel{false};
  spec.progress_sink = &sink;
  spec.cancel = &cancel;
  std::thread canceller([&] {
    while (sink.executed.load() == 0) std::this_thread::yield();
    cancel.store(true);
    ClaimBoard::wake_waiters();
  });
  EXPECT_THROW((void)run_scenario(spec), SweepCancelled);
  canceller.join();
  peer.release(keys[0]);

  const std::vector<std::string> paths = job_paths(spec, cache);
  const std::size_t stored = paths.size() - miss_list(paths, cache).size();
  EXPECT_GE(stored, 1u);
  EXPECT_LT(stored, spec.total_jobs());
  EXPECT_EQ(stored, sink.executed.load());
  ClaimBoard probe(cache_dir.string());
  for (const std::string& key : keys) {
    EXPECT_EQ(probe.try_claim(key), ClaimBoard::Claim::kWon) << key;
    probe.release(key);
  }
  EXPECT_TRUE(claim_layout_ok(cache_dir));

  spec.cancel = nullptr;
  spec.progress_sink = nullptr;
  const ScenarioResult resumed = run_scenario(spec);
  EXPECT_EQ(resumed.cache_hits, stored);
  EXPECT_EQ(resumed.executed_jobs, spec.total_jobs() - stored);
  fs::remove_all(cache_dir);
}

// ------------------------------------------- drain wakes on peer release

/// One-cell sweep: the drain has nothing to do but wait on its peer.
ScenarioSpec one_cell_spec(const fs::path& cache_dir) {
  ScenarioSpec spec = battery_spec();
  spec.protocols = {core::protocol_from_string("scheme2")};
  spec.replications = 1;
  spec.axes = {Axis{"traffic_rate_pps", {"3"}}};
  spec.cache_dir = cache_dir.string();
  return spec;
}

TEST(Drain, WakeOnInProcessPeerRelease) {
  const fs::path side_dir = scratch_dir("wake_drain_side");
  const fs::path cache_dir = scratch_dir("wake_drain");
  const ScenarioSpec spec = one_cell_spec(cache_dir);
  ASSERT_EQ(spec.total_jobs(), 1u);

  // The "peer's" result, computed up front in a side cache.
  ScenarioSpec side = spec;
  side.cache_dir = side_dir.string();
  (void)run_scenario(side);
  const ResultCache side_cache(side_dir.string());
  const std::optional<core::RunResult> computed = side_cache.load(job_paths(side, side_cache)[0]);
  ASSERT_TRUE(computed.has_value());
  const ResultCache cache(cache_dir.string());
  const std::string entry = job_paths(spec, cache)[0];

  // The peer: a second board in this process holding the only claim.
  const std::string key = job_keys(spec, cache)[0];
  ClaimBoard peer(cache_dir.string());
  ASSERT_EQ(peer.try_claim(key), ClaimBoard::Claim::kWon);

  std::atomic<bool> done{false};
  ScenarioResult result;
  std::thread drain([&] {
    result = run_scenario(spec);
    done.store(true);
  });
  // While the claim is held the drain blocks: it neither executes the
  // cell nor gives up.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(done.load());

  cache.store(entry, *computed);
  const auto released = Clock::now();
  peer.release(key);
  drain.join();
  // Woken by the release, not by the 0.5 s poll (ClaimBoard::kPeerPoll).
  EXPECT_LT(seconds_since(released), 0.25);
  EXPECT_EQ(result.executed_jobs, 0u);
  EXPECT_EQ(result.cache_hits, 1u);
  EXPECT_EQ(result.points.size(), 1u);  // and folded the sweep
  fs::remove_all(side_dir);
  fs::remove_all(cache_dir);
}

TEST(Drain, WakeOnCancel) {
  const fs::path cache_dir = scratch_dir("wake_drain_cancel");
  ScenarioSpec spec = one_cell_spec(cache_dir);
  const ResultCache cache(cache_dir.string());
  const std::string key = job_keys(spec, cache)[0];
  ClaimBoard peer(cache_dir.string());
  ASSERT_EQ(peer.try_claim(key), ClaimBoard::Claim::kWon);

  std::atomic<bool> cancel{false};
  spec.cancel = &cancel;
  ProgressSink sink;
  spec.progress_sink = &sink;
  std::atomic<bool> done{false};
  std::atomic<bool> cancelled{false};
  std::thread drain([&] {
    try {
      (void)run_scenario(spec);
    } catch (const SweepCancelled&) {
      cancelled.store(true);
    }
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(done.load());

  const auto stopped = Clock::now();
  cancel.store(true);
  ClaimBoard::wake_waiters();
  drain.join();
  EXPECT_LT(seconds_since(stopped), 0.25);
  EXPECT_TRUE(cancelled.load());
  EXPECT_EQ(sink.executed.load(), 0u);
  // The only claim standing is the peer's: the cancelled run held none.
  EXPECT_EQ(peer.try_claim(key), ClaimBoard::Claim::kWon);
  EXPECT_EQ(ClaimBoard(cache_dir.string()).try_claim(key), ClaimBoard::Claim::kBusy);
  peer.release(key);
  fs::remove_all(cache_dir);
}

// ---------------------------------------------------- progress + guards

TEST(Progress, PeriodicReportReachesTheInjectedStream) {
  ScenarioSpec spec = battery_spec();
  std::ostringstream progress;
  spec.progress_s = 0.001;  // fire effectively every drained cell
  spec.progress_stream = &progress;
  (void)run_scenario(spec);
  const std::string text = progress.str();
  EXPECT_NE(text.find("progress: "), std::string::npos) << text;
  EXPECT_NE(text.find("cells/s"), std::string::npos) << text;
  EXPECT_NE(text.find("/8 cell"), std::string::npos) << text;
}

TEST(Drain, ValidationSurface) {
  {  // a store that cannot be created fails the run by name
    ScenarioSpec spec = battery_spec();
    const fs::path dir = scratch_dir("drain_val_store");
    std::ofstream(dir / "file") << "x";
    spec.cache_dir = (dir / "file" / "store").string();
    try {
      (void)run_scenario(spec);
      ADD_FAILURE() << "a store under a regular file was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(spec.cache_dir), std::string::npos)
          << error.what();
    }
    fs::remove_all(dir);
  }
  {  // a fully stored sweep folds without taking a claim
    ScenarioSpec spec = battery_spec();
    const fs::path dir = scratch_dir("drain_val_warm");
    prewarm(spec, dir);
    spec.axes = {Axis{"traffic_rate_pps", {"3"}}};
    spec.cache_dir = dir.string();
    fs::remove(dir / "claims.lock");
    EXPECT_EQ(run_scenario(spec).cache_hits, spec.total_jobs());
    EXPECT_FALSE(fs::exists(dir / "claims.lock"));
    fs::remove_all(dir);
  }
}

// ------------------------------------------------------------ provenance

TEST(Cache, StoredEntriesCarryExecutionStamps) {
  // Every cell the engine stores records its measured wall and executor
  // identity — the raw material of the cost model and the straggler
  // census.  The stamps ride the CACHE entry only; in-memory results
  // stay pure SimulationRunner output (the serialized-identity
  // contract).
  const ScenarioSpec base = battery_spec();
  const fs::path cache_dir = scratch_dir("provenance");
  ScenarioSpec spec = base;
  spec.cache_dir = cache_dir.string();
  (void)run_scenario(spec);
  const ResultCache cache(cache_dir.string());
  for (const std::string& path : job_paths(base, cache)) {
    const auto entry = cache.load(path);
    ASSERT_TRUE(entry.has_value());
    EXPECT_GT(entry->wall_ms, 0.0);
    EXPECT_FALSE(entry->exec_host.empty());
    EXPECT_EQ(entry->exec_pid, static_cast<std::uint64_t>(::getpid()));
  }
  fs::remove_all(cache_dir);
}

}  // namespace
}  // namespace caem::scenario
