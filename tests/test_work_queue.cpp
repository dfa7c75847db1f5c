// Tests for dynamic work claiming (the claim drain every cached sweep
// uses): the ClaimBoard acquire/lease/steal/release protocol, the
// longest-expected-first cost model, the sweep digest, worker
// telemetry markers, concurrent-writer atomicity of the cache, the
// worker-equivalence batteries (N dynamic workers + merge == one
// single-process run, byte for byte), crash recovery (half-stored
// cells skipped, stale claims stolen exactly once), cancellation that
// keeps finished cells, the stats contract, the progress reporter, and
// the worker-mode validation surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "scenario/cost_model.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_cache.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/worker_report.hpp"
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

/// ClaimBoard rooted in a fresh claims dir (boards never create it —
/// the engine does — so tests do it here).
ClaimBoard make_board(const fs::path& cache, const std::string& sweep, double lease_s) {
  ClaimBoard board(cache.string(), sweep, lease_s);
  fs::create_directories(board.dir());
  return board;
}

constexpr const char* kSweep = "feedfacefeedface";

// ---------------------------------------------------------- claim board

TEST(ClaimBoard, CtorValidatesInputs) {
  EXPECT_THROW((ClaimBoard("", kSweep, 1.0)), std::invalid_argument);
  EXPECT_THROW((ClaimBoard("/tmp", "", 1.0)), std::invalid_argument);
  EXPECT_THROW((ClaimBoard("/tmp", kSweep, 0.0)), std::invalid_argument);
  EXPECT_THROW((ClaimBoard("/tmp", kSweep, -1.0)), std::invalid_argument);
}

TEST(ClaimBoard, AcquirePeekReclaimReleaseRoundTrip) {
  const fs::path cache = scratch_dir("claim_rt");
  ClaimBoard board = make_board(cache, kSweep, 30.0);
  EXPECT_EQ(board.peek(3), std::nullopt);  // nothing claimed yet

  const std::uint64_t before = ClaimBoard::now_ms();
  ASSERT_EQ(board.try_claim(3), ClaimBoard::Claim::kWon);
  const std::uint64_t after = ClaimBoard::now_ms();

  const auto info = board.peek(3);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->token, board.token());
  EXPECT_EQ(info->host, board.host());
  EXPECT_EQ(info->pid, static_cast<std::uint64_t>(::getpid()));
  EXPECT_EQ(info->job, 3u);
  EXPECT_EQ(info->lease_s, 30.0);
  EXPECT_GE(info->epoch_ms, before);
  EXPECT_LE(info->epoch_ms, after);

  // Re-claiming our own cell is idempotent (crash-restart of the same
  // board token would be a different token, but a retry loop isn't).
  EXPECT_EQ(board.try_claim(3), ClaimBoard::Claim::kWon);

  // A second worker sees a fresh foreign claim: busy, no steal.
  ClaimBoard other = make_board(cache, kSweep, 30.0);
  EXPECT_NE(other.token(), board.token());
  EXPECT_EQ(other.try_claim(3), ClaimBoard::Claim::kBusy);
  EXPECT_EQ(other.stolen(), 0u);

  // Release frees the cell for anyone.
  board.release(3);
  EXPECT_EQ(board.peek(3), std::nullopt);
  EXPECT_EQ(other.try_claim(3), ClaimBoard::Claim::kWon);
  EXPECT_EQ(other.stolen(), 0u);  // acquired clean, not stolen
  fs::remove_all(cache);
}

TEST(ClaimBoard, ContendedAcquireHasExactlyOneWinner) {
  // The tentpole safety property: N workers race to claim ONE cell and
  // exactly one wins — link(2) either creates or fails, never replaces.
  const fs::path cache = scratch_dir("claim_race");
  constexpr std::size_t kRacers = 8;
  std::vector<ClaimBoard> boards;
  boards.reserve(kRacers);
  for (std::size_t i = 0; i < kRacers; ++i) boards.push_back(make_board(cache, kSweep, 30.0));

  std::atomic<std::size_t> ready{0};
  std::atomic<std::size_t> wins{0};
  std::atomic<std::size_t> busy{0};
  std::vector<std::thread> racers;
  for (std::size_t i = 0; i < kRacers; ++i) {
    racers.emplace_back([&, i] {
      ++ready;
      while (ready.load() < kRacers) std::this_thread::yield();  // start together
      if (boards[i].try_claim(0) == ClaimBoard::Claim::kWon) {
        ++wins;
      } else {
        ++busy;
      }
    });
  }
  for (std::thread& t : racers) t.join();
  EXPECT_EQ(wins.load(), 1u);
  EXPECT_EQ(busy.load(), kRacers - 1);
  std::size_t stolen_total = 0;
  for (const ClaimBoard& board : boards) stolen_total += board.stolen();
  EXPECT_EQ(stolen_total, 0u);  // a live race never steals
  // The standing claim belongs to the winner (some board's token).
  const auto info = boards[0].peek(0);
  ASSERT_TRUE(info.has_value());
  const bool owned = std::any_of(boards.begin(), boards.end(), [&](const ClaimBoard& board) {
    return board.token() == info->token;
  });
  EXPECT_TRUE(owned);
  fs::remove_all(cache);
}

TEST(ClaimBoard, StaleClaimIsStolenExactlyOnce) {
  const fs::path cache = scratch_dir("claim_steal");
  {
    // A "crashed" worker: claims with a 50 ms lease and never refreshes.
    ClaimBoard crashed = make_board(cache, kSweep, 0.05);
    ASSERT_EQ(crashed.try_claim(7), ClaimBoard::Claim::kWon);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));  // lease expires

  constexpr std::size_t kStealers = 6;
  std::vector<ClaimBoard> boards;
  boards.reserve(kStealers);
  for (std::size_t i = 0; i < kStealers; ++i) boards.push_back(make_board(cache, kSweep, 30.0));
  std::atomic<std::size_t> ready{0};
  std::atomic<std::size_t> wins{0};
  std::vector<std::thread> stealers;
  for (std::size_t i = 0; i < kStealers; ++i) {
    stealers.emplace_back([&, i] {
      ++ready;
      while (ready.load() < kStealers) std::this_thread::yield();
      if (boards[i].try_claim(7) == ClaimBoard::Claim::kWon) ++wins;
    });
  }
  for (std::thread& t : stealers) t.join();

  // Exactly one racer ended up holding the cell, and the stale claim
  // was evicted exactly once across ALL racers (the rename is the
  // test-and-take; losers observed the winner's fresh claim as busy).
  EXPECT_EQ(wins.load(), 1u);
  std::size_t stolen_total = 0;
  for (const ClaimBoard& board : boards) stolen_total += board.stolen();
  EXPECT_EQ(stolen_total, 1u);
  const auto info = boards[0].peek(7);
  ASSERT_TRUE(info.has_value());
  EXPECT_NE(info->lease_s, 0.05);  // the new holder's claim, not the corpse
  fs::remove_all(cache);
}

TEST(ClaimBoard, RefreshKeepsALongRunningHolderSafe) {
  // A healthy holder refreshing inside its lease is never stolen from,
  // even when the cell takes many leases to compute.
  const fs::path cache = scratch_dir("claim_refresh");
  ClaimBoard holder = make_board(cache, kSweep, 1.0);
  ClaimBoard vulture = make_board(cache, kSweep, 1.0);
  ASSERT_EQ(holder.try_claim(2), ClaimBoard::Claim::kWon);
  for (int i = 0; i < 6; ++i) {  // 1.5 s total: past the lease without refresh
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    holder.refresh(2);
    EXPECT_EQ(vulture.try_claim(2), ClaimBoard::Claim::kBusy) << "iteration " << i;
  }
  EXPECT_EQ(vulture.stolen(), 0u);
  const auto info = holder.peek(2);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->token, holder.token());
  fs::remove_all(cache);
}

/// Fabricate a foreign claim with an arbitrary stamp — the fixture for
/// clock-skew scenarios a real ClaimBoard cannot produce itself.
void write_foreign_claim(const fs::path& claims_dir, const std::string& sweep, std::size_t job,
                         std::uint64_t epoch_ms, double lease_s) {
  std::ofstream(claims_dir / ("job_" + std::to_string(job) + ".claim"), std::ios::trunc)
      << "v = 1\nsweep = " << sweep << "\njob = " << job
      << "\ntoken = skewed-host:1:0-deadbeef\nhost = skewed-host\npid = 1\nepoch_ms = "
      << epoch_ms << "\nlease_s = " << lease_s << "\n";
}

TEST(ClaimBoard, FutureDatedClaimBeyondOneLeaseIsStolen) {
  // A host with a fast clock stamps its claim in this process's future.
  // Before the skew guard such a claim could NEVER expire here — local
  // now_ms() <= epoch_ms + lease forever — so the cell was unstealable
  // until the skewed host itself aged it out.  A stamp more than one
  // lease ahead must read as corrupt/stale and be stolen immediately.
  const fs::path cache = scratch_dir("claim_future");
  ClaimBoard board = make_board(cache, kSweep, 30.0);
  const double lease_s = 0.5;
  write_foreign_claim(board.dir(), kSweep, 9,
                      ClaimBoard::now_ms() + static_cast<std::uint64_t>(3600.0 * 1000.0),
                      lease_s);
  EXPECT_EQ(board.try_claim(9), ClaimBoard::Claim::kWon);
  EXPECT_EQ(board.stolen(), 1u);
  const auto info = board.peek(9);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->token, board.token());
  fs::remove_all(cache);
}

TEST(ClaimBoard, SkewWithinOneLeaseReadsHealthyInBothDirections) {
  // Modest clock skew — under one lease, past or future — must NOT get
  // a healthy holder stolen from: wall clocks across hosts are never
  // perfectly aligned, and the lease is the agreed tolerance.
  const fs::path cache = scratch_dir("claim_skew_ok");
  ClaimBoard board = make_board(cache, kSweep, 30.0);
  const double lease_s = 60.0;
  // Stamped 20 s in the future (fast host, within one lease): healthy.
  write_foreign_claim(board.dir(), kSweep, 11, ClaimBoard::now_ms() + 20'000, lease_s);
  EXPECT_EQ(board.try_claim(11), ClaimBoard::Claim::kBusy);
  // Stamped 20 s in the past (slow host, within one lease): healthy.
  write_foreign_claim(board.dir(), kSweep, 12, ClaimBoard::now_ms() - 20'000, lease_s);
  EXPECT_EQ(board.try_claim(12), ClaimBoard::Claim::kBusy);
  EXPECT_EQ(board.stolen(), 0u);
  // And one lease plus slack in the PAST is the classic crash: stolen.
  write_foreign_claim(board.dir(), kSweep, 13, ClaimBoard::now_ms() - 70'000, lease_s);
  EXPECT_EQ(board.try_claim(13), ClaimBoard::Claim::kWon);
  EXPECT_EQ(board.stolen(), 1u);
  fs::remove_all(cache);
}

TEST(ClaimBoard, CorruptClaimIsEvictedNotTrusted) {
  const fs::path cache = scratch_dir("claim_corrupt");
  ClaimBoard board = make_board(cache, kSweep, 30.0);
  const fs::path corrupt = fs::path(board.dir()) / "job_4.claim";
  std::ofstream(corrupt, std::ios::trunc) << "torn half-written gar";
  EXPECT_EQ(board.peek(4), std::nullopt);  // unreadable, never data
  EXPECT_EQ(board.try_claim(4), ClaimBoard::Claim::kWon);
  EXPECT_EQ(board.stolen(), 1u);  // the corpse was evicted, then acquired
  const auto info = board.peek(4);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->token, board.token());
  fs::remove_all(cache);
}

// ------------------------------------------------- in-process release wake

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

TEST(ClaimBoard, WakeOnReleaseIsNeverLost) {
  const fs::path cache = scratch_dir("wake_lost");
  ClaimBoard holder = make_board(cache, kSweep, 30.0);
  const ClaimBoard waiter = make_board(cache, kSweep, 30.0);

  // A release that lands between the snapshot and the wait: the epoch
  // has already moved, so the wait returns at once instead of sleeping
  // out its timeout.
  const std::uint64_t seen = waiter.release_epoch();
  ASSERT_EQ(holder.try_claim(0), ClaimBoard::Claim::kWon);
  holder.release(0);
  EXPECT_NE(waiter.release_epoch(), seen);
  auto start = Clock::now();
  EXPECT_TRUE(waiter.wait_release(seen, std::chrono::seconds(60)));
  EXPECT_LT(seconds_since(start), 5.0);

  // A release while the waiter is already asleep wakes it too.
  const std::uint64_t current = waiter.release_epoch();
  ASSERT_EQ(holder.try_claim(1), ClaimBoard::Claim::kWon);
  std::atomic<bool> woken{false};
  start = Clock::now();
  std::thread sleeper([&] { woken.store(waiter.wait_release(current, std::chrono::seconds(60))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  holder.release(1);
  sleeper.join();
  EXPECT_TRUE(woken.load());
  EXPECT_LT(seconds_since(start), 5.0);

  // Nothing released: the wait is the plain timeout.
  EXPECT_FALSE(waiter.wait_release(waiter.release_epoch(), std::chrono::milliseconds(20)));
  fs::remove_all(cache);
}

TEST(ClaimBoard, WakeIsScopedToTheReleasingSweep) {
  const fs::path cache = scratch_dir("wake_scoped");
  ClaimBoard sweep_a = make_board(cache, "aaaaaaaaaaaaaaaa", 30.0);
  const ClaimBoard sweep_b = make_board(cache, "bbbbbbbbbbbbbbbb", 30.0);
  // A second spelling of sweep A's cache root shares A's epoch.
  const ClaimBoard sweep_a_alias = make_board(cache / "." / "", "aaaaaaaaaaaaaaaa", 30.0);

  const std::uint64_t seen_a = sweep_a_alias.release_epoch();
  const std::uint64_t seen_b = sweep_b.release_epoch();
  std::atomic<bool> b_woken{true};
  std::thread waiter_b([&] {
    b_woken.store(sweep_b.wait_release(seen_b, std::chrono::milliseconds(300)));
  });
  ASSERT_EQ(sweep_a.try_claim(0), ClaimBoard::Claim::kWon);
  sweep_a.release(0);
  waiter_b.join();
  EXPECT_FALSE(b_woken.load());  // B timed out: A's release is not B's
  EXPECT_EQ(sweep_b.release_epoch(), seen_b);
  EXPECT_NE(sweep_a_alias.release_epoch(), seen_a);
  EXPECT_TRUE(sweep_a_alias.wait_release(seen_a, std::chrono::seconds(60)));
  fs::remove_all(cache);
}

TEST(ClaimBoard, WakeWaitersEndsACancelledWait) {
  const fs::path cache = scratch_dir("wake_cancel");
  const ClaimBoard board = make_board(cache, kSweep, 30.0);
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
  // A daemon serving sweep after sweep must not keep one epoch per
  // sweep ever served: the entry lives exactly as long as its boards.
  const fs::path cache = scratch_dir("wake_registry");
  const std::size_t before = ClaimBoard::tracked_sweeps();
  {
    const ClaimBoard first = make_board(cache, "cccccccccccccccc", 30.0);
    EXPECT_EQ(ClaimBoard::tracked_sweeps(), before + 1);
    {
      const ClaimBoard second = make_board(cache, "cccccccccccccccc", 30.0);
      const ClaimBoard other = make_board(cache, "dddddddddddddddd", 30.0);
      EXPECT_EQ(ClaimBoard::tracked_sweeps(), before + 2);
    }
    EXPECT_EQ(ClaimBoard::tracked_sweeps(), before + 1);  // `first` still live
  }
  EXPECT_EQ(ClaimBoard::tracked_sweeps(), before);
  // A sweep drained again later starts a fresh entry, and drops it again.
  {
    const ClaimBoard again = make_board(cache, "cccccccccccccccc", 30.0);
    EXPECT_EQ(ClaimBoard::tracked_sweeps(), before + 1);
  }
  EXPECT_EQ(ClaimBoard::tracked_sweeps(), before);
  fs::remove_all(cache);
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

// --------------------------------------------------------- sweep digest

TEST(SweepDigest, PinsContentCountAndOrder) {
  const std::vector<std::string> keys = {"a/x.json", "b/y.json", "c/z.json"};
  EXPECT_EQ(sweep_digest(keys), sweep_digest(keys));
  EXPECT_EQ(sweep_digest(keys).size(), 16u);
  std::vector<std::string> reordered = {"b/y.json", "a/x.json", "c/z.json"};
  EXPECT_NE(sweep_digest(keys), sweep_digest(reordered));
  std::vector<std::string> edited = keys;
  edited[2] = "c/w.json";
  EXPECT_NE(sweep_digest(keys), sweep_digest(edited));
  std::vector<std::string> shorter(keys.begin(), keys.end() - 1);
  EXPECT_NE(sweep_digest(keys), sweep_digest(shorter));
}

// ------------------------------------------------- concurrent cache writers

TEST(ShardCache, ConcurrentStoresOnOneCellNeverTearReads) {
  // Two processes that both execute a cell (a steal at the lease
  // margin) store it concurrently; readers must only ever see one
  // complete entry or the other.
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

// ------------------------------------------------------- worker markers

TEST(Manifest, WorkerMarkerRoundTripAndDisjointCensus) {
  const fs::path dir = scratch_dir("worker_marker");
  const WorkerReports reports(dir.string(), kSweep);
  EXPECT_TRUE(reports.collect().empty());

  WorkerReport marker;
  marker.token = "box-a:4242:0-cafe";
  marker.host = "box-a";
  marker.pid = 4242;
  marker.total_jobs = 8;
  marker.cache_hits = 3;
  marker.stolen = 1;
  marker.wall_ms = 1234.5;
  marker.stored = {2, 5, 6};
  reports.write(marker);

  // Other files in the sweep dir — claims, anything not named
  // worker_*.done — never enter the census.
  fs::create_directories(fs::path(reports.dir()) / "claims");
  std::ofstream(fs::path(reports.dir()) / "claims" / "job_0.claim", std::ios::trunc)
      << "v = 1\nsweep = " << kSweep << "\njob = 0\ntoken = t\n";
  std::ofstream(fs::path(reports.dir()) / "notes.done", std::ios::trunc) << "v = 1\n";

  const auto workers = reports.collect();
  ASSERT_EQ(workers.size(), 1u);
  EXPECT_EQ(workers[0].token, marker.token);  // exact, despite filename sanitising
  EXPECT_EQ(workers[0].host, "box-a");
  EXPECT_EQ(workers[0].pid, 4242u);
  EXPECT_EQ(workers[0].total_jobs, 8u);
  EXPECT_EQ(workers[0].cache_hits, 3u);
  EXPECT_EQ(workers[0].stolen, 1u);
  EXPECT_EQ(workers[0].wall_ms, 1234.5);
  EXPECT_EQ(workers[0].stored, (std::vector<std::size_t>{2, 5, 6}));

  // The ':' characters never reach the filesystem name.
  EXPECT_EQ(reports.path(marker.token).find(':'), std::string::npos);

  // Corrupt and foreign-sweep reports are skipped, never data.
  std::ofstream(fs::path(reports.dir()) / "worker_torn.done", std::ios::trunc) << "v = 1\npid = x";
  std::ofstream(fs::path(reports.dir()) / "worker_foreign.done", std::ios::trunc)
      << "v = 1\nsweep = 0000000000000000\ntoken = ghost\nstored = \n";
  EXPECT_EQ(reports.collect().size(), 1u);

  WorkerReport anonymous;  // empty token would be unaddressable
  EXPECT_THROW(reports.write(anonymous), std::invalid_argument);
  fs::remove_all(dir);
}

// --------------------------------------------------- engine battery prep

ScenarioSpec battery_spec() {
  ScenarioSpec spec;
  spec.name = "workerbat";
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

/// The sweep digest of the spec's flattened job list.
std::string digest_of(const ScenarioSpec& spec, const ResultCache& cache) {
  const std::vector<GridPoint> grid = expand_grid(spec.axes);
  std::vector<std::string> keys(spec.total_jobs());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const JobCoords c = job_coords(spec, i);
    keys[i] = cache.entry_key(spec.config_at(grid[c.point]), spec.protocols[c.protocol],
                              spec.base_seed + c.rep, spec.options);
  }
  return sweep_digest(keys);
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

/// The stale claim a worker killed while holding `job` leaves behind.
void write_ghost_claim(const fs::path& cache_dir, const std::string& digest, std::size_t job) {
  const fs::path claims = cache_dir / "sweeps" / digest / "claims";
  fs::create_directories(claims);
  std::ofstream(claims / ("job_" + std::to_string(job) + ".claim"), std::ios::trunc)
      << "v = 1\nsweep = " << digest << "\njob = " << job
      << "\ntoken = ghost:1:0-dead\nhost = ghost\npid = 1\nepoch_ms = 1000\nlease_s = 0.01\n";
}

/// Drain `spec` with `count` concurrent workers on `cache_dir`, check
/// each worker's stats and telemetry marker, and return the cells they
/// executed — every one by exactly one worker.
std::set<std::size_t> drain_with_workers(ScenarioSpec spec, const fs::path& cache_dir,
                                         std::size_t count) {
  spec.cache_dir = cache_dir.string();
  spec.worker_mode = true;
  std::vector<ScenarioResult> results(count);
  {
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < count; ++i) {
      workers.emplace_back([&, i] { results[i] = run_scenario(spec); });
    }
    for (std::thread& t : workers) t.join();
  }
  std::set<std::size_t> executed;
  std::set<std::string> tokens;
  for (const ScenarioResult& result : results) {
    EXPECT_TRUE(result.points.empty());  // partial run: the merge folds
    EXPECT_TRUE(tokens.insert(result.worker_token).second);
    // A worker that ran to completion observed every cell: the ones it
    // executed plus the ones it found stored (at scan time or by losing
    // a claim race mid-drain).
    EXPECT_EQ(result.cache_hits + result.executed_jobs, result.total_jobs);
    EXPECT_EQ(result.cache_misses, result.executed_jobs);
    EXPECT_EQ(result.claims_stolen, 0u);  // nobody crashed: no steals
    EXPECT_TRUE(fs::exists(result.marker_path));
    const auto markers = WorkerReports(spec.cache_dir, result.sweep_digest).collect();
    const auto mine = std::find_if(markers.begin(), markers.end(), [&](const WorkerReport& m) {
      return m.token == result.worker_token;
    });
    if (mine == markers.end()) {
      ADD_FAILURE() << "no marker for " << result.worker_token;
      continue;
    }
    EXPECT_EQ(mine->stored.size(), result.executed_jobs);
    EXPECT_EQ(mine->cache_hits, result.cache_hits);
    for (const std::size_t job : mine->stored) {
      EXPECT_TRUE(executed.insert(job).second) << "job " << job << " executed twice";
    }
  }
  return executed;
}

/// Fold `spec` from `cache_dir` as `caem merge` does: nothing executes,
/// every cell is a hit, and the artifacts match `ref` byte for byte.
void expect_merge_matches(const ScenarioSpec& spec, const fs::path& cache_dir,
                          const Artifacts& ref, const std::string& tag) {
  ScenarioSpec merge = spec;
  merge.cache_dir = cache_dir.string();
  const ScenarioResult merged = run_scenario(merge);
  EXPECT_EQ(merged.executed_jobs, 0u) << tag;
  EXPECT_EQ(merged.cache_hits, spec.total_jobs()) << tag;
  const fs::path dir = scratch_dir("merged_" + tag);
  const Artifacts out = render_to(merged, spec, dir);
  EXPECT_EQ(out.csv, ref.csv) << tag;
  EXPECT_EQ(out.json, ref.json) << tag;
  EXPECT_EQ(out.traces, ref.traces) << tag;
  fs::remove_all(dir);
}

// ----------------------------------------------- equivalence battery

TEST(Worker, ConcurrentWorkersPlusMergeMatchSingleProcessByteForByte) {
  // Reference: one uncached single-process run — dynamic claiming must
  // reproduce pure in-memory compute exactly.
  const ScenarioSpec spec = battery_spec();
  const fs::path ref_dir = scratch_dir("worker_ref");
  const Artifacts ref = render_to(run_scenario(spec), spec, ref_dir);

  const fs::path cache_dir = scratch_dir("worker_cache");
  constexpr std::size_t kWorkers = 3;
  // Claims partition the queue: every cell executed exactly once.
  EXPECT_EQ(drain_with_workers(spec, cache_dir, kWorkers).size(), spec.total_jobs());

  // Merge: pure cache hits, straggler census present, artifacts
  // byte-identical to the uncached reference.
  expect_merge_matches(spec, cache_dir, ref, "worker");
  const ResultCache cache(cache_dir.string());
  EXPECT_EQ(WorkerReports(cache_dir.string(), digest_of(spec, cache)).collect().size(),
            kWorkers);
  fs::remove_all(ref_dir);
  fs::remove_all(cache_dir);
}

TEST(Shard, EquivalenceBatteryAcrossShardCounts) {
  // N dynamic workers + merge == one uncached process, for N in
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
    const std::vector<std::size_t> misses = miss_list(job_paths(spec, cache), cache);
    ASSERT_EQ(misses, (std::vector<std::size_t>{4, 5, 6, 7})) << tag;
    // The workers executed exactly the misses: prior hits never re-run.
    const std::set<std::size_t> executed = drain_with_workers(spec, cache_dir, n);
    EXPECT_EQ(std::vector<std::size_t>(executed.begin(), executed.end()), misses) << tag;
    expect_merge_matches(spec, cache_dir, ref, tag);
    fs::remove_all(cache_dir);
  }
  fs::remove_all(ref_dir);
}

// ------------------------------------------------ crashed-worker recovery

TEST(Worker, HalfStoredCellsAreSkippedAndStaleClaimsStolenExactlyOnce) {
  // Simulate a worker that died mid-drain: jobs 0..3 durably stored, a
  // stale claim left on a STORED cell (job 1: killed between store and
  // release) and on an UNSTORED cell (job 5: killed mid-execute).  A
  // fresh worker must treat job 1 as done — completion comes from the
  // cache, never from claims — and steal job 5's corpse exactly once.
  const ScenarioSpec spec = battery_spec();
  const fs::path cache_dir = scratch_dir("worker_crash");
  prewarm(spec, cache_dir);
  const ResultCache cache(cache_dir.string());
  const std::vector<std::string> paths = job_paths(spec, cache);
  ASSERT_TRUE(cache.load(paths[1]).has_value());
  ASSERT_FALSE(cache.load(paths[5]).has_value());
  const std::string half_stored_bytes = read_file(paths[1]);
  const std::string digest = digest_of(spec, cache);
  write_ghost_claim(cache_dir, digest, 1);
  write_ghost_claim(cache_dir, digest, 5);

  ScenarioSpec worker = spec;
  worker.cache_dir = cache_dir.string();
  worker.worker_mode = true;
  const ScenarioResult result = run_scenario(worker);
  EXPECT_EQ(result.sweep_digest, digest);
  EXPECT_EQ(result.executed_jobs, 4u);  // exactly the unstored cells
  EXPECT_EQ(result.cache_hits, 4u);
  EXPECT_EQ(result.claims_stolen, 1u);  // job 5's corpse, not job 1's

  // The half-stored cell was never re-executed or re-stored...
  EXPECT_EQ(read_file(paths[1]), half_stored_bytes);
  // ...its stale claim was never even touched (the cache hit
  // short-circuits before any claim traffic)...
  const fs::path claims = cache_dir / "sweeps" / digest / "claims";
  EXPECT_TRUE(fs::exists(claims / "job_1.claim"));
  // ...while the stolen cell's claim was released after the store.
  EXPECT_FALSE(fs::exists(claims / "job_5.claim"));
  EXPECT_TRUE(miss_list(paths, cache).empty());
  fs::remove_all(cache_dir);
}

TEST(Shard, CrashedShardRecoveryExecutesExactlyTheMissingCells) {
  // What two killed workers leave behind: one stored jobs 0, 2, 4, 6;
  // the other stored jobs 1 and 3 and died holding job 5.  The merge
  // executes exactly the unstored cells (5 and 7) — the stored half is
  // not re-run — stealing job 5's stale claim on the way, and folds
  // byte-identically to a single-process run.
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
  write_ghost_claim(cache_dir, digest_of(spec, cache), 5);

  ScenarioSpec merge = spec;
  merge.cache_dir = cache_dir.string();
  const ScenarioResult merged = run_scenario(merge);
  EXPECT_EQ(merged.executed_jobs, 2u);
  EXPECT_EQ(merged.cache_hits, 6u);
  EXPECT_EQ(merged.claims_stolen, 1u);
  // A second merge finds everything stored and executes nothing.
  const fs::path ref_dir = scratch_dir("crash_ref");
  expect_merge_matches(spec, cache_dir, render_to(run_scenario(spec), spec, ref_dir), "crash");
  fs::remove_all(cache_dir);
  fs::remove_all(ref_dir);
}

TEST(Shard, StatsCoherentPerShardAndMerged) {
  ScenarioSpec spec = battery_spec();
  spec.replications = 1;
  spec.protocols = {core::protocol_from_string("scheme2")};  // 2 jobs total
  const fs::path cache_dir = scratch_dir("stats_cache");
  // Two workers one after the other (drain_with_workers checks each
  // one's hits + executed == total): the first executes every cell,
  // the second finds them all stored.
  EXPECT_EQ(drain_with_workers(spec, cache_dir, 1).size(), spec.total_jobs());
  EXPECT_TRUE(drain_with_workers(spec, cache_dir, 1).empty());

  ScenarioSpec merge = spec;
  merge.cache_dir = cache_dir.string();
  const ScenarioResult merged = run_scenario(merge);
  EXPECT_EQ(merged.cache_hits, spec.total_jobs());
  EXPECT_EQ(merged.executed_jobs, 0u);
  EXPECT_EQ(merged.cache_misses, 0u);
  EXPECT_EQ(merged.cache_hits + merged.executed_jobs, merged.total_jobs);
  fs::remove_all(cache_dir);
}

// ------------------------------------------- cancellation keeps its work

TEST(Drain, CancelledCachedRunKeepsEveryFinishedCell) {
  // A folding cached run cancelled mid-drain throws, but every cell it
  // finished is already stored (and no claim is left behind): the
  // re-run resumes from them instead of starting over.
  ScenarioSpec spec = battery_spec();
  const fs::path cache_dir = scratch_dir("cancel_keeps");
  spec.cache_dir = cache_dir.string();
  ProgressSink sink;
  std::atomic<bool> cancel{false};
  spec.progress_sink = &sink;
  spec.cancel = &cancel;
  std::thread canceller([&] {
    while (sink.executed.load() == 0) std::this_thread::yield();
    cancel.store(true);
  });
  EXPECT_THROW((void)run_scenario(spec), SweepCancelled);
  canceller.join();

  const ResultCache cache(cache_dir.string());
  const std::vector<std::string> paths = job_paths(spec, cache);
  const std::size_t stored = paths.size() - miss_list(paths, cache).size();
  EXPECT_GE(stored, 1u);
  EXPECT_EQ(stored, sink.executed.load());
  std::size_t claims = 0;
  for (const auto& entry : fs::recursive_directory_iterator(cache_dir)) {
    if (entry.path().extension() == ".claim") ++claims;
  }
  EXPECT_EQ(claims, 0u);

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
  spec.worker_mode = true;
  spec.lease_s = 30.0;  // poll = min(0.5 s, lease / 4) = 0.5 s
  return spec;
}

TEST(Worker, WakeDrainOnInProcessPeerRelease) {
  const fs::path side_dir = scratch_dir("wake_drain_side");
  const fs::path cache_dir = scratch_dir("wake_drain");
  const ScenarioSpec spec = one_cell_spec(cache_dir);
  ASSERT_EQ(spec.total_jobs(), 1u);

  // The "peer's" result, computed up front in a side cache.
  ScenarioSpec side = spec;
  side.cache_dir = side_dir.string();
  side.worker_mode = false;
  (void)run_scenario(side);
  const ResultCache side_cache(side_dir.string());
  const std::optional<core::RunResult> computed = side_cache.load(job_paths(side, side_cache)[0]);
  ASSERT_TRUE(computed.has_value());
  const ResultCache cache(cache_dir.string());
  const std::string entry = job_paths(spec, cache)[0];

  // The peer: a second board in this process holding the only claim.
  ClaimBoard peer = make_board(cache_dir, digest_of(spec, cache), 30.0);
  ASSERT_EQ(peer.try_claim(0), ClaimBoard::Claim::kWon);

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
  peer.release(0);
  drain.join();
  // Woken by the release, not by the 0.5 s poll.
  EXPECT_LT(seconds_since(released), 0.25);
  EXPECT_FALSE(result.cancelled);
  EXPECT_EQ(result.executed_jobs, 0u);
  EXPECT_EQ(result.cache_hits, 1u);
  fs::remove_all(side_dir);
  fs::remove_all(cache_dir);
}

TEST(Worker, WakeDrainOnCancel) {
  const fs::path cache_dir = scratch_dir("wake_drain_cancel");
  ScenarioSpec spec = one_cell_spec(cache_dir);
  const ResultCache cache(cache_dir.string());
  ClaimBoard peer = make_board(cache_dir, digest_of(spec, cache), 30.0);
  ASSERT_EQ(peer.try_claim(0), ClaimBoard::Claim::kWon);

  std::atomic<bool> cancel{false};
  spec.cancel = &cancel;
  std::atomic<bool> done{false};
  ScenarioResult result;
  std::thread drain([&] {
    result = run_scenario(spec);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(done.load());

  const auto cancelled = Clock::now();
  cancel.store(true);
  ClaimBoard::wake_waiters();
  drain.join();
  EXPECT_LT(seconds_since(cancelled), 0.25);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.executed_jobs, 0u);
  EXPECT_TRUE(fs::exists(result.marker_path));
  peer.release(0);
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

TEST(Worker, ValidationSurface) {
  {  // worker mode without a cache has no coordination substrate
    ScenarioSpec spec = battery_spec();
    spec.worker_mode = true;
    EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
  }
  {  // --no-cache disables the substrate too, and creates nothing
    ScenarioSpec spec = battery_spec();
    spec.cache_dir = (fs::temp_directory_path() / "caem_wq_never_created").string();
    spec.use_cache = false;
    spec.worker_mode = true;
    EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
    EXPECT_FALSE(fs::exists(spec.cache_dir));
  }
  {  // a non-positive lease would make every claim instantly stale
    ScenarioSpec spec = battery_spec();
    spec.cache_dir = scratch_dir("worker_val_lease").string();
    spec.worker_mode = true;
    spec.lease_s = 0.0;
    EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
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
