// work_queue.hpp — crash-safe dynamic cell claiming for cached sweeps.
//
// Every cached sweep drains through claims: one shared queue that any
// number of cooperating processes (`caem run --worker`, `caem run
// --cache-dir`, `caem merge`, the service's drains) empty by CLAIMING
// cells dynamically — the work-stealing answer to irregular workloads
// (arXiv:1605.00930), with the shared cache directory as the only
// coordination substrate (no daemon, no socket: claims are files).  A
// fast process simply claims more cells, so a sweep's makespan is never
// hostage to whoever drew the run-to-extinction cell.
//
// Claim protocol, one file per in-flight cell:
//
//   <cache>/sweeps/<sweep digest>/claims/job_<index>.claim
//
// ACQUIRE   util::atomic_create_file — content is fully written to a
//           temp, then hard-linked into place.  link(2) fails if the
//           claim exists, so exactly ONE of N racing workers wins; the
//           losers observe a fresh foreign claim and move on to the
//           next cell.  (Publish-by-RENAME would silently replace a
//           racer's claim and let both believe they hold it.)
// LEASE     the claim records its epoch_ms and lease_ms; the holder
//           refreshes the stamp (rename-replace of its own file) while
//           it computes.  A claim whose stamp has aged past the lease
//           belongs to a crashed (or descheduled) worker.  The stamp is
//           wall clock compared across hosts, so skew within one lease
//           in either direction reads as healthy; a stamp more than one
//           lease in the FUTURE (fast-clock host, corrupt stamp) is
//           treated as stale too — otherwise it could never expire in
//           this process's frame and the cell would be unstealable.
// STEAL     write a candidate claim aside, then swap it in for the
//           stale one with renameat2(RENAME_EXCHANGE).  The exchange is
//           a filesystem test-and-take — of N racing stealers exactly
//           one moves the judged corpse out — and the claim path is
//           never empty, so no acquire can slip in mid-steal.  A late
//           stealer whose exchange instead moved out a claim published
//           after its look (the winner's) swaps it straight back.
//           Where the filesystem rejects the exchange (EINVAL/ENOSYS,
//           e.g. NFS) the stealer renames the corpse away and acquires
//           normally; there a third racer can slip into the empty path
//           and run the cell a second time.
// RELEASE   the holder deletes its claim after the cell's result is
//           durably stored in the cache, then bumps the sweep's
//           in-process release epoch and notifies its waiters.
// WAIT      a worker whose every remaining cell is held by a healthy
//           peer snapshots the release epoch BEFORE its pass over the
//           queue and, if the pass made no progress, blocks in
//           wait_release() until the epoch moves.  A release before the
//           snapshot stored its cell first, so the pass already saw a
//           cache hit; a release after it ends the wait — no wakeup is
//           lost.  Only peers in THIS process bump the epoch: the wait's
//           timeout is the filesystem poll that picks up cross-process
//           releases and lets stale claims be stolen after expiry.
//
// Completion is NEVER inferred from claims: a cell is done iff its
// result-cache entry exists (checked before any claim attempt), so a
// crashed worker's half-stored cells are skipped, not re-executed, and
// a worker killed at any point leaves at worst a stale claim that
// expires and is stolen — never an orphaned cell.  Duplicate execution
// is possible at the margins (a holder descheduled past its lease is
// stolen while still alive) and harmless: runs are deterministic
// functions of the cell key and cache stores are idempotent
// publish-by-rename.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace caem::scenario {

/// Parsed contents of one claim file.
struct ClaimInfo {
  std::string token;           ///< unique claimant id (host:pid:nonce)
  std::string host;
  std::uint64_t pid = 0;
  std::size_t job = 0;         ///< flattened job index
  std::uint64_t epoch_ms = 0;  ///< last acquire/refresh wall-clock stamp
  double lease_s = 0.0;        ///< staleness horizon the claimant announced
};

/// One sweep's in-process release epoch (defined in work_queue.cpp).
struct ReleaseSignal;

class ClaimBoard {
 public:
  /// @param cache_root  shared result-cache directory
  /// @param sweep       sweep digest (pins the job-index namespace)
  /// @param lease_s     staleness horizon for claims this board writes;
  ///                    must be > 0
  ClaimBoard(const std::string& cache_root, const std::string& sweep, double lease_s);

  enum class Claim {
    kWon,   ///< this board now holds the cell
    kBusy,  ///< a fresh foreign claim holds it — move on, repoll later
  };

  /// Try to claim `job`: acquire if unclaimed, steal first if the
  /// standing claim is stale or unreadable.  Never blocks on a healthy
  /// holder.
  [[nodiscard]] Claim try_claim(std::size_t job);

  /// Re-stamp this board's own claim on `job` (call periodically while
  /// executing a long cell so a healthy holder is never stolen from).
  void refresh(std::size_t job) const;

  /// Drop this board's claim on `job` (call after the cell's result is
  /// durably stored), then wake this process's waiters on the sweep.
  void release(std::size_t job) const;

  /// In-process release counter of this board's sweep, shared by every
  /// live board on the same claim dir.  Snapshot it before a pass.
  [[nodiscard]] std::uint64_t release_epoch() const;

  /// Block until the release epoch moves past `seen`, `*cancel` is
  /// raised, or `timeout` elapses.  True unless it timed out.
  bool wait_release(std::uint64_t seen, std::chrono::duration<double> timeout,
                    const std::atomic<bool>* cancel = nullptr) const;

  /// Wake every waiter of every sweep so it re-checks its cancel flag:
  /// call after raising a flag a drain passed to wait_release().
  static void wake_waiters();

  /// Sweeps with at least one live board in this process (the release
  /// registry's size; an entry lives exactly as long as its boards).
  [[nodiscard]] static std::size_t tracked_sweeps();

  /// Read the standing claim; std::nullopt when absent or unreadable.
  [[nodiscard]] std::optional<ClaimInfo> peek(std::size_t job) const;

  [[nodiscard]] const std::string& token() const noexcept { return token_; }
  [[nodiscard]] const std::string& host() const noexcept { return host_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  /// Stale/corrupt claims this board has stolen (telemetry).
  [[nodiscard]] std::size_t stolen() const noexcept { return stolen_; }

  /// Wall-clock now in milliseconds since the epoch (the lease clock;
  /// wall-clock because leases must be comparable across processes).
  [[nodiscard]] static std::uint64_t now_ms();

 private:
  [[nodiscard]] std::string claim_path(std::size_t job) const;
  [[nodiscard]] std::string claim_body(std::size_t job, const std::string& token) const;
  /// Parse the claim file at `path` as job `job`'s claim.
  [[nodiscard]] std::optional<ClaimInfo> read_claim(const std::string& path,
                                                    std::size_t job) const;
  /// True when `moved` is the very claim that was judged dead
  /// (`judged`; nullopt = an unreadable one).
  [[nodiscard]] static bool is_judged(const std::optional<ClaimInfo>& moved,
                                      const std::optional<ClaimInfo>& judged);

  /// Take the claim on `job` away from its stale holder (STEAL above):
  /// kWon when our claim replaced the judged one, kBusy when a faster
  /// stealer's live claim stands, nullopt when the claim path is free
  /// and the caller should acquire again.
  [[nodiscard]] std::optional<Claim> steal(std::size_t job,
                                           const std::optional<ClaimInfo>& judged);
  /// STEAL's fallback where the filesystem has no RENAME_EXCHANGE.
  [[nodiscard]] std::optional<Claim> steal_by_rename(std::size_t job,
                                                     const std::optional<ClaimInfo>& judged);

  std::string sweep_;
  std::string dir_;
  std::string token_;
  std::string host_;
  double lease_s_;
  std::size_t stolen_ = 0;
  std::shared_ptr<ReleaseSignal> signal_;  ///< shared per claim dir
};

}  // namespace caem::scenario
