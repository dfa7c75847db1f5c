// work_queue.hpp — crash-safe dynamic cell claiming for cached sweeps.
//
// Every cached sweep drains through claims: one shared queue that any
// number of cooperating processes (concurrent `caem run --cache-dir`
// runs, the service's drains) empty by CLAIMING cells dynamically — the
// work-stealing answer to irregular workloads (arXiv:1605.00930), with
// the shared cache directory as the only coordination substrate (no
// daemon, no socket) and as the merge point (UtilCache,
// arXiv:1811.05864): whichever run finishes its drain folds the whole
// sweep from the cache.  A fast process simply claims more cells, so a
// sweep's makespan is never hostage to whoever drew the
// run-to-extinction cell.
//
// A claim is a kernel record lock, one byte per cell, in one file per
// store:
//
//   <cache>/claims.lock    (stays 0 bytes: only its lock table is used)
//
// The byte for a cell sits at lock_offset() of its cache entry key, so
// claims are per CELL, not per sweep: two different sweeps sharing a
// cell contend for it like two runs of one sweep do.  A digest
// collision only makes two cells contend; it never marks anything done.
//
// ACQUIRE   fcntl(F_OFD_SETLK, F_WRLCK) on the cell's byte.  The kernel
//           grants it to exactly one of N racing claimants; the rest get
//           EAGAIN/EACCES (busy) and move on to the next cell.
// RELEASE   F_UNLCK after the cell's result is durably stored in the
//           cache, then bump the store's in-process release epoch and
//           notify its waiters.
// DEATH     an open-file-description lock belongs to the open file, so
//           the kernel drops it the moment its holder exits, however it
//           exits (SIGKILL, crash).  A dead holder's cells are free at
//           once.  A holder that is stopped but alive (SIGSTOP, a frozen
//           VM) keeps its cells until it resumes or dies.
// WAIT      a drain lane whose every remaining cell is held by a peer
//           snapshots the release epoch BEFORE its pass over the queue
//           and, if the pass made no progress, blocks in wait_release()
//           until the epoch moves.  A release before the snapshot stored
//           its cell first, so the pass already saw a cache hit; a
//           release after it ends the wait — no wakeup is lost.  Only
//           peers in THIS process bump the epoch: the wait's timeout
//           (kPeerPoll) is the poll that picks up releases and deaths of
//           peers in other processes.
//
// Only OFD locks give these semantics.  Classic F_SETLK locks belong to
// the process — lanes of one process would not exclude each other, and
// closing ANY descriptor of the file would drop every lock the process
// holds — and flock() locks the whole file.  Sharing one cache across
// hosts therefore needs a filesystem with POSIX record locks (NFSv4 has
// them); a lock error other than busy (ENOLCK, ...) fails the run
// rather than letting it go on unsynchronised.
//
// Completion is NEVER inferred from claims: a cell is done iff its
// result-cache entry exists (checked before any claim attempt), so a
// crashed run's half-stored cells are skipped, not re-executed.
// Runs are deterministic functions of the cell key and cache stores are
// idempotent publish-by-rename, so even a double execution would be
// harmless.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace caem::scenario {

/// One store's in-process release epoch (defined in work_queue.cpp).
struct ReleaseSignal;

class ClaimBoard {
 public:
  /// Creates `cache_root` if needed and opens its claims.lock: one open
  /// file description, hence one claimant, per board.  Throws naming
  /// the store when either fails.
  explicit ClaimBoard(const std::string& cache_root);
  ~ClaimBoard();  ///< closes the lock file, dropping every claim it holds

  ClaimBoard(ClaimBoard&& other) noexcept;
  ClaimBoard& operator=(ClaimBoard&&) = delete;
  ClaimBoard(const ClaimBoard&) = delete;
  ClaimBoard& operator=(const ClaimBoard&) = delete;

  enum class Claim {
    kWon,   ///< this board now holds the cell
    kBusy,  ///< another board (or process) holds it — move on, repoll later
  };

  /// Try to claim the cell with cache entry key `key`.  Never blocks;
  /// re-claiming a cell this board holds wins again.  Throws on any
  /// lock error other than busy.
  [[nodiscard]] Claim try_claim(const std::string& key);

  /// Drop this board's claim on `key` (call after the cell's result is
  /// durably stored), then wake this process's waiters on the store.
  void release(const std::string& key) const;

  /// Byte of claims.lock that stands for `key`: a 64-bit digest of the
  /// key, masked into [0, 2^62) so every offset is a valid off_t.
  [[nodiscard]] static std::int64_t lock_offset(const std::string& key) noexcept;

  /// How long a lane blocked on peers waits before re-polling: the
  /// latency with which a release or death in ANOTHER process is seen.
  static constexpr std::chrono::milliseconds kPeerPoll{500};

  /// In-process release counter of this board's store, shared by every
  /// live board on the same store.  Snapshot it before a pass.
  [[nodiscard]] std::uint64_t release_epoch() const;

  /// Block until the release epoch moves past `seen`, `*cancel` is
  /// raised, or `timeout` elapses.  True unless it timed out.
  bool wait_release(std::uint64_t seen, std::chrono::duration<double> timeout,
                    const std::atomic<bool>* cancel = nullptr) const;

  /// Wake every waiter of every store so it re-checks its cancel flag:
  /// call after raising a flag a drain passed to wait_release().
  static void wake_waiters();

  /// Stores with at least one live board in this process (the release
  /// registry's size; an entry lives exactly as long as its boards).
  [[nodiscard]] static std::size_t tracked_stores();

  [[nodiscard]] const std::string& lock_path() const noexcept { return lock_path_; }

 private:
  std::string lock_path_;
  int fd_ = -1;
  std::shared_ptr<ReleaseSignal> signal_;  ///< shared per store
};

}  // namespace caem::scenario
