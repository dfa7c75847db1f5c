// cache_janitor.hpp — utility-ordered eviction for a bounded result store.
//
// The result cache was built append-only: entries are valid forever, so
// a one-shot sweep never needed to delete anything.  A long-running
// service does — the store grows with every submitted sweep — and the
// paper's own caching argument says HOW to shrink it: keep the entries
// with the most utility per byte.  The janitor scores every entry
//
//     utility = touches x wall_ms / bytes
//
// (how often it was re-served, times how much recomputation each hit
// saved, per byte of store it occupies) and evicts lowest-utility-first
// until the store fits the budget.  Never-touched entries score zero
// and go first; an expensive, frequently-hit cell is the last thing to
// leave.  Deleting any entry is always SAFE — it reads as a miss and
// recomputes — so the janitor only ever trades wall clock, never
// correctness.
//
// Entries belonging to in-flight sweeps are pinned via the injected
// provider: evicting a cell mid-drain would force the drain to re-run
// it (progress counters would run backwards), so the janitor skips
// them even when the store stays over budget as a result.
//
// `caem serve` also renders each finished sweep into
// <root>/artifacts/<id>/.  Those trees count toward the budget too, and
// go first, oldest id first: a tree is only a rendering of cells the
// store holds, so resubmitting the sweep rebuilds it from cache hits,
// while an evicted cell costs a recomputation.  The provider pins the
// trees of in-flight sweeps the same way as their entries.  With no
// budget the janitor never walks artifacts/.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace caem::service {

struct JanitorReport {
  std::uint64_t bytes_before = 0;  ///< store size when the sweep started
  std::uint64_t bytes_after = 0;   ///< store size after evictions
  std::uint64_t budget_bytes = 0;  ///< 0 = unbounded (sweep is a no-op)
  std::size_t entries = 0;         ///< entries scanned
  std::size_t evicted = 0;         ///< entries deleted this sweep
  std::uint64_t bytes_evicted = 0;
  std::size_t pinned_kept = 0;     ///< over-budget entries spared by a pin
  std::size_t artifact_trees = 0;  ///< finished sweeps' artifact trees counted
  std::size_t artifacts_removed = 0;  ///< of those, trees deleted this sweep
  std::uint64_t artifact_bytes_removed = 0;
};

class CacheJanitor {
 public:
  /// Entry paths and artifact-tree paths (<root>/artifacts/<id>) that
  /// must not be evicted: those of in-flight sweeps.
  using PinProvider = std::function<std::vector<std::string>()>;

  /// @param root          result-cache directory to bound
  /// @param budget_bytes  target store size; 0 disables eviction
  /// @param pins          optional in-flight pin provider
  CacheJanitor(std::string root, std::uint64_t budget_bytes, PinProvider pins = {});

  CacheJanitor(const CacheJanitor&) = delete;
  CacheJanitor& operator=(const CacheJanitor&) = delete;

  /// stop()s the background thread if running.
  ~CacheJanitor();

  /// One enumerate-score-evict pass, synchronous.  Thread-safe.
  JanitorReport sweep_once();

  /// Run sweep_once() every `interval_s` on a background thread.
  void start(double interval_s);
  void stop();

  // Cumulative counters across all sweeps (served by /stats).
  [[nodiscard]] std::uint64_t total_evicted() const noexcept { return total_evicted_.load(); }
  [[nodiscard]] std::uint64_t total_bytes_evicted() const noexcept {
    return total_bytes_evicted_.load();
  }

  [[nodiscard]] std::uint64_t budget_bytes() const noexcept { return budget_bytes_; }

 private:
  std::string root_;
  std::uint64_t budget_bytes_;
  PinProvider pins_;
  std::mutex sweep_mutex_;

  std::atomic<std::uint64_t> total_evicted_{0};
  std::atomic<std::uint64_t> total_bytes_evicted_{0};

  std::mutex thread_mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace caem::service
