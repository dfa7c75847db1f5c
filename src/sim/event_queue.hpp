// event_queue.hpp — binary-heap pending-event set (the test oracle).
//
// A binary min-heap ordered by (time, sequence) so simultaneous events
// fire in scheduling (FIFO) order.  It implements the pending-set
// contract of sim/pending_set.hpp but runs no simulation: it is the
// O(log n) equivalence oracle the LadderQueue is tested and benchmarked
// against; both produce identical pop order.
//
// Hot-path design:
//   * Callbacks are sim::EventFn (48-byte small-buffer optimisation), so
//     the common schedule/fire cycle never allocates.
//   * Heap entries are 24-byte PODs (time, sequence, slot); the callback
//     lives in a side SlotTable, so sift swaps move three words instead
//     of a type-erased callable.
//   * Event ids are generation-stamped slot references: cancel() is a
//     bounds check plus a generation compare — O(1), no scan.
//     Cancelled entries stay in the heap as tombstones and are skipped
//     on pop (lazy deletion).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/pending_set.hpp"
#include "sim/slot_table.hpp"

namespace caem::sim {

class EventQueue {
 public:
  using Fired = sim::Fired;

  EventId schedule(double time_s, EventCallback callback);
  bool cancel(EventId id) noexcept;

  [[nodiscard]] bool empty() const noexcept { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_count_; }

  /// Time of the earliest live event; throws std::out_of_range when
  /// empty.  Prunes tombstones off the heap top (hence non-const).
  [[nodiscard]] double next_time();

  /// Const variant for idle checks.  Logically const: tombstone pruning
  /// changes no observable state (live events and their order are
  /// untouched), so the cast is sound.
  [[nodiscard]] double peek_time() const {
    return const_cast<EventQueue*>(this)->next_time();
  }

  Fired pop();
  void clear() noexcept;

  [[nodiscard]] KernelCounters counters() const noexcept {
    return {total_scheduled(), fired_count_, cancelled_count_, pruned_count_};
  }

  /// Total events ever scheduled (diagnostics / micro-benchmarks).
  [[nodiscard]] std::uint64_t total_scheduled() const noexcept { return next_sequence_ - 1; }

 private:
  // One heap entry per scheduled-and-not-yet-popped event.  `slot`
  // indexes the slot table; the entry is a tombstone when the slot is
  // no longer live.
  struct Entry {
    double time_s;
    std::uint64_t sequence;  // FIFO tie-break for equal times
    std::uint32_t slot;
  };

  // Heap predicate: earliest time first; FIFO for ties.
  [[nodiscard]] static bool later(const Entry& a, const Entry& b) noexcept {
    if (a.time_s != b.time_s) return a.time_s > b.time_s;
    return a.sequence > b.sequence;
  }

  void sift_up(std::size_t index) noexcept;
  void sift_down(std::size_t index) noexcept;
  /// Remove tombstoned entries from the heap top.
  void drop_dead_top() noexcept;

  std::vector<Entry> heap_;
  SlotTable slots_;
  std::uint64_t next_sequence_ = 1;
  std::size_t live_count_ = 0;
  std::uint64_t fired_count_ = 0;
  std::uint64_t cancelled_count_ = 0;
  std::uint64_t pruned_count_ = 0;
};

}  // namespace caem::sim
