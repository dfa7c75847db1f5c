// pending_set.hpp — the kernel's pending-event set contract and the
// types it trades in.
//
// The discrete-event engine needs exactly one thing from its timing
// structure: hand back live events in (time_s, sequence) order, with
// O(1) generation-safe cancellation.  Two classes implement the same
// members with identical semantics:
//
//   schedule(t, fn)  EventId usable with cancel(); throws
//                    std::invalid_argument for a NaN time or empty fn
//   cancel(id)       O(1); true iff the event was still pending
//   empty(), size()  live (non-cancelled) events only
//   peek_time()      earliest live time; std::out_of_range when empty
//   pop()            remove and return the earliest live event
//   clear()          drop everything; outstanding ids go stale for good
//   counters()       lifetime KernelCounters
//
//   * LadderQueue — two-tier bucketed ladder, amortized O(1) per event
//                   independent of pending-set size.  The Simulator
//                   owns one by value: no virtual call on the hot path.
//   * EventQueue  — binary min-heap.  It runs no simulation; it stays
//                   as the equivalence oracle the ladder is tested
//                   (tests/test_ladder_queue.cpp) and benchmarked
//                   (bench/bench_queue.cpp) against.
//
// Both produce the exact same pop order (strict (time, sequence) FIFO),
// so the oracle comparison is exact, not statistical.
#pragma once

#include <cstdint>

#include "sim/event_fn.hpp"

namespace caem::sim {

/// Opaque handle to a scheduled event; value 0 is reserved as "invalid".
/// Encodes (generation << 32) | slot; generations start at 1 so no valid
/// id is ever 0.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Callback executed when an event fires.  Receives the firing time.
using EventCallback = EventFn;

/// An event removed from the pending set, ready to execute.
struct Fired {
  EventId id;
  double time_s;
  EventCallback callback;
};

/// Lifetime op counts for one pending set (diagnostics; never part of
/// simulation artifacts).  `tombstones_pruned` counts cancelled entries
/// physically removed by lazy deletion — implementations prune at
/// different moments, so this one is comparable within an impl only.
struct KernelCounters {
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t tombstones_pruned = 0;

  KernelCounters& operator+=(const KernelCounters& other) noexcept {
    scheduled += other.scheduled;
    fired += other.fired;
    cancelled += other.cancelled;
    tombstones_pruned += other.tombstones_pruned;
    return *this;
  }
};

}  // namespace caem::sim
