// simulator.hpp — the discrete-event simulation engine.
//
// Owns the clock and the pending-event set.  Entities (MAC state
// machines, traffic sources, the LEACH round manager...) schedule
// callbacks; the engine fires them in timestamp order.  Single-threaded
// by design: parallelism lives one level up, across independent runs
// (core::parallel_runs_ordered and the scenario engine's drains), which
// is both simpler and faster for this workload than intra-run
// parallelism.
//
// The pending set is a LadderQueue held by value (sim/pending_set.hpp),
// so every schedule and pop is a direct call.
#pragma once

#include <cstdint>
#include <limits>

#include "sim/ladder_queue.hpp"
#include "sim/pending_set.hpp"

namespace caem::sim {

class Simulator {
 public:
  Simulator() = default;

  // Non-copyable: entities capture `this` in callbacks.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time in seconds.
  [[nodiscard]] double now() const noexcept { return now_s_; }

  /// Schedule at an absolute time; must not be in the past.
  EventId schedule_at(double time_s, EventCallback callback);

  /// Schedule after a non-negative delay from now.
  EventId schedule_in(double delay_s, EventCallback callback);

  /// Cancel a pending event (O(1); false when it already fired).
  bool cancel(EventId id) noexcept { return queue_.cancel(id); }

  /// Run until the queue drains or the clock passes `until_s`.
  /// Events scheduled exactly at `until_s` still fire.  Returns the
  /// number of events executed by this call.
  std::uint64_t run_until(double until_s = std::numeric_limits<double>::infinity());

  /// Execute exactly one event if any is pending; returns whether one ran.
  bool step();

  /// Request that run_until() return after the current event completes.
  void stop() noexcept { stop_requested_ = true; }
  [[nodiscard]] bool stop_requested() const noexcept { return stop_requested_; }

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const noexcept { return executed_; }

  /// Kernel op counts for this simulator's queue (diagnostics).
  [[nodiscard]] KernelCounters kernel_counters() const noexcept { return queue_.counters(); }

 private:
  LadderQueue queue_;
  double now_s_ = 0.0;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace caem::sim
