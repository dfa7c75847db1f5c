// cost_model.hpp — longest-expected-first drain order for sweep cells.
//
// A sweep's wall clock is gated by its slowest cell: drain a
// run-to-extinction 10k-node cell last and the final worker grinds it
// alone while every other worker idles.  Draining cells in descending
// expected cost (LPT scheduling) bounds that tail both for the
// in-process `core::parallel_runs_ordered` queue and for the cross-process
// dynamic claim queue (scenario/work_queue.hpp).
//
// The expectation has two tiers, UtilCache's cost-accounting idea
// applied to our own scheduler:
//
//   1. A-priori: cost ∝ node_count × horizon — the dominant term of an
//      O(N·neighbors) simulator run for a fixed horizon.  Always
//      available, unit-free (only the ORDER matters).
//   2. Measured: cache entries record the wall_ms their run actually
//      took (RunResult execution stamps).  Cells sharing a "config
//      family" — same (protocol, node_count) — are near-identical
//      workloads, so the family's mean measured wall refines the
//      estimate for this sweep's still-pending cells; families without
//      measurements fall back to the a-priori cost scaled by the global
//      measured/a-priori ratio, keeping the two tiers comparable when a
//      sweep mixes warmed and cold families.
//
// Determinism: estimates feed only the drain ORDER (each job's result
// is a pure function of its own coordinates), and ties break toward the
// lower job index, so any two processes given the same observations
// produce the same order.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace caem::scenario {

class CostModel {
 public:
  /// A-priori cost of one cell: node_count × horizon seconds.  Unit-free
  /// (comparisons only).
  [[nodiscard]] static double static_cost(std::size_t node_count, double horizon_s);

  /// Record one measured execution: `wall_ms` for a cell of config
  /// family (protocol, node_count) run under `horizon_s`.  Non-positive
  /// walls (unrecorded legacy entries) are ignored.
  void observe(const std::string& protocol, std::size_t node_count, double horizon_s,
               double wall_ms);

  /// Expected cost of a cell: the family's mean measured wall_ms when
  /// observations exist, else static_cost calibrated by the global
  /// measured/static ratio (raw static_cost when nothing was measured).
  [[nodiscard]] double estimate_ms(const std::string& protocol, std::size_t node_count,
                                   double horizon_s) const;

  [[nodiscard]] std::size_t observations() const noexcept { return observations_; }

 private:
  struct Family {
    double total_wall_ms = 0.0;
    std::size_t count = 0;
  };
  std::map<std::pair<std::string, std::size_t>, Family> families_;
  double observed_wall_ms_ = 0.0;     ///< Σ measured walls (calibration numerator)
  double observed_static_ = 0.0;      ///< Σ static costs of measured cells
  std::size_t observations_ = 0;
};

/// The job ids of `jobs` sorted by descending `cost_of(job)`, ties
/// broken toward the lower job id — the deterministic
/// longest-expected-first drain order.
[[nodiscard]] std::vector<std::size_t> cost_order(
    const std::vector<std::size_t>& jobs, const std::function<double(std::size_t)>& cost_of);

}  // namespace caem::scenario
