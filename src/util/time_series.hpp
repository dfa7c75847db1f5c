// time_series.hpp — timestamped samples used for metric traces
// (remaining-energy-vs-time, nodes-alive-vs-time, queue snapshots).
#pragma once

#include <cstddef>
#include <vector>

namespace caem::util {

/// One (time, value) observation.
struct TimePoint {
  double time_s = 0.0;
  double value = 0.0;
};

/// Append-only series of (time, value) points with interpolation and
/// resampling helpers.  Times must be appended in non-decreasing order.
class TimeSeries {
 public:
  /// Append a point; throws std::invalid_argument on time regression.
  void add(double time_s, double value);

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] const std::vector<TimePoint>& points() const noexcept { return points_; }
  [[nodiscard]] const TimePoint& front() const { return points_.front(); }
  [[nodiscard]] const TimePoint& back() const { return points_.back(); }

  /// Piecewise-linear interpolated value at `time_s` (clamped at both ends).
  [[nodiscard]] double value_at(double time_s) const;

  /// Step-function (sample-and-hold) value at `time_s`: the value of the
  /// latest point at or before the query; clamped to the first value
  /// before the series begins.
  [[nodiscard]] double step_value_at(double time_s) const;

  /// First crossing time where value drops to or below `threshold`
  /// (piecewise-linear).  Returns negative value if never crossed.
  [[nodiscard]] double first_time_below(double threshold) const;

  /// Resample onto a uniform grid [t0, t1] with `n` points (linear interp).
  [[nodiscard]] TimeSeries resample(double t0, double t1, std::size_t n) const;

  /// Trapezoidal integral of the series over its whole span.
  [[nodiscard]] double integral() const noexcept;

  void clear() noexcept { points_.clear(); }

 private:
  std::vector<TimePoint> points_;
};

/// How `fold_mean` samples each series at a grid time.
enum class FoldMode {
  kLinear,  ///< piecewise-linear `value_at` (continuous traces, e.g. energy)
  kStep,    ///< sample-and-hold `step_value_at` (counts, e.g. nodes alive)
};

/// `n` evenly spaced times covering [t0, t1] inclusive (t0 alone for
/// n == 1; empty for n == 0).  Times are computed as t0 + i * step, the
/// same arithmetic everywhere, so trace grids are reproducible.
[[nodiscard]] std::vector<double> uniform_grid(double t0, double t1, std::size_t n);

/// Cross-replication trace fold: the pointwise mean of `traces` sampled
/// at each grid time (the engine's `output.trace` artifacts).
/// Throws std::invalid_argument when `traces` is empty or contains a
/// null pointer; empty member series contribute 0 at every time, like
/// `value_at` on an empty series.
[[nodiscard]] TimeSeries fold_mean(const std::vector<const TimeSeries*>& traces,
                                   const std::vector<double>& grid, FoldMode mode);

}  // namespace caem::util
