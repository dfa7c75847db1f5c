// util::TimeSeries edge cases (query before/after/on an empty series)
// and the cross-replication trace fold behind the engine's
// `output.trace` artifacts.
#include <gtest/gtest.h>

#include "util/time_series.hpp"

namespace caem::util {
namespace {

// ------------------------------------------------------------ edge cases

TEST(TimeSeriesEdge, EmptySeriesQueriesReturnZero) {
  const TimeSeries empty;
  EXPECT_DOUBLE_EQ(empty.value_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.value_at(123.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.step_value_at(-5.0), 0.0);
  EXPECT_LT(empty.first_time_below(1.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.integral(), 0.0);
}

TEST(TimeSeriesEdge, ValueAtClampsBeforeFirstAndAfterLast) {
  TimeSeries series;
  series.add(10.0, 5.0);
  series.add(20.0, 9.0);
  // Before the first sample: clamp to the first value, no extrapolation.
  EXPECT_DOUBLE_EQ(series.value_at(-100.0), 5.0);
  EXPECT_DOUBLE_EQ(series.value_at(10.0), 5.0);
  // After the last sample: clamp to the last value.
  EXPECT_DOUBLE_EQ(series.value_at(20.0), 9.0);
  EXPECT_DOUBLE_EQ(series.value_at(1e9), 9.0);
  // Interior stays linear.
  EXPECT_DOUBLE_EQ(series.value_at(15.0), 7.0);
}

TEST(TimeSeriesEdge, StepValueClampsAndHolds) {
  TimeSeries series;
  series.add(10.0, 5.0);
  series.add(20.0, 9.0);
  EXPECT_DOUBLE_EQ(series.step_value_at(9.999), 5.0);  // clamped to first value
  EXPECT_DOUBLE_EQ(series.step_value_at(19.999), 5.0);  // holds, no interpolation
  EXPECT_DOUBLE_EQ(series.step_value_at(20.0), 9.0);
  EXPECT_DOUBLE_EQ(series.step_value_at(25.0), 9.0);
}

TEST(TimeSeriesEdge, SinglePointSeries) {
  TimeSeries series;
  series.add(3.0, 42.0);
  EXPECT_DOUBLE_EQ(series.value_at(0.0), 42.0);
  EXPECT_DOUBLE_EQ(series.value_at(3.0), 42.0);
  EXPECT_DOUBLE_EQ(series.value_at(99.0), 42.0);
  EXPECT_DOUBLE_EQ(series.step_value_at(2.0), 42.0);
  EXPECT_DOUBLE_EQ(series.integral(), 0.0);
}

TEST(TimeSeriesEdge, DuplicateTimestampsAllowedRegressionRejected) {
  TimeSeries series;
  series.add(1.0, 2.0);
  series.add(1.0, 3.0);  // vertical step: allowed
  EXPECT_EQ(series.size(), 2u);
  EXPECT_THROW(series.add(0.5, 1.0), std::invalid_argument);
}

// ----------------------------------------------------------- uniform grid

TEST(UniformGrid, EndpointsAndSpacing) {
  const std::vector<double> grid = uniform_grid(0.0, 600.0, 13);
  ASSERT_EQ(grid.size(), 13u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.0);
  EXPECT_DOUBLE_EQ(grid.back(), 600.0);
  EXPECT_DOUBLE_EQ(grid[1], 50.0);
  EXPECT_TRUE(uniform_grid(0.0, 1.0, 0).empty());
  const std::vector<double> single = uniform_grid(7.0, 9.0, 1);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_DOUBLE_EQ(single[0], 7.0);
}

// ------------------------------------------------------------ trace fold

TEST(FoldMean, LinearAveragesAcrossReplications) {
  TimeSeries a;
  a.add(0.0, 10.0);
  a.add(10.0, 0.0);
  TimeSeries b;
  b.add(0.0, 20.0);
  b.add(10.0, 10.0);
  const TimeSeries folded =
      fold_mean({&a, &b}, uniform_grid(0.0, 10.0, 3), FoldMode::kLinear);
  ASSERT_EQ(folded.size(), 3u);
  EXPECT_DOUBLE_EQ(folded.points()[0].value, 15.0);
  EXPECT_DOUBLE_EQ(folded.points()[1].value, 10.0);  // (5 + 15) / 2
  EXPECT_DOUBLE_EQ(folded.points()[2].value, 5.0);
  EXPECT_DOUBLE_EQ(folded.points()[1].time_s, 5.0);
}

TEST(FoldMean, StepModeUsesSampleAndHold) {
  TimeSeries a;  // death at t=4: 2 nodes -> 1
  a.add(0.0, 2.0);
  a.add(4.0, 1.0);
  TimeSeries b;  // no deaths
  b.add(0.0, 2.0);
  const TimeSeries folded = fold_mean({&a, &b}, {0.0, 3.9, 4.0, 9.0}, FoldMode::kStep);
  EXPECT_DOUBLE_EQ(folded.points()[0].value, 2.0);
  EXPECT_DOUBLE_EQ(folded.points()[1].value, 2.0);  // step: death not yet visible
  EXPECT_DOUBLE_EQ(folded.points()[2].value, 1.5);
  EXPECT_DOUBLE_EQ(folded.points()[3].value, 1.5);
  // Linear mode would have ramped between 0 and 4 instead.
  const TimeSeries ramped = fold_mean({&a, &b}, {3.9}, FoldMode::kLinear);
  EXPECT_GT(ramped.points()[0].value, 1.5);
  EXPECT_LT(ramped.points()[0].value, 2.0);
}

TEST(FoldMean, EmptyMemberSeriesContributeZero) {
  TimeSeries a;
  a.add(0.0, 8.0);
  const TimeSeries empty;
  const TimeSeries folded = fold_mean({&a, &empty}, {0.0}, FoldMode::kLinear);
  EXPECT_DOUBLE_EQ(folded.points()[0].value, 4.0);
}

TEST(FoldMean, RejectsNoTracesAndNullTrace) {
  EXPECT_THROW((void)fold_mean({}, {0.0}, FoldMode::kLinear), std::invalid_argument);
  TimeSeries a;
  EXPECT_THROW((void)fold_mean({&a, nullptr}, {0.0}, FoldMode::kStep), std::invalid_argument);
}

}  // namespace
}  // namespace caem::util
