// Tests of the benchmark's own helpers: percentiles, the seeded
// arrival schedule, span self time and metric names.
#include <gtest/gtest.h>

#include <cmath>

#include "harness.h"
#include "runtime/metrics.h"

namespace e2e {
namespace {

TEST(Percentile, NearestRankThroughTheLibrary) {
  std::vector<double> twenty;
  for (int i = 1; i <= 20; ++i) twenty.push_back(i);
  // 0.95 * 20 is 19.000000000000004 in IEEE arithmetic; nearest rank is 19,
  // not 20 (the snap the library's sorted_percentile applies).
  EXPECT_EQ(percentile(twenty, 0.95), 19.0);
  EXPECT_EQ(percentile(twenty, 0.5), 10.0);
  EXPECT_EQ(percentile(twenty, 1.0), 20.0);
  EXPECT_EQ(percentile(twenty, 0.0), 1.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, SortsItsInputAndAgreesWithTheLibrary) {
  const std::vector<double> shuffled = {7, 3, 9, 1, 5, 2, 8, 4, 6, 10};
  std::vector<double> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  for (const double p : {0.1, 0.25, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(percentile(shuffled, p), meanet::runtime::sorted_percentile(sorted, p)) << p;
  }
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const std::vector<double> a = poisson_schedule(42, 400.0, 5.0);
  const std::vector<double> b = poisson_schedule(42, 400.0, 5.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, poisson_schedule(43, 400.0, 5.0));
}

TEST(PoissonSchedule, IncreasingWithinTheWindowAtTheOfferedRate) {
  const std::vector<double> due = poisson_schedule(7, 400.0, 20.0);
  ASSERT_FALSE(due.empty());
  EXPECT_GT(due.front(), 0.0);
  EXPECT_LT(due.back(), 20.0);
  EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
  // 8000 expected arrivals; Poisson sd ~89, so 5 sd is ~450.
  EXPECT_NEAR(static_cast<double>(due.size()), 8000.0, 450.0);
  EXPECT_THROW(poisson_schedule(1, 0.0, 1.0), std::invalid_argument);
}

Span span(double start, double end) {
  Span s;
  s.start_s = start;
  s.end_s = end;
  return s;
}

TEST(SelfTime, NoChildrenIsTheWholeDuration) {
  EXPECT_DOUBLE_EQ(self_time(span(1.0, 3.0), {}), 2.0);
}

TEST(SelfTime, DisjointChildrenAreSubtracted) {
  EXPECT_DOUBLE_EQ(self_time(span(0.0, 10.0), {span(1.0, 2.0), span(4.0, 7.0)}), 6.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // [1,4] and [3,6] cover [1,6]; [5,5.5] lies inside that union.
  EXPECT_DOUBLE_EQ(self_time(span(0.0, 10.0), {span(3.0, 6.0), span(1.0, 4.0), span(5.0, 5.5)}),
                   5.0);
}

TEST(SelfTime, NestedChildIsCoveredByItsParentChild) {
  EXPECT_DOUBLE_EQ(self_time(span(0.0, 10.0), {span(2.0, 8.0), span(3.0, 4.0)}), 4.0);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_DOUBLE_EQ(self_time(span(2.0, 6.0), {span(0.0, 3.0), span(5.0, 9.0)}), 2.0);
  EXPECT_DOUBLE_EQ(self_time(span(2.0, 6.0), {span(7.0, 9.0)}), 4.0);
  EXPECT_DOUBLE_EQ(self_time(span(2.0, 6.0), {span(0.0, 9.0)}), 0.0);
}

TEST(SelfTime, TreeThroughRecordedParents) {
  SpanRecorder recorder;
  const std::int64_t root = recorder.record("request", 0.0, 10.0, 1);
  const std::int64_t child = recorder.record("offload", 2.0, 6.0, 1, root);
  recorder.record("codec", 2.0, 3.0, 1, child);
  recorder.record("compute", 5.0, 8.0, 1, root);
  const std::vector<double> self = self_times(recorder.spans());
  ASSERT_EQ(self.size(), 4u);
  EXPECT_DOUBLE_EQ(self[0], 4.0);  // 10 - union([2,6], [5,8]) = 10 - 6
  EXPECT_DOUBLE_EQ(self[1], 3.0);  // 4 - 1
  EXPECT_DOUBLE_EQ(self[2], 1.0);
  EXPECT_DOUBLE_EQ(self[3], 3.0);
}

TEST(MetricNames, OnlyLettersDigitsAndUnderscoreDotDash) {
  EXPECT_TRUE(valid_metric_name("p99_ms"));
  EXPECT_TRUE(valid_metric_name("nn.camera.main_trunk.3.gflops"));
  EXPECT_TRUE(valid_metric_name("0-start.ok"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".leading_dot"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name("percent%"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(Report, RejectsBadDuplicateAndNonFiniteMetrics) {
  Report report;
  report.add("setup_s", 0.5, "s");
  EXPECT_THROW(report.add("setup_s", 0.6, "s"), std::invalid_argument);
  EXPECT_THROW(report.add("bad name", 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(report.add("nan_metric", std::nan(""), "s"), std::invalid_argument);
  EXPECT_EQ(report.to_json(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace e2e
