// Unit tests of the benchmark's own statistics (perfbench/stats.h):
//   python3 perfbench/run.py --unit-tests

#include "perfbench/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace perfbench {
namespace {

TEST(PercentileRule, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(TailPercentile(19), 0.0);  // 9.5 beyond the median
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(99), 50.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(999), 90.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(10000), 99.9);
  EXPECT_EQ(TailPercentile(100000), 99.99);
  EXPECT_TRUE(PercentileAllowed(1000, 99.0));
  EXPECT_FALSE(PercentileAllowed(999, 99.0));
  EXPECT_TRUE(PercentileAllowed(999, 50.0));
  EXPECT_FALSE(PercentileAllowed(0, 50.0));
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(Quantile(v, 50.0), 50.0);
  EXPECT_EQ(Quantile(v, 99.0), 99.0);
  EXPECT_EQ(Quantile(v, 100.0), 100.0);
  EXPECT_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_TRUE(std::isnan(Quantile({}, 50.0)));
}

TEST(PercentileRule, MedianOfWindowsIgnoresOneStalledWindow) {
  std::vector<std::vector<double>> windows(5, std::vector<double>(100, 1.0));
  for (int i = 0; i < 5; ++i) windows[static_cast<size_t>(i)][99] = 2.0 + i;
  windows[2].assign(100, 50.0);  // a stall covers all of window 2
  EXPECT_EQ(MedianOfWindows(windows, 99.0), 1.0);
  EXPECT_EQ(MedianOfWindows(windows, 100.0), 5.0);  // maxima 2,3,50,5,6
  EXPECT_EQ(SmallestWindow(windows), 100u);
  windows[4].resize(7);
  EXPECT_EQ(SmallestWindow(windows), 7u);
  EXPECT_TRUE(std::isnan(MedianOfWindows({}, 50.0)));
}

TEST(OpenLoop, LatencyCountsFromDueTime) {
  // Sent 2 ms late, served 3 ms after Enqueue: 5 ms from due.
  OpenLoopSample late{1.000, 1.002, true, 0.003};
  EXPECT_NEAR(GeneratorLag(late), 0.002, 1e-12);
  EXPECT_NEAR(LatencyFromDue(late), 0.005, 1e-12);
  // Sent early (never happens, but must not credit negative lag).
  OpenLoopSample early{1.000, 0.999, true, 0.003};
  EXPECT_EQ(GeneratorLag(early), 0.0);
  EXPECT_NEAR(LatencyFromDue(early), 0.003, 1e-12);
}

TEST(OpenLoop, StallIsChargedToEveryDelayedRequest) {
  // The generator stalls 10 ms before request 0 and then catches up: every
  // request due during the stall carries the stall, although the server
  // answers each one in 1 ms.
  std::vector<double> latency;
  for (int k = 0; k < 10; ++k) {
    OpenLoopSample s{0.001 * k, 0.010, true, 0.001};
    latency.push_back(LatencyFromDue(s));
  }
  EXPECT_NEAR(latency.front(), 0.011, 1e-12);
  EXPECT_NEAR(latency.back(), 0.002, 1e-12);
}

TEST(OpenLoop, FailedRequestMissesEveryLimit) {
  OpenLoopSample refused{1.0, 1.0, false, 0.0};
  EXPECT_EQ(LatencyFromDue(refused), std::numeric_limits<double>::infinity());
  // 2 refusals in 100 push the p99 to infinity.
  std::vector<double> v(98, 0.001);
  v.push_back(LatencyFromDue(refused));
  v.push_back(LatencyFromDue(refused));
  EXPECT_EQ(Quantile(v, 99.0), std::numeric_limits<double>::infinity());
}

TEST(Backlog, FlatNoisyQueueDoesNotGrow) {
  std::vector<double> depths;
  for (int i = 0; i < 400; ++i) depths.push_back(i % 7);
  EXPECT_FALSE(BacklogGrows(depths));
  // A busy but stable queue neither.
  for (double& d : depths) d += 500.0;
  EXPECT_FALSE(BacklogGrows(depths));
}

TEST(Backlog, RampGrows) {
  std::vector<double> depths;
  for (int i = 0; i < 400; ++i) depths.push_back(0.5 * i);
  EXPECT_TRUE(BacklogGrows(depths));
  EXPECT_FALSE(BacklogGrows({0, 0, 0, 100}));  // too few samples to judge
}

TEST(MaxRateInSlo, HighestRungWithinLimitAndSteadyBacklog) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Rung> rungs = {
      {20000, 19990, 0.001, false},
      {40000, 39950, 0.004, false},
      {60000, 59000, 0.030, true},  // p99 fits, but the queue grew
      {80000, 74000, inf, false},   // refusals
  };
  const Rung* best = MaxRungInSlo(rungs, 0.05);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->rate, 40000);
  EXPECT_EQ(best->completed_per_s, 39950);
  rungs[2].backlog_grew = false;
  EXPECT_EQ(MaxRungInSlo(rungs, 0.05)->rate, 60000);
  EXPECT_EQ(MaxRungInSlo(rungs, 0.02)->rate, 40000);  // tighter limit
  EXPECT_EQ(MaxRungInSlo(rungs, 0.0005), nullptr);
}

TEST(SelfTime, SpanMinusChildren) {
  const std::vector<Span> ticks = {{0, 0.0, 10.0}, {0, 10.0, 5.0},
                                   {1, 0.0, 8.0}};
  const std::vector<Span> forwards = {
      {0, 2.0, 3.0},   // inside tick 0
      {0, 4.0, 2.0},   // overlaps the previous child: counted once
      {0, 9.0, 3.0},   // straddles ticks 0 and 1
      {1, 1.0, 1.0},   // other lane
  };
  const std::vector<double> self = SelfTimes(ticks, forwards);
  ASSERT_EQ(self.size(), 3u);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);  // [2,6) and [9,10)
  EXPECT_DOUBLE_EQ(self[1], 5.0 - 2.0);         // [10,12)
  EXPECT_DOUBLE_EQ(self[2], 8.0 - 1.0);
}

TEST(SelfTime, NoChildrenMeansAllSelf) {
  EXPECT_EQ(SelfTimes({{0, 1.0, 2.0}}, {}), std::vector<double>{2.0});
}

TEST(SelfTime, LongChildStartingBeforeShortOnesStillCounts) {
  // The long child begins before the parent and before a short one that
  // ends early; both must be found.
  const std::vector<Span> parent = {{0, 10.0, 10.0}};
  const std::vector<Span> children = {{0, 0.0, 15.0}, {0, 1.0, 1.0}};
  EXPECT_DOUBLE_EQ(SelfTimes(parent, children)[0], 5.0);
}

}  // namespace
}  // namespace perfbench
