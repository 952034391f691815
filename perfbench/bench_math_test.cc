// Self-tests of the benchmark's arithmetic. Build and run with
//   python3 perfbench/run.py --self-test
#include "bench_math.h"

#include <gtest/gtest.h>

#include <vector>

namespace snapper::perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
  EXPECT_EQ(Percentile(OneTo(100), 0.5), 50);
  EXPECT_EQ(Percentile(OneTo(100), 0.99), 99);
  EXPECT_EQ(Percentile(OneTo(100), 1.0), 100);
  EXPECT_EQ(Percentile(OneTo(100), 0.0), 1);
  EXPECT_EQ(Percentile(OneTo(10), 0.55), 6);
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 0.5), 50u);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
  EXPECT_EQ(SamplesBeyond(5, 1.0), 0u);
}

TEST(Percentile, SampleCountRule) {
  // p99 needs 1000 samples (10 beyond it); 999 only reaches p95.
  EXPECT_TRUE(Reportable(1000, 0.99));
  EXPECT_FALSE(Reportable(999, 0.99));
  EXPECT_EQ(HighestReportablePercentile(999), 0.95);
  EXPECT_EQ(HighestReportablePercentile(1000), 0.99);
  EXPECT_EQ(HighestReportablePercentile(9999), 0.99);
  EXPECT_EQ(HighestReportablePercentile(10000), 0.999);
  EXPECT_EQ(HighestReportablePercentile(200), 0.95);
  EXPECT_EQ(HighestReportablePercentile(100), 0.9);
  EXPECT_EQ(HighestReportablePercentile(20), 0.5);
  EXPECT_EQ(HighestReportablePercentile(19), 0.0);
  EXPECT_EQ(HighestReportablePercentile(0), 0.0);
}

TEST(Ratio, ZeroDenominatorIsZero) {
  // A PACT-only workload submits no ACTs: prepares per ACT is 0, not NaN.
  EXPECT_EQ(Ratio(0, 0), 0);
  EXPECT_EQ(Ratio(12, 0), 0);
  EXPECT_DOUBLE_EQ(Ratio(16, 2), 8);
  EXPECT_DOUBLE_EQ(Ratio(1, 4), 0.25);
}

TEST(OverheadFrac, SharesOfUntracedThroughput) {
  EXPECT_NEAR(OverheadFrac(900, 1000), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(OverheadFrac(1000, 1000), 0.0);
  // Tracing can come out faster by noise: a negative overhead is reported
  // as measured, not clamped.
  EXPECT_NEAR(OverheadFrac(1050, 1000), -0.05, 1e-12);
  EXPECT_EQ(OverheadFrac(500, 0), 0);
}

}  // namespace
}  // namespace snapper::perfbench
