#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
  EXPECT_EQ(Percentile(Iota(100), 0.5), 50);
  EXPECT_EQ(Percentile(Iota(100), 0.99), 99);
  EXPECT_EQ(Percentile(Iota(100), 1.0), 100);
  EXPECT_EQ(Percentile(Iota(100), 0.0), 1);
  EXPECT_EQ(Percentile(Iota(10), 0.95), 10);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(Median({}), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  Tail t = TailPercentile(Iota(1000));
  EXPECT_TRUE(t.valid);
  EXPECT_EQ(t.value, 990);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.samples, 1000u);

  t = TailPercentile(Iota(20));
  EXPECT_TRUE(t.valid);
  EXPECT_EQ(t.value, 10);
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);

  t = TailPercentile(Iota(11));
  EXPECT_TRUE(t.valid);
  EXPECT_EQ(t.value, 1);
}

TEST(TailPercentile, TooFewSamplesFallsBackToMax) {
  Tail t = TailPercentile(Iota(10));
  EXPECT_FALSE(t.valid);
  EXPECT_EQ(t.value, 10);
  EXPECT_EQ(t.samples, 10u);
  t = TailPercentile({});
  EXPECT_FALSE(t.valid);
  EXPECT_EQ(t.value, 0);
}

TEST(Quartiles, MatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  Quartiles q = ComputeQuartiles(Iota(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  q = ComputeQuartiles({2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.q2, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  q = ComputeQuartiles({5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 1.5);
  EXPECT_DOUBLE_EQ(q.q2, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 4.5);
  q = ComputeQuartiles({4});
  EXPECT_EQ(q.q1, 4);
  EXPECT_EQ(q.q3, 4);
}

TEST(Ratio, ZeroDenominator) {
  EXPECT_EQ(Ratio(3, 4), 0.75);
  EXPECT_EQ(Ratio(3, 0), 0);
  EXPECT_EQ(Ratio(0, 0, 1.0), 1.0);
  EXPECT_EQ(Ratio(0, 5), 0);
}

}  // namespace
}  // namespace perfbench
