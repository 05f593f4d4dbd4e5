#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace springdtw {
namespace util {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // Population variance.
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesSequentialFeed) {
  Rng rng(99);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Gaussian(3.0, 2.0);
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmptySides) {
  RunningStats a;
  RunningStats b;
  b.Add(5.0);
  a.Merge(b);  // Empty += non-empty.
  EXPECT_EQ(a.count(), 1);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  RunningStats c;
  a.Merge(c);  // Non-empty += empty.
  EXPECT_EQ(a.count(), 1);
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats s;
  s.Add(1.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0);
}

TEST(LogHistogramTest, CountsAndQuantiles) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  for (int i = 0; i < 100; ++i) h.Add(100.0);
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.sum(), 10000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 100.0);
  // The bucket midpoint is clamped to [min, max] = [100, 100].
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 100.0);
  h.Add(1e9);
  EXPECT_EQ(h.count(), 101);
  EXPECT_DOUBLE_EQ(h.min(), 100.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  // Bucket midpoints now: within 1/32 of the nearest-rank values.
  EXPECT_NEAR(h.Quantile(1.0), 1e9, 1e9 / 32.0);
  EXPECT_NEAR(h.Quantile(0.5), 100.0, 100.0 / 32.0);
}

TEST(LogHistogramTest, QuantileOrderingIsMonotone) {
  LogHistogram h;
  Rng rng(7);
  double lo = 0.0;
  double hi = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double x = std::exp(rng.Uniform(0.0, 20.0));
    h.Add(x);
    lo = i == 0 ? x : std::min(lo, x);
    hi = i == 0 ? x : std::max(hi, x);
  }
  double previous = lo;
  for (int step = 0; step <= 1000; ++step) {
    const double value = h.Quantile(step / 1000.0);
    EXPECT_LE(previous, value) << "q=" << step / 1000.0;
    EXPECT_LE(value, hi) << "q=" << step / 1000.0;
    previous = value;
  }
}

/// Feeds `samples` to a histogram and checks every quantile against the
/// exact nearest-rank value of the sorted samples: within 1/32 of it.
void ExpectQuantilesWithinOneThirtySecond(std::vector<double> samples,
                                          const char* what) {
  LogHistogram h;
  for (const double x : samples) h.Add(x);
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  for (const double q :
       {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    const auto rank = static_cast<size_t>(q * (n - 1.0) + 0.5);
    const double exact = samples[rank];
    EXPECT_LE(std::abs(h.Quantile(q) - exact), exact / 32.0)
        << what << " q=" << q << " exact=" << exact;
  }
}

TEST(LogHistogramTest, QuantilesWithinOneThirtySecondOfExact) {
  Rng rng(41);
  // Nanosecond latencies: lognormal around 20 us with a heavy tail.
  std::vector<double> nanos(100000);
  for (double& x : nanos) x = std::round(std::exp(rng.Gaussian(9.9, 1.5)));
  ExpectQuantilesWithinOneThirtySecond(nanos, "lognormal nanos");
  // Sub-millisecond values in milliseconds.
  std::vector<double> millis(100000);
  for (double& x : millis) x = std::exp(rng.Uniform(-9.0, 0.0));
  ExpectQuantilesWithinOneThirtySecond(millis, "sub-ms millis");
  // Small integers, zero included (report delays in ticks).
  std::vector<double> ticks(100000);
  for (double& x : ticks) x = static_cast<double>(rng.UniformInt(0, 40));
  ExpectQuantilesWithinOneThirtySecond(ticks, "small integers");
  // Past 2^20 samples the bound still holds.
  std::vector<double> many(int64_t{1} << 21);
  for (double& x : many) x = std::round(std::exp(rng.Gaussian(9.9, 1.5)));
  ExpectQuantilesWithinOneThirtySecond(many, "2^21 lognormal nanos");
}

TEST(LogHistogramTest, MergeMatchesSequentialFeed) {
  Rng rng(23);
  LogHistogram all;
  LogHistogram a;
  LogHistogram b;
  for (int i = 0; i < 1000; ++i) {
    const double x = std::exp(rng.Uniform(0.0, 15.0));
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  for (const double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), all.Quantile(q)) << q;
  }
}

}  // namespace
}  // namespace util
}  // namespace springdtw
