#include "core/vector_spring.h"

#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/spring.h"
#include "core/subsequence_scan.h"
#include "dtw/dtw.h"
#include "gen/mocap.h"
#include "util/random.h"

namespace springdtw {
namespace core {
namespace {

ts::VectorSeries RandomVectorSeries(util::Rng& rng, int64_t n, int64_t k) {
  ts::VectorSeries out(k);
  std::vector<double> row(static_cast<size_t>(k));
  for (int64_t t = 0; t < n; ++t) {
    for (double& v : row) v = rng.Uniform(-1.0, 1.0);
    out.AppendRow(row);
  }
  return out;
}

class VectorSpringSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VectorSpringSeedTest, OneDimensionalCaseEqualsScalarSpring) {
  util::Rng rng(GetParam());
  const int64_t n = 150;
  const int64_t m = rng.UniformInt(2, 6);
  std::vector<double> query(static_cast<size_t>(m));
  for (double& y : query) y = rng.Uniform(-1.0, 1.0);
  std::vector<double> stream(static_cast<size_t>(n));
  for (double& x : stream) x = rng.Uniform(-1.0, 1.0);

  SpringOptions options;
  options.epsilon = rng.Uniform(0.2, 2.0);
  SpringMatcher scalar(query, options);
  ts::VectorSeries vquery(1);
  for (double y : query) vquery.AppendRow(std::vector<double>{y});
  VectorSpringMatcher vector(vquery, options);

  Match a;
  Match b;
  for (int64_t t = 0; t < n; ++t) {
    const double x = stream[static_cast<size_t>(t)];
    const bool ra = scalar.Update(x, &a);
    const bool rb = vector.Update(std::vector<double>{x}, &b);
    ASSERT_EQ(ra, rb) << "tick " << t;
    if (ra) {
      EXPECT_EQ(a.start, b.start);
      EXPECT_EQ(a.end, b.end);
      EXPECT_NEAR(a.distance, b.distance, 1e-12);
    }
  }
  EXPECT_EQ(scalar.Flush(&a), vector.Flush(&b));
}

TEST_P(VectorSpringSeedTest, BestMatchEqualsBruteForceMultivariateDtw) {
  util::Rng rng(GetParam() ^ 0x5a5a);
  const int64_t n = 24;
  const int64_t k = 3;
  const int64_t m = 4;
  const ts::VectorSeries stream = RandomVectorSeries(rng, n, k);
  const ts::VectorSeries query = RandomVectorSeries(rng, m, k);

  SpringOptions options;
  options.epsilon = -1.0;
  VectorSpringMatcher matcher(query, options);
  for (int64_t t = 0; t < n; ++t) matcher.Update(stream.Row(t), nullptr);
  ASSERT_TRUE(matcher.has_best());

  double best = std::numeric_limits<double>::infinity();
  int64_t best_a = -1;
  int64_t best_b = -1;
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t a = 0; a <= b; ++a) {
      const double d = dtw::DtwDistanceMultivariate(
          stream.Slice(a, b - a + 1), query);
      if (d < best) {
        best = d;
        best_a = a;
        best_b = b;
      }
    }
  }
  EXPECT_NEAR(matcher.best().distance, best, 1e-9);
  EXPECT_EQ(matcher.best().start, best_a);
  EXPECT_EQ(matcher.best().end, best_b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorSpringSeedTest,
                         ::testing::Values(411, 422, 433, 444, 455));

TEST(VectorSpringMatcherTest, ExactOccurrenceAcrossChannels) {
  ts::VectorSeries query(2);
  query.AppendRow(std::vector<double>{1.0, -1.0});
  query.AppendRow(std::vector<double>{2.0, -2.0});
  SpringOptions options;
  options.epsilon = 0.25;
  VectorSpringMatcher matcher(query, options);

  std::vector<Match> reports;
  Match match;
  const std::vector<std::vector<double>> stream{
      {9.0, 9.0}, {1.0, -1.0}, {2.0, -2.0}, {9.0, 9.0}};
  for (const auto& row : stream) {
    if (matcher.Update(row, &match)) reports.push_back(match);
  }
  if (matcher.Flush(&match)) reports.push_back(match);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].start, 1);
  EXPECT_EQ(reports[0].end, 2);
  EXPECT_DOUBLE_EQ(reports[0].distance, 0.0);
}

TEST(VectorSpringMatcherTest, ChannelsAreNotInterchangeable) {
  // A stream tick with swapped channels must NOT match (distance is per
  // channel, not on any channel permutation).
  ts::VectorSeries query(2);
  query.AppendRow(std::vector<double>{1.0, -1.0});
  SpringOptions options;
  options.epsilon = 0.25;
  VectorSpringMatcher matcher(query, options);
  Match match;
  EXPECT_FALSE(matcher.Update(std::vector<double>{-1.0, 1.0}, &match));
  EXPECT_FALSE(matcher.Flush(&match));
}

TEST(VectorSpringMatcherTest, ResetRestartsStream) {
  ts::VectorSeries query(1);
  query.AppendRow(std::vector<double>{1.0});
  SpringOptions options;
  options.epsilon = 0.1;
  VectorSpringMatcher matcher(query, options);
  matcher.Update(std::vector<double>{1.0}, nullptr);
  matcher.Reset();
  EXPECT_EQ(matcher.ticks_processed(), 0);
  EXPECT_FALSE(matcher.has_best());
}

TEST(VectorSpringMatcherTest, FootprintConstantInStreamLength) {
  ts::VectorSeries query(4);
  for (int i = 0; i < 32; ++i) query.AppendUniformRow(0.0);
  SpringOptions options;
  options.epsilon = 1.0;
  VectorSpringMatcher matcher(query, options);
  std::vector<double> row(4, 0.5);
  for (int t = 0; t < 100; ++t) matcher.Update(row, nullptr);
  const int64_t bytes = matcher.Footprint().TotalBytes();
  for (int t = 0; t < 5000; ++t) matcher.Update(row, nullptr);
  EXPECT_EQ(matcher.Footprint().TotalBytes(), bytes);
}

TEST(VectorSpringMatcherTest, SnapshotReaderRejectsInadmissibleQueries) {
  ts::VectorSeries query(2, "vq");
  const std::vector<double> row = {1.0, 2.0};
  query.AppendRow(row);
  SpringOptions options;
  options.epsilon = 1.0;
  VectorSpringMatcher matcher(query, options);
  Match match;
  matcher.Update(row, &match);
  const std::vector<uint8_t> snapshot = matcher.SerializeState();
  ASSERT_TRUE(VectorSpringMatcher::DeserializeState(snapshot).ok());

  // SPV2 layout: magic, version (8 bytes), epsilon (8), local distance (1),
  // max_match_length (8), min_match_length (8), dims (8), name length (8)
  // and bytes, then the values' length (8) and values.
  constexpr size_t kEpsilon = 8;
  constexpr size_t kMaxLength = 17;
  constexpr size_t kFirstValue = 33 + 8 + 8 + 2 + 8;
  const auto patched = [&](size_t offset, auto value) {
    std::vector<uint8_t> bytes = snapshot;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return bytes;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(
      VectorSpringMatcher::DeserializeState(patched(kFirstValue, kInf)).ok());
  EXPECT_FALSE(
      VectorSpringMatcher::DeserializeState(patched(kFirstValue, -kInf)).ok());
  EXPECT_FALSE(VectorSpringMatcher::DeserializeState(
                   patched(kEpsilon, std::numeric_limits<double>::quiet_NaN()))
                   .ok());
  EXPECT_FALSE(
      VectorSpringMatcher::DeserializeState(patched(kMaxLength, int64_t{-1}))
          .ok());
}

TEST(VectorSpringMatcherTest, GroupRangeModificationForMocap) {
  // Section 5.3: the matcher reports the start/end of the whole range of
  // overlapping qualifying subsequences. The paper's Figure 5 data (as a
  // 1-dim vector stream) has qualifying subsequences ending at ticks 2, 4
  // and 5 with start 1, so the group range is [1, 5] while the reported
  // optimum is [1, 4].
  ts::VectorSeries query(1);
  for (const double y : {11.0, 6.0, 9.0, 4.0}) {
    query.AppendRow(std::vector<double>{y});
  }
  SpringOptions options;
  options.epsilon = 15.0;
  VectorSpringMatcher matcher(query, options);
  std::vector<Match> reports;
  Match match;
  for (const double x : {5.0, 12.0, 6.0, 10.0, 6.0, 5.0, 13.0}) {
    if (matcher.Update(std::vector<double>{x}, &match)) {
      reports.push_back(match);
    }
  }
  if (matcher.Flush(&match)) reports.push_back(match);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].start, 1);
  EXPECT_EQ(reports[0].end, 4);
  EXPECT_DOUBLE_EQ(reports[0].distance, 6.0);
  EXPECT_EQ(reports[0].group_start, 1);
  EXPECT_EQ(reports[0].group_end, 5);
}

}  // namespace
}  // namespace core
}  // namespace springdtw
