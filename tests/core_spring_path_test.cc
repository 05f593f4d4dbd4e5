#include "core/spring_path.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/spring.h"
#include "core/subsequence_scan.h"
#include "gen/masked_chirp.h"
#include "util/random.h"

namespace springdtw {
namespace core {
namespace {

ts::Series RandomStream(util::Rng& rng, int64_t n) {
  std::vector<double> v(static_cast<size_t>(n));
  double x = 0.0;
  for (int64_t t = 0; t < n; ++t) {
    if (rng.Bernoulli(0.1)) x = rng.Uniform(-2.0, 2.0);
    x += rng.Gaussian(0.0, 0.3);
    v[static_cast<size_t>(t)] = x;
  }
  return ts::Series(std::move(v));
}

class PathEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PathEquivalenceTest, MatchesAreIdenticalToPlainSpring) {
  util::Rng rng(GetParam());
  const int64_t n = 200;
  const int64_t m = rng.UniformInt(2, 8);
  const ts::Series stream = RandomStream(rng, n);
  std::vector<double> query(static_cast<size_t>(m));
  for (double& y : query) y = rng.Uniform(-2.0, 2.0);

  SpringOptions options;
  options.epsilon = rng.Uniform(0.5, 5.0);
  SpringMatcher plain(query, options);
  SpringPathMatcher with_path(query, options);

  Match plain_match;
  PathMatch path_match;
  for (int64_t t = 0; t < n; ++t) {
    const bool a = plain.Update(stream[t], &plain_match);
    const bool b = with_path.Update(stream[t], &path_match);
    ASSERT_EQ(a, b) << "tick " << t;
    if (a) {
      EXPECT_EQ(plain_match.start, path_match.match.start);
      EXPECT_EQ(plain_match.end, path_match.match.end);
      EXPECT_NEAR(plain_match.distance, path_match.match.distance, 1e-12);
      EXPECT_EQ(plain_match.report_time, path_match.match.report_time);
    }
  }
  EXPECT_EQ(plain.Flush(&plain_match), with_path.Flush(&path_match));
}

TEST_P(PathEquivalenceTest, LengthBoundsMatchPlainSpring) {
  // Both length options go through the shared kernel: the same matches as
  // SpringMatcher, and no reported path spans more than max_match_length
  // stream ticks.
  util::Rng rng(GetParam() ^ 0x1e57);
  const int64_t n = 300;
  const int64_t m = rng.UniformInt(2, 6);
  const ts::Series stream = RandomStream(rng, n);
  std::vector<double> query(static_cast<size_t>(m));
  for (double& y : query) y = rng.Uniform(-2.0, 2.0);

  SpringOptions options;
  options.epsilon = rng.Uniform(2.0, 8.0);
  options.max_match_length = m + rng.UniformInt(0, 2);
  options.min_match_length = rng.UniformInt(2, m);
  SpringMatcher plain(query, options);
  SpringPathMatcher with_path(query, options);

  Match plain_match;
  PathMatch path_match;
  int64_t reports = 0;
  const auto check = [&](bool a, bool b, int64_t t) {
    ASSERT_EQ(a, b) << "tick " << t;
    if (!a) return;
    ++reports;
    EXPECT_EQ(plain_match.start, path_match.match.start);
    EXPECT_EQ(plain_match.end, path_match.match.end);
    EXPECT_EQ(plain_match.distance, path_match.match.distance);
    EXPECT_EQ(plain_match.report_time, path_match.match.report_time);
    ASSERT_FALSE(path_match.path.empty());
    EXPECT_LE(path_match.path.back().first - path_match.path.front().first + 1,
              options.max_match_length);
  };
  for (int64_t t = 0; t < n; ++t) {
    const bool a = plain.Update(stream[t], &plain_match);
    const bool b = with_path.Update(stream[t], &path_match);
    check(a, b, t);
  }
  check(plain.Flush(&plain_match), with_path.Flush(&path_match), n);
  EXPECT_EQ(plain.best().start, with_path.best().start);
  EXPECT_EQ(plain.best().distance, with_path.best().distance);
  EXPECT_GT(reports, 0);
}

TEST_P(PathEquivalenceTest, ReportedPathIsAValidOptimalWarpingPath) {
  util::Rng rng(GetParam() ^ 0xabcd);
  const int64_t n = 300;
  const int64_t m = rng.UniformInt(3, 7);
  const ts::Series stream = RandomStream(rng, n);
  std::vector<double> query(static_cast<size_t>(m));
  for (double& y : query) y = rng.Uniform(-2.0, 2.0);

  SpringOptions options;
  options.epsilon = rng.Uniform(1.0, 6.0);
  SpringPathMatcher matcher(query, options);

  std::vector<PathMatch> reports;
  PathMatch match;
  for (int64_t t = 0; t < n; ++t) {
    if (matcher.Update(stream[t], &match)) reports.push_back(match);
  }
  if (matcher.Flush(&match)) reports.push_back(match);

  for (const PathMatch& rep : reports) {
    const auto& path = rep.path;
    ASSERT_FALSE(path.empty());
    // The path spans the match: starts at (start, 0), ends at (end, m-1).
    EXPECT_EQ(path.front().first, rep.match.start);
    EXPECT_EQ(path.front().second, 0);
    EXPECT_EQ(path.back().first, rep.match.end);
    EXPECT_EQ(path.back().second, m - 1);
    // Monotone warping-path steps.
    for (size_t k = 1; k < path.size(); ++k) {
      const int64_t dt = path[k].first - path[k - 1].first;
      const int64_t di = path[k].second - path[k - 1].second;
      EXPECT_TRUE((dt == 0 || dt == 1) && (di == 0 || di == 1) &&
                  dt + di >= 1)
          << "step " << k;
    }
    // Local costs along the path sum to the reported DTW distance.
    double total = 0.0;
    for (const auto& [t, i] : path) {
      const double d = stream[t] - query[static_cast<size_t>(i)];
      total += d * d;
    }
    EXPECT_NEAR(total, rep.match.distance, 1e-9);
    // The reported value never undercuts the isolated subsequence DTW
    // distance (it can exceed it when the isolated optimum would route
    // through a previously reported — and therefore killed — group).
    EXPECT_GE(rep.match.distance,
              SubsequenceDtwDistance(stream, rep.match.start, rep.match.end,
                                     ts::Series(query)) -
                  1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathEquivalenceTest,
                         ::testing::Values(311, 322, 333, 344, 355));

TEST(SpringPathMatcherTest, LiveNodesStayBoundedOnPeriodicStream) {
  SpringOptions options;
  options.epsilon = 0.5;
  std::vector<double> query{0.0, 1.0, 0.0, -1.0};
  SpringPathMatcher matcher(query, options);
  util::Rng rng(77);
  PathMatch match;
  auto feed = [&](int64_t ticks) {
    for (int64_t t = 0; t < ticks; ++t) {
      matcher.Update(std::sin(0.1 * static_cast<double>(t)) +
                         rng.Gaussian(0.0, 0.05),
                     &match);
    }
  };
  feed(2000);
  const int64_t live_2k = matcher.live_nodes();
  feed(8000);
  const int64_t live_10k = matcher.live_nodes();
  // Live paths track the warping structure, not the stream length: after 5x
  // more data the live-node count must not have grown 5x.
  EXPECT_LT(live_10k, 3 * live_2k + 1000);
}

TEST(SpringPathMatcherTest, FootprintIncludesPathArena) {
  SpringOptions options;
  options.epsilon = 1.0;
  SpringPathMatcher matcher(std::vector<double>{1.0, 2.0}, options);
  matcher.Update(1.0, nullptr);
  const auto fp = matcher.Footprint();
  bool has_arena = false;
  for (const auto& [name, bytes] : fp.components()) {
    if (name == "path_arena") has_arena = true;
  }
  EXPECT_TRUE(has_arena);
  EXPECT_GT(fp.TotalBytes(), 0);
}

TEST(SpringPathMatcherTest, BestMatchTracked) {
  SpringOptions options;
  options.epsilon = -1.0;
  SpringPathMatcher matcher(std::vector<double>{5.0}, options);
  for (double x : {1.0, 4.9, 2.0}) matcher.Update(x, nullptr);
  ASSERT_TRUE(matcher.has_best());
  EXPECT_EQ(matcher.best().start, 1);
  EXPECT_NEAR(matcher.best().distance, 0.01, 1e-9);
}

}  // namespace
}  // namespace core
}  // namespace springdtw
