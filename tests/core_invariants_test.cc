// Tests for the STWM invariant checkers (core/invariants.h). The checkers
// are compiled in every build mode; only the matcher call sites are gated,
// so these tests run identically in Release and debug. Each negative test
// seeds a deliberate violation and expects the checker to name it — that is
// the proof the checker would have caught a real bug at the wired call
// sites.
#include "core/invariants.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/match.h"
#include "core/spring.h"
#include "core/vector_spring.h"
#include "gtest/gtest.h"
#include "ts/vector_series.h"

namespace springdtw {
namespace core {
namespace invariants {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A consistent two-query-row column at t = 5: every start position is
/// inherited from a legal predecessor and all distances are finite.
struct ColumnFixture {
  std::vector<double> d = {0.0, 1.0, 2.5};
  std::vector<int64_t> s = {5, 2, 1};
  std::vector<double> d_prev = {0.0, 0.5, 3.0};
  std::vector<int64_t> s_prev = {4, 2, 1};

  StwmColumn Column() const {
    return StwmColumn{std::span<const double>(d),
                      std::span<const int64_t>(s),
                      std::span<const double>(d_prev),
                      std::span<const int64_t>(s_prev), 5};
  }
};

TEST(CheckColumnTest, AcceptsConsistentColumn) {
  ColumnFixture fix;
  EXPECT_EQ(CheckColumn(fix.Column()), "");
}

TEST(CheckColumnTest, AcceptsKilledCellsWithStaleStarts) {
  ColumnFixture fix;
  fix.d[2] = kInf;
  fix.s[2] = -77;  // Stale start under an infinite distance is legal.
  EXPECT_EQ(CheckColumn(fix.Column()), "");
}

TEST(CheckColumnTest, CatchesCorruptStarRow) {
  ColumnFixture fix;
  fix.d[0] = 0.25;
  EXPECT_NE(CheckColumn(fix.Column()).find("star-row"), std::string::npos);
  fix.d[0] = 0.0;
  fix.s[0] = 4;  // Star row must carry the current tick.
  EXPECT_NE(CheckColumn(fix.Column()).find("star-row"), std::string::npos);
}

TEST(CheckColumnTest, CatchesNegativeAndNaNDistances) {
  ColumnFixture fix;
  fix.d[1] = -0.001;
  EXPECT_NE(CheckColumn(fix.Column()).find("distance-non-negative"),
            std::string::npos);
  fix.d[1] = kNaN;
  EXPECT_NE(CheckColumn(fix.Column()).find("distance-non-negative"),
            std::string::npos);
}

TEST(CheckColumnTest, CatchesStartOutOfRange) {
  ColumnFixture fix;
  fix.s[1] = 6;  // Beyond the current tick t = 5.
  fix.s_prev[1] = 6;
  EXPECT_NE(CheckColumn(fix.Column()).find("start-in-range"),
            std::string::npos);
}

TEST(CheckColumnTest, CatchesBrokenStartInheritance) {
  ColumnFixture fix;
  fix.s[2] = 3;  // None of s[1]=2, s_prev[2]=1, s_prev[1]=2.
  EXPECT_NE(CheckColumn(fix.Column()).find("start-inheritance"),
            std::string::npos);
}

TEST(CheckColumnTest, CatchesRowShapeMismatch) {
  ColumnFixture fix;
  fix.s_prev.pop_back();
  EXPECT_NE(CheckColumn(fix.Column()).find("row-shape"), std::string::npos);
}

/// A pruned column update at t = 5, bound 5, m = 4, as CheckedColumn shows
/// it: the previous column's frontier is row 2 (rows past it read +∞), so
/// the update computes rows 1-3 and, because d(5, 3) = 3 is live, row 4
/// (d = 9, dead). The stored frontier is row 3.
struct FrontierFixture {
  std::vector<double> d = {0.0, 4.0, 1.0, 3.0, 9.0};
  std::vector<int64_t> s = {5, 5, 3, 3, 3};
  std::vector<double> d_prev = {0.0, 1.0, 2.0, kInf, kInf};
  std::vector<int64_t> s_prev = {4, 3, 3, 0, 0};
  int64_t computed = 4;
  int64_t frontier = 3;

  std::string Check() const {
    return CheckFrontier(
        StwmColumn{std::span<const double>(d), std::span<const int64_t>(s),
                   std::span<const double>(d_prev),
                   std::span<const int64_t>(s_prev), 5},
        /*bound=*/5.0, computed, frontier);
  }
};

TEST(CheckFrontierTest, AcceptsSoundFrontier) {
  FrontierFixture fix;
  EXPECT_EQ(fix.Check(), "");
  // Full columns: a +∞ bound computes every row and keeps the frontier
  // at m.
  fix.d_prev = {0.0, 1.0, 2.0, 7.0, 8.0};
  fix.frontier = 4;
  EXPECT_EQ(CheckFrontier(StwmColumn{fix.d, fix.s, fix.d_prev, fix.s_prev, 5},
                          kInf, 4, 4),
            "");
}

TEST(CheckFrontierTest, CatchesColumnThatStopsOneCellEarly) {
  FrontierFixture fix;
  // Row 4 skipped although d(5, 3) = 3 <= 5 could still feed it.
  fix.computed = 3;
  fix.d[4] = kInf;
  fix.s[4] = 0;
  EXPECT_NE(fix.Check().find("frontier-sound"), std::string::npos);
  // Row 3 skipped although its diagonal predecessor d(4, 2) = 2 is live.
  fix.computed = 2;
  fix.frontier = 2;
  fix.d[3] = kInf;
  fix.s[3] = 0;
  EXPECT_NE(fix.Check().find("frontier-sound"), std::string::npos);
}

TEST(CheckFrontierTest, CatchesFrontierOneCellTooLow) {
  FrontierFixture fix;
  fix.frontier = 2;  // Row 3 (d = 3) is live above it.
  EXPECT_NE(fix.Check().find("frontier-sound"), std::string::npos);
  fix.frontier = 5;  // Past the computed rows: stale cells would be live.
  EXPECT_NE(fix.Check().find("frontier-sound"), std::string::npos);
}

TEST(CheckCandidateTest, AcceptsQualifyingCandidate) {
  ColumnFixture fix;
  EXPECT_EQ(CheckCandidate(fix.Column(), /*dmin=*/1.0, /*ts=*/2, /*te=*/4,
                           /*group_start=*/1, /*group_end=*/5,
                           /*epsilon=*/2.0),
            "");
}

TEST(CheckCandidateTest, CatchesDistanceAboveEpsilon) {
  ColumnFixture fix;
  EXPECT_NE(CheckCandidate(fix.Column(), 3.0, 2, 4, 1, 5, 2.0)
                .find("candidate-qualifies"),
            std::string::npos);
}

TEST(CheckCandidateTest, CatchesInvertedExtent) {
  ColumnFixture fix;
  EXPECT_NE(CheckCandidate(fix.Column(), 1.0, 4, 2, 1, 5, 2.0)
                .find("candidate-extent"),
            std::string::npos);
}

TEST(CheckCandidateTest, CatchesCandidateOutsideGroup) {
  ColumnFixture fix;
  EXPECT_NE(CheckCandidate(fix.Column(), 1.0, 2, 4, 3, 5, 2.0)
                .find("candidate-in-group"),
            std::string::npos);
}

Match MakeMatch(int64_t start, int64_t end, double distance,
                int64_t report_time) {
  Match match;
  match.start = start;
  match.end = end;
  match.distance = distance;
  match.report_time = report_time;
  return match;
}

TEST(CheckReportTest, AcceptsEarliestDisjointReport) {
  ColumnFixture fix;
  // All surviving cells have d >= 0.9 or start after the match end 1.
  const Match match = MakeMatch(0, 1, 0.9, 5);
  fix.s = {5, 2, 2};
  fix.s_prev = {4, 2, 2};
  EXPECT_EQ(CheckReport(fix.Column(), match, /*epsilon=*/2.0,
                        /*last_report_end=*/-1),
            "");
}

TEST(CheckReportTest, CatchesDistanceAboveEpsilon) {
  ColumnFixture fix;
  const Match match = MakeMatch(0, 1, 3.0, 5);
  EXPECT_NE(
      CheckReport(fix.Column(), match, 2.0, -1).find("report-qualifies"),
      std::string::npos);
}

TEST(CheckReportTest, CatchesOverlapWithPreviousReport) {
  ColumnFixture fix;
  fix.s = {5, 2, 2};
  const Match match = MakeMatch(2, 3, 0.9, 5);
  // Previous report ended at 2, so a start of 2 overlaps it.
  EXPECT_NE(CheckReport(fix.Column(), match, 2.0, /*last_report_end=*/2)
                .find("reports-disjoint"),
            std::string::npos);
}

TEST(CheckReportTest, CatchesPrematureReport) {
  ColumnFixture fix;
  // Cell 1 holds d = 1.0 with start 2 <= match end 4: a warping path that
  // could still undercut d_min = 1.5, so reporting now is premature.
  const Match match = MakeMatch(2, 4, 1.5, 5);
  EXPECT_NE(
      CheckReport(fix.Column(), match, 2.0, -1).find("report-earliest"),
      std::string::npos);
}

TEST(CheckBestTest, AcceptsImprovingBest) {
  EXPECT_EQ(CheckBest(MakeMatch(1, 3, 0.5, 4), /*prev_distance=*/kInf), "");
  EXPECT_EQ(CheckBest(MakeMatch(1, 3, 0.5, 4), 0.7), "");
  EXPECT_EQ(CheckBest(MakeMatch(1, 3, 0.5, 4), 0.5), "");
}

TEST(CheckBestTest, CatchesWorseningBest) {
  EXPECT_NE(CheckBest(MakeMatch(1, 3, 0.8, 4), 0.5).find("best-monotone"),
            std::string::npos);
}

TEST(CheckBestTest, CatchesCorruptExtent) {
  EXPECT_NE(CheckBest(MakeMatch(3, 1, 0.5, 4), kInf).find("best-extent"),
            std::string::npos);
  EXPECT_NE(CheckBest(MakeMatch(1, 5, 0.5, 4), kInf).find("best-extent"),
            std::string::npos);
}

TEST(CheckBestTest, CatchesNegativeDistance) {
  EXPECT_NE(
      CheckBest(MakeMatch(1, 3, -0.5, 4), kInf).find("best-non-negative"),
      std::string::npos);
}

TEST(SnapshotRoundTripTest, ScalarMatcherRoundTripsAtEveryTick) {
  SpringOptions options;
  options.epsilon = 1.0;
  SpringMatcher matcher({1.0, 2.0, 1.0}, options);
  EXPECT_EQ(CheckSnapshotRoundTrip(matcher), "");
  Match match;
  for (const double x : {5.0, 1.1, 2.0, 1.0, 5.0, 1.0, 2.2, 0.9, 7.0}) {
    matcher.Update(x, &match);
    EXPECT_EQ(CheckSnapshotRoundTrip(matcher), "");
  }
}

TEST(SnapshotRoundTripTest, VectorMatcherRoundTripsAtEveryTick) {
  ts::VectorSeries query(2, "q");
  query.AppendRow(std::vector<double>{0.0, 1.0});
  query.AppendRow(std::vector<double>{1.0, 0.0});
  SpringOptions options;
  options.epsilon = 0.5;
  VectorSpringMatcher matcher(std::move(query), options);
  EXPECT_EQ(CheckSnapshotRoundTrip(matcher), "");
  Match match;
  for (int t = 0; t < 8; ++t) {
    const std::vector<double> row = {0.2 * t, 1.0 - 0.2 * t};
    matcher.Update(row, &match);
    EXPECT_EQ(CheckSnapshotRoundTrip(matcher), "");
  }
}

TEST(DeserializeValidationTest, RejectsSemanticallyCorruptSnapshot) {
  // Serialize a live matcher, then corrupt one STWM distance cell to a
  // negative value. The snapshot still parses structurally; the semantic
  // validation added for the invariant subsystem must reject it.
  SpringOptions options;
  options.epsilon = 1.0;
  SpringMatcher matcher({1.0, 2.0}, options);
  Match match;
  for (const double x : {1.0, 2.0, 3.0}) matcher.Update(x, &match);
  const std::vector<uint8_t> good = matcher.SerializeState();
  ASSERT_TRUE(SpringMatcher::DeserializeState(good).ok());

  // The d_prev vector is the only place the byte pattern of -1.0
  // (0xBFF0000000000000) can be planted without breaking framing: scan for
  // a serialized double cell by brute force — flip 8 aligned bytes at every
  // offset and require that *no* corruption yields a matcher that both
  // restores and claims a negative distance cell.
  int rejected = 0;
  int restored = 0;
  for (size_t offset = 8; offset + 8 <= good.size(); ++offset) {
    std::vector<uint8_t> bad = good;
    const double planted = -1.0;
    std::memcpy(bad.data() + offset, &planted, sizeof(planted));
    auto result = SpringMatcher::DeserializeState(bad);
    if (!result.ok()) {
      ++rejected;
      continue;
    }
    ++restored;
    // If it restored, the planted bytes did not land on live state the
    // validator guards (e.g. inside the query payload, where -1.0 is a
    // legal value). Driving the matcher must still be safe.
    for (const double x : {0.5, 1.5}) result->Update(x, &match);
  }
  // The corruption sweep must have produced at least one rejected snapshot
  // (the validator firing) — otherwise the test is vacuous.
  EXPECT_GT(rejected, 0);
  SUCCEED() << "rejected=" << rejected << " restored=" << restored;
}

}  // namespace
}  // namespace invariants
}  // namespace core
}  // namespace springdtw
