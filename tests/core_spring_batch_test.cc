// SpringBatchPool unit tests: the SoA pool must be bit-for-bit equivalent
// to one SpringMatcher per query — same reports (start, end, distance,
// report tick), same best-match, and query snapshots byte-identical to
// SpringMatcher::SerializeState, restorable in both directions. The
// randomized cross-implementation sweep lives in
// differential_oracle_test.cc; these are the targeted cases.
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/spring.h"
#include "core/spring_batch.h"
#include "core/vector_spring.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace springdtw {
namespace core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> RampStream(int64_t ticks) {
  std::vector<double> stream(static_cast<size_t>(ticks), 9.0);
  for (int64_t t = 0; t + 3 < ticks; t += 40) {
    stream[static_cast<size_t>(t + 1)] = 1.0;
    stream[static_cast<size_t>(t + 2)] = 2.0;
    stream[static_cast<size_t>(t + 3)] = 3.0;
  }
  return stream;
}

/// Advances every query of `pool` by one value.
void Push(SpringBatchPool* pool, double x,
          std::vector<SpringBatchPool::Report>* reports) {
  pool->PushBatch(std::span<const double>(&x, 1), reports);
}

/// Feeds `stream` to reference matchers and to one pool; expects identical
/// report sequences and identical end state.
void ExpectPoolMatchesReference(
    const std::vector<std::vector<double>>& queries,
    const std::vector<SpringOptions>& options,
    const std::vector<double>& stream, bool flush) {
  ASSERT_EQ(queries.size(), options.size());
  std::vector<SpringMatcher> reference;
  SpringBatchPool pool;
  for (size_t i = 0; i < queries.size(); ++i) {
    reference.emplace_back(queries[i], options[i]);
    pool.AddQuery(queries[i], options[i]);
  }

  std::vector<SpringBatchPool::Report> reports;
  for (size_t t = 0; t < stream.size(); ++t) {
    reports.clear();
    Push(&pool, stream[t], &reports);
    size_t next_report = 0;
    for (size_t i = 0; i < reference.size(); ++i) {
      Match expected;
      if (reference[i].Update(stream[t], &expected)) {
        ASSERT_LT(next_report, reports.size())
            << "pool missed a report at tick " << t << " query " << i;
        const SpringBatchPool::Report& got = reports[next_report++];
        EXPECT_EQ(got.query_index, static_cast<int64_t>(i));
        EXPECT_EQ(got.match.start, expected.start);
        EXPECT_EQ(got.match.end, expected.end);
        EXPECT_EQ(got.match.distance, expected.distance);
        EXPECT_EQ(got.match.report_time, expected.report_time);
        EXPECT_EQ(got.match.group_start, expected.group_start);
        EXPECT_EQ(got.match.group_end, expected.group_end);
      }
    }
    EXPECT_EQ(next_report, reports.size()) << "spurious report at tick " << t;
  }

  for (size_t i = 0; i < reference.size(); ++i) {
    const SpringState& state = pool.state(static_cast<int64_t>(i));
    EXPECT_EQ(state.t, reference[i].ticks_processed());
    EXPECT_EQ(state.has_best, reference[i].has_best());
    if (reference[i].has_best()) {
      EXPECT_EQ(state.best.distance, reference[i].best_distance());
      EXPECT_EQ(state.best.start, reference[i].best().start);
      EXPECT_EQ(state.best.end, reference[i].best().end);
    }
    EXPECT_EQ(state.has_candidate, reference[i].has_pending_candidate());
    // Snapshot equivalence: the pool slot serializes to the exact bytes the
    // standalone matcher produces.
    EXPECT_EQ(pool.SerializeQuery(static_cast<int64_t>(i)),
              reference[i].SerializeState())
        << "snapshot mismatch for query " << i;
  }

  if (flush) {
    reports.clear();
    pool.Flush(&reports);
    size_t next_report = 0;
    for (size_t i = 0; i < reference.size(); ++i) {
      Match expected;
      if (reference[i].Flush(&expected)) {
        ASSERT_LT(next_report, reports.size());
        const SpringBatchPool::Report& got = reports[next_report++];
        EXPECT_EQ(got.query_index, static_cast<int64_t>(i));
        EXPECT_EQ(got.match.start, expected.start);
        EXPECT_EQ(got.match.end, expected.end);
        EXPECT_EQ(got.match.distance, expected.distance);
        EXPECT_EQ(got.match.report_time, expected.report_time);
      }
    }
    EXPECT_EQ(next_report, reports.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(pool.SerializeQuery(static_cast<int64_t>(i)),
                reference[i].SerializeState());
    }
  }
}

TEST(SpringBatchPoolTest, SingleQueryMatchesSpringMatcher) {
  SpringOptions options;
  options.epsilon = 0.5;
  ExpectPoolMatchesReference({{1.0, 2.0, 3.0}}, {options}, RampStream(300),
                             /*flush=*/true);
}

TEST(SpringBatchPoolTest, HeterogeneousQueriesAndOptions) {
  SpringOptions tight;
  tight.epsilon = 0.5;
  SpringOptions loose;
  loose.epsilon = 10.0;
  SpringOptions absolute;
  absolute.epsilon = 2.0;
  absolute.local_distance = dtw::LocalDistance::kAbsolute;
  SpringOptions constrained;
  constrained.epsilon = 10.0;
  constrained.max_match_length = 4;
  constrained.min_match_length = 2;
  ExpectPoolMatchesReference(
      {{1.0, 2.0, 3.0}, {2.0, 2.0}, {1.0, 2.0, 3.0, 2.0, 1.0}, {3.0, 2.0}},
      {tight, loose, absolute, constrained}, RampStream(400),
      /*flush=*/true);
}

TEST(SpringBatchPoolTest, EpsilonZeroExactMatches) {
  SpringOptions options;
  options.epsilon = 0.0;
  ExpectPoolMatchesReference({{1.0, 2.0, 3.0}}, {options}, RampStream(200),
                             /*flush=*/true);
}

TEST(SpringBatchPoolTest, EverySubsequenceQualifies) {
  SpringOptions options;
  options.epsilon = kInf;
  ExpectPoolMatchesReference({{5.0, 6.0}}, {options}, RampStream(120),
                             /*flush=*/true);
}

TEST(SpringBatchPoolTest, PushBatchEqualsPerTickUpdates) {
  SpringOptions options;
  options.epsilon = 0.5;
  const std::vector<double> stream = RampStream(500);

  SpringBatchPool tick_pool;
  SpringBatchPool batch_pool;
  for (int q = 0; q < 3; ++q) {
    std::vector<double> query = {1.0, 2.0, 3.0};
    for (double& y : query) y += 0.01 * q;
    tick_pool.AddQuery(query, options);
    batch_pool.AddQuery(query, options);
  }

  std::vector<SpringBatchPool::Report> tick_reports;
  for (const double x : stream) Push(&tick_pool, x, &tick_reports);

  std::vector<SpringBatchPool::Report> batch_reports;
  // Odd-sized chunks exercise the parity handling.
  constexpr size_t kChunk = 33;
  for (size_t offset = 0; offset < stream.size(); offset += kChunk) {
    const size_t count = std::min(kChunk, stream.size() - offset);
    batch_pool.PushBatch(
        std::span<const double>(stream.data() + offset, count),
        &batch_reports);
  }

  ASSERT_EQ(batch_reports.size(), tick_reports.size());
  ASSERT_FALSE(tick_reports.empty());
  for (size_t i = 0; i < tick_reports.size(); ++i) {
    EXPECT_EQ(batch_reports[i].query_index, tick_reports[i].query_index);
    EXPECT_EQ(batch_reports[i].match.start, tick_reports[i].match.start);
    EXPECT_EQ(batch_reports[i].match.end, tick_reports[i].match.end);
    EXPECT_EQ(batch_reports[i].match.distance,
              tick_reports[i].match.distance);
    EXPECT_EQ(batch_reports[i].match.report_time,
              tick_reports[i].match.report_time);
  }
  for (int64_t q = 0; q < 3; ++q) {
    EXPECT_EQ(batch_pool.SerializeQuery(q), tick_pool.SerializeQuery(q));
  }
}

TEST(SpringBatchPoolTest, AdoptMatcherContinuesMidStream) {
  SpringOptions options;
  options.epsilon = 0.5;
  const std::vector<double> stream = RampStream(300);
  const size_t split = 147;  // Mid-group, not on a period boundary.

  SpringMatcher reference({1.0, 2.0, 3.0}, options);
  std::vector<SpringBatchPool::Report> pool_reports;
  std::vector<Match> reference_matches;
  Match match;
  for (size_t t = 0; t < split; ++t) {
    if (reference.Update(stream[t], &match)) reference_matches.push_back(match);
  }

  // The pool adopts the matcher's live state through its snapshot.
  SpringBatchPool pool;
  const auto index = pool.AddQueryFromSnapshot(reference.SerializeState());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(pool.state(*index).t, static_cast<int64_t>(split));

  for (size_t t = split; t < stream.size(); ++t) {
    if (reference.Update(stream[t], &match)) reference_matches.push_back(match);
    Push(&pool, stream[t], &pool_reports);
  }
  // The adopted pool only saw the second half; its reports must equal the
  // reference's second-half reports.
  size_t second_half = 0;
  for (const Match& m : reference_matches) {
    if (m.report_time >= static_cast<int64_t>(split)) ++second_half;
  }
  ASSERT_EQ(pool_reports.size(), second_half);
  size_t j = 0;
  for (const Match& m : reference_matches) {
    if (m.report_time < static_cast<int64_t>(split)) continue;
    EXPECT_EQ(pool_reports[j].match.start, m.start);
    EXPECT_EQ(pool_reports[j].match.end, m.end);
    EXPECT_EQ(pool_reports[j].match.distance, m.distance);
    EXPECT_EQ(pool_reports[j].match.report_time, m.report_time);
    ++j;
  }
  EXPECT_EQ(pool.SerializeQuery(*index), reference.SerializeState());
}

TEST(SpringBatchPoolTest, AdoptRestoredSnapshotRoundTrips) {
  SpringOptions options;
  options.epsilon = 0.5;
  SpringMatcher matcher({1.0, 2.0, 3.0}, options);
  Match match;
  for (const double x : RampStream(123)) matcher.Update(x, &match);

  const std::vector<uint8_t> snapshot = matcher.SerializeState();
  SpringBatchPool pool;
  pool.AddQuery({4.0, 4.0}, options);  // The snapshot lands in slot 1.
  const auto index = pool.AddQueryFromSnapshot(snapshot);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(pool.SerializeQuery(*index), snapshot);
  // And back: a matcher restored from the pool's bytes is the original.
  auto restored = SpringMatcher::DeserializeState(pool.SerializeQuery(*index));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->SerializeState(), snapshot);

  // A corrupt snapshot is rejected and leaves the pool as it was.
  std::vector<uint8_t> corrupt = snapshot;
  corrupt.resize(corrupt.size() - 3);
  EXPECT_FALSE(pool.AddQueryFromSnapshot(corrupt).ok());
  EXPECT_EQ(pool.num_queries(), 2);
  EXPECT_EQ(pool.SerializeQuery(*index), snapshot);
}

TEST(SpringBatchPoolTest, MidStreamAddedQueryKeepsOwnClock) {
  SpringOptions options;
  options.epsilon = 0.5;
  const std::vector<double> stream = RampStream(260);
  const size_t split = 100;

  SpringBatchPool pool;
  pool.AddQuery({1.0, 2.0, 3.0}, options);
  std::vector<SpringBatchPool::Report> reports;
  for (size_t t = 0; t < split; ++t) Push(&pool, stream[t], &reports);

  // A query attached mid-stream starts at its own tick 0, exactly like a
  // fresh SpringMatcher attached at that point.
  const int64_t late = pool.AddQuery({1.0, 2.0, 3.0}, options);
  SpringMatcher late_reference({1.0, 2.0, 3.0}, options);
  EXPECT_EQ(pool.state(late).t, 0);

  Match match;
  for (size_t t = split; t < stream.size(); ++t) {
    Push(&pool, stream[t], &reports);
    late_reference.Update(stream[t], &match);
  }
  EXPECT_EQ(pool.SerializeQuery(late), late_reference.SerializeState());
}

TEST(SpringBatchPoolTest, RandomStreamsBitwiseEquivalent) {
  util::Rng rng(20260807);
  for (int trial = 0; trial < 25; ++trial) {
    const int64_t m = rng.UniformInt(1, 9);
    std::vector<double> query(static_cast<size_t>(m));
    for (double& y : query) y = rng.Uniform(-2.0, 2.0);
    SpringOptions options;
    options.epsilon = rng.Uniform(0.0, 4.0);
    if (rng.Bernoulli(0.3)) {
      options.local_distance = dtw::LocalDistance::kAbsolute;
    }
    if (rng.Bernoulli(0.25)) options.max_match_length = rng.UniformInt(2, 10);
    if (rng.Bernoulli(0.25)) options.min_match_length = rng.UniformInt(1, 3);
    std::vector<double> stream(
        static_cast<size_t>(rng.UniformInt(20, 200)));
    for (double& x : stream) {
      // A small alphabet forces DP ties, exercising tie-break fidelity.
      x = static_cast<double>(rng.UniformInt(-2, 2));
    }
    ExpectPoolMatchesReference({query}, {options}, stream, /*flush=*/true);
  }
}

TEST(SpringBatchPoolTest, RowPoolMatchesVectorSpringMatcher) {
  util::Rng rng(314);
  std::vector<ts::VectorSeries> queries;
  std::vector<SpringOptions> options(3);
  options[0].epsilon = 1.0;
  options[1].epsilon = 4.0;
  options[1].local_distance = dtw::LocalDistance::kAbsolute;
  options[2].epsilon = 6.0;
  options[2].max_match_length = 5;
  options[2].min_match_length = 2;
  for (int64_t q = 0; q < 3; ++q) {
    ts::VectorSeries query(2, "vq" + std::to_string(q));
    for (int64_t i = 0; i < 2 + q; ++i) {
      const double row[2] = {static_cast<double>(rng.UniformInt(0, 3)),
                             static_cast<double>(rng.UniformInt(0, 3))};
      query.AppendRow(row);
    }
    queries.push_back(query);
  }
  VectorSpringPool pool(2);
  std::vector<VectorSpringMatcher> reference;
  for (size_t q = 0; q < queries.size(); ++q) {
    pool.AddQuery(queries[q], options[q]);
    reference.emplace_back(queries[q], options[q]);
  }
  std::vector<double> rows;
  for (int t = 0; t < 400; ++t) {
    rows.push_back(static_cast<double>(rng.UniformInt(0, 3)));
  }
  std::vector<VectorSpringPool::Report> reports;
  constexpr size_t kChunk = 14;  // 7 ticks of 2 channels.
  for (size_t at = 0; at < rows.size(); at += kChunk) {
    const size_t count = std::min(kChunk, rows.size() - at);
    pool.PushBatch(std::span<const double>(rows.data() + at, count),
                   &reports);
  }
  pool.Flush(&reports);

  std::vector<VectorSpringPool::Report> expected;
  Match match;
  for (size_t at = 0; at < rows.size(); at += 2) {
    for (size_t q = 0; q < reference.size(); ++q) {
      if (reference[q].Update(std::span<const double>(rows.data() + at, 2),
                              &match)) {
        expected.push_back({static_cast<int64_t>(q), match, 0});
      }
    }
  }
  for (size_t q = 0; q < reference.size(); ++q) {
    if (reference[q].Flush(&match)) {
      expected.push_back({static_cast<int64_t>(q), match, 0});
    }
  }
  ASSERT_EQ(reports.size(), expected.size());
  ASSERT_FALSE(expected.empty());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(reports[i].query_index, expected[i].query_index);
    EXPECT_EQ(reports[i].match.start, expected[i].match.start);
    EXPECT_EQ(reports[i].match.end, expected[i].match.end);
    EXPECT_EQ(reports[i].match.distance, expected[i].match.distance);
    EXPECT_EQ(reports[i].match.report_time, expected[i].match.report_time);
  }
  for (size_t q = 0; q < reference.size(); ++q) {
    EXPECT_EQ(pool.SerializeQuery(static_cast<int64_t>(q)),
              reference[q].SerializeState());
  }
}

TEST(SpringBatchPoolTest, FootprintCoversRows) {
  SpringOptions options;
  options.epsilon = 1.0;
  SpringBatchPool pool;
  pool.AddQuery(std::vector<double>(64, 1.0), options);
  pool.AddQuery(std::vector<double>(32, 2.0), options);
  const util::MemoryFootprint fp = pool.Footprint();
  // 96 query doubles + 2 buffers x 96 row doubles + 2 x 96 row int64s.
  EXPECT_GE(fp.TotalBytes(), static_cast<int64_t>((96 + 4 * 96) * 8));
}

}  // namespace
}  // namespace springdtw
}  // namespace core
