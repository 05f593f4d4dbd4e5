#include "monitor/engine.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/spring.h"
#include "monitor/sink.h"
#include "ts/vector_series.h"
#include "util/random.h"

namespace springdtw {
namespace monitor {
namespace {

core::SpringOptions Options(double epsilon) {
  core::SpringOptions options;
  options.epsilon = epsilon;
  return options;
}

TEST(MonitorEngineTest, SingleStreamSingleQuery) {
  MonitorEngine engine;
  CollectSink sink;
  engine.AddSink(&sink);
  const int64_t stream = engine.AddStream("s0");
  const auto query =
      engine.AddQuery(stream, "pattern", {1.0, 2.0, 3.0}, Options(0.5));
  ASSERT_TRUE(query.ok());

  for (const double x : {9.0, 1.0, 2.0, 3.0, 9.0, 9.0}) {
    ASSERT_TRUE(engine.Push(stream, x).ok());
  }
  engine.FlushAll();

  ASSERT_EQ(sink.entries().size(), 1u);
  const auto& entry = sink.entries()[0];
  EXPECT_EQ(entry.origin.stream_name, "s0");
  EXPECT_EQ(entry.origin.query_name, "pattern");
  EXPECT_EQ(entry.match.start, 1);
  EXPECT_EQ(entry.match.end, 3);
  EXPECT_DOUBLE_EQ(entry.match.distance, 0.0);

  const QueryStats& stats = engine.stats(*query);
  EXPECT_EQ(stats.ticks, 6);
  EXPECT_EQ(stats.matches, 1);
  EXPECT_GE(stats.output_delay.mean(), 0.0);
}

TEST(MonitorEngineTest, MultipleQueriesPerStream) {
  MonitorEngine engine;
  CollectSink sink;
  engine.AddSink(&sink);
  const int64_t stream = engine.AddStream("s0");
  ASSERT_TRUE(
      engine.AddQuery(stream, "rise", {1.0, 2.0}, Options(0.25)).ok());
  ASSERT_TRUE(
      engine.AddQuery(stream, "fall", {2.0, 1.0}, Options(0.25)).ok());

  for (const double x : {9.0, 1.0, 2.0, 1.0, 9.0, 9.0}) {
    ASSERT_TRUE(engine.Push(stream, x).ok());
  }
  engine.FlushAll();

  int rises = 0;
  int falls = 0;
  for (const auto& entry : sink.entries()) {
    if (entry.origin.query_name == "rise") ++rises;
    if (entry.origin.query_name == "fall") ++falls;
  }
  EXPECT_EQ(rises, 1);
  EXPECT_EQ(falls, 1);
}

TEST(MonitorEngineTest, StreamsAreIndependent) {
  MonitorEngine engine;
  CollectSink sink;
  engine.AddSink(&sink);
  const int64_t s0 = engine.AddStream("s0");
  const int64_t s1 = engine.AddStream("s1");
  ASSERT_TRUE(engine.AddQuery(s0, "q", {1.0, 2.0}, Options(0.25)).ok());
  ASSERT_TRUE(engine.AddQuery(s1, "q", {1.0, 2.0}, Options(0.25)).ok());

  // Only stream 0 carries the pattern.
  for (const double x : {1.0, 2.0, 9.0}) {
    ASSERT_TRUE(engine.Push(s0, x).ok());
  }
  for (const double x : {5.0, 5.0, 5.0}) {
    ASSERT_TRUE(engine.Push(s1, x).ok());
  }
  engine.FlushAll();
  ASSERT_EQ(sink.entries().size(), 1u);
  EXPECT_EQ(sink.entries()[0].origin.stream_name, "s0");
}

TEST(MonitorEngineTest, MissingValuesAreRepairedOnline) {
  MonitorEngine engine;
  CollectSink sink;
  engine.AddSink(&sink);
  const int64_t stream = engine.AddStream("sensor", /*repair_missing=*/true);
  ASSERT_TRUE(engine.AddQuery(stream, "q", {1.0, 2.0}, Options(0.25)).ok());
  // 1, NaN (held as 1 -> harmless), 2 -> matches [start..end] around it.
  ASSERT_TRUE(engine.Push(stream, 1.0).ok());
  ASSERT_TRUE(engine.Push(stream, ts::MissingValue()).ok());
  ASSERT_TRUE(engine.Push(stream, 2.0).ok());
  ASSERT_TRUE(engine.Push(stream, 9.0).ok());
  engine.FlushAll();
  ASSERT_EQ(sink.entries().size(), 1u);
  EXPECT_DOUBLE_EQ(sink.entries()[0].match.distance, 0.0);
}

TEST(MonitorEngineTest, MissingValueWithRepairDisabledIsAnError) {
  MonitorEngine engine;
  const int64_t stream = engine.AddStream("raw", /*repair_missing=*/false);
  ASSERT_TRUE(engine.AddQuery(stream, "q", {1.0}, Options(0.25)).ok());
  EXPECT_FALSE(engine.Push(stream, ts::MissingValue()).ok());
  EXPECT_TRUE(engine.Push(stream, 1.0).ok());
}

TEST(MonitorEngineTest, UnknownStreamIsError) {
  MonitorEngine engine;
  EXPECT_FALSE(engine.Push(3, 1.0).ok());
  EXPECT_FALSE(engine.AddQuery(3, "q", {1.0}, Options(1.0)).ok());
}

TEST(MonitorEngineTest, EmptyOrMissingQueryRejected) {
  MonitorEngine engine;
  const int64_t stream = engine.AddStream("s");
  EXPECT_FALSE(engine.AddQuery(stream, "q", {}, Options(1.0)).ok());
  EXPECT_FALSE(
      engine.AddQuery(stream, "q", {1.0, ts::MissingValue()}, Options(1.0))
          .ok());
}

TEST(MonitorEngineTest, InadmissibleQueriesRejected) {
  // core::ValidateSpringQuery is the one admission rule: the engine's add
  // paths and its checkpoint restore all apply it.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  core::SpringOptions nan_epsilon = Options(1.0);
  nan_epsilon.epsilon = std::numeric_limits<double>::quiet_NaN();
  core::SpringOptions negative_max = Options(1.0);
  negative_max.max_match_length = -1;
  const std::vector<std::pair<std::vector<double>, core::SpringOptions>>
      bad = {{{1.0, kInf}, Options(1.0)},
             {{-kInf, 1.0}, Options(1.0)},
             {{1.0, 2.0}, nan_epsilon},
             {{1.0, 2.0}, negative_max}};

  MonitorEngine engine;
  const int64_t stream = engine.AddStream("s");
  const int64_t vector_stream = engine.AddVectorStream("v", 2);
  for (const auto& [values, options] : bad) {
    EXPECT_EQ(engine.AddQuery(stream, "q", values, options).status().code(),
              util::StatusCode::kInvalidArgument);
    ts::VectorSeries vector_query(2);
    vector_query.AppendRow(values);
    EXPECT_EQ(engine.AddVectorQuery(vector_stream, "vq", vector_query, options)
                  .status()
                  .code(),
              util::StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(engine.num_queries(), 0);
  EXPECT_EQ(engine.num_vector_queries(), 0);
  // A negative epsilon stays legal (best-match-only use).
  EXPECT_TRUE(engine.AddQuery(stream, "best", {1.0, 2.0}, Options(-1.0)).ok());
}

TEST(MonitorEngineTest, RestoreRejectsInadmissibleQueries) {
  // Patch an admissible checkpoint's query snapshot to carry each bad
  // value; the engine restore, AddQueryFromSnapshot and the matcher's own
  // reader must all refuse it.
  MonitorEngine engine;
  const int64_t stream = engine.AddStream("s");
  ASSERT_TRUE(engine.AddQuery(stream, "q", {1.0, 2.0}, Options(1.0)).ok());
  ASSERT_TRUE(engine.Push(stream, 1.0).ok());
  const std::vector<uint8_t> snapshot = engine.SerializeQueryState(0);
  const std::vector<uint8_t> checkpoint = engine.SerializeState();

  // SPR1 layout: magic, version (8 bytes), epsilon (8), local distance
  // (1), max_match_length (8), min_match_length (8), then the template's
  // length (8) and values.
  constexpr size_t kEpsilon = 8;
  constexpr size_t kMaxLength = 17;
  constexpr size_t kFirstValue = 41;
  const auto patched = [&](size_t offset, auto value) {
    std::vector<uint8_t> bytes = snapshot;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return bytes;
  };
  const std::vector<std::vector<uint8_t>> bad = {
      patched(kFirstValue, std::numeric_limits<double>::infinity()),
      patched(kFirstValue, -std::numeric_limits<double>::infinity()),
      patched(kEpsilon, std::numeric_limits<double>::quiet_NaN()),
      patched(kMaxLength, int64_t{-1})};
  for (const std::vector<uint8_t>& bytes : bad) {
    EXPECT_FALSE(core::SpringMatcher::DeserializeState(bytes).ok());
    MonitorEngine target;
    target.AddStream("s");
    EXPECT_FALSE(target.AddQueryFromSnapshot(0, "q", bytes).ok());
    EXPECT_EQ(target.num_queries(), 0);

    // The same snapshot inside a whole-engine checkpoint.
    std::vector<uint8_t> bad_checkpoint = checkpoint;
    const auto at = std::search(bad_checkpoint.begin(), bad_checkpoint.end(),
                                snapshot.begin(), snapshot.end());
    ASSERT_NE(at, bad_checkpoint.end());
    std::copy(bytes.begin(), bytes.end(), at);
    MonitorEngine restored;
    EXPECT_FALSE(restored.RestoreState(bad_checkpoint).ok());
  }
  MonitorEngine restored;
  EXPECT_TRUE(restored.RestoreState(checkpoint).ok());
}

TEST(MonitorEngineTest, PushCountsMatchesReturned) {
  MonitorEngine engine;
  const int64_t stream = engine.AddStream("s");
  ASSERT_TRUE(engine.AddQuery(stream, "a", {1.0}, Options(0.1)).ok());
  ASSERT_TRUE(engine.AddQuery(stream, "b", {1.0}, Options(0.1)).ok());
  ASSERT_TRUE(engine.Push(stream, 1.0).ok());
  // Both single-value queries report their first match once the next tick
  // proves it cannot be improved.
  const auto reported = engine.Push(stream, 50.0);
  ASSERT_TRUE(reported.ok());
  EXPECT_EQ(*reported, 2);
}

TEST(MonitorEngineTest, LatencyTrackingRecords) {
  MonitorEngine engine;
  engine.EnableLatencyTracking(true);
  const int64_t stream = engine.AddStream("s");
  ASSERT_TRUE(
      engine.AddQuery(stream, "q", std::vector<double>(64, 0.0), Options(1.0))
          .ok());
  util::Rng rng(5);
  for (int t = 0; t < 1000; ++t) {
    ASSERT_TRUE(engine.Push(stream, rng.Gaussian()).ok());
  }
  EXPECT_EQ(engine.push_latency_nanos().count(), 1000);
  EXPECT_GT(engine.push_latency_nanos().Quantile(0.5), 0.0);
}

TEST(MonitorEngineTest, FootprintAggregatesAllQueries) {
  MonitorEngine engine;
  const int64_t stream = engine.AddStream("s");
  ASSERT_TRUE(
      engine.AddQuery(stream, "a", std::vector<double>(100, 0.0), Options(1.0))
          .ok());
  const int64_t one = engine.Footprint().TotalBytes();
  ASSERT_TRUE(
      engine.AddQuery(stream, "b", std::vector<double>(100, 0.0), Options(1.0))
          .ok());
  EXPECT_GE(engine.Footprint().TotalBytes(), 2 * one - 64);
}

TEST(MonitorEngineTest, OutputDelayMeasuredAgainstMatchEnd) {
  MonitorEngine engine;
  CollectSink sink;
  engine.AddSink(&sink);
  const int64_t stream = engine.AddStream("s");
  const auto query =
      engine.AddQuery(stream, "q", {1.0, 2.0}, Options(0.25));
  ASSERT_TRUE(query.ok());
  for (const double x : {1.0, 2.0, 9.0}) {
    ASSERT_TRUE(engine.Push(stream, x).ok());
  }
  ASSERT_EQ(sink.entries().size(), 1u);
  // Match ends at tick 1, reported at tick 2: delay 1.
  EXPECT_DOUBLE_EQ(engine.stats(*query).output_delay.mean(), 1.0);
}

}  // namespace
}  // namespace monitor
}  // namespace springdtw
