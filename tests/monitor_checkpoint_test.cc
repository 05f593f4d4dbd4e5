// Engine-level checkpoint/restore: a restored engine continues every
// stream (scalar and vector) exactly like the original.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/vector_spring.h"
#include "gen/masked_chirp.h"
#include "monitor/engine.h"
#include "monitor/sink.h"
#include "util/codec.h"
#include "util/random.h"

namespace springdtw {
namespace monitor {
namespace {

core::SpringOptions Options(double epsilon) {
  core::SpringOptions options;
  options.epsilon = epsilon;
  return options;
}

TEST(EngineCheckpointTest, ScalarStreamsResumeIdentically) {
  util::Rng rng(811);
  gen::MaskedChirpOptions data_options;
  data_options.length = 4000;
  const auto data = GenerateMaskedChirp(data_options, 256);

  MonitorEngine original;
  CollectSink original_sink;
  original.AddSink(&original_sink);
  const int64_t stream = original.AddStream("s");
  ASSERT_TRUE(original
                  .AddQuery(stream, "chirp", data.query.values(),
                            Options(100.0))
                  .ok());

  // Run half the stream, checkpoint, restore into a new engine.
  const int64_t cut = data.stream.size() / 2;
  for (int64_t t = 0; t < cut; ++t) {
    ASSERT_TRUE(original.Push(stream, data.stream[t]).ok());
  }
  const std::vector<uint8_t> checkpoint = original.SerializeState();

  MonitorEngine restored;
  CollectSink restored_sink;
  restored.AddSink(&restored_sink);
  const util::Status status = restored.RestoreState(checkpoint);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(restored.num_streams(), 1);
  EXPECT_EQ(restored.num_queries(), 1);
  EXPECT_EQ(restored.stats(0).ticks, original.stats(0).ticks);

  // Feed the second half to both; matches must be identical.
  for (int64_t t = cut; t < data.stream.size(); ++t) {
    ASSERT_TRUE(original.Push(stream, data.stream[t]).ok());
    ASSERT_TRUE(restored.Push(stream, data.stream[t]).ok());
  }
  original.FlushAll();
  restored.FlushAll();

  // Compare only matches after the cut (the originals before the cut were
  // dispatched before the checkpoint).
  std::vector<core::Match> a;
  for (const auto& e : original_sink.entries()) {
    if (e.match.report_time >= cut) a.push_back(e.match);
  }
  ASSERT_EQ(a.size(), restored_sink.entries().size());
  for (size_t i = 0; i < a.size(); ++i) {
    const core::Match& b = restored_sink.entries()[i].match;
    EXPECT_EQ(a[i].start, b.start);
    EXPECT_EQ(a[i].end, b.end);
    EXPECT_DOUBLE_EQ(a[i].distance, b.distance);
    EXPECT_EQ(a[i].report_time, b.report_time);
  }
  // The restored engine's counters include the pre-cut matches from the
  // checkpoint, so the totals agree exactly.
  EXPECT_EQ(original.stats(0).matches, restored.stats(0).matches);
}

TEST(EngineCheckpointTest, RepairerStateSurvives) {
  MonitorEngine original;
  const int64_t stream = original.AddStream("s", /*repair_missing=*/true);
  ASSERT_TRUE(original.AddQuery(stream, "q", {5.0, 6.0}, Options(0.5)).ok());
  ASSERT_TRUE(original.Push(stream, 5.0).ok());  // Seeds the repairer.

  MonitorEngine restored;
  ASSERT_TRUE(restored.RestoreState(original.SerializeState()).ok());
  CollectSink sink;
  restored.AddSink(&sink);
  // A NaN right after restore must replay the held 5.0, completing the
  // match 5, (5), 6 via warping... feed 6 then a closer tick.
  ASSERT_TRUE(restored.Push(stream, ts::MissingValue()).ok());
  ASSERT_TRUE(restored.Push(stream, 6.0).ok());
  ASSERT_TRUE(restored.Push(stream, 99.0).ok());
  EXPECT_EQ(sink.entries().size(), 1u);
}

TEST(EngineCheckpointTest, VectorStreamsResumeIdentically) {
  util::Rng rng(812);
  MonitorEngine original;
  const int64_t stream = original.AddVectorStream("v", 3);
  ts::VectorSeries query(3);
  for (int i = 0; i < 8; ++i) {
    query.AppendRow(std::vector<double>{rng.Gaussian(), rng.Gaussian(),
                                        rng.Gaussian()});
  }
  ASSERT_TRUE(original.AddVectorQuery(stream, "q", query, Options(6.0)).ok());

  std::vector<double> row(3);
  auto random_row = [&]() {
    for (double& v : row) v = rng.Gaussian();
    return row;
  };
  for (int t = 0; t < 200; ++t) {
    ASSERT_TRUE(original.PushRow(stream, random_row()).ok());
  }

  MonitorEngine restored;
  ASSERT_TRUE(restored.RestoreState(original.SerializeState()).ok());
  CollectSink sink_a;
  CollectSink sink_b;
  MonitorEngine* engines[2] = {&original, &restored};
  original.AddSink(&sink_a);
  restored.AddSink(&sink_b);
  for (int t = 0; t < 300; ++t) {
    const auto next = random_row();
    for (MonitorEngine* engine : engines) {
      ASSERT_TRUE(engine->PushRow(stream, next).ok());
    }
  }
  original.FlushAll();
  restored.FlushAll();
  ASSERT_EQ(sink_a.entries().size(), sink_b.entries().size());
  for (size_t i = 0; i < sink_a.entries().size(); ++i) {
    EXPECT_EQ(sink_a.entries()[i].match.start,
              sink_b.entries()[i].match.start);
    EXPECT_EQ(sink_a.entries()[i].match.end, sink_b.entries()[i].match.end);
  }
}

/// A version-2 checkpoint of the same engine as `v3`: the little-endian
/// version field set to 2 and `tail` (the retired push-latency state)
/// appended.
std::vector<uint8_t> AsV2(std::vector<uint8_t> v3,
                          const util::ByteWriter& tail) {
  EXPECT_EQ(v3[4], 3);
  v3[4] = 2;
  v3.insert(v3.end(), tail.buffer().begin(), tail.buffer().end());
  return v3;
}

/// The v2 latency tail: tracking flag, count, max, then the buckets.
util::ByteWriter V2Tail(int64_t count, const std::vector<int64_t>& buckets) {
  util::ByteWriter tail;
  tail.WriteBool(true);
  tail.WriteI64(count);
  tail.WriteDouble(1000.0);
  tail.WriteInt64Vector(buckets);
  return tail;
}

std::vector<uint8_t> SmallCheckpoint() {
  MonitorEngine engine;
  const int64_t stream = engine.AddStream("s");
  EXPECT_TRUE(engine.AddQuery(stream, "q", {1.0, 2.0}, Options(0.5)).ok());
  for (int t = 0; t < 50; ++t) EXPECT_TRUE(engine.Push(stream, 9.0).ok());
  return engine.SerializeState();
}

TEST(EngineCheckpointTest, V2LatencyTailRejectsCorruptBuckets) {
  const std::vector<uint8_t> v3 = SmallCheckpoint();
  std::vector<int64_t> buckets(40, 0);
  buckets[11] = 50;
  {
    // A consistent tail is validated and dropped.
    MonitorEngine restored;
    ASSERT_TRUE(restored.RestoreState(AsV2(v3, V2Tail(50, buckets))).ok());
    EXPECT_EQ(restored.SerializeState(), v3);
  }
  std::vector<int64_t> negative = buckets;
  negative[0] = -1;
  const std::vector<std::pair<int64_t, std::vector<int64_t>>> corrupt = {
      {49, buckets},                      // buckets do not sum to count
      {49, negative},                     // a negative bucket
      {50, std::vector<int64_t>(39, 0)},  // wrong bucket count
      {-1, std::vector<int64_t>(40, 0)}};  // negative count
  for (const auto& [count, tail_buckets] : corrupt) {
    MonitorEngine restored;
    EXPECT_EQ(restored.RestoreState(AsV2(v3, V2Tail(count, tail_buckets)))
                  .code(),
              util::StatusCode::kInvalidArgument)
        << "count=" << count << " buckets=" << tail_buckets.size();
  }
}

TEST(EngineCheckpointTest, V2LatencyTailRejectsTruncation) {
  const std::vector<uint8_t> v3 = SmallCheckpoint();
  std::vector<int64_t> buckets(40, 0);
  buckets[3] = 2;
  const std::vector<uint8_t> v2 = AsV2(v3, V2Tail(2, buckets));
  ASSERT_TRUE(MonitorEngine().RestoreState(v2).ok());
  // Every cut inside the tail fails cleanly.
  for (size_t size = v3.size(); size < v2.size(); ++size) {
    MonitorEngine restored;
    EXPECT_FALSE(
        restored.RestoreState(std::span<const uint8_t>(v2.data(), size)).ok())
        << "size=" << size;
  }
}

TEST(EngineCheckpointTest, RestoreRequiresFreshEngine) {
  MonitorEngine original;
  original.AddStream("s");
  const std::vector<uint8_t> checkpoint = original.SerializeState();

  MonitorEngine not_fresh;
  not_fresh.AddStream("other");
  EXPECT_FALSE(not_fresh.RestoreState(checkpoint).ok());
}

TEST(EngineCheckpointTest, RejectsGarbage) {
  MonitorEngine engine;
  EXPECT_FALSE(
      engine.RestoreState(std::vector<uint8_t>{1, 2, 3}).ok());
}

TEST(EngineCheckpointTest, RejectsTruncatedCheckpoint) {
  MonitorEngine original;
  const int64_t stream = original.AddStream("s");
  ASSERT_TRUE(original.AddQuery(stream, "q", {1.0, 2.0}, Options(1.0)).ok());
  std::vector<uint8_t> checkpoint = original.SerializeState();
  checkpoint.resize(checkpoint.size() - 8);
  MonitorEngine restored;
  EXPECT_FALSE(restored.RestoreState(checkpoint).ok());
}

TEST(VectorMatcherSerializeTest, RoundTripContinuesIdentically) {
  util::Rng rng(813);
  ts::VectorSeries query(2);
  for (int i = 0; i < 5; ++i) {
    query.AppendRow(std::vector<double>{rng.Gaussian(), rng.Gaussian()});
  }
  core::VectorSpringMatcher a(query, Options(3.0));
  std::vector<double> row(2);
  core::Match ma;
  core::Match mb;
  for (int t = 0; t < 100; ++t) {
    for (double& v : row) v = rng.Gaussian();
    a.Update(row, &ma);
  }
  auto restored =
      core::VectorSpringMatcher::DeserializeState(a.SerializeState());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  core::VectorSpringMatcher& b = *restored;
  EXPECT_EQ(b.dims(), 2);
  EXPECT_EQ(b.ticks_processed(), a.ticks_processed());
  for (int t = 0; t < 200; ++t) {
    for (double& v : row) v = rng.Gaussian();
    ASSERT_EQ(a.Update(row, &ma), b.Update(row, &mb));
  }
  EXPECT_EQ(a.Flush(&ma), b.Flush(&mb));
}

}  // namespace
}  // namespace monitor
}  // namespace springdtw
