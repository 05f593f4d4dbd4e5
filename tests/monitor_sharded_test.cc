// ShardedMonitor: the scale-out shell must be *observably identical* to a
// single MonitorEngine fed the same interleaved workload — same matches,
// same deterministic order for any worker count (1, 2, 8), including
// across a mid-stream checkpoint restored into a different worker count.
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/spring.h"
#include "gtest/gtest.h"
#include "monitor/engine.h"
#include "monitor/sharded_monitor.h"
#include "monitor/sink.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace springdtw {
namespace monitor {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct Workload {
  struct Stream {
    std::string name;
    bool repair_missing = true;
  };
  struct Query {
    int64_t stream_id = 0;
    std::string name;
    std::vector<double> values;
    core::SpringOptions options;
  };
  std::vector<Stream> streams;
  std::vector<Query> queries;
  /// Interleaved (stream, value) pushes.
  std::vector<std::pair<int64_t, double>> ops;
};

Workload MakeWorkload(uint64_t seed, size_t num_ops) {
  util::Rng rng(seed);
  Workload w;
  for (int s = 0; s < 6; ++s) {
    // All streams repair; NaN errors on repair-off streams are covered
    // separately.
    w.streams.push_back({"stream-" + std::to_string(s), true});
  }
  const std::vector<std::vector<double>> patterns = {
      {1.0, 2.0, 3.0}, {3.0, 1.0}, {2.0, 2.0, 2.0}, {0.0, 4.0}};
  for (int64_t s = 0; s < 6; ++s) {
    const int queries_here = 1 + static_cast<int>(s % 3);
    for (int q = 0; q < queries_here; ++q) {
      Workload::Query query;
      query.stream_id = s;
      query.name = "q" + std::to_string(s) + "-" + std::to_string(q);
      query.values = patterns[static_cast<size_t>((s + q) % 4)];
      query.options.epsilon = (q % 2 == 0) ? 0.5 : 6.0;
      if (q == 2) query.options.max_match_length = 5;
      w.queries.push_back(std::move(query));
    }
  }
  w.ops.reserve(num_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    const int64_t stream = rng.UniformInt(0, 5);
    double value = static_cast<double>(rng.UniformInt(0, 4));
    if (rng.Bernoulli(0.04)) value = kNaN;
    w.ops.emplace_back(stream, value);
  }
  return w;
}

/// Single-engine reference: same topology, same interleaved pushes.
std::vector<CollectSink::Entry> RunReference(const Workload& w) {
  MonitorEngine engine;
  CollectSink sink;
  engine.AddSink(&sink);
  for (const auto& stream : w.streams) {
    engine.AddStream(stream.name, stream.repair_missing);
  }
  for (const auto& query : w.queries) {
    EXPECT_TRUE(engine
                    .AddQuery(query.stream_id, query.name, query.values,
                              query.options)
                    .ok());
  }
  for (const auto& [stream, value] : w.ops) {
    EXPECT_TRUE(engine.Push(stream, value).ok());
  }
  engine.FlushAll();
  return sink.entries();
}

void BuildTopology(const Workload& w, ShardedMonitor* monitor) {
  for (const auto& stream : w.streams) {
    monitor->AddStream(stream.name, stream.repair_missing);
  }
  for (const auto& query : w.queries) {
    ASSERT_TRUE(monitor
                    ->AddQuery(query.stream_id, query.name, query.values,
                               query.options)
                    .ok());
  }
}

void ExpectSameEntries(const std::vector<CollectSink::Entry>& got,
                       const std::vector<CollectSink::Entry>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i].origin.stream_id, expected[i].origin.stream_id) << i;
    EXPECT_EQ(got[i].origin.query_id, expected[i].origin.query_id) << i;
    EXPECT_EQ(got[i].origin.stream_name, expected[i].origin.stream_name);
    EXPECT_EQ(got[i].origin.query_name, expected[i].origin.query_name);
    EXPECT_EQ(got[i].match.start, expected[i].match.start) << i;
    EXPECT_EQ(got[i].match.end, expected[i].match.end) << i;
    EXPECT_EQ(got[i].match.distance, expected[i].match.distance) << i;
    EXPECT_EQ(got[i].match.report_time, expected[i].match.report_time) << i;
  }
}

class ShardedMonitorTest : public ::testing::TestWithParam<int64_t> {};

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ShardedMonitorTest,
                         ::testing::Values<int64_t>(1, 2, 8));

TEST_P(ShardedMonitorTest, MatchesSingleEngineByteForByte) {
  const Workload w = MakeWorkload(1234, 4000);
  const std::vector<CollectSink::Entry> expected = RunReference(w);
  ASSERT_FALSE(expected.empty());

  ShardedMonitorOptions options;
  options.num_workers = GetParam();
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);
  BuildTopology(w, &monitor);
  monitor.Start();
  for (const auto& [stream, value] : w.ops) {
    ASSERT_TRUE(monitor.Push(stream, value).ok());
  }
  monitor.FlushAll();
  monitor.Stop();
  ExpectSameEntries(sink.entries(), expected);

  // Monitor-level stats mirror the reference engine's.
  MonitorEngine reference;
  for (const auto& stream : w.streams) {
    reference.AddStream(stream.name, stream.repair_missing);
  }
  for (const auto& query : w.queries) {
    ASSERT_TRUE(reference
                    .AddQuery(query.stream_id, query.name, query.values,
                              query.options)
                    .ok());
  }
  for (const auto& [stream, value] : w.ops) {
    ASSERT_TRUE(reference.Push(stream, value).ok());
  }
  reference.FlushAll();
  for (int64_t q = 0; q < monitor.num_queries(); ++q) {
    EXPECT_EQ(monitor.stats(q).ticks, reference.stats(q).ticks) << q;
    EXPECT_EQ(monitor.stats(q).matches, reference.stats(q).matches) << q;
  }
}

TEST_P(ShardedMonitorTest, PushBatchMatchesReference) {
  const Workload w = MakeWorkload(99, 3000);
  const std::vector<CollectSink::Entry> expected = RunReference(w);

  ShardedMonitorOptions options;
  options.num_workers = GetParam();
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);
  BuildTopology(w, &monitor);
  monitor.Start();
  // Group consecutive same-stream ops into batch pushes.
  std::vector<double> run;
  size_t i = 0;
  while (i < w.ops.size()) {
    const int64_t stream = w.ops[i].first;
    run.clear();
    while (i < w.ops.size() && w.ops[i].first == stream) {
      run.push_back(w.ops[i].second);
      ++i;
    }
    ASSERT_TRUE(monitor.PushBatch(stream, run).ok());
  }
  monitor.FlushAll();
  monitor.Stop();
  ExpectSameEntries(sink.entries(), expected);
}

TEST_P(ShardedMonitorTest, CheckpointReshardsIntoAnyWorkerCount) {
  const Workload w = MakeWorkload(77, 3000);
  const std::vector<CollectSink::Entry> expected = RunReference(w);
  const size_t split = w.ops.size() / 2 + 13;

  // First half at 2 workers.
  ShardedMonitorOptions first_options;
  first_options.num_workers = 2;
  ShardedMonitor first(first_options);
  CollectSink first_sink;
  first.AddSink(&first_sink);
  BuildTopology(w, &first);
  first.Start();
  for (size_t i = 0; i < split; ++i) {
    ASSERT_TRUE(first.Push(w.ops[i].first, w.ops[i].second).ok());
  }
  const std::vector<uint8_t> checkpoint = first.SerializeState();
  first.Stop();

  // Second half at the parameterized worker count, restored from the
  // 2-worker checkpoint.
  ShardedMonitorOptions second_options;
  second_options.num_workers = GetParam();
  ShardedMonitor second(second_options);
  CollectSink second_sink;
  second.AddSink(&second_sink);
  ASSERT_TRUE(second.RestoreState(checkpoint).ok());
  ASSERT_EQ(second.num_streams(), static_cast<int64_t>(w.streams.size()));
  ASSERT_EQ(second.num_queries(), static_cast<int64_t>(w.queries.size()));
  second.Start();
  for (size_t i = split; i < w.ops.size(); ++i) {
    ASSERT_TRUE(second.Push(w.ops[i].first, w.ops[i].second).ok());
  }
  second.FlushAll();

  // first-half + second-half deliveries == the uninterrupted reference.
  std::vector<CollectSink::Entry> combined = first_sink.entries();
  combined.insert(combined.end(), second_sink.entries().begin(),
                  second_sink.entries().end());
  ExpectSameEntries(combined, expected);

  // A checkpoint's bytes are worker-count independent: re-serializing the
  // restored monitor reproduces the original checkpoint exactly.
  ShardedMonitorOptions third_options;
  third_options.num_workers = GetParam();
  ShardedMonitor third(third_options);
  ASSERT_TRUE(third.RestoreState(checkpoint).ok());
  EXPECT_EQ(third.SerializeState(), checkpoint);
  second.Stop();
}

// A query added mid-stream counts start, end, report_time and its ticks in
// its own tick clock, but its matches carry the stream-wide seq of the
// reporting tick: the key that orders delivery and that the WAL's delivery
// watermark compares against.
TEST_P(ShardedMonitorTest, LateQueryMatchCarriesStreamSeq) {
  ShardedMonitorOptions options;
  options.num_workers = GetParam();
  options.collect_metrics = true;
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);
  const core::SpringOptions eps{.epsilon = 0.5};
  const int64_t other = monitor.AddStream("other");
  const int64_t stream = monitor.AddStream("s");
  ASSERT_TRUE(monitor.AddQuery(stream, "early", {1.0, 2.0, 3.0}, eps).ok());
  monitor.Start();
  for (int t = 0; t < 50; ++t) {
    ASSERT_TRUE(monitor.Push(stream, 9.0).ok());
    ASSERT_TRUE(monitor.Push(other, 9.0).ok());
  }
  // Seqs 0..99 are taken: the pattern lands on seqs 100..102 and both
  // queries report on the 9.0 at seq 103.
  ASSERT_TRUE(monitor.AddQuery(stream, "late", {1.0, 2.0, 3.0}, eps).ok());
  for (const double x : {1.0, 2.0, 3.0, 9.0}) {
    ASSERT_TRUE(monitor.Push(stream, x).ok());
  }
  monitor.FlushAll();
  monitor.Stop();

  ASSERT_EQ(sink.entries().size(), 2u);
  const CollectSink::Entry& early = sink.entries()[0];
  const CollectSink::Entry& late = sink.entries()[1];
  ASSERT_EQ(early.origin.query_name, "early")
      << "same reporting seq: the query id breaks the tie";
  ASSERT_EQ(late.origin.query_name, "late");
  EXPECT_EQ(early.origin.global_seq, 103);
  EXPECT_EQ(late.origin.global_seq, 103);
  EXPECT_EQ(early.match.start, 50);
  EXPECT_EQ(early.match.report_time, 53);
  EXPECT_EQ(late.match.start, 0);
  EXPECT_EQ(late.match.report_time, 3);
  EXPECT_EQ(monitor.ListQueries()[1].last_match_seq, 103);

  // Every view of the late query's ticks reads its own clock: 4, not the
  // stream's 54.
  constexpr int64_t kLate = 1;
  EXPECT_EQ(monitor.stats(kLate).ticks, 4);
  EXPECT_EQ(monitor.ListQueries()[kLate].ticks, 4);
  const obs::MetricsSnapshot merged = monitor.MergedMetricsSnapshot();
  const obs::FamilySnapshot* ticks = merged.Find("spring_ticks_total");
  ASSERT_NE(ticks, nullptr);
  int64_t late_series = 0;
  for (const obs::SeriesSnapshot& series : ticks->series) {
    for (const obs::Label& label : series.labels) {
      if (label.key != "query" || label.value != "late") continue;
      EXPECT_EQ(series.counter_value, 4);
      ++late_series;
    }
  }
  EXPECT_EQ(late_series, 1);
  const std::string queryz = monitor.telemetry()->QueryzJson();
  EXPECT_NE(queryz.find("\"name\":\"late\",\"ticks\":4,"), std::string::npos)
      << queryz;

  // The count survives a checkpoint into another worker count, and the
  // restored monitor re-serializes to the same bytes.
  const std::vector<uint8_t> checkpoint = monitor.SerializeState();
  ShardedMonitorOptions restored_options;
  restored_options.num_workers = GetParam() == 2 ? 8 : 2;
  ShardedMonitor restored(restored_options);
  ASSERT_TRUE(restored.RestoreState(checkpoint).ok());
  EXPECT_EQ(restored.stats(kLate).ticks, 4);
  EXPECT_EQ(restored.ListQueries()[kLate].ticks, 4);
  EXPECT_EQ(restored.SerializeState(), checkpoint);
}

TEST(ShardedMonitorTest, MergedMetricsSumAcrossShards) {
  const Workload w = MakeWorkload(5, 2000);
  ShardedMonitorOptions options;
  options.num_workers = 4;
  options.collect_metrics = true;
  ShardedMonitor monitor(options);
  BuildTopology(w, &monitor);
  monitor.Start();
  for (const auto& [stream, value] : w.ops) {
    ASSERT_TRUE(monitor.Push(stream, value).ok());
  }
  monitor.Drain();
  const obs::MetricsSnapshot merged = monitor.MergedMetricsSnapshot();
  monitor.Stop();

  const obs::FamilySnapshot* pushes = merged.Find("spring_pushes_total");
  ASSERT_NE(pushes, nullptr);
  int64_t total_pushes = 0;
  for (const auto& series : pushes->series) {
    total_pushes += series.counter_value;
  }
  EXPECT_EQ(total_pushes, static_cast<int64_t>(w.ops.size()));

  const obs::FamilySnapshot* streams_gauge = merged.Find("spring_streams");
  ASSERT_NE(streams_gauge, nullptr);
  ASSERT_EQ(streams_gauge->series.size(), 1u);
  // Gauges sum across shards: every stream lives on exactly one shard.
  EXPECT_EQ(streams_gauge->series[0].gauge_value,
            static_cast<double>(w.streams.size()));
}

TEST(ShardedMonitorTest, ErrorsAndLifecycleEdges) {
  ShardedMonitorOptions options;
  options.num_workers = 2;
  ShardedMonitor monitor(options);
  const int64_t strict = monitor.AddStream("strict", /*repair=*/false);
  ASSERT_TRUE(
      monitor.AddQuery(strict, "q", {1.0, 2.0}, core::SpringOptions{}).ok());
  EXPECT_FALSE(monitor.AddQuery(99, "bad", {1.0}, core::SpringOptions{}).ok());
  EXPECT_FALSE(monitor.AddQuery(strict, "empty", {}, core::SpringOptions{})
                   .ok());

  monitor.Start();
  EXPECT_FALSE(monitor.Push(99, 1.0).ok());
  EXPECT_FALSE(monitor.Push(strict, kNaN).ok());
  EXPECT_TRUE(monitor.Push(strict, 1.0).ok());

  // Stop is idempotent and restart works.
  monitor.Stop();
  monitor.Stop();
  monitor.Start();
  EXPECT_TRUE(monitor.Push(strict, 2.0).ok());
  monitor.FlushAll();
  monitor.Stop();

  EXPECT_GE(monitor.Footprint().TotalBytes(), 0);
  EXPECT_EQ(monitor.stats(0).ticks, 2);
}

TEST(ShardedMonitorTest, TopologyGrowsWhileRunning) {
  ShardedMonitorOptions options;
  options.num_workers = 3;
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);
  const int64_t early = monitor.AddStream("early");
  ASSERT_TRUE(monitor
                  .AddQuery(early, "q0", {1.0, 2.0, 3.0},
                            core::SpringOptions{.epsilon = 0.5})
                  .ok());
  monitor.Start();
  for (const double x : {9.0, 1.0, 2.0, 3.0, 9.0}) {
    ASSERT_TRUE(monitor.Push(early, x).ok());
  }
  // Mid-flight topology growth (drains internally).
  const int64_t late = monitor.AddStream("late");
  ASSERT_TRUE(monitor
                  .AddQuery(late, "q1", {1.0, 2.0, 3.0},
                            core::SpringOptions{.epsilon = 0.5})
                  .ok());
  for (const double x : {9.0, 1.0, 2.0, 3.0, 9.0}) {
    ASSERT_TRUE(monitor.Push(late, x).ok());
  }
  monitor.FlushAll();
  monitor.Stop();
  EXPECT_EQ(sink.entries().size(), 2u);
  EXPECT_EQ(monitor.stats(0).matches, 1);
  EXPECT_EQ(monitor.stats(1).matches, 1);
}

}  // namespace
}  // namespace monitor
}  // namespace springdtw
