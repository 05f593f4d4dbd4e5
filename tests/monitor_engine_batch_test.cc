// MonitorEngine against one standalone core::SpringMatcher per query: the
// engine's per-stream SoA pools must be observably identical to the
// reference — same matches in the same sink order, same stats, query
// snapshots byte-identical to SpringMatcher::SerializeState in canonical
// form — and PushBatch must equal per-value Push, counters included.
// Checkpoint bytes across versions are pinned by golden_checkpoint_test.cc.
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/spring.h"
#include "core/spring_batch.h"
#include "gtest/gtest.h"
#include "monitor/engine.h"
#include "monitor/sharded_monitor.h"
#include "monitor/sink.h"
#include "obs/observability.h"
#include "ts/repair.h"
#include "util/random.h"

namespace springdtw {
namespace monitor {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct QuerySpec {
  int64_t stream = 0;
  std::string name;
  std::vector<double> values;
  core::SpringOptions options;
};

/// Two streams ("hot" repairs NaN, "cold" does not), five queries (one
/// stream holds three), mixed options.
std::vector<QuerySpec> Topology() {
  core::SpringOptions tight;
  tight.epsilon = 0.5;
  core::SpringOptions loose;
  loose.epsilon = 8.0;
  core::SpringOptions constrained;
  constrained.epsilon = 8.0;
  constrained.max_match_length = 6;
  return {{0, "ramp", {1.0, 2.0, 3.0}, tight},
          {0, "dip", {3.0, 1.0}, loose},
          {0, "short", {2.0, 2.0}, constrained},
          {1, "ramp2", {1.0, 2.0, 3.0}, tight},
          {1, "flat", {9.0, 9.0}, loose}};
}

void BuildTopology(MonitorEngine* engine) {
  engine->AddStream("hot");
  engine->AddStream("cold", /*repair_missing=*/false);
  for (const QuerySpec& spec : Topology()) {
    ASSERT_TRUE(
        engine->AddQuery(spec.stream, spec.name, spec.values, spec.options)
            .ok());
  }
}

/// `bytes` in the pools' canonical snapshot form (dead cells as +∞ from
/// start 0, no best match above ε): what a pool restoring them writes.
std::vector<uint8_t> Canonical(const std::vector<uint8_t>& bytes) {
  core::SpringBatchPool pool;
  const auto index = pool.AddQueryFromSnapshot(bytes);
  EXPECT_TRUE(index.ok());
  return index.ok() ? pool.SerializeQuery(*index) : std::vector<uint8_t>{};
}

/// The engine's contract spelled out with one SpringMatcher per query:
/// hold-last NaN repair on "hot", and per tick, matches delivered in
/// query-id order. A standalone one-query pool per query, fed the same
/// ticks, recounts the cells its ε-frontier computes.
class Reference {
 public:
  Reference() {
    for (const QuerySpec& spec : Topology()) {
      specs_.push_back(spec);
      matchers_.emplace_back(spec.values, spec.options);
      pools_.emplace_back();
      pools_.back().AddQuery(spec.values, spec.options);
    }
  }

  void Push(int64_t stream, double x) {
    if (stream == 0) {
      if (!seeded_ && !ts::IsMissing(x)) {
        repairer_ = ts::StreamingRepairer(x);
        seeded_ = true;
      }
      x = repairer_.Next(x);
    }
    core::Match match;
    for (size_t q = 0; q < matchers_.size(); ++q) {
      if (specs_[q].stream != stream) continue;
      if (matchers_[q].Update(x, &match)) Record(q, match);
      pools_[q].PushBatch(std::span<const double>(&x, 1), nullptr);
    }
  }

  void FlushAll() {
    core::Match match;
    for (size_t q = 0; q < matchers_.size(); ++q) {
      if (matchers_[q].Flush(&match)) Record(q, match);
    }
  }

  const std::vector<CollectSink::Entry>& entries() const { return entries_; }
  const core::SpringMatcher& matcher(int64_t q) const {
    return matchers_[static_cast<size_t>(q)];
  }
  int64_t cells_computed(int64_t q) const {
    return pools_[static_cast<size_t>(q)].cells_computed_total(0);
  }

 private:
  void Record(size_t q, const core::Match& match) {
    CollectSink::Entry entry;
    entry.origin.stream_id = specs_[q].stream;
    entry.origin.query_id = static_cast<int64_t>(q);
    entry.origin.query_name = specs_[q].name;
    entry.match = match;
    entries_.push_back(entry);
  }

  std::vector<QuerySpec> specs_;
  std::vector<core::SpringMatcher> matchers_;
  std::vector<core::SpringBatchPool> pools_;
  ts::StreamingRepairer repairer_;
  bool seeded_ = false;
  std::vector<CollectSink::Entry> entries_;
};

std::vector<double> TestStream(uint64_t seed, size_t n, bool with_nan) {
  util::Rng rng(seed);
  std::vector<double> stream(n);
  for (double& x : stream) {
    x = static_cast<double>(rng.UniformInt(0, 4));
    if (with_nan && rng.Bernoulli(0.05)) x = kNaN;
  }
  return stream;
}

/// Feeds `values` to `stream_id` in `chunk`-value PushBatch runs.
int64_t PushInChunks(MonitorEngine* engine, int64_t stream_id,
                     const std::vector<double>& values, size_t chunk) {
  int64_t reported = 0;
  for (size_t offset = 0; offset < values.size(); offset += chunk) {
    const size_t count = std::min(chunk, values.size() - offset);
    const auto pushed = engine->PushBatch(
        stream_id, std::span<const double>(values.data() + offset, count));
    EXPECT_TRUE(pushed.ok());
    reported += pushed.ok() ? *pushed : 0;
  }
  return reported;
}

void ExpectSameEntries(const std::vector<CollectSink::Entry>& got,
                       const std::vector<CollectSink::Entry>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i].origin.stream_id, expected[i].origin.stream_id);
    EXPECT_EQ(got[i].origin.query_id, expected[i].origin.query_id);
    EXPECT_EQ(got[i].origin.query_name, expected[i].origin.query_name);
    EXPECT_EQ(got[i].match.start, expected[i].match.start);
    EXPECT_EQ(got[i].match.end, expected[i].match.end);
    EXPECT_EQ(got[i].match.distance, expected[i].match.distance);
    EXPECT_EQ(got[i].match.report_time, expected[i].match.report_time);
  }
}

int64_t CounterTotal(const obs::MetricsSnapshot& snapshot,
                     std::string_view family) {
  const obs::FamilySnapshot* f = snapshot.Find(family);
  if (f == nullptr) return -1;
  int64_t total = 0;
  for (const obs::SeriesSnapshot& s : f->series) total += s.counter_value;
  return total;
}

TEST(MonitorEngineBatchTest, MatchesAndStatsIdenticalToPerMatcherMode) {
  MonitorEngine engine;
  CollectSink sink;
  engine.AddSink(&sink);
  BuildTopology(&engine);
  Reference reference;

  const std::vector<double> hot = TestStream(7, 400, /*with_nan=*/true);
  const std::vector<double> cold = TestStream(11, 400, /*with_nan=*/false);
  for (size_t t = 0; t < hot.size(); ++t) {
    ASSERT_TRUE(engine.Push(0, hot[t]).ok());
    reference.Push(0, hot[t]);
    ASSERT_TRUE(engine.Push(1, cold[t]).ok());
    reference.Push(1, cold[t]);
  }
  engine.FlushAll();
  reference.FlushAll();
  ExpectSameEntries(sink.entries(), reference.entries());
  ASSERT_FALSE(reference.entries().empty());

  int64_t cells = 0;
  int64_t full_cells = 0;
  for (int64_t q = 0; q < engine.num_queries(); ++q) {
    EXPECT_EQ(engine.stats(q).ticks, reference.matcher(q).ticks_processed());
    EXPECT_EQ(engine.QueryCellsComputed(q), reference.cells_computed(q));
    cells += engine.QueryCellsComputed(q);
    full_cells += reference.matcher(q).cells_computed_total();
  }
  EXPECT_LT(cells, full_cells)
      << "the pools compute the ε-frontier, not full columns";
}

TEST(MonitorEngineBatchTest, PushBatchEqualsPerValuePush) {
  MonitorEngine tick_engine;
  MonitorEngine batch_engine;
  CollectSink tick_sink;
  CollectSink batch_sink;
  tick_engine.AddSink(&tick_sink);
  batch_engine.AddSink(&batch_sink);
  BuildTopology(&tick_engine);
  BuildTopology(&batch_engine);
  Reference reference;

  const std::vector<double> stream = TestStream(21, 600, /*with_nan=*/true);
  int64_t tick_reported = 0;
  for (const double x : stream) {
    tick_reported += *tick_engine.Push(0, x);
    reference.Push(0, x);
  }
  const int64_t batch_reported =
      PushInChunks(&batch_engine, 0, stream, /*chunk=*/37);
  EXPECT_EQ(batch_reported, tick_reported);
  ExpectSameEntries(batch_sink.entries(), reference.entries());
  ExpectSameEntries(tick_sink.entries(), reference.entries());
  EXPECT_EQ(batch_engine.stats(0).ticks, tick_engine.stats(0).ticks);
  EXPECT_EQ(batch_engine.SerializeState(), tick_engine.SerializeState());
}

TEST(MonitorEngineBatchTest, PushBatchMissingValueStopsAtTheNaN) {
  MonitorEngine engine;
  BuildTopology(&engine);
  // Stream 1 ("cold") has repair disabled: the prefix before the NaN is
  // processed, then the push fails — exactly the per-value Push contract.
  const std::vector<double> values = {1.0, 2.0, kNaN, 3.0};
  EXPECT_FALSE(engine.PushBatch(1, values).ok());
  EXPECT_EQ(engine.stats(3).ticks, 2);
}

TEST(MonitorEngineBatchTest, CheckpointsArePortableAcrossModes) {
  // Portable between the engine and standalone matchers: each query record
  // of the checkpoint holds the reference SpringMatcher's bytes in
  // canonical form, and a restored engine continues exactly like the
  // reference.
  MonitorEngine engine;
  BuildTopology(&engine);
  Reference reference;
  const std::vector<double> stream = TestStream(5, 321, /*with_nan=*/true);
  PushInChunks(&engine, 0, stream, /*chunk=*/16);
  for (const double x : stream) reference.Push(0, x);
  for (int64_t q = 0; q < engine.num_queries(); ++q) {
    EXPECT_EQ(engine.SerializeQueryState(q),
              Canonical(reference.matcher(q).SerializeState()))
        << "query " << q;
  }

  const std::vector<uint8_t> checkpoint = engine.SerializeState();
  MonitorEngine restored;
  ASSERT_TRUE(restored.RestoreState(checkpoint).ok());
  EXPECT_EQ(restored.SerializeState(), checkpoint);
  CollectSink sink;
  restored.AddSink(&sink);
  const size_t before = reference.entries().size();
  const std::vector<double> tail = TestStream(6, 200, /*with_nan=*/false);
  for (const double x : tail) {
    ASSERT_TRUE(restored.Push(0, x).ok());
    reference.Push(0, x);
  }
  restored.FlushAll();
  reference.FlushAll();
  ExpectSameEntries(
      sink.entries(),
      std::vector<CollectSink::Entry>(
          reference.entries().begin() + static_cast<std::ptrdiff_t>(before),
          reference.entries().end()));
}

TEST(MonitorEngineBatchTest, QuerySnapshotRoundTripsThroughAnyMode) {
  MonitorEngine engine;
  BuildTopology(&engine);
  Reference reference;
  const std::vector<double> stream = TestStream(9, 150, /*with_nan=*/false);
  for (const double x : stream) {
    ASSERT_TRUE(engine.Push(0, x).ok());
    reference.Push(0, x);
  }

  // Lift query 1 ("dip") out of the engine and resume it on a fresh engine
  // — the resharding primitive. Its bytes are the standalone matcher's in
  // canonical form.
  const std::vector<uint8_t> snapshot = engine.SerializeQueryState(1);
  EXPECT_EQ(snapshot, Canonical(reference.matcher(1).SerializeState()));
  MonitorEngine target;
  const int64_t stream_id = target.AddStream("hot");
  const auto query_id =
      target.AddQueryFromSnapshot(stream_id, "dip", snapshot);
  ASSERT_TRUE(query_id.ok());
  EXPECT_EQ(target.SerializeQueryState(*query_id), snapshot);

  // And out into a standalone matcher.
  auto matcher = core::SpringMatcher::DeserializeState(snapshot);
  ASSERT_TRUE(matcher.ok());
  EXPECT_EQ(matcher->SerializeState(), snapshot);

  // Corrupt snapshots are rejected.
  std::vector<uint8_t> corrupt = snapshot;
  corrupt.resize(corrupt.size() / 2);
  EXPECT_FALSE(target.AddQueryFromSnapshot(stream_id, "bad", corrupt).ok());
  EXPECT_EQ(target.num_queries(), 1);
}

TEST(MonitorEngineBatchTest, ObservabilityCountsMatchAcrossModes) {
  // Push vs PushBatch: every counter family agrees series by series.
  obs::Observability tick_obs;
  obs::Observability batch_obs;
  MonitorEngine tick_engine;
  MonitorEngine batch_engine;
  tick_engine.AttachObservability(&tick_obs);
  batch_engine.AttachObservability(&batch_obs);
  BuildTopology(&tick_engine);
  BuildTopology(&batch_engine);

  const std::vector<double> stream = TestStream(13, 300, /*with_nan=*/true);
  for (const double x : stream) ASSERT_TRUE(tick_engine.Push(0, x).ok());
  PushInChunks(&batch_engine, 0, stream, /*chunk=*/23);
  tick_engine.FlushAll();
  batch_engine.FlushAll();
  tick_engine.RefreshObservabilityGauges();
  batch_engine.RefreshObservabilityGauges();

  const obs::MetricsSnapshot tick_snap = tick_obs.registry().Snapshot();
  const obs::MetricsSnapshot batch_snap = batch_obs.registry().Snapshot();
  EXPECT_GT(CounterTotal(tick_snap, "spring_candidates_opened_total"), 0);
  EXPECT_GT(CounterTotal(tick_snap, "spring_best_improvements_total"), 0);
  ASSERT_EQ(tick_snap.families.size(), batch_snap.families.size());
  for (size_t f = 0; f < tick_snap.families.size(); ++f) {
    const auto& tf = tick_snap.families[f];
    const auto& bf = batch_snap.families[f];
    EXPECT_EQ(tf.name, bf.name);
    if (tf.kind != obs::MetricKind::kCounter) continue;
    ASSERT_EQ(tf.series.size(), bf.series.size()) << tf.name;
    for (size_t s = 0; s < tf.series.size(); ++s) {
      EXPECT_EQ(tf.series[s].labels, bf.series[s].labels) << tf.name;
      EXPECT_EQ(tf.series[s].counter_value, bf.series[s].counter_value)
          << tf.name;
    }
  }
}

TEST(MonitorEngineBatchTest, ShardedBatchedSignalsMatchPerValueEngine) {
  // The candidate / best-match signals come from the kernel, so a sharded
  // monitor ingesting through PushBatch counts exactly what a per-value
  // engine counts, and traces the events.
  obs::ObservabilityOptions obs_options;
  obs_options.trace_capacity = 1 << 16;
  obs::Observability engine_obs(obs_options);
  MonitorEngine engine;
  engine.AttachObservability(&engine_obs);
  BuildTopology(&engine);

  ShardedMonitorOptions options;
  options.num_workers = 2;
  options.collect_metrics = true;
  options.publish_interval_ms = 0.0;
  ShardedMonitor monitor(options);
  monitor.AddStream("hot");
  monitor.AddStream("cold", /*repair_missing=*/false);
  for (const QuerySpec& spec : Topology()) {
    ASSERT_TRUE(
        monitor.AddQuery(spec.stream, spec.name, spec.values, spec.options)
            .ok());
  }
  monitor.Start();

  const std::vector<double> hot = TestStream(17, 500, /*with_nan=*/true);
  const std::vector<double> cold = TestStream(19, 500, /*with_nan=*/false);
  for (const auto& [stream_id, values] :
       {std::pair<int64_t, const std::vector<double>*>{0, &hot},
        std::pair<int64_t, const std::vector<double>*>{1, &cold}}) {
    for (const double x : *values) ASSERT_TRUE(engine.Push(stream_id, x).ok());
    constexpr size_t kChunk = 29;
    for (size_t offset = 0; offset < values->size(); offset += kChunk) {
      const size_t count = std::min(kChunk, values->size() - offset);
      ASSERT_TRUE(monitor
                      .PushBatch(stream_id,
                                 std::span<const double>(
                                     values->data() + offset, count))
                      .ok());
    }
  }
  monitor.Drain();

  const obs::MetricsSnapshot expected = engine_obs.registry().Snapshot();
  const obs::MetricsSnapshot merged = monitor.MergedMetricsSnapshot();
  for (const char* family :
       {"spring_candidates_opened_total", "spring_best_improvements_total",
        "spring_matches_total", "spring_ticks_total"}) {
    EXPECT_GT(CounterTotal(expected, family), 0) << family;
    EXPECT_EQ(CounterTotal(merged, family), CounterTotal(expected, family))
        << family;
  }

  bool saw_opened = false;
  bool saw_improved = false;
  for (const obs::TraceEvent& event :
       monitor.telemetry()->PublishedTraces().events) {
    saw_opened |= event.kind == obs::TraceEventKind::kCandidateOpened;
    saw_improved |= event.kind == obs::TraceEventKind::kBestImproved;
  }
  EXPECT_TRUE(saw_opened);
  EXPECT_TRUE(saw_improved);
  monitor.Stop();
}

}  // namespace
}  // namespace monitor
}  // namespace springdtw
