#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "monitor/engine.h"
#include "monitor/sink.h"
#include "obs/observability.h"
#include "ts/vector_series.h"

namespace springdtw {
namespace monitor {
namespace {

core::SpringOptions Options(double epsilon) {
  core::SpringOptions options;
  options.epsilon = epsilon;
  return options;
}

// A stream with two disjoint occurrences of {1,2,3} separated by
// off-pattern values.
std::vector<double> TwoMatchStream() {
  return {9.0, 1.0, 2.0, 3.0, 9.0, 9.0, 1.0, 2.0, 3.0, 9.0, 9.0};
}

int64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                     std::string_view family) {
  const obs::FamilySnapshot* f = snapshot.Find(family);
  if (f == nullptr) return -1;
  int64_t total = 0;
  for (const obs::SeriesSnapshot& s : f->series) total += s.counter_value;
  return total;
}

TEST(MonitorObservabilityTest, CountersMatchQueryStats) {
  obs::Observability observability;
  MonitorEngine engine;
  engine.AttachObservability(&observability);
  CollectSink sink;
  engine.AddSink(&sink);
  const int64_t stream = engine.AddStream("s0");
  const auto query =
      engine.AddQuery(stream, "pattern", {1.0, 2.0, 3.0}, Options(0.5));
  ASSERT_TRUE(query.ok());

  for (const double x : TwoMatchStream()) {
    ASSERT_TRUE(engine.Push(stream, x).ok());
  }
  engine.FlushAll();

  const QueryStats& stats = engine.stats(*query);
  const obs::MetricsSnapshot snapshot =
      observability.registry().Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "spring_ticks_total"), stats.ticks);
  EXPECT_EQ(CounterValue(snapshot, "spring_matches_total"), stats.matches);
  EXPECT_EQ(CounterValue(snapshot, "spring_pushes_total"), stats.ticks);
  EXPECT_EQ(stats.matches, 2);
  EXPECT_GE(CounterValue(snapshot, "spring_candidates_opened_total"), 2);
  EXPECT_GE(CounterValue(snapshot, "spring_best_improvements_total"), 1);

  // The per-query series carries stream/query/space labels.
  const obs::FamilySnapshot* matches =
      snapshot.Find("spring_matches_total");
  ASSERT_NE(matches, nullptr);
  ASSERT_EQ(matches->series.size(), 1u);
  const obs::Labels want = {obs::Label{"stream", "s0"},
                            obs::Label{"query", "pattern"},
                            obs::Label{"space", "scalar"}};
  EXPECT_EQ(matches->series[0].labels, want);
}

TEST(MonitorObservabilityTest, ReportDelayHistogramMatchesOutputDelay) {
  obs::Observability observability;
  MonitorEngine engine;
  engine.AttachObservability(&observability);
  const int64_t stream = engine.AddStream("s0");
  const auto query =
      engine.AddQuery(stream, "q", {1.0, 2.0, 3.0}, Options(0.5));
  ASSERT_TRUE(query.ok());
  for (const double x : TwoMatchStream()) {
    ASSERT_TRUE(engine.Push(stream, x).ok());
  }

  const QueryStats& stats = engine.stats(*query);
  ASSERT_EQ(stats.matches, 2);
  const obs::MetricsSnapshot snapshot =
      observability.registry().Snapshot();
  const obs::FamilySnapshot* family =
      snapshot.Find("spring_report_delay_ticks");
  ASSERT_NE(family, nullptr);
  ASSERT_EQ(family->series.size(), 1u);
  const obs::HistogramSnapshot& h = family->series[0].histogram;
  EXPECT_EQ(h.count(), stats.output_delay.count());
  EXPECT_DOUBLE_EQ(h.sum(), stats.output_delay.sum());
  EXPECT_DOUBLE_EQ(h.mean(), stats.output_delay.mean());
  EXPECT_DOUBLE_EQ(h.min(), stats.output_delay.min());
  EXPECT_DOUBLE_EQ(h.max(), stats.output_delay.max());
}

TEST(MonitorObservabilityTest, TraceMatchReportedCarriesOutputDelay) {
  obs::ObservabilityOptions options;
  options.trace_capacity = 256;
  obs::Observability observability(options);
  MonitorEngine engine;
  engine.AttachObservability(&observability);
  CollectSink sink;
  engine.AddSink(&sink);
  const int64_t stream = engine.AddStream("s0");
  const auto query =
      engine.AddQuery(stream, "q", {1.0, 2.0, 3.0}, Options(0.5));
  ASSERT_TRUE(query.ok());
  for (const double x : TwoMatchStream()) {
    ASSERT_TRUE(engine.Push(stream, x).ok());
  }

  std::vector<obs::TraceEvent> reported;
  for (const obs::TraceEvent& e : observability.trace().Items()) {
    if (e.kind == obs::TraceEventKind::kMatchReported) reported.push_back(e);
  }
  ASSERT_EQ(reported.size(), sink.entries().size());
  ASSERT_EQ(reported.size(), 2u);
  const QueryStats& stats = engine.stats(*query);
  double delay_sum = 0.0;
  for (size_t i = 0; i < reported.size(); ++i) {
    const core::Match& match = sink.entries()[i].match;
    EXPECT_EQ(reported[i].start, match.start);
    EXPECT_EQ(reported[i].end, match.end);
    EXPECT_DOUBLE_EQ(reported[i].distance, match.distance);
    // The trace's report_delay is the engine's output delay:
    // t_report - t_e, and the event tick is the report time.
    EXPECT_EQ(reported[i].report_delay, match.report_time - match.end);
    EXPECT_EQ(reported[i].tick, match.report_time);
    delay_sum += static_cast<double>(reported[i].report_delay);
  }
  EXPECT_DOUBLE_EQ(delay_sum, stats.output_delay.sum());
}

TEST(MonitorObservabilityTest, FlushEmitsCandidateFlushedEvent) {
  obs::ObservabilityOptions options;
  options.trace_capacity = 64;
  obs::Observability observability(options);
  MonitorEngine engine;
  engine.AttachObservability(&observability);
  const int64_t stream = engine.AddStream("s0");
  ASSERT_TRUE(
      engine.AddQuery(stream, "q", {1.0, 2.0, 3.0}, Options(0.5)).ok());
  // Pattern at the very end: the candidate is still pending at flush time.
  for (const double x : {9.0, 1.0, 2.0, 3.0}) {
    ASSERT_TRUE(engine.Push(stream, x).ok());
  }
  EXPECT_EQ(engine.FlushAll(), 1);

  int flushed = 0;
  for (const obs::TraceEvent& e : observability.trace().Items()) {
    if (e.kind == obs::TraceEventKind::kCandidateFlushed) ++flushed;
  }
  EXPECT_EQ(flushed, 1);
  EXPECT_EQ(CounterValue(observability.registry().Snapshot(),
                         "spring_candidates_flushed_total"),
            1);
}

TEST(MonitorObservabilityTest, VectorQueriesUseVectorSpaceLabel) {
  obs::Observability observability;
  MonitorEngine engine;
  engine.AttachObservability(&observability);
  const int64_t stream = engine.AddVectorStream("v0", 2);
  ts::VectorSeries query(2);
  const std::vector<double> row1 = {1.0, 1.0};
  const std::vector<double> row2 = {2.0, 2.0};
  query.AppendRow(row1);
  query.AppendRow(row2);
  ASSERT_TRUE(
      engine.AddVectorQuery(stream, "vq", std::move(query), Options(0.5))
          .ok());
  const std::vector<double> row = {1.0, 1.0};
  ASSERT_TRUE(engine.PushRow(stream, row).ok());

  const obs::MetricsSnapshot snapshot =
      observability.registry().Snapshot();
  const obs::FamilySnapshot* ticks = snapshot.Find("spring_ticks_total");
  ASSERT_NE(ticks, nullptr);
  ASSERT_EQ(ticks->series.size(), 1u);
  const obs::Labels want = {obs::Label{"stream", "v0"},
                            obs::Label{"query", "vq"},
                            obs::Label{"space", "vector"}};
  EXPECT_EQ(ticks->series[0].labels, want);
}

TEST(MonitorObservabilityTest, DetachStopsCollection) {
  obs::Observability observability;
  MonitorEngine engine;
  engine.AttachObservability(&observability);
  const int64_t stream = engine.AddStream("s0");
  ASSERT_TRUE(engine.AddQuery(stream, "q", {1.0}, Options(0.5)).ok());
  ASSERT_TRUE(engine.Push(stream, 1.0).ok());
  engine.AttachObservability(nullptr);
  ASSERT_TRUE(engine.Push(stream, 1.0).ok());
  EXPECT_EQ(CounterValue(observability.registry().Snapshot(),
                         "spring_ticks_total"),
            1);
  EXPECT_EQ(engine.observability(), nullptr);
}

TEST(MonitorObservabilityTest, PeriodicReporterEmitsSummaryLines) {
  std::ostringstream log;
  obs::ObservabilityOptions options;
  options.report_every_ticks = 4;
  options.report_out = &log;
  obs::Observability observability(options);
  MonitorEngine engine;
  engine.AttachObservability(&observability);
  const int64_t stream = engine.AddStream("s0");
  ASSERT_TRUE(engine.AddQuery(stream, "q", {1.0}, Options(0.5)).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.Push(stream, 9.0).ok());
  }
  ASSERT_NE(observability.reporter(), nullptr);
  EXPECT_EQ(observability.reporter()->lines_reported(), 2);
  // Two lines, each a "[obs] ..." summary.
  const std::string text = log.str();
  EXPECT_EQ(text.find("[obs]"), 0u);
  EXPECT_NE(text.find("[obs]", 1), std::string::npos);
  EXPECT_NE(text.find("spring_ticks_total=" ), std::string::npos);
}

TEST(MonitorObservabilityTest, RefreshUpdatesGauges) {
  obs::Observability observability;
  MonitorEngine engine;
  engine.AttachObservability(&observability);
  const int64_t stream = engine.AddStream("s0");
  ASSERT_TRUE(
      engine.AddQuery(stream, "q", {1.0, 2.0, 3.0}, Options(0.5)).ok());
  // Leave a candidate pending (pattern suffix not yet beaten).
  for (const double x : {9.0, 1.0, 2.0, 3.0}) {
    ASSERT_TRUE(engine.Push(stream, x).ok());
  }
  engine.RefreshObservabilityGauges();
  const obs::MetricsSnapshot snapshot =
      observability.registry().Snapshot();
  EXPECT_GT(snapshot.Find("spring_memory_bytes")->series[0].gauge_value,
            0.0);
  EXPECT_DOUBLE_EQ(snapshot.Find("spring_streams")->series[0].gauge_value,
                   1.0);
  EXPECT_DOUBLE_EQ(snapshot.Find("spring_queries")->series[0].gauge_value,
                   1.0);
  EXPECT_DOUBLE_EQ(
      snapshot.Find("spring_candidate_pending")->series[0].gauge_value, 1.0);
}

TEST(MonitorObservabilityTest, CheckpointEventsAndRestoredEngineCollects) {
  obs::ObservabilityOptions options;
  options.trace_capacity = 64;
  obs::Observability observability(options);
  MonitorEngine engine;
  engine.AttachObservability(&observability);
  const int64_t stream = engine.AddStream("s0");
  ASSERT_TRUE(
      engine.AddQuery(stream, "q", {1.0, 2.0, 3.0}, Options(0.5)).ok());
  ASSERT_TRUE(engine.Push(stream, 9.0).ok());
  const std::vector<uint8_t> blob = engine.SerializeState();

  MonitorEngine restored;
  restored.AttachObservability(&observability);
  ASSERT_TRUE(restored.RestoreState(blob).ok());

  int saves = 0;
  int restores = 0;
  for (const obs::TraceEvent& e : observability.trace().Items()) {
    if (e.kind == obs::TraceEventKind::kCheckpointSave) ++saves;
    if (e.kind == obs::TraceEventKind::kCheckpointRestore) ++restores;
  }
  EXPECT_EQ(saves, 1);
  EXPECT_EQ(restores, 1);
  const obs::MetricsSnapshot snapshot =
      observability.registry().Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "spring_checkpoint_saves_total"), 1);
  EXPECT_EQ(CounterValue(snapshot, "spring_checkpoint_restores_total"), 1);

  // The restored engine re-resolved instrument handles for the restored
  // topology; pushing through it keeps counting into the same registry.
  ASSERT_TRUE(restored.Push(stream, 9.0).ok());
  EXPECT_EQ(CounterValue(observability.registry().Snapshot(),
                         "spring_ticks_total"),
            2);
}

}  // namespace
}  // namespace monitor
}  // namespace springdtw
