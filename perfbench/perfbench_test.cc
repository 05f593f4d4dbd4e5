// Unit tests for the benchmark's own code, at smoke size. Run with
// `python3 perfbench/run.py --self-test`.

#include <unistd.h>

#include <numeric>

#include <gtest/gtest.h>

#include "core/spring.h"
#include "drive.h"
#include "inputs.h"
#include "measure.h"
#include "monitor/sharded_monitor.h"
#include "reference.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> values(static_cast<size_t>(n));
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(TailPercentileTest, ReportsRequestedPercentileWithTenSamplesBeyond) {
  const Percentile p = TailPercentile(OneTo(1000), 0.99);
  EXPECT_DOUBLE_EQ(p.value, 990.0);  // 10 samples lie above rank 990.
  EXPECT_DOUBLE_EQ(p.q, 0.99);
  EXPECT_EQ(p.samples, 1000);
  EXPECT_FALSE(p.degenerate);
  EXPECT_EQ(p.Describe(0.99), "p99=990.0 (n=1000)");
}

TEST(TailPercentileTest, LowersPercentileUntilTenSamplesLieBeyond) {
  const Percentile p = TailPercentile(OneTo(500), 0.99);
  EXPECT_DOUBLE_EQ(p.value, 490.0);
  EXPECT_DOUBLE_EQ(p.q, 0.98);
  EXPECT_NE(p.Describe(0.99).find("n=500"), std::string::npos);
  EXPECT_NE(p.Describe(0.99).find("p99 needs 1000"), std::string::npos);

  // The median needs 20 samples; with 19 the reported rank drops to 9.
  EXPECT_DOUBLE_EQ(TailPercentile(OneTo(20), 0.5).value, 10.0);
  EXPECT_DOUBLE_EQ(TailPercentile(OneTo(19), 0.5).value, 9.0);
}

TEST(TailPercentileTest, OrderOfSamplesDoesNotMatter) {
  std::vector<double> values = OneTo(1000);
  std::reverse(values.begin(), values.end());
  EXPECT_DOUBLE_EQ(TailPercentile(values, 0.99).value, 990.0);
}

TEST(TailPercentileTest, TooFewSamplesIsDegenerate) {
  const Percentile p = TailPercentile({5.0, 3.0, 4.0}, 0.5);
  EXPECT_TRUE(p.degenerate);
  EXPECT_DOUBLE_EQ(p.value, 3.0);
  EXPECT_TRUE(TailPercentile({}, 0.5).degenerate);
}

void Busy() { usleep(200); }

TEST(TracerTest, SelfTimeSubtractsDirectChildrenOnly) {
  Tracer tracer;
  const int32_t outer = tracer.Begin("outer");
  Busy();
  const int32_t mid = tracer.Begin("mid");
  Busy();
  {
    ScopedSpan leaf(&tracer, "leaf");
    Busy();
  }
  {
    ScopedSpan leaf(&tracer, "leaf");
    Busy();
  }
  tracer.End(mid);
  tracer.End(outer);

  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[2].parent, mid);
  EXPECT_EQ(spans[3].parent, mid);
  const auto duration = [&](size_t i) { return spans[i].end_ns - spans[i].start_ns; };

  const auto totals = tracer.Totals();
  EXPECT_EQ(totals.at("leaf").count, 2);
  EXPECT_EQ(totals.at("leaf").self_ns, duration(2) + duration(3));
  EXPECT_EQ(totals.at("mid").self_ns, duration(1) - duration(2) - duration(3));
  // The leaves are grandchildren of outer: only mid is subtracted.
  EXPECT_EQ(totals.at("outer").self_ns, duration(0) - duration(1));
  EXPECT_GT(totals.at("outer").self_ns, 0);
  EXPECT_GT(totals.at("mid").self_ns, 0);
}

TEST(TracerTest, TotalsCanBeLimitedToOneTopLevelSpan) {
  Tracer tracer;
  const int32_t first = tracer.Begin("rung.a");
  { ScopedSpan call(&tracer, "call"); }
  tracer.End(first);
  const int32_t second = tracer.Begin("rung.b");
  { ScopedSpan call(&tracer, "call"); }
  { ScopedSpan call(&tracer, "call"); }
  tracer.End(second);
  EXPECT_EQ(tracer.Totals(first).at("call").count, 1);
  EXPECT_EQ(tracer.Totals(second).at("call").count, 2);
  EXPECT_EQ(tracer.Totals(second).count("rung.a"), 0u);
  EXPECT_EQ(tracer.Totals().at("call").count, 3);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(/*enabled=*/false);
  { ScopedSpan span(&tracer, "ignored"); }
  { ScopedSpan span(nullptr, "ignored"); }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(OpenLoopScheduleTest, DueTimesFollowTheBatchOfEachTick) {
  // 100k ticks/s in 1 ms batches over 16 streams: 100 ticks per batch.
  const OpenLoopSchedule schedule(100000.0, 1.0, 16);
  EXPECT_EQ(schedule.ticks_per_batch(), 100);
  EXPECT_EQ(schedule.period_ns(), 1000000);
  // Global tick g = 16 * pos + stream is in batch g / 100.
  EXPECT_EQ(schedule.BatchOf(0, 0), 0);
  EXPECT_EQ(schedule.BatchOf(3, 6), 0);  // g = 99
  EXPECT_EQ(schedule.BatchOf(4, 6), 1);  // g = 100
  EXPECT_EQ(schedule.TickDueNanos(4, 6), 1000000);
  EXPECT_EQ(schedule.TickDueNanos(15, 624), 99 * 1000000);  // g = 9999
  EXPECT_EQ(schedule.TicksDueBy(-1), 0);
  EXPECT_EQ(schedule.TicksDueBy(0), 100);
  EXPECT_EQ(schedule.TicksDueBy(999999), 100);
  EXPECT_EQ(schedule.TicksDueBy(1000000), 200);
}

TEST(OpenLoopScheduleTest, StreamRangesPartitionEachBatch) {
  const OpenLoopSchedule schedule(100000.0, 1.0, 16);
  std::vector<int64_t> next(16, 0);
  for (int64_t b = 0; b < 200; ++b) {
    int64_t ticks = 0;
    for (int64_t s = 0; s < 16; ++s) {
      int64_t begin = 0, end = 0;
      schedule.StreamRange(b, s, &begin, &end);
      EXPECT_EQ(begin, next[static_cast<size_t>(s)]) << "batch " << b << " stream " << s;
      for (int64_t p = begin; p < end; ++p) EXPECT_EQ(schedule.BatchOf(s, p), b);
      next[static_cast<size_t>(s)] = end;
      ticks += end - begin;
    }
    EXPECT_EQ(ticks, 100);
  }
}

TEST(InputsTest, SameSeedGivesByteIdenticalInputs) {
  for (const WorkloadSpec& spec : Workloads()) {
    SCOPED_TRACE(spec.name);
    const std::vector<uint8_t> a = SerializeInputs(MakeInputs(spec, 7));
    const std::vector<uint8_t> b = SerializeInputs(MakeInputs(spec, 7));
    const std::vector<uint8_t> c = SerializeInputs(MakeInputs(spec, 8));
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
  }
}

TEST(InputsTest, StreamsSplitEvenlyOverTheWorkers) {
  for (const WorkloadSpec& spec : Workloads()) {
    SCOPED_TRACE(spec.name);
    const Inputs inputs = MakeInputs(spec, 3);
    springdtw::monitor::ShardedMonitorOptions options;
    options.num_workers = kWorkers;
    springdtw::monitor::ShardedMonitor monitor(options);
    std::vector<int64_t> per_worker(kWorkers, 0);
    for (size_t s = 0; s < inputs.streams.size(); ++s) {
      const int64_t id = monitor.AddStream(inputs.streams[s].name);
      const int64_t worker = monitor.worker_of_stream(id);
      EXPECT_EQ(worker, static_cast<int64_t>(s) % kWorkers);
      ++per_worker[static_cast<size_t>(worker)];
    }
    EXPECT_EQ(per_worker[0], per_worker[1]);
    EXPECT_EQ(static_cast<int64_t>(inputs.queries.size()), spec.num_queries());
  }
}

TEST(RoundsTest, OpenLoopRoundsCarryOneScheduleBatch) {
  const Inputs inputs = MakeInputs(FindWorkload("alert_latency").value(), 1);
  Rounds rounds(inputs);
  for (int64_t r = 0; r < 20; ++r) {
    int64_t ticks = 0;
    for (const Rounds::Chunk& chunk : rounds.Get(r)) {
      ticks += chunk.end - chunk.begin;
      EXPECT_EQ(rounds.RoundOf(chunk.stream, chunk.begin), r);
      EXPECT_EQ(rounds.RoundOf(chunk.stream, chunk.end - 1), r);
    }
    EXPECT_EQ(ticks, 100);
  }
}

TEST(CheckOutputsTest, FlagsMissingExtraAndUndetectedPlantedMatches) {
  const Inputs inputs = MakeInputs(FindWorkload("fleet_ingest").value(), 5);
  const int64_t ticks = 20000;  // Beyond one tape cycle.
  std::vector<int64_t> sent(inputs.streams.size(), ticks);
  std::vector<DeliveredMatch> delivered;
  for (size_t q = 0; q < inputs.queries.size(); ++q) {
    const QueryInput& query = inputs.queries[q];
    springdtw::core::SpringOptions options;
    options.epsilon = query.epsilon;
    springdtw::core::SpringMatcher matcher(query.values, options);
    std::vector<double> tape(static_cast<size_t>(ticks));
    inputs.Fill(query.stream, 0, tape);
    for (double x : tape) {
      springdtw::core::Match match;
      if (matcher.Update(x, &match)) {
        delivered.push_back(DeliveredMatch{static_cast<int64_t>(q), match});
      }
    }
  }
  ASSERT_FALSE(delivered.empty());
  const CheckReport clean = CheckOutputs(inputs, sent, delivered);
  EXPECT_EQ(clean.failures(), 0) << (clean.problems.empty() ? "" : clean.problems[0]);
  EXPECT_GT(clean.planted_checked, 0);

  std::vector<DeliveredMatch> altered = delivered;
  altered.erase(altered.begin());  // One reference match lost (a planted copy).
  altered.push_back(altered.back());
  altered.back().match.distance += 1.0;  // One match nobody produced.
  const CheckReport report = CheckOutputs(inputs, sent, altered);
  EXPECT_EQ(report.missing, 1);
  EXPECT_EQ(report.extra, 1);
  EXPECT_EQ(report.planted_missed, 1);
}

}  // namespace
}  // namespace perfbench
