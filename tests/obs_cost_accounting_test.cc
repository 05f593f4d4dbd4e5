// Per-query / per-stream cost accounting (/queryz, /streamz): ranking and
// rendering units, a differential recount of every cost column against
// independently derivable ground truth, and the zero-cost-when-disabled
// discipline on the ingest path.
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/spring.h"
#include "core/spring_batch.h"
#include "gtest/gtest.h"
#include "monitor/cost_accounting.h"
#include "monitor/engine.h"
#include "monitor/sharded_monitor.h"
#include "monitor/sink.h"
#include "util/memory.h"

namespace springdtw {
namespace monitor {
namespace {

core::SpringOptions MatchingOptions() {
  core::SpringOptions options;
  options.epsilon = 0.5;
  return options;
}

core::SpringOptions NonMatchingOptions() {
  core::SpringOptions options;
  options.epsilon = 1e-9;
  return options;
}

/// Stream with the query {1, 2, 3} planted every 50 ticks on a flat ramp.
std::vector<double> PlantedStream(int64_t ticks) {
  std::vector<double> stream(static_cast<size_t>(ticks), 9.0);
  for (int64_t t = 0; t + 3 < ticks; t += 50) {
    stream[static_cast<size_t>(t + 1)] = 1.0;
    stream[static_cast<size_t>(t + 2)] = 2.0;
    stream[static_cast<size_t>(t + 3)] = 3.0;
  }
  return stream;
}

/// The recount of the engine's per-query `cells`: a standalone pool with
/// the stream's queries, fed the same ticks, computes exactly the same
/// ε-frontier cells.
core::SpringBatchPool RecountPool(
    const std::vector<std::vector<double>>& queries,
    const std::vector<core::SpringOptions>& options,
    const std::vector<double>& stream) {
  core::SpringBatchPool pool;
  for (size_t q = 0; q < queries.size(); ++q) {
    pool.AddQuery(queries[q], options[q]);
  }
  pool.PushBatch(stream, nullptr);
  return pool;
}

TEST(CostAccountingTest, RankByCostOrdersCellsDescIdAsc) {
  CostSnapshot snapshot;
  QueryCost q;
  q.query_id = 0;
  q.cells = 100;
  snapshot.queries.push_back(q);
  q.query_id = 1;
  q.cells = 300;
  snapshot.queries.push_back(q);
  q.query_id = 2;
  q.cells = 100;  // ties with query 0: id breaks the tie
  snapshot.queries.push_back(q);
  StreamCost s;
  s.stream_id = 0;
  s.cells = 5;
  snapshot.streams.push_back(s);
  s.stream_id = 1;
  s.cells = 7;
  snapshot.streams.push_back(s);

  RankByCost(&snapshot);
  ASSERT_EQ(snapshot.queries.size(), 3u);
  EXPECT_EQ(snapshot.queries[0].query_id, 1);
  EXPECT_EQ(snapshot.queries[1].query_id, 0);
  EXPECT_EQ(snapshot.queries[2].query_id, 2);
  EXPECT_EQ(snapshot.streams[0].stream_id, 1);
  EXPECT_EQ(snapshot.streams[1].stream_id, 0);
}

TEST(CostAccountingTest, RenderTruncatesToTopKButReportsTotal) {
  CostSnapshot snapshot;
  for (int64_t i = 0; i < 5; ++i) {
    QueryCost q;
    q.query_id = i;
    q.query_name = "q" + std::to_string(i);
    q.cells = 1000 - i;
    snapshot.queries.push_back(q);
  }
  RankByCost(&snapshot);
  const std::string json = RenderQueryzJson(snapshot, 2);
  EXPECT_NE(json.find("\"total\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"q0\""), std::string::npos);
  EXPECT_NE(json.find("\"q1\""), std::string::npos);
  EXPECT_EQ(json.find("\"q2\""), std::string::npos) << "top_k=2 must cut";

  // Names are JSON-escaped.
  snapshot.queries[0].query_name = "a\"b";
  EXPECT_NE(RenderQueryzJson(snapshot, 1).find("a\\\"b"), std::string::npos);

  const std::string streamz = RenderStreamzJson(snapshot, 10);
  EXPECT_NE(streamz.find("\"total\":0"), std::string::npos);
  EXPECT_NE(streamz.find("\"streams\":[]"), std::string::npos);
}

// The differential recount: every /queryz column recomputed from first
// principles. One stream, two queries of different lengths — ticks must
// equal the pushes, cells must equal what a standalone pool fed the same
// ticks computes (each query's ε-frontier per tick), matches must equal
// the sink's per-query count, and last_match_seq must equal the report
// time of the last delivered match (with a single stream, global ingest
// seq == stream tick index).
TEST(CostAccountingTest, DifferentialRecountAgainstGroundTruth) {
  ShardedMonitorOptions options;
  options.num_workers = 2;
  options.collect_metrics = true;
  options.publish_interval_ms = 0.0;
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);

  const int64_t stream_id = monitor.AddStream("s0");
  const auto matching =
      monitor.AddQuery(stream_id, "hot", {1.0, 2.0, 3.0}, MatchingOptions());
  ASSERT_TRUE(matching.ok());
  const auto cold = monitor.AddQuery(stream_id, "cold",
                                     {1.0, 2.0, 3.0, 4.0, 5.0},
                                     NonMatchingOptions());
  ASSERT_TRUE(cold.ok());

  const std::vector<double> stream = PlantedStream(2000);
  monitor.Start();
  for (const double x : stream) {
    ASSERT_TRUE(monitor.Push(stream_id, x).ok());
  }
  monitor.Drain();

  int64_t hot_matches = 0;
  int64_t last_report_time = -1;
  for (const auto& entry : sink.entries()) {
    ASSERT_EQ(entry.origin.query_name, "hot") << "cold query must not match";
    ++hot_matches;
    last_report_time = entry.match.report_time;
  }
  ASSERT_GT(hot_matches, 0) << "planted workload must produce matches";

  const auto listed = monitor.ListQueries();
  ASSERT_EQ(listed.size(), 2u);
  const auto& hot = listed[0].query_name == "hot" ? listed[0] : listed[1];
  const auto& coldq = listed[0].query_name == "cold" ? listed[0] : listed[1];
  const int64_t n = static_cast<int64_t>(stream.size());

  const core::SpringBatchPool recount =
      RecountPool({{1.0, 2.0, 3.0}, {1.0, 2.0, 3.0, 4.0, 5.0}},
                  {MatchingOptions(), NonMatchingOptions()}, stream);
  const int64_t hot_cells = recount.cells_computed_total(0);
  const int64_t cold_cells = recount.cells_computed_total(1);
  EXPECT_EQ(hot.ticks, n);
  EXPECT_EQ(coldq.ticks, n);
  EXPECT_EQ(hot.cells, hot_cells);
  EXPECT_EQ(coldq.cells, cold_cells);
  EXPECT_LT(hot.cells, n * 3) << "the frontier computes fewer than m cells";
  EXPECT_LT(coldq.cells, n * 5);
  EXPECT_EQ(hot.matches, hot_matches);
  EXPECT_EQ(coldq.matches, 0);
  EXPECT_EQ(hot.last_match_seq, last_report_time);
  EXPECT_EQ(coldq.last_match_seq, -1);
  // CPU attribution is sampled wall time: exact values are machine-
  // dependent, but with sampling on and thousands of ticks it must be
  // nonzero in aggregate and never negative per query.
  EXPECT_GE(hot.est_cpu_nanos, 0);
  EXPECT_GE(coldq.est_cpu_nanos, 0);
  EXPECT_GT(hot.est_cpu_nanos + coldq.est_cpu_nanos, 0);

  // /queryz ranks by cells: the query that computed more leads (here
  // "cold", by the recount), and the document must agree with the
  // recounted columns.
  ASSERT_GT(cold_cells, hot_cells);
  const std::string queryz = monitor.telemetry()->QueryzJson();
  EXPECT_NE(queryz.find("\"total\":2"), std::string::npos) << queryz;
  const size_t cold_pos = queryz.find("\"cold\"");
  const size_t hot_pos = queryz.find("\"hot\"");
  ASSERT_NE(cold_pos, std::string::npos) << queryz;
  ASSERT_NE(hot_pos, std::string::npos) << queryz;
  EXPECT_LT(cold_pos, hot_pos) << "more cells must outrank fewer";
  EXPECT_NE(queryz.find("\"cells\":" + std::to_string(cold_cells)),
            std::string::npos)
      << queryz;

  // /streamz aggregates the stream's two queries.
  const std::string streamz = monitor.telemetry()->StreamzJson();
  EXPECT_NE(streamz.find("\"total\":1"), std::string::npos) << streamz;
  EXPECT_NE(streamz.find("\"name\":\"s0\""), std::string::npos) << streamz;
  EXPECT_NE(streamz.find("\"queries\":2"), std::string::npos) << streamz;
  EXPECT_NE(
      streamz.find("\"cells\":" + std::to_string(hot_cells + cold_cells)),
      std::string::npos)
      << streamz;
  EXPECT_NE(streamz.find("\"matches\":" + std::to_string(hot_matches)),
            std::string::npos)
      << streamz;

  monitor.Stop();
}

// Multi-stream sharded recount: cells stay exact per query across workers
// (each equal to a standalone pool's count for the same ticks), and
// /streamz reports every stream with its owning worker.
TEST(CostAccountingTest, ShardedRecountAcrossWorkers) {
  ShardedMonitorOptions options;
  options.num_workers = 3;
  options.collect_metrics = true;
  options.publish_interval_ms = 0.0;
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);

  constexpr int64_t kStreams = 6;
  std::vector<int64_t> stream_ids;
  std::vector<std::vector<double>> fed(kStreams);
  for (int64_t i = 0; i < kStreams; ++i) {
    stream_ids.push_back(monitor.AddStream("s" + std::to_string(i)));
    ASSERT_TRUE(monitor
                    .AddQuery(stream_ids.back(), "q" + std::to_string(i),
                              {1.0, 2.0, 3.0, 4.0}, NonMatchingOptions())
                    .ok());
  }
  monitor.Start();
  // Uneven feeds so per-stream tick counts differ.
  for (int64_t i = 0; i < kStreams; ++i) {
    const int64_t n = 100 + 37 * i;
    for (int64_t t = 0; t < n; ++t) {
      // Values >= 9 stay far from the {1,2,3,4} query: zero matches.
      const double x = 9.0 + static_cast<double>(t % 7);
      ASSERT_TRUE(monitor.Push(stream_ids[static_cast<size_t>(i)], x).ok());
      fed[static_cast<size_t>(i)].push_back(x);
    }
  }
  monitor.Drain();

  const auto listed = monitor.ListQueries();
  ASSERT_EQ(listed.size(), static_cast<size_t>(kStreams));
  for (const auto& entry : listed) {
    const std::vector<double>& values =
        fed[static_cast<size_t>(entry.stream_id)];
    const int64_t n = static_cast<int64_t>(values.size());
    EXPECT_EQ(entry.ticks, n) << entry.query_name;
    EXPECT_EQ(entry.cells,
              RecountPool({{1.0, 2.0, 3.0, 4.0}}, {NonMatchingOptions()},
                          values)
                  .cells_computed_total(0))
        << entry.query_name;
    EXPECT_EQ(entry.matches, 0) << entry.query_name;
  }

  const std::string streamz = monitor.telemetry()->StreamzJson();
  EXPECT_NE(streamz.find("\"total\":" + std::to_string(kStreams)),
            std::string::npos)
      << streamz;
  for (int64_t i = 0; i < kStreams; ++i) {
    EXPECT_NE(streamz.find("\"name\":\"s" + std::to_string(i) + "\""),
              std::string::npos)
        << streamz;
    // The reported worker is the stream's actual owner.
    const std::string row = "\"name\":\"s" + std::to_string(i) +
                            "\",\"worker\":" +
                            std::to_string(monitor.worker_of_stream(
                                stream_ids[static_cast<size_t>(i)]));
    EXPECT_NE(streamz.find(row), std::string::npos) << streamz;
  }

  monitor.Stop();
}

TEST(CostAccountingTest, CellsExactAndCpuZeroWithoutMetrics) {
  // Default options: no collect_metrics, so no telemetry plane exists to
  // serve /queryz or /streamz. The counters the engine keeps anyway stay
  // exact, cells included; only the sampled CPU column stays 0.
  ShardedMonitor monitor;
  CollectSink sink;
  monitor.AddSink(&sink);
  const int64_t stream_id = monitor.AddStream("s");
  ASSERT_TRUE(
      monitor.AddQuery(stream_id, "q", {1.0, 2.0, 3.0}, MatchingOptions())
          .ok());
  monitor.Start();
  const std::vector<double> stream = PlantedStream(500);
  for (const double x : stream) {
    ASSERT_TRUE(monitor.Push(stream_id, x).ok());
  }
  monitor.Drain();

  const auto listed = monitor.ListQueries();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].ticks, static_cast<int64_t>(stream.size()));
  EXPECT_GT(listed[0].matches, 0);
  EXPECT_EQ(listed[0].cells,
            RecountPool({{1.0, 2.0, 3.0}}, {MatchingOptions()}, stream)
                .cells_computed_total(0));
  EXPECT_GE(listed[0].last_match_seq, 0);
  EXPECT_EQ(listed[0].est_cpu_nanos, 0);
  EXPECT_EQ(monitor.telemetry(), nullptr);
  monitor.Stop();
}

// Sampled CPU is split by the cells each query computed, not by query
// length: two m = 16 queries on one stream, one that never comes near its
// ε (its frontier never passes row 1: one cell per tick) and one with
// ε = +∞ (all 16 rows every tick), must get est_cpu_nanos in the ratio of
// their cells, 1 : 16.
TEST(CostAccountingTest, EstCpuSplitsByComputedCells) {
  EngineOptions engine_options;
  engine_options.cost_sample_every = 1;
  MonitorEngine engine(engine_options);
  const int64_t stream_id = engine.AddStream("s");
  const std::vector<double> query(16, 1.0);
  const auto far = engine.AddQuery(stream_id, "far", query,
                                   NonMatchingOptions());
  ASSERT_TRUE(far.ok());
  core::SpringOptions everything;
  everything.epsilon = std::numeric_limits<double>::infinity();
  const auto all = engine.AddQuery(stream_id, "all", query, everything);
  ASSERT_TRUE(all.ok());

  // Runs of 256 ticks keep each run's integer split well above 1 ns.
  const std::vector<double> run(256, 9.0);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(engine.PushBatch(stream_id, run).ok());
  }
  const int64_t ticks = 64 * 256;
  EXPECT_EQ(engine.QueryCellsComputed(*far), ticks);
  EXPECT_EQ(engine.QueryCellsComputed(*all), ticks * 16);
  const double far_cpu = static_cast<double>(engine.QueryEstCpuNanos(*far));
  const double all_cpu = static_cast<double>(engine.QueryEstCpuNanos(*all));
  ASSERT_GT(far_cpu, 0.0);
  EXPECT_NEAR(all_cpu / far_cpu, 16.0, 0.16)
      << "far=" << far_cpu << " all=" << all_cpu;
}

TEST(CostAccountingTest, EngineCostPathAddsNoAllocations) {
  // The per-tick cost hooks — both disabled (cost_sample_every = 0, the
  // default) and enabled — must not allocate on the engine push path.
  for (const int64_t every : {int64_t{0}, int64_t{4}}) {
    EngineOptions engine_options;
    engine_options.cost_sample_every = every;
    MonitorEngine engine(engine_options);
    CollectSink sink;
    engine.AddSink(&sink);
    const int64_t stream_id = engine.AddStream("s");
    ASSERT_TRUE(engine
                    .AddQuery(stream_id, "q", {1.0, 2.0, 3.0},
                              NonMatchingOptions())
                    .ok());
    for (int64_t t = 0; t < 512; ++t) {
      ASSERT_TRUE(
          engine.Push(stream_id, 9.0 + static_cast<double>(t % 7)).ok());
    }
    util::ScopedAllocationCheck check;
    for (int64_t t = 0; t < 4096; ++t) {
      ASSERT_TRUE(
          engine.Push(stream_id, 9.0 + static_cast<double>(t % 7)).ok());
    }
    EXPECT_EQ(check.Allocations(), 0) << "cost_sample_every=" << every;
    EXPECT_EQ(check.Bytes(), 0) << "cost_sample_every=" << every;
  }
}

}  // namespace
}  // namespace monitor
}  // namespace springdtw
