// Tests for the ShardedMonitor introspection surface: the staleness
// watchdog, the published pipeline-profiler metrics, the /healthz HTTP
// acceptance path, and the zero-cost-when-disabled discipline.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/spring.h"
#include "core/spring_batch.h"
#include "gtest/gtest.h"
#include "monitor/engine.h"
#include "monitor/sharded_monitor.h"
#include "monitor/sink.h"
#include "obs/alert.h"
#include "obs/introspection_server.h"
#include "obs/metrics.h"
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
  options.epsilon = 1e-9;  // random-walk data never qualifies
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

/// Blocking GET against 127.0.0.1:`port`; returns the raw response.
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = "GET ";
  request += path;
  request += " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char buffer[2048];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    reply.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

/// Finds the worker that processes `stream_id` by diffing per-worker tick
/// counts around one push (introspection snapshots expose the counters).
int64_t WorkerOf(ShardedMonitor& monitor, int64_t stream_id) {
  const obs::StatusReport before = monitor.StatusSnapshot();
  EXPECT_TRUE(monitor.Push(stream_id, 9.0).ok());
  monitor.Drain();
  const obs::StatusReport after = monitor.StatusSnapshot();
  for (size_t w = 0; w < after.workers.size(); ++w) {
    if (after.workers[w].ticks > before.workers[w].ticks) {
      return static_cast<int64_t>(w);
    }
  }
  return -1;
}

TEST(MonitorIntrospectTest, DisabledMonitorReportsDisabledHealth) {
  ShardedMonitor monitor;
  EXPECT_EQ(monitor.introspection_port(), -1);
  const obs::HealthReport health = monitor.HealthSnapshot();
  EXPECT_TRUE(health.healthy);
  EXPECT_EQ(health.state, "disabled");
  EXPECT_TRUE(health.workers.empty());
  EXPECT_EQ(monitor.telemetry(), nullptr);
}

// The one switch: collect_metrics alone, with no port, runs the whole
// plane — published metrics, watchdog verdicts and sampled spans.
TEST(MonitorIntrospectTest, CollectMetricsAloneRunsTheWholePlane) {
  ShardedMonitorOptions options;
  options.num_workers = 2;
  options.collect_metrics = true;
  ShardedMonitor monitor(options);
  ASSERT_NE(monitor.telemetry(), nullptr);
  EXPECT_EQ(monitor.introspection_port(), -1) << "no port asked for";
  CollectSink sink;
  monitor.AddSink(&sink);
  const int64_t stream_id = monitor.AddStream("s");
  ASSERT_TRUE(
      monitor.AddQuery(stream_id, "q", {1.0, 2.0, 3.0}, MatchingOptions())
          .ok());
  monitor.Start();
  // Four span periods: at 1-in-64 sampling at least one span completes.
  for (const double x : PlantedStream(4 * Telemetry::kSampleEvery)) {
    ASSERT_TRUE(monitor.Push(stream_id, x).ok());
  }
  monitor.Drain();

  const obs::MetricsSnapshot published =
      monitor.telemetry()->PublishedMetricsSnapshot();
  EXPECT_NE(published.Find("spring_ticks_total"), nullptr);
  EXPECT_NE(published.Find("spring_e2e_latency_nanos"), nullptr);
  const obs::HealthReport health = monitor.HealthSnapshot();
  EXPECT_EQ(health.state, "ok");
  EXPECT_EQ(health.workers.size(), 2u);
  EXPECT_FALSE(monitor.telemetry()->PublishedSpans().spans.empty());
  monitor.Stop();
}

TEST(MonitorIntrospectTest, WatchdogFlipsStarvedWorkerToStaleAndBack) {
  ShardedMonitorOptions options;
  options.num_workers = 2;
  options.collect_metrics = true;
  options.staleness_budget_ms = 300.0;
  options.publish_interval_ms = 20.0;
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);

  std::vector<int64_t> stream_ids;
  for (int i = 0; i < 16; ++i) {
    stream_ids.push_back(monitor.AddStream("s" + std::to_string(i)));
    ASSERT_TRUE(monitor
                    .AddQuery(stream_ids.back(), "q", {1.0, 2.0, 3.0},
                              NonMatchingOptions())
                    .ok());
  }
  monitor.Start();

  // Warm every stream so both workers become ever-active (a never-active
  // worker reports "idle", not "stale").
  for (const int64_t id : stream_ids) {
    ASSERT_TRUE(monitor.Push(id, 9.0).ok());
  }
  monitor.Drain();
  {
    const obs::StatusReport status = monitor.StatusSnapshot();
    ASSERT_EQ(status.workers.size(), 2u);
    ASSERT_GT(status.workers[0].ticks, 0) << "hash spread left worker 0 idle";
    ASSERT_GT(status.workers[1].ticks, 0) << "hash spread left worker 1 idle";
  }
  EXPECT_TRUE(monitor.HealthSnapshot().healthy);

  const int64_t fed_worker = WorkerOf(monitor, stream_ids[0]);
  ASSERT_GE(fed_worker, 0);
  const int64_t starved_worker = 1 - fed_worker;

  // Keep feeding only stream 0's worker; the other worker's feed is dead.
  // After the staleness budget elapses the watchdog must flip exactly the
  // starved worker while the fed one stays "ok".
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(900);
  obs::HealthReport health;
  bool flipped = false;
  while (std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(monitor.Push(stream_ids[0], 9.0).ok());
    monitor.Drain();
    health = monitor.HealthSnapshot();
    if (!health.healthy) {
      flipped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_TRUE(flipped) << "watchdog never flipped within 3x the budget";
  EXPECT_EQ(health.state, "stale");
  EXPECT_EQ(health.workers[static_cast<size_t>(starved_worker)].state,
            "stale");
  EXPECT_FALSE(health.workers[static_cast<size_t>(starved_worker)].healthy);
  EXPECT_GT(
      health.workers[static_cast<size_t>(starved_worker)].ms_since_progress,
      options.staleness_budget_ms);
  EXPECT_EQ(health.workers[static_cast<size_t>(fed_worker)].state, "ok");

  // Reviving the dead feed recovers the verdict.
  for (const int64_t id : stream_ids) {
    ASSERT_TRUE(monitor.Push(id, 9.0).ok());
  }
  monitor.Drain();
  const obs::HealthReport recovered = monitor.HealthSnapshot();
  EXPECT_TRUE(recovered.healthy) << "state=" << recovered.state;
  EXPECT_EQ(recovered.state, "ok");

  monitor.Stop();
}

TEST(MonitorIntrospectTest, PublishedMetricsCarryStageAndRingFamilies) {
  ShardedMonitorOptions options;
  options.num_workers = 2;
  options.collect_metrics = true;
  options.publish_interval_ms = 0.0;  // publish at every barrier
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);

  std::vector<int64_t> stream_ids;
  for (int i = 0; i < 4; ++i) {
    stream_ids.push_back(monitor.AddStream("s" + std::to_string(i)));
    ASSERT_TRUE(monitor
                    .AddQuery(stream_ids.back(), "q", {1.0, 2.0, 3.0},
                              MatchingOptions())
                    .ok());
  }
  const std::vector<double> stream = PlantedStream(2000);
  monitor.Start();
  for (const double x : stream) {
    for (const int64_t id : stream_ids) {
      ASSERT_TRUE(monitor.Push(id, x).ok());
    }
  }
  const int64_t delivered = monitor.FlushAll();
  ASSERT_GT(delivered, 0) << "workload must produce matches";

  const obs::MetricsSnapshot published =
      monitor.telemetry()->PublishedMetricsSnapshot();
  const obs::FamilySnapshot* stage =
      published.Find("spring_e2e_latency_nanos");
  ASSERT_NE(stage, nullptr);
  // Every in-process span stage must have observations (client_to_server
  // and subscriber_write need the net server's stamps).
  bool saw[5] = {false, false, false, false, false};
  const char* kStages[5] = {"ingest_to_enqueue", "ring_residency",
                            "worker_pass", "delivery_wait", "total"};
  for (const auto& series : stage->series) {
    for (const auto& label : series.labels) {
      if (label.key != "stage") continue;
      for (int s = 0; s < 5; ++s) {
        if (label.value == kStages[s] && series.histogram.count() > 0) {
          saw[s] = true;
        }
      }
    }
  }
  for (int s = 0; s < 5; ++s) {
    EXPECT_TRUE(saw[s]) << "no observations for stage " << kStages[s];
  }

  const obs::FamilySnapshot* occupancy =
      published.Find("spring_ring_occupancy");
  ASSERT_NE(occupancy, nullptr);
  EXPECT_EQ(occupancy->series.size(), 2u) << "one gauge per worker ring";
  const obs::FamilySnapshot* capacity =
      published.Find("spring_ring_capacity");
  ASSERT_NE(capacity, nullptr);
  EXPECT_NE(published.Find("spring_ring_blocked_pushes_total"), nullptr);

  // The merged live snapshot carries the same families.
  const obs::MetricsSnapshot merged = monitor.MergedMetricsSnapshot();
  EXPECT_NE(merged.Find("spring_e2e_latency_nanos"), nullptr);
  EXPECT_NE(merged.Find("spring_ring_occupancy"), nullptr);

  // Matches flowed, so /tracez has events and /statusz counts them.
  const obs::TracezReport traces = monitor.telemetry()->PublishedTraces();
  EXPECT_FALSE(traces.events.empty());
  const obs::StatusReport status = monitor.StatusSnapshot();
  EXPECT_EQ(status.role, "sharded_monitor");
  EXPECT_EQ(status.matches_delivered, delivered);
  EXPECT_EQ(status.ticks_ingested,
            static_cast<int64_t>(stream.size() * stream_ids.size()));

  monitor.Stop();
}

TEST(MonitorIntrospectTest, HealthzEndpointFlipsTo503WhenFeedDies) {
  ShardedMonitorOptions options;
  options.num_workers = 2;
  options.introspect_port = 0;  // ephemeral; turns collect_metrics on
  options.staleness_budget_ms = 300.0;
  options.publish_interval_ms = 20.0;
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);
  ASSERT_GT(monitor.introspection_port(), 0);

  std::vector<int64_t> stream_ids;
  for (int i = 0; i < 16; ++i) {
    stream_ids.push_back(monitor.AddStream("s" + std::to_string(i)));
    ASSERT_TRUE(monitor
                    .AddQuery(stream_ids.back(), "q", {1.0, 2.0, 3.0},
                              NonMatchingOptions())
                    .ok());
  }
  monitor.Start();
  for (const int64_t id : stream_ids) {
    ASSERT_TRUE(monitor.Push(id, 9.0).ok());
  }
  monitor.Drain();

  const int port = monitor.introspection_port();
  const std::string live = HttpGet(port, "/healthz");
  EXPECT_NE(live.find("HTTP/1.1 200 OK"), std::string::npos) << live;

  // Kill every feed: both ever-active workers go silent past the budget.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
  std::string stale;
  bool flipped = false;
  while (std::chrono::steady_clock::now() < deadline) {
    stale = HttpGet(port, "/healthz");
    if (stale.find("HTTP/1.1 503") != std::string::npos) {
      flipped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(flipped) << "healthz never flipped to 503: " << stale;
  EXPECT_NE(stale.find("\"state\":\"stale\""), std::string::npos) << stale;

  // /metrics scrapes work over the same server.
  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("spring_e2e_latency_nanos"), std::string::npos);
  EXPECT_NE(metrics.find("spring_ring_occupancy"), std::string::npos);

  monitor.Stop();
}

TEST(MonitorIntrospectTest, SpanQueryzStreamzEndpointsServeJson) {
  ShardedMonitorOptions options;
  options.num_workers = 2;
  options.introspect_port = 0;
  options.publish_interval_ms = 0.0;
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);
  const int64_t stream_id = monitor.AddStream("s0");
  ASSERT_TRUE(
      monitor.AddQuery(stream_id, "q0", {1.0, 2.0, 3.0}, MatchingOptions())
          .ok());
  monitor.Start();
  for (const double x : PlantedStream(1000)) {
    ASSERT_TRUE(monitor.Push(stream_id, x).ok());
  }
  monitor.Drain();

  const int port = monitor.introspection_port();
  ASSERT_GT(port, 0);

  const std::string spanz = HttpGet(port, "/spanz");
  EXPECT_NE(spanz.find("HTTP/1.1 200 OK"), std::string::npos) << spanz;
  EXPECT_NE(spanz.find("\"spans\":["), std::string::npos) << spanz;
  EXPECT_NE(spanz.find("\"server_recv\":"), std::string::npos)
      << "1000 ticks at 1-in-64 sampling must complete spans";
  EXPECT_NE(spanz.find("\"dropped\":"), std::string::npos);

  const std::string queryz = HttpGet(port, "/queryz");
  EXPECT_NE(queryz.find("HTTP/1.1 200 OK"), std::string::npos) << queryz;
  EXPECT_NE(queryz.find("\"name\":\"q0\""), std::string::npos) << queryz;
  // The recount: a standalone pool fed the same ticks computes the same
  // ε-frontier cells.
  core::SpringBatchPool recount;
  recount.AddQuery({1.0, 2.0, 3.0}, MatchingOptions());
  recount.PushBatch(PlantedStream(1000), nullptr);
  EXPECT_NE(queryz.find("\"cells\":" +
                        std::to_string(recount.cells_computed_total(0))),
            std::string::npos)
      << queryz;

  const std::string streamz = HttpGet(port, "/streamz");
  EXPECT_NE(streamz.find("HTTP/1.1 200 OK"), std::string::npos) << streamz;
  EXPECT_NE(streamz.find("\"name\":\"s0\""), std::string::npos) << streamz;
  EXPECT_NE(streamz.find("\"queries\":1"), std::string::npos) << streamz;

  // The e2e stage histograms and the trace drop counter ride /metrics.
  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("spring_e2e_latency_nanos"), std::string::npos);
  EXPECT_NE(metrics.find("spring_trace_dropped_total"), std::string::npos);

  monitor.Stop();
}

TEST(MonitorIntrospectTest, DisabledSpanPathAddsNoAllocationsToRouterPush) {
  // The span/cost hooks ride the router's Push path; with introspection
  // off (the default) they must cost nothing — no clock reads matter here,
  // but allocations are detectable and must be zero in steady state.
  ShardedMonitor monitor;
  CollectSink sink;
  monitor.AddSink(&sink);
  const int64_t stream_id = monitor.AddStream("s");
  ASSERT_TRUE(
      monitor.AddQuery(stream_id, "q", {1.0, 2.0, 3.0}, NonMatchingOptions())
          .ok());
  monitor.Start();
  // Warm up past ring growth and first-touch faults, and drain so the
  // worker is idle when measurement starts.
  for (int64_t t = 0; t < 2048; ++t) {
    ASSERT_TRUE(monitor.Push(stream_id, 9.0 + static_cast<double>(t % 7)).ok());
  }
  monitor.Drain();
  {
    util::ScopedAllocationCheck check;
    for (int64_t t = 0; t < 4096; ++t) {
      ASSERT_TRUE(
          monitor.Push(stream_id, 9.0 + static_cast<double>(t % 7)).ok());
    }
    EXPECT_EQ(check.Allocations(), 0);
    EXPECT_EQ(check.Bytes(), 0);
  }
  monitor.Drain();
  monitor.Stop();
}

TEST(MonitorIntrospectTest, DisabledProfilerAddsNoAllocationsToIngest) {
  // The zero-cost discipline: with no observability attached the engine's
  // push path — including all PR 4 profiler hooks — must not allocate in
  // steady state.
  MonitorEngine engine;
  CollectSink sink;
  engine.AddSink(&sink);
  const int64_t stream_id = engine.AddStream("s");
  ASSERT_TRUE(
      engine.AddQuery(stream_id, "q", {1.0, 2.0, 3.0}, NonMatchingOptions())
          .ok());
  // Warm up: first pushes may fault in matcher state.
  for (int64_t t = 0; t < 512; ++t) {
    ASSERT_TRUE(engine.Push(stream_id, 9.0 + static_cast<double>(t % 7)).ok());
  }
  util::ScopedAllocationCheck check;
  for (int64_t t = 0; t < 4096; ++t) {
    ASSERT_TRUE(engine.Push(stream_id, 9.0 + static_cast<double>(t % 7)).ok());
  }
  EXPECT_EQ(check.Allocations(), 0);
  EXPECT_EQ(check.Bytes(), 0);
}

TEST(MonitorIntrospectTest, TimezAlertzEndpointsServeJsonAndGateHealthz) {
  ShardedMonitorOptions options;
  options.num_workers = 2;
  options.introspect_port = 0;
  options.publish_interval_ms = 0.0;  // every barrier folds the timeline
  options.enable_timeline = true;
  // A 503 in this test can only mean "alerting" — staleness never trips.
  options.staleness_budget_ms = 60000.0;
  auto rule =
      obs::ParseAlertRule("alert fed page value(spring_ticks_total) > 100");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  options.alert_rules.push_back(*std::move(rule));
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);
  const int64_t stream_id = monitor.AddStream("s0");
  ASSERT_TRUE(
      monitor.AddQuery(stream_id, "q0", {1.0, 2.0, 3.0}, NonMatchingOptions())
          .ok());
  monitor.Start();
  const int port = monitor.introspection_port();
  ASSERT_GT(port, 0);

  for (int t = 0; t < 50; ++t) {
    ASSERT_TRUE(monitor.Push(stream_id, 9.0).ok());
  }
  monitor.FlushAll();
  // 50 ticks < 100: the rule is armed but inactive, health is green.
  EXPECT_NE(HttpGet(port, "/healthz").find("HTTP/1.1 200 OK"),
            std::string::npos);
  std::string alertz = HttpGet(port, "/alertz");
  EXPECT_NE(alertz.find("HTTP/1.1 200 OK"), std::string::npos) << alertz;
  EXPECT_NE(alertz.find("\"name\":\"fed\""), std::string::npos) << alertz;
  EXPECT_NE(alertz.find("\"state\":\"inactive\""), std::string::npos)
      << alertz;
  EXPECT_NE(alertz.find("\"firing\":0"), std::string::npos) << alertz;

  for (int t = 0; t < 200; ++t) {
    ASSERT_TRUE(monitor.Push(stream_id, 9.0).ok());
  }
  monitor.FlushAll();
  // 250 ticks > 100 with no hold: the page rule fires on the barrier's
  // evaluation pass and must gate /healthz as "alerting" (not "stale").
  alertz = HttpGet(port, "/alertz");
  EXPECT_NE(alertz.find("\"state\":\"firing\""), std::string::npos) << alertz;
  EXPECT_NE(alertz.find("\"firing_page\":1"), std::string::npos) << alertz;
  const std::string healthz = HttpGet(port, "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.1 503"), std::string::npos) << healthz;
  EXPECT_NE(healthz.find("\"state\":\"alerting\""), std::string::npos)
      << healthz;

  // /timez serves the channel catalog and per-metric series documents.
  const std::string catalog = HttpGet(port, "/timez");
  EXPECT_NE(catalog.find("HTTP/1.1 200 OK"), std::string::npos) << catalog;
  EXPECT_NE(catalog.find("\"tiers\":["), std::string::npos) << catalog;
  EXPECT_NE(catalog.find("spring_ticks_total"), std::string::npos) << catalog;
  const std::string series =
      HttpGet(port, "/timez?metric=spring_ticks_total&window=120");
  EXPECT_NE(series.find("\"metric\":\"spring_ticks_total\""),
            std::string::npos)
      << series;
  EXPECT_NE(series.find("\"series\":["), std::string::npos) << series;

  monitor.Stop();
}

TEST(MonitorIntrospectTest, DisabledTimelineIsZeroCostAndServesEmptyDocs) {
  // Timeline + alerting off (the default, even with telemetry on): the
  // publish-cadence hook must be allocation-free between publishes, and
  // the endpoints must degrade to empty documents rather than 404. A
  // forced poll is the plane's full publish, so it snapshots (and
  // allocates) with or without a timeline.
  ShardedMonitorOptions options;
  options.num_workers = 2;
  options.collect_metrics = true;
  options.publish_interval_ms = 60000.0;  // no publish falls due in-test
  ShardedMonitor monitor(options);
  EXPECT_FALSE(monitor.telemetry()->timeline_enabled());
  CollectSink sink;
  monitor.AddSink(&sink);
  const int64_t stream_id = monitor.AddStream("s");
  ASSERT_TRUE(
      monitor.AddQuery(stream_id, "q", {1.0, 2.0, 3.0}, NonMatchingOptions())
          .ok());
  monitor.Start();
  for (int64_t t = 0; t < 512; ++t) {
    ASSERT_TRUE(monitor.Push(stream_id, 9.0).ok());
  }
  monitor.Drain();  // the first publish
  monitor.PollTimeline(/*force=*/true);
  {
    util::ScopedAllocationCheck check;
    monitor.PollTimeline();
    EXPECT_EQ(check.Allocations(), 0);
    EXPECT_EQ(check.Bytes(), 0);
  }
  EXPECT_EQ(monitor.telemetry()->TimezJson(""),
            "{\"tiers\":[],\"records\":0,\"dropped_channels\":0,"
            "\"channels\":[]}");
  EXPECT_EQ(monitor.telemetry()->AlertzJson(),
            "{\"rules\":[],\"firing\":0,\"firing_page\":0}");
  monitor.Stop();
}

// One publisher: the router publishes shard state only at quiescence, so
// after a barrier a forced poll is exact to the last routed tick even at
// the default publish interval, where no throttled publish falls due
// between bursts.
TEST(MonitorIntrospectTest, ForcedPollPublishesEveryRoutedTick) {
  ShardedMonitorOptions options;
  options.num_workers = 2;
  options.collect_metrics = true;
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);
  std::vector<int64_t> stream_ids;
  for (int i = 0; i < 4; ++i) {
    stream_ids.push_back(monitor.AddStream("s" + std::to_string(i)));
    ASSERT_TRUE(monitor
                    .AddQuery(stream_ids.back(), "q", {1.0, 2.0, 3.0},
                              NonMatchingOptions())
                    .ok());
  }
  monitor.Start();
  const auto total = [](const obs::MetricsSnapshot& snapshot,
                        const char* family) {
    const obs::FamilySnapshot* found = snapshot.Find(family);
    int64_t sum = 0;
    if (found != nullptr) {
      for (const auto& series : found->series) sum += series.counter_value;
    }
    return sum;
  };
  int64_t pushed = 0;
  for (int burst = 0; burst < 2; ++burst) {
    for (int64_t t = 0; t < 300; ++t) {
      for (const int64_t id : stream_ids) {
        ASSERT_TRUE(monitor.Push(id, 9.0).ok());
        ++pushed;
      }
    }
    monitor.Drain();
    monitor.PollTimeline(/*force=*/true);
    const obs::MetricsSnapshot published =
        monitor.telemetry()->PublishedMetricsSnapshot();
    // One query per stream: query-ticks equal values pushed.
    EXPECT_EQ(total(published, "spring_ticks_total"), pushed)
        << "burst " << burst;
    EXPECT_EQ(total(published, "spring_pushes_total"), pushed)
        << "burst " << burst;
  }
  monitor.Stop();
}

TEST(MonitorIntrospectTest, PendingCandidateCountSeesOpenCandidates) {
  MonitorEngine engine;
  CollectSink sink;
  engine.AddSink(&sink);
  const int64_t stream_id = engine.AddStream("s");
  ASSERT_TRUE(
      engine.AddQuery(stream_id, "q", {1.0, 2.0, 3.0}, MatchingOptions())
          .ok());
  EXPECT_EQ(engine.PendingCandidateCount(), 0);
  // Feed the query prefix: a candidate opens (d_m <= epsilon) but cannot
  // report until the stream moves away from it.
  ASSERT_TRUE(engine.Push(stream_id, 1.0).ok());
  ASSERT_TRUE(engine.Push(stream_id, 2.0).ok());
  ASSERT_TRUE(engine.Push(stream_id, 3.0).ok());
  EXPECT_EQ(engine.PendingCandidateCount(), 1);
  engine.FlushAll();
  EXPECT_EQ(engine.PendingCandidateCount(), 0);
}

}  // namespace
}  // namespace monitor
}  // namespace springdtw
