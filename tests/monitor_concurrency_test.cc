// Concurrency stress for the monitoring layer, written to run under
// ThreadSanitizer (the tsan preset builds exactly this suite plus the rest
// of ctest). MonitorEngine is single-threaded *by design* — the supported
// patterns exercised here are:
//   * shard-per-thread: each ingest thread owns its engine + observability
//     bundle outright (the paper's multi-stream scaling argument);
//   * shared sink: engines in different threads fan matches into one sink
//     behind a mutex (OnMatch runs on the ingest path, so the lock is the
//     sink's, not the engine's);
//   * checkpoint hand-off: one thread serializes, another restores and
//     resumes the stream;
//   * snapshot-while-ingesting: a reporter thread checkpoints and reads
//     gauges under the same mutex that serializes engine access;
//   * sharded monitor: monitor::ShardedMonitor packages shard-per-thread
//     behind SPSC tick queues — the stress case here hammers its
//     router/worker handoff (queue wrap-around, drain barriers, stop and
//     restart) with live ingest, which is where its release/acquire
//     protocol either holds or TSan catches it. The SPSC ring itself is
//     stressed in monitor_spsc_queue_test.cc, also under this preset.
// Any data race here is a real bug in the library (e.g. hidden shared
// state between engine instances), which is precisely what TSan verifies.
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/spring.h"
#include "gtest/gtest.h"
#include "monitor/engine.h"
#include "monitor/sharded_monitor.h"
#include "monitor/sink.h"
#include "obs/alert.h"
#include "obs/introspection_server.h"
#include "obs/observability.h"
#include "obs/span.h"

namespace springdtw {
namespace monitor {
namespace {

/// Deterministic per-shard stream: a noisy ramp with planted occurrences
/// of the query {1, 2, 3} every `period` ticks.
std::vector<double> ShardStream(int shard, int64_t ticks) {
  std::vector<double> stream(static_cast<size_t>(ticks), 9.0 + shard);
  const int64_t period = 50;
  for (int64_t t = 0; t + 3 < ticks; t += period) {
    stream[static_cast<size_t>(t + 1)] = 1.0;
    stream[static_cast<size_t>(t + 2)] = 2.0;
    stream[static_cast<size_t>(t + 3)] = 3.0;
  }
  return stream;
}

core::SpringOptions TestOptions() {
  core::SpringOptions options;
  options.epsilon = 0.5;
  return options;
}

/// Runs one shard single-threadedly and returns its match count — the
/// reference the threaded runs must reproduce exactly.
int64_t ReferenceMatchCount(int shard, int64_t ticks) {
  MonitorEngine engine;
  CollectSink sink;
  engine.AddSink(&sink);
  const int64_t stream_id = engine.AddStream("s");
  auto query_id =
      engine.AddQuery(stream_id, "q", {1.0, 2.0, 3.0}, TestOptions());
  EXPECT_TRUE(query_id.ok());
  for (const double x : ShardStream(shard, ticks)) {
    auto pushed = engine.Push(stream_id, x);
    EXPECT_TRUE(pushed.ok());
  }
  engine.FlushAll();
  return static_cast<int64_t>(sink.entries().size());
}

TEST(MonitorConcurrencyTest, ShardPerThreadEnginesAreIndependent) {
  constexpr int kThreads = 4;
  constexpr int64_t kTicks = 2000;

  std::vector<int64_t> expected(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    expected[static_cast<size_t>(i)] = ReferenceMatchCount(i, kTicks);
    ASSERT_GT(expected[static_cast<size_t>(i)], 0);
  }

  std::vector<int64_t> got(kThreads, -1);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([i, &got] {
      // Everything engine-related lives on this thread: engine, sink, and
      // observability bundle (the metrics registry is single-threaded).
      obs::Observability obs;
      MonitorEngine engine;
      engine.AttachObservability(&obs);
      CollectSink sink;
      engine.AddSink(&sink);
      const int64_t stream_id = engine.AddStream("s");
      auto query_id =
          engine.AddQuery(stream_id, "q", {1.0, 2.0, 3.0}, TestOptions());
      if (!query_id.ok()) return;
      for (const double x : ShardStream(i, kTicks)) {
        if (!engine.Push(stream_id, x).ok()) return;
      }
      engine.FlushAll();
      engine.RefreshObservabilityGauges();
      got[static_cast<size_t>(i)] =
          static_cast<int64_t>(sink.entries().size());
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)],
              expected[static_cast<size_t>(i)])
        << "shard " << i;
  }
}

/// MatchSink adapter that makes a CollectSink safe to share across ingest
/// threads: OnMatch takes the mutex. This is the supported way to fan
/// multiple sharded engines into one destination.
class LockedSink : public MatchSink {
 public:
  void OnMatch(const MatchOrigin& origin,
               const core::Match& match) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.OnMatch(origin, match);
  }

  int64_t size() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int64_t>(inner_.entries().size());
  }

 private:
  std::mutex mutex_;
  CollectSink inner_;
};

TEST(MonitorConcurrencyTest, ShardedEnginesShareOneLockedSink) {
  constexpr int kThreads = 4;
  constexpr int64_t kTicks = 1500;

  int64_t expected_total = 0;
  for (int i = 0; i < kThreads; ++i) {
    expected_total += ReferenceMatchCount(i, kTicks);
  }

  LockedSink shared_sink;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([i, &shared_sink] {
      MonitorEngine engine;
      engine.AddSink(&shared_sink);
      const int64_t stream_id = engine.AddStream("s");
      auto query_id =
          engine.AddQuery(stream_id, "q", {1.0, 2.0, 3.0}, TestOptions());
      if (!query_id.ok()) return;
      for (const double x : ShardStream(i, kTicks)) {
        if (!engine.Push(stream_id, x).ok()) return;
      }
      engine.FlushAll();
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(shared_sink.size(), expected_total);
}

TEST(MonitorConcurrencyTest, CheckpointHandsOffBetweenThreads) {
  constexpr int64_t kTicks = 1200;
  const std::vector<double> stream = ShardStream(0, kTicks);
  const int64_t split = kTicks / 2 + 7;  // Mid-group, not on a boundary.

  const int64_t expected = ReferenceMatchCount(0, kTicks);

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<uint8_t> checkpoint;
  bool checkpoint_ready = false;
  int64_t first_half_matches = 0;
  int64_t second_half_matches = 0;

  std::thread producer([&] {
    MonitorEngine engine;
    CollectSink sink;
    engine.AddSink(&sink);
    const int64_t stream_id = engine.AddStream("s");
    auto query_id =
        engine.AddQuery(stream_id, "q", {1.0, 2.0, 3.0}, TestOptions());
    if (!query_id.ok()) return;
    for (int64_t t = 0; t < split; ++t) {
      if (!engine.Push(stream_id, stream[static_cast<size_t>(t)]).ok()) {
        return;
      }
    }
    {
      const std::lock_guard<std::mutex> lock(mutex);
      checkpoint = engine.SerializeState();
      first_half_matches = static_cast<int64_t>(sink.entries().size());
      checkpoint_ready = true;
    }
    cv.notify_one();
    // The producer abandons its engine here; the consumer owns the stream
    // from the checkpoint on.
  });

  std::thread consumer([&] {
    std::vector<uint8_t> bytes;
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return checkpoint_ready; });
      bytes = checkpoint;
    }
    MonitorEngine engine;
    CollectSink sink;
    engine.AddSink(&sink);
    const auto restored = engine.RestoreState(bytes);
    if (!restored.ok()) return;
    for (int64_t t = split; t < kTicks; ++t) {
      if (!engine.Push(0, stream[static_cast<size_t>(t)]).ok()) return;
    }
    engine.FlushAll();
    const std::lock_guard<std::mutex> lock(mutex);
    second_half_matches = static_cast<int64_t>(sink.entries().size());
  });

  producer.join();
  consumer.join();

  const std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(first_half_matches + second_half_matches, expected);
}

TEST(MonitorConcurrencyTest, ReporterThreadSnapshotsWhileIngesting) {
  constexpr int64_t kTicks = 3000;

  std::mutex engine_mutex;
  obs::Observability obs;
  MonitorEngine engine;
  engine.AttachObservability(&obs);
  CollectSink sink;
  engine.AddSink(&sink);
  const int64_t stream_id = engine.AddStream("s");
  auto query_id =
      engine.AddQuery(stream_id, "q", {1.0, 2.0, 3.0}, TestOptions());
  ASSERT_TRUE(query_id.ok());

  const std::vector<double> stream = ShardStream(0, kTicks);
  std::atomic<bool> done{false};
  std::atomic<int64_t> snapshots_taken{0};
  std::vector<uint8_t> last_checkpoint;

  std::thread producer([&] {
    for (const double x : stream) {
      const std::lock_guard<std::mutex> lock(engine_mutex);
      if (!engine.Push(stream_id, x).ok()) break;
    }
    {
      const std::lock_guard<std::mutex> lock(engine_mutex);
      engine.FlushAll();
    }
    done.store(true, std::memory_order_release);
  });

  std::thread reporter([&] {
    // Loop until one more snapshot has been taken *after* the producer
    // finished: guarantees at least one snapshot even if the producer
    // outraces the reporter entirely, and makes the last checkpoint cover
    // the fully flushed engine.
    bool final_pass = false;
    while (true) {
      {
        const std::lock_guard<std::mutex> lock(engine_mutex);
        engine.RefreshObservabilityGauges();
        last_checkpoint = engine.SerializeState();
      }
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
      if (final_pass) break;
      final_pass = done.load(std::memory_order_acquire);
      std::this_thread::yield();
    }
  });

  producer.join();
  reporter.join();

  EXPECT_GT(snapshots_taken.load(), 0);
  ASSERT_FALSE(last_checkpoint.empty());
  // Every snapshot the reporter took must be a restorable checkpoint.
  MonitorEngine resumed;
  const auto restored = resumed.RestoreState(last_checkpoint);
  EXPECT_TRUE(restored.ok()) << restored.ToString();
  EXPECT_EQ(resumed.num_streams(), 1);
  EXPECT_EQ(resumed.num_queries(), 1);
}

TEST(MonitorConcurrencyTest, ShardedMonitorSurvivesBarrierHammering) {
  // Small queue (forces ring wrap-around and producer blocking), frequent
  // drains (exercises the consumed/produced barrier mid-stream), plus a
  // full stop/restart cycle. Matches must still equal the per-shard
  // references exactly.
  constexpr int kStreams = 4;
  constexpr int64_t kTicks = 2000;

  int64_t expected_total = 0;
  for (int i = 0; i < kStreams; ++i) {
    expected_total += ReferenceMatchCount(i, kTicks);
  }

  ShardedMonitorOptions options;
  options.num_workers = 4;
  options.queue_capacity = 4;
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);
  std::vector<int64_t> stream_ids;
  std::vector<std::vector<double>> inputs;
  for (int i = 0; i < kStreams; ++i) {
    stream_ids.push_back(monitor.AddStream("s" + std::to_string(i)));
    ASSERT_TRUE(monitor
                    .AddQuery(stream_ids.back(), "q", {1.0, 2.0, 3.0},
                              TestOptions())
                    .ok());
    inputs.push_back(ShardStream(i, kTicks));
  }

  monitor.Start();
  int64_t delivered = 0;
  for (int64_t t = 0; t < kTicks; ++t) {
    for (int i = 0; i < kStreams; ++i) {
      ASSERT_TRUE(monitor
                      .Push(stream_ids[static_cast<size_t>(i)],
                            inputs[static_cast<size_t>(i)]
                                  [static_cast<size_t>(t)])
                      .ok());
    }
    if (t % 97 == 0) delivered += monitor.Drain();
    if (t == kTicks / 2) {
      // Stop/restart mid-stream: all state must survive the worker
      // threads being torn down and respawned.
      monitor.Stop();
      monitor.Start();
    }
  }
  delivered += monitor.FlushAll();
  monitor.Stop();

  EXPECT_EQ(delivered, expected_total);
  EXPECT_EQ(static_cast<int64_t>(sink.entries().size()), expected_total);
}

TEST(MonitorConcurrencyTest, ListQueriesBetweenPushesIsExact) {
  // ListQueries and stats read the shard engines' own counters behind a
  // barrier they take themselves. Called mid-ingest with no Drain() first
  // (small queue: the rings are full and the workers busy), every row must
  // count every value pushed to its stream so far, and every match it
  // counts must already have reached the sink. Alternating which call
  // comes first makes each of them meet undrained values.
  constexpr int kStreams = 4;
  constexpr int64_t kTicks = 2000;

  ShardedMonitorOptions options;
  options.num_workers = 4;
  options.queue_capacity = 4;
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);
  std::vector<int64_t> stream_ids;
  std::vector<std::vector<double>> inputs;
  for (int i = 0; i < kStreams; ++i) {
    stream_ids.push_back(monitor.AddStream("s" + std::to_string(i)));
    ASSERT_TRUE(monitor
                    .AddQuery(stream_ids.back(), "q" + std::to_string(i),
                              {1.0, 2.0, 3.0}, TestOptions())
                    .ok());
    inputs.push_back(ShardStream(i, kTicks));
  }

  monitor.Start();
  int64_t checks = 0;
  for (int64_t t = 0; t < kTicks; ++t) {
    for (int i = 0; i < kStreams; ++i) {
      ASSERT_TRUE(monitor
                      .Push(stream_ids[static_cast<size_t>(i)],
                            inputs[static_cast<size_t>(i)]
                                  [static_cast<size_t>(t)])
                      .ok());
    }
    if (t % 89 != 0) continue;
    const bool stats_first = checks++ % 2 == 0;
    std::vector<int64_t> stats_ticks(kStreams);
    std::vector<int64_t> stats_matches(kStreams);
    const auto read_stats = [&] {
      for (int64_t q = 0; q < kStreams; ++q) {
        const QueryStats& stats = monitor.stats(q);
        stats_ticks[static_cast<size_t>(q)] = stats.ticks;
        stats_matches[static_cast<size_t>(q)] = stats.matches;
      }
    };
    if (stats_first) read_stats();
    const auto rows = monitor.ListQueries();
    if (!stats_first) read_stats();

    std::vector<int64_t> sunk(kStreams, 0);
    for (const CollectSink::Entry& entry : sink.entries()) {
      ++sunk[static_cast<size_t>(entry.origin.query_id)];
    }
    ASSERT_EQ(rows.size(), static_cast<size_t>(kStreams));
    for (const auto& row : rows) {
      const size_t q = static_cast<size_t>(row.query_id);
      EXPECT_EQ(row.ticks, t + 1) << "t=" << t << " q=" << q;
      EXPECT_EQ(row.matches, sunk[q]) << "t=" << t << " q=" << q;
      EXPECT_EQ(stats_ticks[q], t + 1) << "t=" << t << " q=" << q;
      EXPECT_EQ(stats_matches[q], sunk[q]) << "t=" << t << " q=" << q;
    }
  }
  monitor.Stop();
  EXPECT_GT(sink.entries().size(), 0u);
}

TEST(MonitorConcurrencyTest, IntrospectionSnapshotsRaceFreeWhileIngesting) {
  // The PR 4 introspection surface under TSan: the router thread ingests
  // at full speed while this thread (standing in for the HTTP server
  // thread, which calls exactly these methods) hammers every snapshot
  // accessor. Snapshots must only ever touch published (mutex-guarded)
  // slots and always-safe atomics, so any race TSan finds here is a bug in
  // the publish protocol, not the test.
  constexpr int kStreams = 4;
  constexpr int64_t kTicks = 1500;

  int64_t expected_total = 0;
  for (int i = 0; i < kStreams; ++i) {
    expected_total += ReferenceMatchCount(i, kTicks);
  }

  ShardedMonitorOptions options;
  options.num_workers = 4;
  options.queue_capacity = 8;
  options.collect_metrics = true;
  options.publish_interval_ms = 0.0;  // publish at every barrier
  options.staleness_budget_ms = 60000.0;  // never flips during the test
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);
  std::vector<int64_t> stream_ids;
  std::vector<std::vector<double>> inputs;
  for (int i = 0; i < kStreams; ++i) {
    stream_ids.push_back(monitor.AddStream("s" + std::to_string(i)));
    ASSERT_TRUE(monitor
                    .AddQuery(stream_ids.back(), "q", {1.0, 2.0, 3.0},
                              TestOptions())
                    .ok());
    inputs.push_back(ShardStream(i, kTicks));
  }

  monitor.Start();
  std::atomic<bool> done{false};
  std::atomic<int64_t> snapshots_taken{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const obs::HealthReport health = monitor.HealthSnapshot();
      EXPECT_TRUE(health.healthy) << health.state;
      const obs::StatusReport status = monitor.StatusSnapshot();
      EXPECT_EQ(status.role, "sharded_monitor");
      (void)monitor.telemetry()->PublishedMetricsSnapshot();
      (void)monitor.telemetry()->PublishedTraces();
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  int64_t delivered = 0;
  for (int64_t t = 0; t < kTicks; ++t) {
    for (int i = 0; i < kStreams; ++i) {
      ASSERT_TRUE(monitor
                      .Push(stream_ids[static_cast<size_t>(i)],
                            inputs[static_cast<size_t>(i)]
                                  [static_cast<size_t>(t)])
                      .ok());
    }
    if (t % 97 == 0) delivered += monitor.Drain();
  }
  delivered += monitor.FlushAll();
  done.store(true, std::memory_order_release);
  scraper.join();
  monitor.Stop();

  EXPECT_GT(snapshots_taken.load(), 0);
  EXPECT_EQ(delivered, expected_total);
  EXPECT_EQ(static_cast<int64_t>(sink.entries().size()), expected_total);
}

TEST(MonitorConcurrencyTest, SpanStagesStayMonotoneUnderStress) {
  // End-to-end span sampling (1 in 64 ticks) over enough ticks to wrap the
  // 256-span ring, while a scraper thread hammers the span/cost snapshot
  // accessors. Two invariants under TSan:
  //   * the publish protocol stays race-free (TSan verdict), and
  //   * every completed span's stage timestamps are monotone in pipeline
  //     order — each stamp is taken on one monotonic clock strictly after
  //     the previous stage's, across three threads (router -> worker ->
  //     router), so any inversion means a broken happens-before edge.
  constexpr int kStreams = 4;
  constexpr int64_t kTicks = 5000;  // 20000 values: ~312 spans

  ShardedMonitorOptions options;
  options.num_workers = 4;
  options.queue_capacity = 8;
  options.collect_metrics = true;
  options.publish_interval_ms = 0.0;
  options.staleness_budget_ms = 60000.0;
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);
  std::vector<int64_t> stream_ids;
  std::vector<std::vector<double>> inputs;
  for (int i = 0; i < kStreams; ++i) {
    stream_ids.push_back(monitor.AddStream("s" + std::to_string(i)));
    ASSERT_TRUE(monitor
                    .AddQuery(stream_ids.back(), "q", {1.0, 2.0, 3.0},
                              TestOptions())
                    .ok());
    inputs.push_back(ShardStream(i, kTicks));
  }

  monitor.Start();
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)monitor.telemetry()->PublishedSpans();
      (void)monitor.telemetry()->QueryzJson();
      (void)monitor.telemetry()->StreamzJson();
      std::this_thread::yield();
    }
  });

  for (int64_t t = 0; t < kTicks; ++t) {
    for (int i = 0; i < kStreams; ++i) {
      ASSERT_TRUE(monitor
                      .Push(stream_ids[static_cast<size_t>(i)],
                            inputs[static_cast<size_t>(i)]
                                  [static_cast<size_t>(t)])
                      .ok());
    }
    if (t % 97 == 0) monitor.Drain();
  }
  monitor.FlushAll();
  done.store(true, std::memory_order_release);
  scraper.join();

  const obs::SpanzReport report = monitor.telemetry()->PublishedSpans();
  ASSERT_FALSE(report.spans.empty());
  EXPECT_GT(report.dropped, 0) << "~312 spans must wrap the 256-span ring";
  uint64_t prev_seq = 0;
  bool first = true;
  for (const obs::TickSpan& span : report.spans) {
    EXPECT_EQ(span.client_send_nanos, 0u) << "in-process pushes are unstamped";
    EXPECT_GT(span.server_recv_nanos, 0u);
    EXPECT_GE(span.router_enqueue_nanos, span.server_recv_nanos);
    EXPECT_GE(span.worker_pop_nanos, span.router_enqueue_nanos);
    EXPECT_GE(span.worker_done_nanos, span.worker_pop_nanos);
    EXPECT_GE(span.delivered_nanos, span.worker_done_nanos);
    EXPECT_EQ(span.subscriber_write_nanos, 0u) << "no net server attached";
    EXPECT_GE(span.stream_id, 0);
    if (!first) {
      EXPECT_GT(span.seq, prev_seq) << "ring must stay seq-ordered";
    }
    prev_seq = span.seq;
    first = false;
  }

  monitor.Stop();
}

TEST(MonitorConcurrencyTest, TimelineAndAlertScrapesRaceFreeWhileIngesting) {
  // The timeline + alerting layer under TSan: the router thread (this
  // thread) folds published snapshots into the timeline and runs alert
  // evaluation on every Drain (publish_interval_ms = 0 defeats the poll
  // throttle), while a scraper thread hammers /timez and /alertz render
  // paths plus the health verdict. Timeline and engine live behind the
  // plane's publish mutex and the page verdict rides an atomic — any
  // race TSan finds is a protocol bug.
  constexpr int kStreams = 4;
  constexpr int64_t kTicks = 1500;

  int64_t expected_total = 0;
  for (int i = 0; i < kStreams; ++i) {
    expected_total += ReferenceMatchCount(i, kTicks);
  }

  ShardedMonitorOptions options;
  options.num_workers = 4;
  options.queue_capacity = 8;
  options.publish_interval_ms = 0.0;
  options.staleness_budget_ms = 60000.0;  // never flips during the test
  options.enable_timeline = true;
  options.slo_p99_ms = 1e9;  // Burn rule present, never trips.
  for (const char* line :
       {"alert hot warn rate(spring_ticks_total) > 1e15",
        "alert rings page ratio(spring_ring_occupancy, spring_ring_capacity)"
        " > 2"}) {
    auto rule = obs::ParseAlertRule(line);
    ASSERT_TRUE(rule.ok()) << rule.status().ToString();
    options.alert_rules.push_back(*std::move(rule));
  }
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);
  std::vector<int64_t> stream_ids;
  std::vector<std::vector<double>> inputs;
  for (int i = 0; i < kStreams; ++i) {
    stream_ids.push_back(monitor.AddStream("s" + std::to_string(i)));
    ASSERT_TRUE(monitor
                    .AddQuery(stream_ids.back(), "q", {1.0, 2.0, 3.0},
                              TestOptions())
                    .ok());
    inputs.push_back(ShardStream(i, kTicks));
  }

  monitor.Start();
  std::atomic<bool> done{false};
  std::atomic<int64_t> scrapes{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)monitor.telemetry()->TimezJson("");
      (void)monitor.telemetry()->TimezJson(
          "metric=spring_ticks_total&window=60");
      const std::string alertz = monitor.telemetry()->AlertzJson();
      EXPECT_NE(alertz.find("\"rules\":["), std::string::npos);
      const obs::HealthReport health = monitor.HealthSnapshot();
      EXPECT_TRUE(health.healthy) << health.state;
      scrapes.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  int64_t delivered = 0;
  for (int64_t t = 0; t < kTicks; ++t) {
    for (int i = 0; i < kStreams; ++i) {
      ASSERT_TRUE(monitor
                      .Push(stream_ids[static_cast<size_t>(i)],
                            inputs[static_cast<size_t>(i)]
                                  [static_cast<size_t>(t)])
                      .ok());
    }
    if (t % 97 == 0) delivered += monitor.Drain();
  }
  delivered += monitor.FlushAll();
  done.store(true, std::memory_order_release);
  scraper.join();
  monitor.Stop();

  EXPECT_GT(scrapes.load(), 0);
  EXPECT_EQ(delivered, expected_total);
  // The barriers drove real evaluation passes over real records.
  EXPECT_NE(monitor.telemetry()->TimezJson("").find("spring_ticks_total"),
            std::string::npos);
  EXPECT_NE(monitor.telemetry()->AlertzJson().find("\"name\":\"hot\""),
            std::string::npos);
}

}  // namespace
}  // namespace monitor
}  // namespace springdtw
