// MonitorEngine::RemoveQuery / ShardedMonitor::RemoveQuery semantics: a
// pending candidate is flushed iff it is already report-eligible under the
// paper's Problem-2 rule (no current-row cell with d(t,i) < d_min and
// s(t,i) <= t_e), removal tombstones the global id without shifting other
// ids, checkpoints skip removed queries and round-trip byte-identically,
// all of it the same whether the engine is fed by Push or PushBatch, and in
// agreement with standalone SpringMatchers.
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/spring.h"
#include "gtest/gtest.h"
#include "monitor/engine.h"
#include "monitor/sharded_monitor.h"
#include "monitor/sink.h"
#include "util/random.h"

namespace springdtw {
namespace monitor {
namespace {

core::SpringOptions Eps(double epsilon) {
  core::SpringOptions options;
  options.epsilon = epsilon;
  return options;
}

/// The parameter selects the ingest call: per-value Push (false) or one
/// PushBatch run (true).
class EngineModeTest : public ::testing::TestWithParam<bool> {
 protected:
  void Feed(MonitorEngine* engine, int64_t stream,
            const std::vector<double>& values) {
    if (GetParam()) {
      ASSERT_TRUE(engine->PushBatch(stream, values).ok());
      return;
    }
    for (const double v : values) ASSERT_TRUE(engine->Push(stream, v).ok());
  }
};

INSTANTIATE_TEST_SUITE_P(ScalarAndBatch, EngineModeTest, ::testing::Bool());

TEST_P(EngineModeTest, RemoveUnknownOrRemovedQueryFails) {
  MonitorEngine engine;
  const int64_t stream = engine.AddStream("s");
  const int64_t q0 = *engine.AddQuery(stream, "q0", {1.0, 2.0}, Eps(0.5));
  const int64_t q1 = *engine.AddQuery(stream, "q1", {3.0}, Eps(0.5));

  EXPECT_EQ(engine.RemoveQuery(-1).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(engine.RemoveQuery(99).status().code(),
            util::StatusCode::kNotFound);

  ASSERT_TRUE(engine.RemoveQuery(q0).ok());
  EXPECT_TRUE(engine.query_removed(q0));
  EXPECT_FALSE(engine.query_removed(q1));
  // Tombstone: ids do not shift, the count of live queries drops.
  EXPECT_EQ(engine.num_queries(), 2);
  EXPECT_EQ(engine.num_active_queries(), 1);
  // Double remove is NotFound, not a crash.
  EXPECT_EQ(engine.RemoveQuery(q0).status().code(),
            util::StatusCode::kNotFound);
  // The survivor still ingests under its old id.
  Feed(&engine, stream, {3.0});
  EXPECT_EQ(engine.stats(q1).ticks, 1);
}

TEST_P(EngineModeTest, EligibleCandidateFlushesOnRemove) {
  MonitorEngine engine;
  CollectSink sink;
  engine.AddSink(&sink);
  const int64_t stream = engine.AddStream("s");
  const int64_t query =
      *engine.AddQuery(stream, "q", {1.0, 2.0, 3.0}, Eps(0.5));
  // Exact pattern occurrence ending at the last tick: the candidate was
  // updated to dmin = 0 *after* this tick's report check ran, and no cell
  // can beat a zero distance, so removal must flush it.
  Feed(&engine, stream, {5.0, 1.0, 2.0, 3.0});
  ASSERT_TRUE(sink.entries().empty());
  util::StatusOr<int64_t> flushed = engine.RemoveQuery(query);
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(*flushed, 1);
  ASSERT_EQ(sink.entries().size(), 1u);
  const CollectSink::Entry& entry = sink.entries()[0];
  EXPECT_EQ(entry.origin.query_id, query);
  EXPECT_EQ(entry.origin.query_name, "q");
  EXPECT_EQ(entry.match.start, 1);
  EXPECT_EQ(entry.match.end, 3);
  EXPECT_EQ(entry.match.distance, 0.0);
  EXPECT_EQ(entry.match.report_time, 4);
  EXPECT_EQ(engine.stats(query).matches, 1);
}

TEST_P(EngineModeTest, NoCandidateNothingToFlush) {
  MonitorEngine engine;
  CollectSink sink;
  engine.AddSink(&sink);
  const int64_t stream = engine.AddStream("s");
  const int64_t query =
      *engine.AddQuery(stream, "q", {1.0, 2.0, 3.0}, Eps(0.5));
  Feed(&engine, stream, {9.0, 9.0, 9.0});
  util::StatusOr<int64_t> flushed = engine.RemoveQuery(query);
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(*flushed, 0);
  EXPECT_TRUE(sink.entries().empty());
  EXPECT_EQ(engine.stats(query).matches, 0);
}

// Property: the engine's flush-on-remove decision must equal the Problem-2
// predicate evaluated on a standalone scalar matcher fed the same values
// (rows 1..m; the star row is exempt). Random prefixes must exercise both
// outcomes, or the test is vacuous.
TEST_P(EngineModeTest, FlushDecisionMatchesScalarOraclePredicate) {
  util::Rng rng(20260807);
  int64_t flushed_cases = 0;
  int64_t dropped_cases = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> query_values;
    const int64_t m = 2 + rng.UniformInt(0, 2);
    for (int64_t i = 0; i < m; ++i) {
      query_values.push_back(static_cast<double>(rng.UniformInt(0, 3)));
    }
    const core::SpringOptions options = Eps(1.5);

    MonitorEngine engine;
    CollectSink sink;
    engine.AddSink(&sink);
    const int64_t stream = engine.AddStream("s");
    const int64_t query =
        *engine.AddQuery(stream, "q", query_values, options);
    core::SpringMatcher oracle(query_values, options);

    std::vector<double> prefix(
        static_cast<size_t>(1 + rng.UniformInt(0, 30)));
    for (double& v : prefix) {
      v = static_cast<double>(rng.UniformInt(0, 3));
      core::Match ignored;
      (void)oracle.Update(v, &ignored);
    }
    Feed(&engine, stream, prefix);

    bool expect_flush = false;
    if (oracle.has_pending_candidate() &&
        oracle.candidate_distance() <= options.epsilon) {
      expect_flush = true;
      const std::span<const double> d = oracle.LastRowDistances();
      const std::span<const int64_t> s = oracle.LastRowStarts();
      for (size_t i = 1; i < d.size(); ++i) {
        if (d[i] < oracle.candidate_distance() &&
            s[i] <= oracle.candidate_end()) {
          expect_flush = false;
          break;
        }
      }
    }

    const size_t matches_before = sink.entries().size();
    util::StatusOr<int64_t> flushed = engine.RemoveQuery(query);
    ASSERT_TRUE(flushed.ok());
    EXPECT_EQ(*flushed, expect_flush ? 1 : 0) << "trial " << trial;
    ASSERT_EQ(sink.entries().size(), matches_before + (expect_flush ? 1 : 0));
    if (expect_flush) {
      const CollectSink::Entry& entry = sink.entries().back();
      EXPECT_EQ(entry.match.start, oracle.candidate_start());
      EXPECT_EQ(entry.match.end, oracle.candidate_end());
      EXPECT_EQ(entry.match.distance, oracle.candidate_distance());
      ++flushed_cases;
    } else {
      ++dropped_cases;
    }
  }
  EXPECT_GT(flushed_cases, 0);
  EXPECT_GT(dropped_cases, 0);
}

// The engine (fed by PushBatch around a mid-ingest removal) against one
// standalone SpringMatcher per query, the removed one flushed by the
// Problem-2 predicate on its live row: identical match streams and flush
// counts.
TEST(RemoveQueryDifferentialTest, BatchAgreesWithScalar) {
  util::Rng rng(7771);
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<std::vector<double>> patterns = {
        {1.0, 2.0, 3.0}, {2.0, 2.0}, {0.0, 1.0, 0.0}};
    const auto options = [](size_t q) { return Eps(q == 1 ? 0.5 : 2.0); };
    const int64_t n = 60 + rng.UniformInt(0, 60);
    std::vector<double> values(static_cast<size_t>(n));
    for (double& v : values) v = static_cast<double>(rng.UniformInt(0, 3));
    const size_t remove_at = static_cast<size_t>(rng.UniformInt(1, n - 1));
    const size_t remove_query = static_cast<size_t>(rng.UniformInt(0, 2));

    MonitorEngine engine;
    CollectSink sink;
    engine.AddSink(&sink);
    const int64_t stream = engine.AddStream("s");
    for (size_t q = 0; q < patterns.size(); ++q) {
      ASSERT_TRUE(engine
                      .AddQuery(stream, "q" + std::to_string(q), patterns[q],
                                options(q))
                      .ok());
    }
    const std::span<const double> all(values);
    ASSERT_TRUE(engine.PushBatch(stream, all.first(remove_at)).ok());
    const util::StatusOr<int64_t> flushed =
        engine.RemoveQuery(static_cast<int64_t>(remove_query));
    ASSERT_TRUE(flushed.ok());
    ASSERT_TRUE(engine.PushBatch(stream, all.subspan(remove_at)).ok());
    engine.FlushAll();

    std::vector<core::SpringMatcher> oracle;
    for (size_t q = 0; q < patterns.size(); ++q) {
      oracle.emplace_back(patterns[q], options(q));
    }
    std::vector<std::pair<size_t, core::Match>> expected;
    int64_t expected_flushed = 0;
    core::Match match;
    for (size_t i = 0; i < values.size(); ++i) {
      if (i == remove_at) {
        const core::SpringMatcher& removed = oracle[remove_query];
        bool eligible = removed.has_pending_candidate() &&
                        removed.candidate_distance() <=
                            removed.options().epsilon;
        const std::span<const double> d = removed.LastRowDistances();
        const std::span<const int64_t> s = removed.LastRowStarts();
        for (size_t r = 1; eligible && r < d.size(); ++r) {
          eligible = !(d[r] < removed.candidate_distance() &&
                       s[r] <= removed.candidate_end());
        }
        if (eligible) {
          core::Match flushed_match;
          flushed_match.start = removed.candidate_start();
          flushed_match.end = removed.candidate_end();
          flushed_match.distance = removed.candidate_distance();
          flushed_match.report_time = removed.ticks_processed();
          expected.emplace_back(remove_query, flushed_match);
          expected_flushed = 1;
        }
      }
      for (size_t q = 0; q < oracle.size(); ++q) {
        if (i >= remove_at && q == remove_query) continue;
        if (oracle[q].Update(values[i], &match)) {
          expected.emplace_back(q, match);
        }
      }
    }
    for (size_t q = 0; q < oracle.size(); ++q) {
      if (q != remove_query && oracle[q].Flush(&match)) {
        expected.emplace_back(q, match);
      }
    }

    EXPECT_EQ(*flushed, expected_flushed) << "trial " << trial;
    ASSERT_EQ(sink.entries().size(), expected.size()) << "trial " << trial;
    for (size_t i = 0; i < expected.size(); ++i) {
      const CollectSink::Entry& got = sink.entries()[i];
      EXPECT_EQ(got.origin.query_id, static_cast<int64_t>(expected[i].first));
      EXPECT_EQ(got.match.start, expected[i].second.start);
      EXPECT_EQ(got.match.end, expected[i].second.end);
      EXPECT_EQ(got.match.distance, expected[i].second.distance);
      EXPECT_EQ(got.match.report_time, expected[i].second.report_time);
    }
  }
}

// Removal must not disturb checkpoints: serialize-after-remove restores
// into an engine whose own serialization is byte-identical, and both
// continue identically.
TEST_P(EngineModeTest, CheckpointAfterRemoveRoundTripsByteIdentically) {
  MonitorEngine engine;
  CollectSink sink;
  engine.AddSink(&sink);
  const int64_t stream = engine.AddStream("s");
  ASSERT_TRUE(engine.AddQuery(stream, "q0", {1.0, 2.0, 3.0}, Eps(2.0)).ok());
  const int64_t q1 = *engine.AddQuery(stream, "q1", {2.0, 2.0}, Eps(0.5));
  ASSERT_TRUE(engine.AddQuery(stream, "q2", {0.0, 1.0}, Eps(1.0)).ok());
  util::Rng rng(99);
  std::vector<double> prefix(50);
  for (double& v : prefix) v = static_cast<double>(rng.UniformInt(0, 3));
  Feed(&engine, stream, prefix);
  ASSERT_TRUE(engine.RemoveQuery(q1).ok());

  const std::vector<uint8_t> snapshot = engine.SerializeState();
  MonitorEngine restored;
  CollectSink restored_sink;
  restored.AddSink(&restored_sink);
  ASSERT_TRUE(restored.RestoreState(snapshot).ok());
  EXPECT_EQ(restored.SerializeState(), snapshot);

  // Note the restored engine compacts ids (removed queries are not in the
  // checkpoint), so compare by name + match fields, not raw ids.
  sink.Clear();
  for (int i = 0; i < 50; ++i) {
    const double v = static_cast<double>(rng.UniformInt(0, 3));
    ASSERT_TRUE(engine.Push(stream, v).ok());
    ASSERT_TRUE(restored.Push(stream, v).ok());
  }
  engine.FlushAll();
  restored.FlushAll();
  ASSERT_EQ(sink.entries().size(), restored_sink.entries().size());
  for (size_t i = 0; i < sink.entries().size(); ++i) {
    EXPECT_EQ(sink.entries()[i].origin.query_name,
              restored_sink.entries()[i].origin.query_name);
    EXPECT_EQ(sink.entries()[i].match.start,
              restored_sink.entries()[i].match.start);
    EXPECT_EQ(sink.entries()[i].match.end,
              restored_sink.entries()[i].match.end);
    EXPECT_EQ(sink.entries()[i].match.distance,
              restored_sink.entries()[i].match.distance);
  }
}

// ShardedMonitor removal: same schedule as a single reference engine, for
// 1/2/8 workers — identical output (flush ordered after tick matches),
// Status errors for bad ids, and ListQueries reflecting the tombstone.
class ShardedRemoveTest : public ::testing::TestWithParam<int64_t> {};

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ShardedRemoveTest,
                         ::testing::Values<int64_t>(1, 2, 8));

TEST_P(ShardedRemoveTest, MatchesSingleEngineWithMidStreamRemovals) {
  util::Rng rng(4242);
  const int64_t kStreams = 4;
  std::vector<std::pair<int64_t, double>> ops;
  for (int i = 0; i < 3000; ++i) {
    ops.emplace_back(rng.UniformInt(0, kStreams - 1),
                     static_cast<double>(rng.UniformInt(0, 3)));
  }
  const std::vector<std::vector<double>> patterns = {
      {1.0, 2.0, 3.0}, {2.0, 2.0}, {0.0, 1.0, 0.0}, {3.0, 3.0}};
  // (op index, query id) removal schedule.
  const std::vector<std::pair<int64_t, int64_t>> removals = {
      {500, 1}, {1500, 6}, {2500, 3}};

  auto build = [&](auto&& add_stream, auto&& add_query) {
    for (int64_t s = 0; s < kStreams; ++s) {
      add_stream("stream-" + std::to_string(s));
    }
    int64_t id = 0;
    for (int64_t s = 0; s < kStreams; ++s) {
      for (int64_t q = 0; q < 2; ++q, ++id) {
        add_query(s, "q" + std::to_string(id),
                  patterns[static_cast<size_t>((s + q) % 4)],
                  Eps(q == 0 ? 0.75 : 3.0));
      }
    }
  };

  // Reference: one engine, removals inline.
  MonitorEngine reference;
  CollectSink reference_sink;
  reference.AddSink(&reference_sink);
  build([&](const std::string& name) { reference.AddStream(name); },
        [&](int64_t s, const std::string& name,
            const std::vector<double>& values,
            const core::SpringOptions& options) {
          ASSERT_TRUE(reference.AddQuery(s, name, values, options).ok());
        });
  std::vector<int64_t> reference_flushed;
  {
    size_t next_removal = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      while (next_removal < removals.size() &&
             removals[next_removal].first == static_cast<int64_t>(i)) {
        util::StatusOr<int64_t> flushed =
            reference.RemoveQuery(removals[next_removal].second);
        ASSERT_TRUE(flushed.ok());
        reference_flushed.push_back(*flushed);
        ++next_removal;
      }
      ASSERT_TRUE(reference.Push(ops[i].first, ops[i].second).ok());
    }
  }

  ShardedMonitorOptions options;
  options.num_workers = GetParam();
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);
  build([&](const std::string& name) { monitor.AddStream(name); },
        [&](int64_t s, const std::string& name,
            const std::vector<double>& values,
            const core::SpringOptions& opts) {
          ASSERT_TRUE(monitor.AddQuery(s, name, values, opts).ok());
        });
  monitor.Start();
  std::vector<int64_t> sharded_flushed;
  {
    size_t next_removal = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      while (next_removal < removals.size() &&
             removals[next_removal].first == static_cast<int64_t>(i)) {
        util::StatusOr<int64_t> flushed =
            monitor.RemoveQuery(removals[next_removal].second);
        ASSERT_TRUE(flushed.ok());
        sharded_flushed.push_back(*flushed);
        ++next_removal;
      }
      ASSERT_TRUE(monitor.Push(ops[i].first, ops[i].second).ok());
    }
  }
  monitor.Drain();
  monitor.Stop();

  EXPECT_EQ(sharded_flushed, reference_flushed);
  // The reference dispatches immediately; the sharded monitor delivers at
  // barriers in (seq, query id) order. Removal flushes must land in the
  // same relative position in both.
  ASSERT_EQ(sink.entries().size(), reference_sink.entries().size());
  for (size_t i = 0; i < sink.entries().size(); ++i) {
    EXPECT_EQ(sink.entries()[i].origin.stream_name,
              reference_sink.entries()[i].origin.stream_name)
        << i;
    EXPECT_EQ(sink.entries()[i].origin.query_name,
              reference_sink.entries()[i].origin.query_name)
        << i;
    EXPECT_EQ(sink.entries()[i].match.start,
              reference_sink.entries()[i].match.start)
        << i;
    EXPECT_EQ(sink.entries()[i].match.end,
              reference_sink.entries()[i].match.end)
        << i;
    EXPECT_EQ(sink.entries()[i].match.distance,
              reference_sink.entries()[i].match.distance)
        << i;
    EXPECT_EQ(sink.entries()[i].match.report_time,
              reference_sink.entries()[i].match.report_time)
        << i;
  }
}

TEST_P(ShardedRemoveTest, AdminErrorsAndListQueries) {
  ShardedMonitorOptions options;
  options.num_workers = GetParam();
  ShardedMonitor monitor(options);
  const int64_t s0 = monitor.AddStream("alpha");
  const int64_t s1 = monitor.AddStream("beta");
  const int64_t q0 = *monitor.AddQuery(s0, "q0", {1.0, 2.0}, Eps(0.5));
  const int64_t q1 = *monitor.AddQuery(s1, "q1", {2.0}, Eps(0.5));
  monitor.Start();

  EXPECT_EQ(monitor.RemoveQuery(-3).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(monitor.RemoveQuery(17).status().code(),
            util::StatusCode::kNotFound);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(monitor.Push(s0, 9.0).ok());
    ASSERT_TRUE(monitor.Push(s1, 9.0).ok());
  }
  ASSERT_TRUE(monitor.RemoveQuery(q0).ok());
  EXPECT_EQ(monitor.RemoveQuery(q0).status().code(),
            util::StatusCode::kNotFound);

  const std::vector<QueryCost> live = monitor.ListQueries();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].query_id, q1);
  EXPECT_EQ(live[0].query_name, "q1");
  EXPECT_EQ(live[0].stream_name, "beta");
  EXPECT_EQ(live[0].ticks, 10);

  // Removed ids keep their stats; the stream keeps ingesting.
  EXPECT_EQ(monitor.stats(q0).ticks, 10);
  ASSERT_TRUE(monitor.Push(s0, 1.0).ok());
  monitor.Drain();
  monitor.Stop();

  // Checkpoint after removal restores only the live query.
  const std::vector<uint8_t> snapshot = monitor.SerializeState();
  ShardedMonitor restored(options);
  ASSERT_TRUE(restored.RestoreState(snapshot).ok());
  EXPECT_EQ(restored.num_queries(), 1);
  EXPECT_EQ(restored.SerializeState(), snapshot);
}

}  // namespace
}  // namespace monitor
}  // namespace springdtw
