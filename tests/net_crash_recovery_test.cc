// Crash-injection suite for durable ingest (docs/DURABILITY.md): fork/exec
// the real springdtw_serve binary with a write-ahead log, kill -9 it at
// randomized points mid-ingest, restart it on the same WAL directory, and
// assert that the match stream delivered across the crash — after client-
// side dedup by the (global seq, query) identity — is byte-identical to an
// uninterrupted run: zero duplicates, zero losses, same order. The matrix
// covers {1, 2, 8} workers x all three fsync policies; SIGKILL (never
// SIGTERM) so the daemon gets no chance to flush anything.
//
// Why kill -9 is recoverable even under --fsync=os: the page cache belongs
// to the kernel, not the process, so every WAL byte the daemon wrote
// before dying is still readable afterwards. Only power loss can eat it,
// which is what the stronger policies are for.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "monitor/sharded_monitor.h"
#include "monitor/sink.h"
#include "net/client.h"
#include "net/protocol.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "wal/env.h"

namespace springdtw {
namespace net {
namespace {

using monitor::CollectSink;
using monitor::ShardedMonitor;
using monitor::ShardedMonitorOptions;

// (stream name, query name, match fields) — ids are not compared because
// restored monitors compact query ids.
using MatchKey =
    std::tuple<std::string, std::string, int64_t, int64_t, double, int64_t>;

MatchKey KeyOf(const std::string& stream_name, const std::string& query_name,
               const core::Match& match) {
  return {stream_name, query_name, match.start, match.end, match.distance,
          match.report_time};
}

core::SpringOptions Eps(double epsilon) {
  core::SpringOptions options;
  options.epsilon = epsilon;
  return options;
}

struct QuerySpec {
  std::string stream;
  std::string name;
  std::vector<double> values;
  double epsilon;
};

std::vector<QuerySpec> Topology() {
  return {
      {"s0", "q-ramp", {1.0, 2.0, 3.0}, 0.5},
      {"s1", "q-flat", {2.0, 2.0, 2.0}, 1.0},
      {"s0", "q-bump", {1.0, 2.0, 3.0, 2.0, 1.0}, 2.0},
  };
}

struct Chunk {
  std::string stream;
  std::vector<double> values;
};

std::vector<Chunk> Workload(uint64_t seed, int64_t chunks,
                            int64_t chunk_size) {
  util::Rng rng(seed);
  std::vector<Chunk> out;
  for (int64_t c = 0; c < chunks; ++c) {
    Chunk chunk;
    chunk.stream = (c % 2 == 0) ? "s0" : "s1";
    for (int64_t i = 0; i < chunk_size; ++i) {
      chunk.values.push_back(static_cast<double>(rng.UniformInt(0, 4)));
    }
    out.push_back(std::move(chunk));
  }
  return out;
}

// The query a late-query case adds to s0 over the wire mid-stream.
QuerySpec LateQuery() { return {"s0", "q-late", {3.0, 1.0, 3.0}, 1.0}; }

// The uninterrupted run, executed in-process. Match fields depend only on
// each stream's tick sequence, which the wire runs reproduce exactly, so
// this is the byte-level ground truth for any worker count. With
// `late_at` >= 0, LateQuery() is added just before chunk `late_at`.
std::vector<MatchKey> DirectReference(int64_t workers,
                                      const std::vector<Chunk>& chunks,
                                      int64_t late_at = -1) {
  ShardedMonitorOptions options;
  options.num_workers = workers;
  ShardedMonitor ref(options);
  CollectSink sink;
  ref.AddSink(&sink);
  const int64_t s0 = ref.AddStream("s0");
  const int64_t s1 = ref.AddStream("s1");
  for (const auto& spec : Topology()) {
    auto added = ref.AddQuery(spec.stream == "s0" ? s0 : s1, spec.name,
                              spec.values, Eps(spec.epsilon));
    SPRINGDTW_CHECK(added.ok());
  }
  ref.Start();
  for (size_t c = 0; c < chunks.size(); ++c) {
    if (static_cast<int64_t>(c) == late_at) {
      const QuerySpec late = LateQuery();
      SPRINGDTW_CHECK(
          ref.AddQuery(s0, late.name, late.values, Eps(late.epsilon)).ok());
    }
    SPRINGDTW_CHECK(ref.PushBatch(chunks[c].stream == "s0" ? s0 : s1,
                                  chunks[c].values)
                        .ok());
  }
  ref.Drain();
  ref.Stop();
  std::vector<MatchKey> keys;
  for (const auto& entry : sink.entries()) {
    keys.push_back(
        KeyOf(entry.origin.stream_name, entry.origin.query_name, entry.match));
  }
  return keys;
}

/// fork/execs the serve daemon and scrapes SERVE_PORT from its stdout.
class ServeProcess {
 public:
  ServeProcess(int64_t workers, const std::string& fsync,
               const std::string& wal_dir) {
    int fds[2];
    SPRINGDTW_CHECK(pipe(fds) == 0);
    pid_ = fork();
    SPRINGDTW_CHECK(pid_ >= 0);
    if (pid_ == 0) {
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      const std::string workers_arg = "--workers=" + std::to_string(workers);
      const std::string fsync_arg = "--fsync=" + fsync;
      const std::string wal_arg = "--wal_dir=" + wal_dir;
      execl(SPRINGDTW_SERVE_BIN, SPRINGDTW_SERVE_BIN, "--port=0",
            workers_arg.c_str(), fsync_arg.c_str(), wal_arg.c_str(),
            "--fsync_interval_ms=5", static_cast<char*>(nullptr));
      _exit(127);  // exec failed
    }
    close(fds[1]);
    // Read the child's stdout until the port line is complete; the child
    // keeps the pipe open for its lifetime.
    std::string out;
    char ch = 0;
    while (port_ < 0 && read(fds[0], &ch, 1) == 1) {
      out.push_back(ch);
      if (ch == '\n') {
        int parsed = -1;
        if (std::sscanf(out.c_str(), "SERVE_PORT=%d", &parsed) == 1) {
          port_ = parsed;
        }
        out.clear();
      }
    }
    close(fds[0]);
  }

  ~ServeProcess() {
    if (pid_ > 0) Kill();
  }

  int port() const { return port_; }

  /// SIGKILL — the crash under test. Never SIGTERM: the daemon must get
  /// no opportunity to checkpoint or flush.
  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = -1;
};

StreamClientOptions ClientOptionsFor(int port) {
  StreamClientOptions options;
  options.port = port;
  options.io_timeout_ms = 10000.0;
  // Flush each TickBatch immediately so the kill point lands mid-stream on
  // the server, not in this process's pipeline buffer.
  options.tick_flush_bytes = 1;
  return options;
}

std::string FreshWalDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/crash_" + name;
  wal::Env* env = wal::Env::Default();
  if (env->FileExists(dir)) {
    auto names = env->ListDir(dir);
    SPRINGDTW_CHECK(names.ok());
    for (const std::string& file : *names) {
      SPRINGDTW_CHECK(env->RemoveFile(dir + "/" + file).ok());
    }
  }
  return dir;
}

struct CrashCase {
  int64_t workers;
  std::string fsync;
  uint64_t kill_seed;
};

class CrashRecoveryTest : public ::testing::TestWithParam<CrashCase> {};

std::string CaseName(const ::testing::TestParamInfo<CrashCase>& info) {
  return "w" + std::to_string(info.param.workers) + "_" + info.param.fsync +
         "_k" + std::to_string(info.param.kill_seed);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CrashRecoveryTest,
    ::testing::Values(CrashCase{1, "os", 1}, CrashCase{1, "every_record", 2},
                      CrashCase{1, "interval", 3}, CrashCase{2, "os", 4},
                      CrashCase{2, "every_record", 5},
                      CrashCase{2, "interval", 6}, CrashCase{8, "os", 7},
                      CrashCase{8, "every_record", 8},
                      CrashCase{8, "interval", 9},
                      // Second kill point per policy at one worker count.
                      CrashCase{2, "os", 10}, CrashCase{2, "every_record", 11},
                      CrashCase{2, "interval", 12}),
    CaseName);

// One crash case: ingest until a randomized kill -9, restart on the same
// WAL, resume from the accepted prefix, and compare the deduplicated
// delivery with the uninterrupted run. With `late_query`, session 1 adds
// LateQuery() over the wire halfway to the kill point, so the restart
// recovers it from the admin checkpoint (written from the pools'
// canonical snapshots) and the WAL tail replays through pruned pools.
void RunCrashCase(const CrashCase& param, bool late_query) {
  const int64_t kChunks = 40;
  const int64_t kChunkSize = 25;
  const std::vector<Chunk> chunks =
      Workload(/*seed=*/20260808, kChunks, kChunkSize);

  // Randomized mid-ingest kill point: somewhere in the middle half.
  util::Rng rng(param.kill_seed);
  const int64_t kill_after =
      kChunks / 4 +
      static_cast<int64_t>(rng.UniformInt(0, static_cast<int>(kChunks / 2)));
  const int64_t late_at = late_query ? kill_after / 2 : -1;

  const std::vector<MatchKey> expected =
      DirectReference(param.workers, chunks, late_at);
  ASSERT_FALSE(expected.empty()) << "workload must exercise match fan-out";
  if (late_query) {
    const auto late_matches =
        std::count_if(expected.begin(), expected.end(),
                      [](const MatchKey& key) {
                        return std::get<1>(key) == LateQuery().name;
                      });
    ASSERT_GT(late_matches, 0) << "the late query must deliver matches";
  }

  const std::string wal_dir =
      FreshWalDir(std::string(late_query ? "late_" : "") + "w" +
                  std::to_string(param.workers) + "_" + param.fsync + "_k" +
                  std::to_string(param.kill_seed));

  // --- Session 1: ingest until the crash. ------------------------------
  std::vector<MatchEventPayload> session1_events;
  {
    ServeProcess serve(param.workers, param.fsync, wal_dir);
    ASSERT_GT(serve.port(), 0);
    StreamClient client(ClientOptionsFor(serve.port()));
    client.SetMatchCallback([&session1_events](const MatchEventPayload& e) {
      session1_events.push_back(e);
    });
    ASSERT_TRUE(client.Connect().ok());
    auto s0 = client.OpenStream("s0");
    ASSERT_TRUE(s0.ok());
    auto s1 = client.OpenStream("s1");
    ASSERT_TRUE(s1.ok());
    for (const auto& spec : Topology()) {
      auto added = client.AddQuery(spec.stream == "s0" ? *s0 : *s1, spec.name,
                                   spec.values, Eps(spec.epsilon));
      ASSERT_TRUE(added.ok());
    }
    ASSERT_TRUE(client.SubscribeMatches().ok());
    for (int64_t c = 0; c < kill_after; ++c) {
      if (c == late_at) {
        const QuerySpec late = LateQuery();
        auto added =
            client.AddQuery(*s0, late.name, late.values, Eps(late.epsilon));
        ASSERT_TRUE(added.ok()) << added.status().ToString();
      }
      const util::Status sent = client.TickBatch(
          chunks[static_cast<size_t>(c)].stream == "s0" ? *s0 : *s1,
          chunks[static_cast<size_t>(c)].values);
      ASSERT_TRUE(sent.ok()) << sent.ToString();
    }
    // No drain: the daemon dies with frames still in flight.
    serve.Kill();
    // Everything the server flushed before dying is still in our socket's
    // receive buffer; pump it (dispatching MATCH_EVENTs) until EOF. The
    // call itself fails — the server is gone — and that is expected.
    (void)client.Drain();
    client.Close();
  }

  // --- Session 2: restart on the same WAL, resume, finish. -------------
  std::vector<MatchEventPayload> session2_events;
  {
    ServeProcess serve(param.workers, param.fsync, wal_dir);
    ASSERT_GT(serve.port(), 0);
    StreamClient client(ClientOptionsFor(serve.port()));
    client.SetMatchCallback([&session2_events](const MatchEventPayload& e) {
      session2_events.push_back(e);
    });
    ASSERT_TRUE(client.Connect().ok());
    auto s0 = client.OpenStream("s0");
    ASSERT_TRUE(s0.ok());
    const int64_t held_s0 = client.last_stream_ticks();
    auto s1 = client.OpenStream("s1");
    ASSERT_TRUE(s1.ok());
    const int64_t held_s1 = client.last_stream_ticks();
    ASSERT_GE(held_s0, 0);
    ASSERT_GE(held_s1, 0);

    // The queries were acked (and checkpointed) before the crash, so they
    // must have survived it — exactly-once admin.
    auto queries = client.ListQueries();
    ASSERT_TRUE(queries.ok());
    EXPECT_EQ(queries->size(), Topology().size() + (late_query ? 1 : 0));

    // TICK_BATCH frames are applied atomically (logged before ack, whole
    // frame or nothing), so the accepted ticks are a whole-chunk prefix of
    // the feed order. Find it to know where to resume.
    int64_t resume_at = -1;
    int64_t seen_s0 = 0;
    int64_t seen_s1 = 0;
    for (int64_t c = 0; c <= kChunks; ++c) {
      if (seen_s0 == held_s0 && seen_s1 == held_s1) {
        resume_at = c;
        break;
      }
      if (c == kChunks) break;
      (chunks[static_cast<size_t>(c)].stream == "s0" ? seen_s0 : seen_s1) +=
          static_cast<int64_t>(chunks[static_cast<size_t>(c)].values.size());
    }
    ASSERT_GE(resume_at, 0)
        << "accepted ticks are not a chunk prefix: s0=" << held_s0
        << " s1=" << held_s1;
    ASSERT_LE(resume_at, kill_after);
    // The late query's admin checkpoint holds every tick sent before it.
    ASSERT_GE(resume_at, late_at);

    ASSERT_TRUE(client.SubscribeMatches().ok());
    for (int64_t c = resume_at; c < kChunks; ++c) {
      const util::Status sent = client.TickBatch(
          chunks[static_cast<size_t>(c)].stream == "s0" ? *s0 : *s1,
          chunks[static_cast<size_t>(c)].values);
      ASSERT_TRUE(sent.ok()) << sent.ToString();
    }
    auto drained = client.Drain();
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();
    client.Close();
    serve.Kill();
  }

  // --- Exactly-once: dedup by (global seq, query), then byte-compare. ---
  // Within one WAL generation the global sequence numbering is stable
  // across restarts (replay reconstructs the router's order), so (seq,
  // query name) identifies a match across both sessions.
  std::set<std::pair<int64_t, std::string>> seen;
  std::vector<MatchKey> delivered;
  int64_t duplicates = 0;
  for (const auto* events : {&session1_events, &session2_events}) {
    for (const auto& event : *events) {
      ASSERT_GE(event.match_seq, 0) << "v3 events must carry match_seq";
      if (!seen.insert({event.match_seq, event.query_name}).second) {
        ++duplicates;
        continue;
      }
      delivered.push_back(
          KeyOf(event.stream_name, event.query_name, event.match));
    }
  }
  // Session 1's deliveries must never repeat within themselves; duplicates
  // can only arise from crash-window re-delivery in session 2.
  std::set<std::pair<int64_t, std::string>> session1_keys;
  for (const auto& event : session1_events) {
    EXPECT_TRUE(
        session1_keys.insert({event.match_seq, event.query_name}).second);
  }

  EXPECT_EQ(delivered, expected)
      << "delivered stream diverges from the uninterrupted run"
      << " (session1=" << session1_events.size()
      << " session2=" << session2_events.size()
      << " duplicates=" << duplicates << ")";
}

TEST_P(CrashRecoveryTest, ExactlyOnceAcrossSigkill) {
  RunCrashCase(GetParam(), /*late_query=*/false);
}

// A query added over the wire mid-stream, before the kill point: it must
// survive the crash and deliver exactly once.
class LateQueryCrashRecoveryTest
    : public ::testing::TestWithParam<CrashCase> {};

INSTANTIATE_TEST_SUITE_P(LateQuery, LateQueryCrashRecoveryTest,
                         ::testing::Values(CrashCase{1, "os", 13},
                                           CrashCase{2, "every_record", 14},
                                           CrashCase{8, "interval", 15}),
                         CaseName);

TEST_P(LateQueryCrashRecoveryTest, ExactlyOnceWithQueryAddedMidStream) {
  RunCrashCase(GetParam(), /*late_query=*/true);
}

}  // namespace
}  // namespace net
}  // namespace springdtw
