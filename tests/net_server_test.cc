// StreamServer + StreamClient end-to-end over loopback: wire-fed monitors
// must report byte-identical matches to directly-fed ones at any worker
// count, checkpoints taken through the daemon must survive a kill-and-
// restore, admin operations work over the wire with non-fatal error
// responses, protocol violations are session-fatal, slow subscribers are
// disconnected instead of stalling ingest, and the whole stack holds up
// under concurrent clients (tsan target).
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "core/spring.h"
#include "core/spring_batch.h"
#include "gtest/gtest.h"
#include "monitor/sharded_monitor.h"
#include "monitor/sink.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "wal/env.h"
#include "wal/wal.h"

namespace springdtw {
namespace net {
namespace {

using monitor::CollectSink;
using monitor::ShardedMonitor;
using monitor::ShardedMonitorOptions;

// (stream name, query name, match fields) — ids are not compared because
// restored monitors compact query ids and the wire run assigns its own.
using MatchKey =
    std::tuple<std::string, std::string, int64_t, int64_t, double, int64_t>;

MatchKey KeyOf(const std::string& stream_name, const std::string& query_name,
               const core::Match& match) {
  return {stream_name, query_name, match.start, match.end, match.distance,
          match.report_time};
}

std::vector<MatchKey> KeysOf(const std::vector<CollectSink::Entry>& entries) {
  std::vector<MatchKey> keys;
  keys.reserve(entries.size());
  for (const auto& entry : entries) {
    keys.push_back(
        KeyOf(entry.origin.stream_name, entry.origin.query_name, entry.match));
  }
  return keys;
}

std::vector<MatchKey> KeysOf(const std::vector<MatchEventPayload>& events) {
  std::vector<MatchKey> keys;
  keys.reserve(events.size());
  for (const auto& event : events) {
    keys.push_back(KeyOf(event.stream_name, event.query_name, event.match));
  }
  return keys;
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

// Deterministic interleaved workload: alternating chunks on two streams.
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

// Runs the workload directly against a ShardedMonitor (no network) and
// returns the committed matches in delivery order. No FlushAll: the daemon
// never performs end-of-stream flushes, so the reference must not either.
std::vector<MatchKey> DirectReference(int64_t workers,
                                      const std::vector<Chunk>& chunks) {
  ShardedMonitorOptions options;
  options.num_workers = workers;
  ShardedMonitor ref(options);
  CollectSink sink;
  ref.AddSink(&sink);
  int64_t s0 = ref.AddStream("s0");
  int64_t s1 = ref.AddStream("s1");
  for (const auto& spec : Topology()) {
    auto added = ref.AddQuery(spec.stream == "s0" ? s0 : s1, spec.name,
                              spec.values, Eps(spec.epsilon));
    SPRINGDTW_CHECK(added.ok());
  }
  ref.Start();
  for (const auto& chunk : chunks) {
    SPRINGDTW_CHECK(
        ref.PushBatch(chunk.stream == "s0" ? s0 : s1, chunk.values).ok());
  }
  ref.Drain();
  ref.Stop();
  return KeysOf(sink.entries());
}

StreamClientOptions ClientOptionsFor(const StreamServer& server) {
  StreamClientOptions options;
  options.port = server.port();
  options.io_timeout_ms = 10000.0;
  return options;
}

class WorkerCountTest : public ::testing::TestWithParam<int64_t> {};

INSTANTIATE_TEST_SUITE_P(Workers, WorkerCountTest,
                         ::testing::Values<int64_t>(1, 2, 8));

TEST_P(WorkerCountTest, EndToEndMatchesDirectRun) {
  const std::vector<Chunk> chunks = Workload(/*seed=*/20260807, 24, 50);
  const std::vector<MatchKey> expected = DirectReference(GetParam(), chunks);
  ASSERT_FALSE(expected.empty()) << "workload must exercise match fan-out";

  ShardedMonitorOptions monitor_options;
  monitor_options.num_workers = GetParam();
  ShardedMonitor monitor(monitor_options);
  monitor.Start();
  StreamServer server(&monitor, StreamServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  std::vector<MatchEventPayload> events;
  StreamClient client(ClientOptionsFor(server));
  client.SetMatchCallback(
      [&events](const MatchEventPayload& event) { events.push_back(event); });
  ASSERT_TRUE(client.Connect().ok());

  auto s0 = client.OpenStream("s0");
  auto s1 = client.OpenStream("s1");
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE(s1.ok());
  for (const auto& spec : Topology()) {
    auto added = client.AddQuery(spec.stream == "s0" ? *s0 : *s1, spec.name,
                                 spec.values, Eps(spec.epsilon));
    ASSERT_TRUE(added.ok()) << added.status().ToString();
  }
  ASSERT_TRUE(client.SubscribeMatches().ok());

  uint64_t total_ticks = 0;
  for (const auto& chunk : chunks) {
    ASSERT_TRUE(
        client.TickBatch(chunk.stream == "s0" ? *s0 : *s1, chunk.values)
            .ok());
    total_ticks += chunk.values.size();
  }
  auto drained = client.Drain();
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_EQ(*drained, total_ticks);

  // Delivery order over the wire must equal the direct run's sink order.
  EXPECT_EQ(KeysOf(events), expected);
  // Delivery sequence numbers are strictly increasing.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].delivery_seq, events[i - 1].delivery_seq);
  }

  client.Close();
  server.Stop();
  monitor.Stop();
}

TEST_P(WorkerCountTest, CheckpointKillRestoreContinuesIdentically) {
  const std::vector<Chunk> chunks = Workload(/*seed=*/4711, 20, 40);
  const std::vector<MatchKey> expected = DirectReference(GetParam(), chunks);
  const size_t split = chunks.size() / 2;

  std::vector<uint8_t> blob;
  std::vector<MatchEventPayload> events;

  ShardedMonitorOptions monitor_options;
  monitor_options.num_workers = GetParam();

  {
    ShardedMonitor monitor(monitor_options);
    monitor.Start();
    StreamServer server(&monitor, StreamServerOptions{});
    server.SetCheckpointFn([&monitor, &blob]() -> util::StatusOr<uint64_t> {
      blob = monitor.SerializeState();
      return static_cast<uint64_t>(blob.size());
    });
    ASSERT_TRUE(server.Start().ok());

    StreamClient client(ClientOptionsFor(server));
    client.SetMatchCallback([&events](const MatchEventPayload& event) {
      events.push_back(event);
    });
    ASSERT_TRUE(client.Connect().ok());
    auto s0 = client.OpenStream("s0");
    auto s1 = client.OpenStream("s1");
    ASSERT_TRUE(s0.ok());
    ASSERT_TRUE(s1.ok());
    for (const auto& spec : Topology()) {
      ASSERT_TRUE(client.AddQuery(spec.stream == "s0" ? *s0 : *s1, spec.name,
                                  spec.values, Eps(spec.epsilon))
                      .ok());
    }
    ASSERT_TRUE(client.SubscribeMatches().ok());
    for (size_t c = 0; c < split; ++c) {
      ASSERT_TRUE(client
                      .TickBatch(chunks[c].stream == "s0" ? *s0 : *s1,
                                 chunks[c].values)
                      .ok());
    }
    ASSERT_TRUE(client.Drain().ok());
    auto bytes = client.Checkpoint();
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ(*bytes, blob.size());
    ASSERT_FALSE(blob.empty());

    // "Kill": tear down without FlushAll — pending candidates must survive
    // inside the checkpoint, not leak out as end-of-stream matches.
    client.Close();
    server.Stop();
    monitor.Stop();
  }

  {
    ShardedMonitor monitor(monitor_options);
    ASSERT_TRUE(monitor.RestoreState(blob).ok());
    monitor.Start();
    StreamServer server(&monitor, StreamServerOptions{});
    ASSERT_TRUE(server.Start().ok());

    StreamClient client(ClientOptionsFor(server));
    client.SetMatchCallback([&events](const MatchEventPayload& event) {
      events.push_back(event);
    });
    ASSERT_TRUE(client.Connect().ok());
    // OPEN_STREAM is idempotent across restore: the restored stream table
    // must be found, not shadowed by fresh ids.
    auto s0 = client.OpenStream("s0");
    auto s1 = client.OpenStream("s1");
    ASSERT_TRUE(s0.ok());
    ASSERT_TRUE(s1.ok());
    EXPECT_EQ(*s0, 0);
    EXPECT_EQ(*s1, 1);
    ASSERT_TRUE(client.SubscribeMatches().ok());
    for (size_t c = split; c < chunks.size(); ++c) {
      ASSERT_TRUE(client
                      .TickBatch(chunks[c].stream == "s0" ? *s0 : *s1,
                                 chunks[c].values)
                      .ok());
    }
    ASSERT_TRUE(client.Drain().ok());
    client.Close();
    server.Stop();
    monitor.Stop();
  }

  // First-half deliveries + post-restore deliveries == one uninterrupted
  // direct run, in order.
  EXPECT_EQ(KeysOf(events), expected);
}

// Observability must be a pure observer: with span tracing and cost
// accounting fully enabled on the serving monitor, the wire-fed run's
// delivery order must stay byte-identical to a direct run with everything
// disabled — and the spans/stats the run produces must hold their
// invariants.
TEST_P(WorkerCountTest, EndToEndMatchesDirectRunWithTracingOn) {
  const std::vector<Chunk> chunks = Workload(/*seed=*/20260807, 24, 50);
  const std::vector<MatchKey> expected = DirectReference(GetParam(), chunks);
  ASSERT_FALSE(expected.empty());

  ShardedMonitorOptions monitor_options;
  monitor_options.num_workers = GetParam();
  monitor_options.collect_metrics = true;
  monitor_options.publish_interval_ms = 0.0;
  ShardedMonitor monitor(monitor_options);
  monitor.Start();
  StreamServer server(&monitor, StreamServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  std::vector<MatchEventPayload> events;
  StreamClient client(ClientOptionsFor(server));
  client.SetMatchCallback(
      [&events](const MatchEventPayload& event) { events.push_back(event); });
  ASSERT_TRUE(client.Connect().ok());

  auto s0 = client.OpenStream("s0");
  auto s1 = client.OpenStream("s1");
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE(s1.ok());
  for (const auto& spec : Topology()) {
    ASSERT_TRUE(client.AddQuery(spec.stream == "s0" ? *s0 : *s1, spec.name,
                                spec.values, Eps(spec.epsilon))
                    .ok());
  }
  ASSERT_TRUE(client.SubscribeMatches().ok());
  int64_t s0_ticks = 0;
  int64_t s1_ticks = 0;
  for (const auto& chunk : chunks) {
    ASSERT_TRUE(
        client.TickBatch(chunk.stream == "s0" ? *s0 : *s1, chunk.values)
            .ok());
    (chunk.stream == "s0" ? s0_ticks : s1_ticks) +=
        static_cast<int64_t>(chunk.values.size());
  }
  ASSERT_TRUE(client.Drain().ok());

  // The tentpole acceptance bar: identical bytes with tracing on.
  EXPECT_EQ(KeysOf(events), expected);

  // Spans completed end-to-end: the client's send stamp survived to the
  // span, and the server's finalizer stamped the fan-out write, with every
  // stage monotone (one machine, one monotonic clock).
  const obs::SpanzReport spans = monitor.telemetry()->PublishedSpans();
  ASSERT_FALSE(spans.spans.empty());
  for (const obs::TickSpan& span : spans.spans) {
    EXPECT_GT(span.client_send_nanos, 0u) << "client stamps every batch";
    EXPECT_GE(span.server_recv_nanos, span.client_send_nanos);
    EXPECT_GE(span.router_enqueue_nanos, span.server_recv_nanos);
    EXPECT_GE(span.worker_pop_nanos, span.router_enqueue_nanos);
    EXPECT_GE(span.worker_done_nanos, span.worker_pop_nanos);
    EXPECT_GE(span.delivered_nanos, span.worker_done_nanos);
    EXPECT_GE(span.subscriber_write_nanos, span.delivered_nanos)
        << "the net server finalizer stamps after fan-out";
  }

  // LIST_QUERIES over the wire: cost columns recount exactly, cells
  // against a standalone one-query pool fed the same stream ticks.
  auto listed = client.ListQueries();
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 3u);
  for (const auto& entry : *listed) {
    const int64_t ticks = entry.stream_name == "s0" ? s0_ticks : s1_ticks;
    EXPECT_EQ(entry.ticks, ticks) << entry.name;
    for (const auto& spec : Topology()) {
      if (spec.name != entry.name) continue;
      core::SpringBatchPool recount;
      recount.AddQuery(spec.values, Eps(spec.epsilon));
      for (const auto& chunk : chunks) {
        if (chunk.stream == spec.stream) {
          recount.PushBatch(chunk.values, nullptr);
        }
      }
      EXPECT_EQ(entry.cells, recount.cells_computed_total(0)) << entry.name;
    }
  }

  client.Close();
  server.Stop();
  monitor.Stop();
}

TEST(NetServerAdminTest, AdminOpsOverTheWire) {
  ShardedMonitorOptions monitor_options;
  monitor_options.num_workers = 2;
  ShardedMonitor monitor(monitor_options);
  monitor.Start();
  StreamServer server(&monitor, StreamServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  std::vector<MatchEventPayload> events;
  StreamClient client(ClientOptionsFor(server));
  client.SetMatchCallback(
      [&events](const MatchEventPayload& event) { events.push_back(event); });
  ASSERT_TRUE(client.Connect().ok());

  // OPEN_STREAM is idempotent by name.
  auto first = client.OpenStream("s");
  auto second = client.OpenStream("s");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);

  // A failed admin request is an ERROR response, not a disconnect.
  auto bad = client.AddQuery(99, "q", {1.0, 2.0}, Eps(1.0));
  EXPECT_FALSE(bad.ok());
  auto bad_options = client.AddQuery(*first, "q", {}, Eps(1.0));
  EXPECT_FALSE(bad_options.ok());

  auto query = client.AddQuery(*first, "q", {1.0, 2.0, 3.0}, Eps(0.5));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(client.SubscribeMatches().ok());

  // {5,1,2,3}: the exact occurrence ends on the last tick, so the
  // candidate is pending (dmin = 0 beats every open path) — nothing
  // commits, and removal must flush exactly that match.
  const std::vector<double> prefix = {5.0, 1.0, 2.0, 3.0};
  ASSERT_TRUE(client.TickBatch(*first, prefix).ok());
  ASSERT_TRUE(client.Drain().ok());
  EXPECT_TRUE(events.empty());

  auto listed = client.ListQueries();
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0].name, "q");
  EXPECT_EQ((*listed)[0].stream_name, "s");
  EXPECT_EQ((*listed)[0].ticks, 4);
  EXPECT_EQ((*listed)[0].matches, 0);

  auto flushed = client.RemoveQuery(*query);
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  EXPECT_EQ(*flushed, 1);
  // The flushed match fanned out before the QUERY_REMOVED response.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].query_name, "q");
  EXPECT_EQ(events[0].match.start, 1);
  EXPECT_EQ(events[0].match.end, 3);
  EXPECT_EQ(events[0].match.distance, 0.0);
  EXPECT_EQ(events[0].match.report_time, 4);

  // Double remove: NOT_FOUND, connection still usable afterwards.
  auto again = client.RemoveQuery(*query);
  EXPECT_FALSE(again.ok());
  auto empty = client.ListQueries();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  client.Close();
  server.Stop();
  monitor.Stop();
}

// LIST_QUERIES is a barrier: pipelined right behind TICK_BATCH frames the
// server has routed but not yet drained (one write, one read pass), it
// still reports every one of them, cells included with telemetry off.
TEST(NetServerAdminTest, ListQueriesBehindUndrainedTicksIsExact) {
  ShardedMonitorOptions monitor_options;
  monitor_options.num_workers = 2;
  ShardedMonitor monitor(monitor_options);
  monitor.Start();
  StreamServer server(&monitor, StreamServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  StreamClient client(ClientOptionsFor(server));
  ASSERT_TRUE(client.Connect().ok());
  auto stream = client.OpenStream("s");
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(client.AddQuery(*stream, "q", {1.0, 2.0, 3.0}, Eps(0.5)).ok());
  int64_t ticks = 0;
  // Telemetry is off: cells still recount against a standalone pool.
  core::SpringBatchPool recount;
  recount.AddQuery({1.0, 2.0, 3.0}, Eps(0.5));
  for (const auto& chunk : Workload(/*seed=*/20261020, 4, 100)) {
    // Buffered: the TICK_BATCH frames go out with the LIST_QUERIES below.
    ASSERT_TRUE(client.TickBatch(*stream, chunk.values).ok());
    ticks += static_cast<int64_t>(chunk.values.size());
    recount.PushBatch(chunk.values, nullptr);
  }
  auto listed = client.ListQueries();
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0].ticks, ticks);
  EXPECT_EQ((*listed)[0].cells, recount.cells_computed_total(0));
  EXPECT_GT((*listed)[0].cells, 0);

  client.Close();
  server.Stop();
  monitor.Stop();
}

// ---------------------------------------------------------------------------
// Raw-socket helpers for protocol-violation tests (the real client refuses
// to misbehave).

int RawConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Sends `bytes`, then reads until the peer closes (or the 5 s receive
// timeout trips) and returns everything received.
std::vector<uint8_t> SendAndCollectUntilClose(int port,
                                              std::span<const uint8_t> bytes) {
  std::vector<uint8_t> received;
  int fd = RawConnect(port);
  if (fd < 0) return received;
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  uint8_t chunk[4096];
  for (;;) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    received.insert(received.end(), chunk, chunk + n);
  }
  ::close(fd);
  return received;
}

// The server's reply to a fatal violation: exactly one ERROR frame with
// request_id 0 whose message contains `message_part`, then connection
// close.
void ExpectFatalError(const std::vector<uint8_t>& received,
                      util::StatusCode code,
                      std::string_view message_part = "") {
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(CutFrame(received, kDefaultMaxFrameBytes, &frame, &consumed)
                  .ok());
  ASSERT_GT(consumed, 0u) << "expected a complete ERROR frame before close";
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorPayload error;
  ASSERT_TRUE(DecodePayload(frame.payload, &error).ok());
  EXPECT_EQ(error.request_id, 0u);
  EXPECT_EQ(error.ToStatus().code(), code);
  EXPECT_NE(error.message.find(message_part), std::string::npos)
      << error.message;
  EXPECT_EQ(consumed, received.size()) << "no frames after a fatal ERROR";
}

class ProtocolViolationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    monitor_ = std::make_unique<ShardedMonitor>(ShardedMonitorOptions{});
    monitor_->AddStream("s");
    monitor_->Start();
    server_ =
        std::make_unique<StreamServer>(monitor_.get(), StreamServerOptions{});
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override {
    server_->Stop();
    monitor_->Stop();
  }

  std::unique_ptr<ShardedMonitor> monitor_;
  std::unique_ptr<StreamServer> server_;
};

// A HELLO at any version but kProtocolVersion is refused with a
// session-fatal ERROR naming the version the server speaks.
void ExpectHelloRefused(int port, uint32_t version) {
  SCOPED_TRACE(version);
  HelloPayload hello;
  hello.version = version;
  hello.peer_name = "other-version";
  std::vector<uint8_t> wire;
  AppendPayloadFrame(FrameType::kHello, hello, &wire);
  ExpectFatalError(SendAndCollectUntilClose(port, wire),
                   util::StatusCode::kFailedPrecondition,
                   "speaks version " + std::to_string(kProtocolVersion));
}

TEST_F(ProtocolViolationTest, VersionSkewIsFatal) {
  for (const uint32_t version : {1u, 2u, 3u, 5u, 99u}) {
    ExpectHelloRefused(server_->port(), version);
  }
}

TEST_F(ProtocolViolationTest, VersionZeroIsFatal) {
  ExpectHelloRefused(server_->port(), 0);
}

// Reads whole frames off a raw socket until `count` arrived or the 5 s
// receive timeout trips.
std::vector<Frame> ReadFrames(int fd, size_t count) {
  std::vector<Frame> frames;
  std::vector<uint8_t> buffer;
  uint8_t chunk[4096];
  while (frames.size() < count) {
    Frame frame;
    size_t consumed = 0;
    if (CutFrame(buffer, kDefaultMaxFrameBytes, &frame, &consumed).ok() &&
        consumed > 0) {
      frames.push_back(std::move(frame));
      buffer.erase(buffer.begin(),
                   buffer.begin() + static_cast<ptrdiff_t>(consumed));
      continue;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.insert(buffer.end(), chunk, chunk + n);
  }
  return frames;
}

// A daemon killed while holding unread TICK bytes resets the connection,
// so the client's next write fails before it has read what the daemon sent
// first. MATCH_EVENT frames already in the socket must still reach the
// callback, and the call still reports the write error.
TEST(NetClientTest, FailedWriteStillDispatchesReceivedMatches) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t length = sizeof(address);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&address),
                   sizeof(address)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&address),
                          &length),
            0);

  const auto send_all = [](int fd, const std::vector<uint8_t>& wire) {
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<size_t>(n);
    }
  };
  std::thread server([listen_fd, &send_all] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    if (ReadFrames(fd, 1).size() == 1) {
      std::vector<uint8_t> wire;
      HelloAckPayload ack;
      ack.version = kProtocolVersion;
      AppendPayloadFrame(FrameType::kHelloAck, ack, &wire);
      send_all(fd, wire);
      // Wait for the client's ticks and leave them unread, so the close
      // below resets the connection; the match goes out first.
      pollfd entry{fd, POLLIN, 0};
      (void)::poll(&entry, 1, 5000);
      MatchEventPayload event;
      event.stream_name = "s";
      event.query_name = "q";
      event.match.start = 1;
      event.match.end = 3;
      event.match.report_time = 4;
      event.match_seq = 4;
      wire.clear();
      AppendPayloadFrame(FrameType::kMatchEvent, event, &wire);
      send_all(fd, wire);
    }
    ::close(fd);
  });

  StreamClientOptions options;
  options.port = ntohs(address.sin_port);
  options.connect_attempts = 1;
  StreamClient client(options);
  std::vector<MatchEventPayload> events;
  client.SetMatchCallback(
      [&events](const MatchEventPayload& event) { events.push_back(event); });
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.TickBatch(0, std::vector<double>{1.0, 2.0, 3.0}).ok());
  ASSERT_TRUE(client.Flush().ok());
  server.join();
  ::close(listen_fd);

  const auto drained = client.Drain();
  EXPECT_FALSE(drained.ok()) << "the connection was reset";
  ASSERT_EQ(events.size(), 1u) << drained.status().ToString();
  EXPECT_EQ(events[0].query_name, "q");
  EXPECT_EQ(events[0].match_seq, 4);
}

TEST_F(ProtocolViolationTest, FrameBeforeHelloIsFatal) {
  TickBatchPayload batch;
  batch.stream_id = 0;
  batch.values = {1.0};
  std::vector<uint8_t> wire;
  AppendPayloadFrame(FrameType::kTickBatch, batch, &wire);
  ExpectFatalError(SendAndCollectUntilClose(server_->port(), wire),
                   util::StatusCode::kFailedPrecondition);
}

TEST_F(ProtocolViolationTest, UnknownFrameTypeIsFatal) {
  // length=1 (type only), type=200.
  const std::vector<uint8_t> wire = {1, 0, 0, 0, 200};
  ExpectFatalError(SendAndCollectUntilClose(server_->port(), wire),
                   util::StatusCode::kInvalidArgument);
}

TEST_F(ProtocolViolationTest, ZeroLengthFrameIsFatal) {
  const std::vector<uint8_t> wire = {0, 0, 0, 0};
  ExpectFatalError(SendAndCollectUntilClose(server_->port(), wire),
                   util::StatusCode::kInvalidArgument);
}

TEST_F(ProtocolViolationTest, TickForUnknownStreamIsFatal) {
  StreamClient client(ClientOptionsFor(*server_));
  ASSERT_TRUE(client.Connect().ok());
  // Buffered, fire-and-forget.
  ASSERT_TRUE(client.TickBatch(42, std::vector<double>{1.0}).ok());
  ASSERT_TRUE(client.Flush().ok());
  // The server kills the session; the next request observes it.
  auto drained = client.Drain();
  EXPECT_FALSE(drained.ok());
}

TEST(NetServerBackpressureTest, SlowSubscriberIsDisconnected) {
  ShardedMonitorOptions monitor_options;
  monitor_options.num_workers = 1;
  ShardedMonitor monitor(monitor_options);
  int64_t stream = monitor.AddStream("s");
  // A long query name fattens every MATCH_EVENT frame, so one drain burst
  // overflows the output cap deterministically — before the kernel socket
  // buffer can soak anything up.
  const std::string query_name(64, 'q');
  ASSERT_TRUE(
      monitor.AddQuery(stream, query_name, {1.0, 2.0, 3.0}, Eps(0.25)).ok());
  monitor.Start();

  StreamServerOptions server_options;
  server_options.max_output_buffer_bytes = 2048;
  StreamServer server(&monitor, server_options);
  ASSERT_TRUE(server.Start().ok());

  // Subscribes, then never reads another byte.
  StreamClient subscriber(ClientOptionsFor(server));
  ASSERT_TRUE(subscriber.Connect().ok());
  ASSERT_TRUE(subscriber.SubscribeMatches().ok());

  StreamClient feeder(ClientOptionsFor(server));
  ASSERT_TRUE(feeder.Connect().ok());
  auto stream_id = feeder.OpenStream("s");
  ASSERT_TRUE(stream_id.ok());
  // Each {1,2,3,9} occurrence commits a match on the 9; 60 occurrences in
  // one batch fan out in a single drain burst (~160 bytes each >> 2 KiB).
  std::vector<double> values;
  for (int i = 0; i < 60; ++i) {
    values.insert(values.end(), {1.0, 2.0, 3.0, 9.0});
  }
  ASSERT_TRUE(feeder.TickBatch(*stream_id, values).ok());
  auto drained = feeder.Drain();
  ASSERT_TRUE(drained.ok()) << "ingest must survive a slow subscriber";

  const int64_t deadline = util::Stopwatch::NowNanos() + 5'000'000'000;
  while (server.slow_disconnects() == 0 &&
         util::Stopwatch::NowNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.slow_disconnects(), 1);

  feeder.Close();
  subscriber.Close();
  server.Stop();
  monitor.Stop();
}

// tsan target: concurrent clients doing connect / admin / tick / drain
// while another thread scrapes the published introspection snapshots.
TEST(NetServerConcurrencyTest, ConcurrentClientsAndScrapes) {
  ShardedMonitorOptions monitor_options;
  monitor_options.num_workers = 4;
  monitor_options.collect_metrics = true;
  // Every poll round republishes the server's families on the loop thread
  // while this thread scrapes them.
  monitor_options.publish_interval_ms = 0.0;
  ShardedMonitor monitor(monitor_options);
  monitor.Start();
  StreamServer server(&monitor, StreamServerOptions{});
  server.SetCheckpointFn([&monitor]() -> util::StatusOr<uint64_t> {
    return static_cast<uint64_t>(monitor.SerializeState().size());
  });
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  std::vector<util::Status> results(kClients, util::Status::Ok());
  std::vector<std::thread> threads;
  std::atomic<int> done{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t]() {
      auto fail = [&](const util::Status& status) {
        results[static_cast<size_t>(t)] = status;
        ++done;
      };
      StreamClient client(ClientOptionsFor(server));
      util::Status status = client.Connect();
      if (!status.ok()) return fail(status);
      auto stream = client.OpenStream("stream-" + std::to_string(t));
      if (!stream.ok()) return fail(stream.status());
      auto query = client.AddQuery(*stream, "query-" + std::to_string(t),
                                   {1.0, 2.0, 1.0}, Eps(1.0));
      if (!query.ok()) return fail(query.status());
      status = client.SubscribeMatches();
      if (!status.ok()) return fail(status);
      util::Rng rng(static_cast<uint64_t>(t) + 1);
      for (int round = 0; round < 15; ++round) {
        std::vector<double> values;
        for (int i = 0; i < 40; ++i) {
          values.push_back(static_cast<double>(rng.UniformInt(0, 3)));
        }
        status = client.TickBatch(*stream, values);
        if (!status.ok()) return fail(status);
        if (round % 5 == 4) {
          auto drained = client.Drain();
          if (!drained.ok()) return fail(drained.status());
          auto listed = client.ListQueries();
          if (!listed.ok()) return fail(listed.status());
        }
      }
      auto checkpoint = client.Checkpoint();
      if (!checkpoint.ok()) return fail(checkpoint.status());
      auto removed = client.RemoveQuery(*query);
      if (!removed.ok()) return fail(removed.status());
      client.Close();
      ++done;
    });
  }

  // Scrape the thread-safe snapshots while the clients hammer the server.
  while (done.load() < kClients) {
    (void)monitor.telemetry()->PublishedMetricsSnapshot();
    (void)monitor.HealthSnapshot();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kClients; ++t) {
    EXPECT_TRUE(results[static_cast<size_t>(t)].ok())
        << "client " << t << ": "
        << results[static_cast<size_t>(t)].ToString();
  }
  EXPECT_EQ(server.total_connections(), kClients);

  server.Stop();
  monitor.Stop();
}

// With the monitor's telemetry on, the server's spring_net_* families and,
// once SetWal is called, the WAL's spring_wal_* families join the monitor's
// published metrics with no hand-wired provider — one /metrics for all.
TEST(NetServerMetricsTest, NetFamiliesSpliceIntoMonitorSnapshot) {
  const std::string dir = testing::TempDir() + "/net_metrics_wal";
  wal::Env* env = wal::Env::Default();
  ASSERT_TRUE(env->CreateDir(dir).ok());
  auto leftovers = env->ListDir(dir);
  ASSERT_TRUE(leftovers.ok());
  for (const std::string& name : *leftovers) {
    ASSERT_TRUE(env->RemoveFile(dir + "/" + name).ok());
  }
  wal::WalOptions wal_options;
  wal_options.dir = dir;
  wal_options.num_shards = 2;
  auto wal = wal::WalWriter::Open(wal_options);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  ShardedMonitorOptions monitor_options;
  monitor_options.num_workers = 2;
  monitor_options.collect_metrics = true;
  ShardedMonitor monitor(monitor_options);
  monitor.Start();
  StreamServer server(&monitor, StreamServerOptions{});
  server.SetCheckpointFn([&monitor]() -> util::StatusOr<uint64_t> {
    return static_cast<uint64_t>(monitor.SerializeState().size());
  });
  server.SetWal(wal->get());
  ASSERT_TRUE(server.Start().ok());

  StreamClient client(ClientOptionsFor(server));
  ASSERT_TRUE(client.Connect().ok());
  auto stream = client.OpenStream("s");
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(client.AddQuery(*stream, "q", {1.0, 2.0, 3.0}, Eps(0.5)).ok());
  ASSERT_TRUE(client.SubscribeMatches().ok());
  const std::vector<double> ticks = {1.0, 2.0, 3.0, 9.0, 9.0};
  ASSERT_TRUE(client.TickBatch(*stream, ticks).ok());
  ASSERT_TRUE(client.Drain().ok());

  // The plane republishes the families at its throttled publish on the
  // loop thread; wait for one that saw the ticks.
  obs::MetricsSnapshot snapshot;
  const obs::FamilySnapshot* appended = nullptr;
  const int64_t deadline = util::Stopwatch::NowNanos() + 5'000'000'000;
  while (util::Stopwatch::NowNanos() < deadline) {
    snapshot = monitor.telemetry()->PublishedMetricsSnapshot();
    appended = snapshot.Find("spring_wal_appended_records_total");
    if (appended != nullptr && appended->series[0].counter_value > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(appended, nullptr) << "spring_wal_* missing from the snapshot";
  EXPECT_GT(appended->series[0].counter_value, 0);
  EXPECT_NE(snapshot.Find("spring_net_connections"), nullptr);
  EXPECT_NE(snapshot.Find("spring_net_bytes_total"), nullptr);
  const obs::FamilySnapshot* frames = snapshot.Find("spring_net_frames_total");
  ASSERT_NE(frames, nullptr);
  EXPECT_FALSE(frames->series.empty());

  client.Close();
  server.Stop();
  monitor.Stop();
}

}  // namespace
}  // namespace net
}  // namespace springdtw
