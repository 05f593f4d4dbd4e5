// Wire protocol: framing (CutFrame partial/oversized/zero-length), typed
// payload round-trips, one fixed-size encoding per payload, hostile-input
// rejection (truncation at every byte, trailing garbage, bogus counts), and
// the option-validation helpers.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "gtest/gtest.h"
#include "net/protocol.h"
#include "util/codec.h"
#include "util/status.h"

namespace springdtw {
namespace net {
namespace {

TEST(FramingTest, AppendAndCutRoundTrip) {
  std::vector<uint8_t> wire;
  TickBatchPayload batch;
  batch.stream_id = 7;
  batch.values = {2.5};
  AppendPayloadFrame(FrameType::kTickBatch, batch, &wire);
  DrainPayload drain;
  drain.request_id = 42;
  AppendPayloadFrame(FrameType::kDrain, drain, &wire);

  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(CutFrame(wire, kDefaultMaxFrameBytes, &frame, &consumed).ok());
  ASSERT_GT(consumed, 0u);
  EXPECT_EQ(frame.type, FrameType::kTickBatch);
  TickBatchPayload batch_out;
  ASSERT_TRUE(DecodePayload(frame.payload, &batch_out).ok());
  EXPECT_EQ(batch_out.stream_id, 7);
  EXPECT_EQ(batch_out.values, std::vector<double>{2.5});

  wire.erase(wire.begin(), wire.begin() + static_cast<ptrdiff_t>(consumed));
  ASSERT_TRUE(CutFrame(wire, kDefaultMaxFrameBytes, &frame, &consumed).ok());
  ASSERT_GT(consumed, 0u);
  EXPECT_EQ(frame.type, FrameType::kDrain);
  EXPECT_EQ(consumed, wire.size());
}

TEST(FramingTest, PartialFramesNeedMoreData) {
  std::vector<uint8_t> wire;
  HelloPayload hello;
  hello.peer_name = "abcdefgh";
  AppendPayloadFrame(FrameType::kHello, hello, &wire);
  // Every strict prefix must park (ok, consumed == 0), never error.
  for (size_t len = 0; len < wire.size(); ++len) {
    Frame frame;
    size_t consumed = 1;
    ASSERT_TRUE(CutFrame(std::span<const uint8_t>(wire.data(), len),
                         kDefaultMaxFrameBytes, &frame, &consumed)
                    .ok())
        << len;
    EXPECT_EQ(consumed, 0u) << len;
  }
}

TEST(FramingTest, ZeroLengthAndOversizedFramesAreFatal) {
  Frame frame;
  size_t consumed = 0;
  const std::vector<uint8_t> zero = {0, 0, 0, 0};
  EXPECT_FALSE(CutFrame(zero, kDefaultMaxFrameBytes, &frame, &consumed).ok());

  // Length prefix beyond the cap is rejected from the header alone — the
  // payload never needs to arrive.
  std::vector<uint8_t> oversized = {0, 0, 0, 0};
  const uint32_t huge = 1 << 30;
  std::memcpy(oversized.data(), &huge, sizeof(huge));
  EXPECT_FALSE(
      CutFrame(oversized, kDefaultMaxFrameBytes, &frame, &consumed).ok());
  // The same bytes are fine under a bigger cap (waiting for the payload).
  EXPECT_TRUE(CutFrame(oversized, uint64_t{1} << 31, &frame, &consumed).ok());
  EXPECT_EQ(consumed, 0u);
}

TEST(FramingTest, KnownFrameTypeBounds) {
  EXPECT_FALSE(KnownFrameType(0));
  EXPECT_TRUE(KnownFrameType(static_cast<uint8_t>(FrameType::kHello)));
  EXPECT_TRUE(KnownFrameType(static_cast<uint8_t>(FrameType::kError)));
  EXPECT_FALSE(KnownFrameType(static_cast<uint8_t>(FrameType::kError) + 1));
  EXPECT_FALSE(KnownFrameType(255));
  EXPECT_EQ(FrameTypeName(FrameType::kTickBatch), "TICK_BATCH");
  EXPECT_EQ(FrameTypeName(static_cast<FrameType>(250)), "UNKNOWN");
}

template <typename Payload>
std::vector<uint8_t> Encode(const Payload& payload) {
  util::ByteWriter writer;
  payload.EncodeTo(&writer);
  return writer.buffer();
}

// Every payload must survive a round-trip, reject truncation at every
// prefix length, and reject one byte of trailing garbage.
template <typename Payload>
void CheckRoundTripAndHostility(const Payload& payload,
                                const std::function<void(const Payload&)>&
                                    check_fields) {
  const std::vector<uint8_t> bytes = Encode(payload);
  Payload out;
  ASSERT_TRUE(DecodePayload(bytes, &out).ok());
  check_fields(out);

  for (size_t len = 0; len < bytes.size(); ++len) {
    Payload truncated;
    EXPECT_FALSE(DecodePayload(std::span<const uint8_t>(bytes.data(), len),
                               &truncated)
                     .ok())
        << "prefix " << len << " of " << bytes.size();
  }
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0xAB);
  Payload with_trailing;
  EXPECT_FALSE(DecodePayload(trailing, &with_trailing).ok());
}

TEST(PayloadTest, HelloRoundTrip) {
  HelloPayload payload;
  payload.version = 1;
  payload.peer_name = "feeder";
  CheckRoundTripAndHostility<HelloPayload>(payload, [](const auto& out) {
    EXPECT_EQ(out.version, 1u);
    EXPECT_EQ(out.peer_name, "feeder");
  });
}

TEST(PayloadTest, AddQueryRoundTrip) {
  AddQueryPayload payload;
  payload.request_id = 9;
  payload.stream_id = 2;
  payload.name = "q";
  payload.values = {1.0, -2.5, 3.25};
  payload.epsilon = 0.75;
  payload.local_distance = 1;
  payload.max_match_length = 64;
  payload.min_match_length = 2;
  CheckRoundTripAndHostility<AddQueryPayload>(payload, [](const auto& out) {
    EXPECT_EQ(out.request_id, 9u);
    EXPECT_EQ(out.values, (std::vector<double>{1.0, -2.5, 3.25}));
    EXPECT_EQ(out.epsilon, 0.75);
    EXPECT_EQ(out.local_distance, 1);
    EXPECT_EQ(out.max_match_length, 64);
    EXPECT_EQ(out.min_match_length, 2);
  });
}

TEST(PayloadTest, MatchEventRoundTrip) {
  MatchEventPayload payload;
  payload.delivery_seq = 11;
  payload.stream_id = 1;
  payload.query_id = 4;
  payload.stream_name = "s";
  payload.query_name = "q";
  payload.match.start = 10;
  payload.match.end = 20;
  payload.match.distance = 0.5;
  payload.match.report_time = 25;
  payload.match.group_start = 9;
  payload.match.group_end = 21;
  payload.match_seq = 24;
  CheckRoundTripAndHostility<MatchEventPayload>(payload, [](const auto& out) {
    EXPECT_EQ(out.delivery_seq, 11u);
    EXPECT_EQ(out.match_seq, 24);
    EXPECT_EQ(out.match.start, 10);
    EXPECT_EQ(out.match.end, 20);
    EXPECT_EQ(out.match.distance, 0.5);
    EXPECT_EQ(out.match.report_time, 25);
    EXPECT_EQ(out.match.group_start, 9);
    EXPECT_EQ(out.match.group_end, 21);
  });
}

TEST(PayloadTest, TickBatchRoundTrip) {
  TickBatchPayload payload;
  payload.stream_id = 3;
  payload.values = {0.0, 1.0, 2.0, 3.0};
  payload.send_nanos = 123456789;
  CheckRoundTripAndHostility<TickBatchPayload>(payload, [](const auto& out) {
    EXPECT_EQ(out.stream_id, 3);
    EXPECT_EQ(out.values.size(), 4u);
    EXPECT_EQ(out.send_nanos, 123456789u);
  });
}

TEST(PayloadTest, QueryListRoundTripAndBogusCount) {
  QueryListPayload payload;
  payload.request_id = 5;
  QueryListPayload::Entry entry;
  entry.query_id = 1;
  entry.stream_id = 0;
  entry.name = "q";
  entry.stream_name = "s";
  entry.ticks = 100;
  entry.matches = 3;
  entry.cells = 1200;
  entry.last_match_seq = 97;
  entry.est_cpu_nanos = 55555;
  payload.entries.push_back(entry);
  entry.cells = 800;
  entry.last_match_seq = -1;
  payload.entries.push_back(entry);
  CheckRoundTripAndHostility<QueryListPayload>(payload, [](const auto& out) {
    ASSERT_EQ(out.entries.size(), 2u);
    EXPECT_EQ(out.entries[1].ticks, 100);
    EXPECT_EQ(out.entries[1].stream_name, "s");
    EXPECT_EQ(out.entries[0].cells, 1200);
    EXPECT_EQ(out.entries[0].last_match_seq, 97);
    EXPECT_EQ(out.entries[0].est_cpu_nanos, 55555);
    EXPECT_EQ(out.entries[1].cells, 800);
    EXPECT_EQ(out.entries[1].last_match_seq, -1);
  });

  // A hostile count with no entry bytes must fail without allocating.
  util::ByteWriter writer;
  writer.WriteU64(5);
  writer.WriteU64(uint64_t{1} << 60);
  QueryListPayload hostile;
  EXPECT_FALSE(DecodePayload(writer.buffer(), &hostile).ok());
}

// The send stamp and the cost columns were optional trailers before
// version 4; they are fixed fields now. A stamp of 0 and default cost
// columns still cost their bytes and decode as themselves, and the old
// trailer-free bytes are a truncated frame that the decoder refuses.

TEST(PayloadTest, TickBatchSendStampTrailerRoundTripAndV1Compat) {
  TickBatchPayload stamped;
  stamped.stream_id = 3;
  stamped.values = {0.0, 1.0, 2.0};
  stamped.send_nanos = 42;
  const std::vector<uint8_t> stamped_bytes = Encode(stamped);
  TickBatchPayload out;
  ASSERT_TRUE(DecodePayload(stamped_bytes, &out).ok());
  EXPECT_EQ(out.values, stamped.values);
  EXPECT_EQ(out.send_nanos, 42u);

  TickBatchPayload unstamped = stamped;
  unstamped.send_nanos = 0;
  const std::vector<uint8_t> unstamped_bytes = Encode(unstamped);
  EXPECT_EQ(unstamped_bytes.size(), stamped_bytes.size());
  TickBatchPayload from_unstamped;
  from_unstamped.send_nanos = 99;  // must be overwritten, not left stale
  ASSERT_TRUE(DecodePayload(unstamped_bytes, &from_unstamped).ok());
  EXPECT_EQ(from_unstamped.send_nanos, 0u);
  EXPECT_EQ(from_unstamped.values, stamped.values);

  // A v1 TICK_BATCH is the same bytes without the stamp.
  util::ByteWriter v1;
  v1.WriteI64(stamped.stream_id);
  v1.WriteDoubleVector(stamped.values);
  ASSERT_EQ(v1.buffer().size() + sizeof(uint64_t), stamped_bytes.size());
  TickBatchPayload from_v1;
  EXPECT_FALSE(DecodePayload(v1.buffer(), &from_v1).ok());
}

TEST(PayloadTest, QueryListStatsTrailerRoundTripAndV1Compat) {
  QueryListPayload payload;
  payload.request_id = 5;
  QueryListPayload::Entry entry;
  entry.query_id = 1;
  entry.name = "q";
  entry.stream_name = "s";
  entry.ticks = 100;
  entry.matches = 3;
  entry.cells = 1200;
  entry.last_match_seq = 97;
  entry.est_cpu_nanos = 55555;
  payload.entries.push_back(entry);
  // An entry with the cost columns at their defaults.
  QueryListPayload::Entry idle;
  idle.query_id = 2;
  idle.name = "q2";
  idle.stream_name = "s";
  payload.entries.push_back(idle);

  QueryListPayload out;
  ASSERT_TRUE(DecodePayload(Encode(payload), &out).ok());
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_EQ(out.entries[0].cells, 1200);
  EXPECT_EQ(out.entries[0].last_match_seq, 97);
  EXPECT_EQ(out.entries[0].est_cpu_nanos, 55555);
  EXPECT_EQ(out.entries[1].cells, 0);
  EXPECT_EQ(out.entries[1].last_match_seq, -1);
  EXPECT_EQ(out.entries[1].est_cpu_nanos, 0);

  // A v1 QUERY_LIST carries only the base columns of each entry.
  util::ByteWriter v1;
  v1.WriteU64(payload.request_id);
  v1.WriteU64(payload.entries.size());
  for (const QueryListPayload::Entry& e : payload.entries) {
    v1.WriteI64(e.query_id);
    v1.WriteI64(e.stream_id);
    v1.WriteString(e.name);
    v1.WriteString(e.stream_name);
    v1.WriteI64(e.ticks);
    v1.WriteI64(e.matches);
  }
  QueryListPayload from_v1;
  EXPECT_FALSE(DecodePayload(v1.buffer(), &from_v1).ok());
}

// Encodes `payload`, requires its decode to re-encode to the same bytes,
// and returns the encoded size.
template <typename Payload>
size_t RoundTripSize(const Payload& payload) {
  const std::vector<uint8_t> bytes = Encode(payload);
  Payload out;
  EXPECT_TRUE(DecodePayload(bytes, &out).ok());
  EXPECT_EQ(Encode(out), bytes);
  return bytes.size();
}

// Every field is always on the wire, so each payload has one encoding and
// its size depends only on its string and vector lengths — at the "no
// value" markers too (send_nanos 0, match_seq -1, ticks -1).
TEST(PayloadTest, EveryPayloadEncodesToItsFixedSize) {
  for (const int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1} << 40}) {
    SCOPED_TRACE(v);
    const auto u = static_cast<uint64_t>(v);
    HelloPayload hello;
    hello.version = static_cast<uint32_t>(u);
    hello.peer_name = "p";
    EXPECT_EQ(RoundTripSize(hello), 4u + 9u);
    HelloAckPayload ack;
    ack.version = static_cast<uint32_t>(u);
    ack.server_name = "p";
    EXPECT_EQ(RoundTripSize(ack), 4u + 9u);
    OpenStreamPayload open;
    open.request_id = u;
    open.name = "s";
    EXPECT_EQ(RoundTripSize(open), 8u + 9u);
    StreamOpenedPayload opened;
    opened.request_id = u;
    opened.stream_id = v;
    opened.ticks = v;
    EXPECT_EQ(RoundTripSize(opened), 24u);
    AddQueryPayload add;
    add.request_id = u;
    add.stream_id = v;
    add.name = "q";
    add.values = {1.0, 2.0};
    add.epsilon = static_cast<double>(v);
    add.local_distance = static_cast<uint8_t>(u);
    add.max_match_length = v;
    add.min_match_length = v;
    EXPECT_EQ(RoundTripSize(add), 16u + 9u + 24u + 8u + 1u + 16u);
    QueryAddedPayload added;
    added.request_id = u;
    added.query_id = v;
    EXPECT_EQ(RoundTripSize(added), 16u);
    RemoveQueryPayload remove;
    remove.request_id = u;
    remove.query_id = v;
    EXPECT_EQ(RoundTripSize(remove), 16u);
    QueryRemovedPayload removed;
    removed.request_id = u;
    removed.query_id = v;
    removed.flushed_matches = v;
    EXPECT_EQ(RoundTripSize(removed), 24u);
    ListQueriesPayload list;
    list.request_id = u;
    EXPECT_EQ(RoundTripSize(list), 8u);
    QueryListPayload table;
    table.request_id = u;
    QueryListPayload::Entry entry;
    entry.query_id = v;
    entry.stream_id = v;
    entry.name = "q";
    entry.stream_name = "s";
    entry.ticks = v;
    entry.matches = v;
    entry.cells = v;
    entry.last_match_seq = v;
    entry.est_cpu_nanos = v;
    table.entries = {entry, entry};
    EXPECT_EQ(RoundTripSize(table), 16u + 2u * (16u + 18u + 16u + 24u));
    SubscribeMatchesPayload subscribe;
    subscribe.request_id = u;
    EXPECT_EQ(RoundTripSize(subscribe), 8u);
    SubscribedPayload subscribed;
    subscribed.request_id = u;
    EXPECT_EQ(RoundTripSize(subscribed), 8u);
    MatchEventPayload event;
    event.delivery_seq = u;
    event.stream_id = v;
    event.query_id = v;
    event.stream_name = "s";
    event.query_name = "q";
    event.match.start = v;
    event.match.end = v;
    event.match.distance = static_cast<double>(v);
    event.match.report_time = v;
    event.match.group_start = v;
    event.match.group_end = v;
    event.match_seq = v;
    EXPECT_EQ(RoundTripSize(event), 24u + 18u + 48u + 8u);
    TickBatchPayload batch;
    batch.stream_id = v;
    batch.values = {1.0, 2.0};
    batch.send_nanos = u;
    EXPECT_EQ(RoundTripSize(batch), 8u + 24u + 8u);
    CheckpointPayload checkpoint;
    checkpoint.request_id = u;
    EXPECT_EQ(RoundTripSize(checkpoint), 8u);
    CheckpointedPayload checkpointed;
    checkpointed.request_id = u;
    checkpointed.state_bytes = u;
    EXPECT_EQ(RoundTripSize(checkpointed), 16u);
    DrainPayload drain;
    drain.request_id = u;
    EXPECT_EQ(RoundTripSize(drain), 8u);
    DrainAckPayload drain_ack;
    drain_ack.request_id = u;
    drain_ack.ticks_applied = u;
    EXPECT_EQ(RoundTripSize(drain_ack), 16u);
    ErrorPayload error;
    error.request_id = u;
    error.code = static_cast<uint8_t>(u);
    error.message = "m";
    EXPECT_EQ(RoundTripSize(error), 8u + 1u + 9u);
  }
}

TEST(PayloadTest, ErrorPayloadStatusMapping) {
  const util::Status original =
      util::NotFoundError("no query 7");
  const ErrorPayload payload = MakeErrorPayload(12, original);
  EXPECT_EQ(payload.request_id, 12u);
  const std::vector<uint8_t> bytes = Encode(payload);
  ErrorPayload out;
  ASSERT_TRUE(DecodePayload(bytes, &out).ok());
  const util::Status status = out.ToStatus();
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "no query 7");

  // Unknown codes (a newer peer) degrade to kInternal, never to kOk.
  ErrorPayload alien = payload;
  alien.code = 200;
  EXPECT_EQ(alien.ToStatus().code(), util::StatusCode::kInternal);
  alien.code = 0;
  EXPECT_EQ(alien.ToStatus().code(), util::StatusCode::kInternal);
}

TEST(PayloadTest, ToSpringOptionsValidates) {
  AddQueryPayload payload;
  payload.values = {1.0, 2.0};
  payload.epsilon = 0.5;
  payload.local_distance = 1;
  payload.max_match_length = 10;
  payload.min_match_length = 2;
  util::StatusOr<core::SpringOptions> options = payload.ToSpringOptions();
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->epsilon, 0.5);
  EXPECT_EQ(options->local_distance, dtw::LocalDistance::kAbsolute);
  EXPECT_EQ(options->max_match_length, 10);
  EXPECT_EQ(options->min_match_length, 2);

  AddQueryPayload bad = payload;
  bad.values.clear();
  EXPECT_FALSE(bad.ToSpringOptions().ok());
  bad = payload;
  bad.values[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(bad.ToSpringOptions().ok());
  bad = payload;
  bad.epsilon = -1.0;
  EXPECT_FALSE(bad.ToSpringOptions().ok());
  bad = payload;
  bad.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(bad.ToSpringOptions().ok());
  bad = payload;
  bad.local_distance = 7;
  EXPECT_FALSE(bad.ToSpringOptions().ok());
  bad = payload;
  bad.min_match_length = -1;
  EXPECT_FALSE(bad.ToSpringOptions().ok());
}

}  // namespace
}  // namespace net
}  // namespace springdtw
