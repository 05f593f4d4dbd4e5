#ifndef SPRINGDTW_NET_PROTOCOL_H_
#define SPRINGDTW_NET_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/match.h"
#include "core/spring.h"
#include "util/codec.h"
#include "util/status.h"

namespace springdtw {
namespace net {

/// # springdtw wire protocol
///
/// A dependency-free length-prefixed binary protocol for feeding ticks into
/// a running `ShardedMonitor` and administering its streams/queries over a
/// TCP connection. Framing:
///
///     u32 length | u8 type | payload (length - 1 bytes)
///
/// `length` counts the type byte plus the payload (so `length >= 1`), is
/// little-endian like everything `util::ByteWriter` emits, and is rejected
/// when it exceeds the peer's frame cap *before* any allocation — the same
/// hostile-input discipline as the snapshot codec. Payloads are encoded
/// with `util::ByteWriter` and decoded with `util::ByteReader`; a decode
/// succeeds only when every field parses (`ok()`) and the payload is fully
/// consumed (`AtEnd()`), so trailing garbage is an error. Every payload
/// field is always encoded: a payload's size depends only on the lengths
/// of its strings and vectors, never on its values.
///
/// The client opens with HELLO carrying `kProtocolVersion` and the server
/// answers HELLO_ACK with the same version; a peer that speaks another
/// version is refused with a session-fatal ERROR.
///
/// Requests that mutate or query server state carry a client-chosen
/// `request_id` echoed in the response so a pipelining client can correlate
/// replies. MATCH_EVENT frames are unsolicited (subscription-driven) and
/// may interleave between a request and its response.
inline constexpr uint32_t kProtocolVersion = 4;

/// Default cap on the frame `length` field, applied by both server and
/// client. One frame must fit a TICK_BATCH or a query template, not a whole
/// stream; 1 MiB is ~128k doubles.
inline constexpr uint64_t kDefaultMaxFrameBytes = uint64_t{1} << 20;

/// Bytes of framing overhead preceding each payload (u32 length + u8 type).
inline constexpr size_t kFrameHeaderBytes = 5;

enum class FrameType : uint8_t {
  // Session setup.
  kHello = 1,        // client -> server: version check
  kHelloAck = 2,     // server -> client
  // Stream / query admin.
  kOpenStream = 3,    // client -> server: create or look up a named stream
  kStreamOpened = 4,  // server -> client: stream id
  kAddQuery = 5,      // client -> server: register a query template
  kQueryAdded = 6,    // server -> client: query id
  kRemoveQuery = 7,   // client -> server: retire a query
  kQueryRemoved = 8,  // server -> client: count of flushed matches
  kListQueries = 9,   // client -> server
  kQueryList = 10,    // server -> client
  // Match delivery.
  kSubscribeMatches = 11,  // client -> server: start match fan-out
  kSubscribed = 12,        // server -> client
  kMatchEvent = 13,        // server -> subscriber, unsolicited
  // Data plane.
  kTickBatch = 14,  // client -> server: contiguous values on one stream
  // Lifecycle.
  kCheckpoint = 15,    // client -> server: snapshot state to disk now
  kCheckpointed = 16,  // server -> client
  kDrain = 17,         // client -> server: barrier; all prior ticks applied
  kDrainAck = 18,      // server -> client: all prior matches delivered
  kError = 19,         // server -> client: failed request or fatal session
};

/// True for type bytes this build knows how to decode.
bool KnownFrameType(uint8_t type);

/// Stable display name ("HELLO", "TICK_BATCH", ...); "UNKNOWN" for alien
/// bytes.
std::string_view FrameTypeName(FrameType type);

/// One decoded frame: the type byte plus its raw payload.
struct Frame {
  FrameType type = FrameType::kError;
  std::vector<uint8_t> payload;
};

/// Appends `u32 length | u8 type | payload` to `*out`.
void AppendFrame(FrameType type, std::span<const uint8_t> payload,
                 std::vector<uint8_t>* out);

/// Tries to cut one frame off the front of `buffer`.
///
///  * OK and `*consumed > 0`: one frame extracted into `*frame`.
///  * OK and `*consumed == 0`: the buffer holds a partial frame — read more.
///  * error: framing violation (zero length or `length > max_frame_bytes`);
///    the connection is unrecoverable and must be closed. The length cap is
///    enforced from the 4 header bytes alone, before the payload arrives,
///    so an attacker cannot make the receiver buffer an oversized frame.
util::Status CutFrame(std::span<const uint8_t> buffer,
                      uint64_t max_frame_bytes, Frame* frame,
                      size_t* consumed);

// ---------------------------------------------------------------------------
// Typed payloads. Every payload implements
//   void EncodeTo(util::ByteWriter*) const
//   util::Status DecodeFrom(util::ByteReader*)
// where DecodeFrom reads its fields and reports kInvalidArgument on
// truncation; use DecodePayload() to also reject trailing bytes.
// ---------------------------------------------------------------------------

struct HelloPayload {
  uint32_t version = kProtocolVersion;
  /// Free-form peer identification for logs ("springdtw_feed", ...).
  std::string peer_name;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct HelloAckPayload {
  uint32_t version = kProtocolVersion;
  std::string server_name;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct OpenStreamPayload {
  uint64_t request_id = 0;
  std::string name;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct StreamOpenedPayload {
  uint64_t request_id = 0;
  int64_t stream_id = 0;
  /// Values the server has already accepted for this stream (its durable
  /// position after checkpoint restore + WAL replay); a resuming producer
  /// skips this many leading values (springdtw_feed --resume).
  int64_t ticks = 0;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct AddQueryPayload {
  uint64_t request_id = 0;
  int64_t stream_id = 0;
  std::string name;
  std::vector<double> values;
  double epsilon = 0.0;
  /// dtw::LocalDistance as its enum value (0 squared, 1 absolute).
  uint8_t local_distance = 0;
  int64_t max_match_length = 0;
  int64_t min_match_length = 0;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);

  /// Validates the option fields (finite epsilon >= 0, known local
  /// distance, non-negative lengths, non-empty finite template).
  util::StatusOr<core::SpringOptions> ToSpringOptions() const;
};

struct QueryAddedPayload {
  uint64_t request_id = 0;
  int64_t query_id = 0;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct RemoveQueryPayload {
  uint64_t request_id = 0;
  int64_t query_id = 0;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct QueryRemovedPayload {
  uint64_t request_id = 0;
  int64_t query_id = 0;
  /// Matches flushed by the removal (0 or 1 under the Problem-2 rule).
  int64_t flushed_matches = 0;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct ListQueriesPayload {
  uint64_t request_id = 0;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct QueryListPayload {
  struct Entry {
    int64_t query_id = 0;
    int64_t stream_id = 0;
    std::string name;
    std::string stream_name;
    int64_t ticks = 0;
    int64_t matches = 0;
    /// Cost columns (the /queryz view): STWM cells computed, global
    /// sequence of the last delivered match (-1 = none yet), and sampled
    /// per-query CPU estimate.
    int64_t cells = 0;
    int64_t last_match_seq = -1;
    int64_t est_cpu_nanos = 0;
  };

  uint64_t request_id = 0;
  std::vector<Entry> entries;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct SubscribeMatchesPayload {
  uint64_t request_id = 0;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct SubscribedPayload {
  uint64_t request_id = 0;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct MatchEventPayload {
  /// Server-side delivery sequence, monotonic per subscriber session and
  /// following the engine's deterministic (seq, query id) order.
  uint64_t delivery_seq = 0;
  int64_t stream_id = 0;
  int64_t query_id = 0;
  std::string stream_name;
  std::string query_name;
  core::Match match;
  /// Global sequence of the tick that produced the match
  /// (monitor::MatchOrigin::global_seq); -1 for flush matches, which have
  /// no producing tick. Stable across a server restart — the exactly-once
  /// dedup key, paired with query_id.
  int64_t match_seq = -1;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct TickBatchPayload {
  int64_t stream_id = 0;
  std::vector<double> values;
  /// Client monotonic send timestamp (util::Stopwatch::NowNanos() domain)
  /// for end-to-end span tracing; 0 = unstamped.
  uint64_t send_nanos = 0;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct CheckpointPayload {
  uint64_t request_id = 0;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct CheckpointedPayload {
  uint64_t request_id = 0;
  uint64_t state_bytes = 0;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct DrainPayload {
  uint64_t request_id = 0;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct DrainAckPayload {
  uint64_t request_id = 0;
  /// Ticks the monitor has fully applied across all streams.
  uint64_t ticks_applied = 0;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);
};

struct ErrorPayload {
  /// Echoes the failing request, 0 for session-fatal errors (bad HELLO,
  /// framing violations detected above the framing layer).
  uint64_t request_id = 0;
  /// util::StatusCode as its enum value.
  uint8_t code = 0;
  std::string message;

  void EncodeTo(util::ByteWriter* writer) const;
  util::Status DecodeFrom(util::ByteReader* reader);

  /// The payload as a util::Status (unknown codes map to kInternal).
  util::Status ToStatus() const;
};

/// ErrorPayload for a failed request.
ErrorPayload MakeErrorPayload(uint64_t request_id, const util::Status& status);

/// Encodes `payload` and appends a full frame of `type` to `*out`.
template <typename Payload>
void AppendPayloadFrame(FrameType type, const Payload& payload,
                        std::vector<uint8_t>* out) {
  util::ByteWriter writer;
  payload.EncodeTo(&writer);
  AppendFrame(type, writer.buffer(), out);
}

/// Decodes `payload` into `*out`, rejecting truncated input and trailing
/// bytes. This is the only sanctioned way to decode a received payload.
template <typename Payload>
util::Status DecodePayload(std::span<const uint8_t> payload, Payload* out) {
  util::ByteReader reader(payload);
  SPRINGDTW_RETURN_IF_ERROR(out->DecodeFrom(&reader));
  if (!reader.AtEnd()) {
    return util::InvalidArgumentError("frame payload has trailing bytes");
  }
  return util::Status::Ok();
}

}  // namespace net
}  // namespace springdtw

#endif  // SPRINGDTW_NET_PROTOCOL_H_
