#ifndef SPRINGDTW_NET_CLIENT_H_
#define SPRINGDTW_NET_CLIENT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/spring.h"
#include "net/protocol.h"
#include "util/status.h"

namespace springdtw {
namespace net {

struct StreamClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Connect attempts (>= 1); the delay between attempts starts at
  /// `retry_backoff_ms` and doubles each retry.
  int connect_attempts = 5;
  double retry_backoff_ms = 100.0;
  /// Receive timeout per blocking read; expiring mid-call fails the call
  /// with kIoError. 0 means block forever.
  double io_timeout_ms = 30000.0;
  uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Ticks are pipelined: buffered locally and written once the buffer
  /// passes this threshold (or on Flush/any request).
  size_t tick_flush_bytes = size_t{64} << 10;
  /// Sent in HELLO, for server logs.
  std::string peer_name = "springdtw_client";
};

/// Synchronous, single-threaded client for the springdtw wire protocol.
///
/// All methods must be called from one thread. Requests are blocking;
/// ticks are pipelined (see StreamClientOptions::tick_flush_bytes) so a
/// feeder pays one syscall per ~64 KiB, not per tick. MATCH_EVENT frames
/// can interleave with any response; they are dispatched to the match
/// callback from inside whichever call is reading the connection, in
/// server delivery order.
class StreamClient {
 public:
  using MatchCallback = std::function<void(const MatchEventPayload&)>;

  explicit StreamClient(const StreamClientOptions& options);
  ~StreamClient();

  StreamClient(const StreamClient&) = delete;
  StreamClient& operator=(const StreamClient&) = delete;

  /// Invoked for every MATCH_EVENT (set before SubscribeMatches).
  void SetMatchCallback(MatchCallback callback);

  /// Connects (with retry/backoff) and runs the HELLO handshake; a server
  /// that acks another protocol version is refused.
  util::Status Connect();
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Creates (or finds, by name — OPEN_STREAM is idempotent) a stream.
  util::StatusOr<int64_t> OpenStream(const std::string& name);

  /// Tick count the server reported for the stream in the last successful
  /// OpenStream (0 before the first). Nonzero means the stream already has
  /// history — the hook feeders use to resume a partially ingested series
  /// after a server restart instead of re-sending it.
  int64_t last_stream_ticks() const { return last_stream_ticks_; }

  /// Registers a query; returns the server's query id.
  util::StatusOr<int64_t> AddQuery(int64_t stream_id, const std::string& name,
                                   const std::vector<double>& values,
                                   const core::SpringOptions& options);

  /// Retires a query; returns the number of matches the removal flushed.
  util::StatusOr<int64_t> RemoveQuery(int64_t query_id);

  /// The live query table with its cost columns (cells, last_match_seq,
  /// est_cpu_nanos), exact as of every tick sent before the call.
  util::StatusOr<std::vector<QueryListPayload::Entry>> ListQueries();

  /// Starts MATCH_EVENT fan-out to this connection.
  util::Status SubscribeMatches();

  /// Queues a run of ticks (pipelined; see class comment), split into
  /// frames under the frame cap, each stamped with its monotonic send time
  /// for the server's span tracer.
  util::Status TickBatch(int64_t stream_id, std::span<const double> values);

  /// Writes out any buffered ticks. When the write fails, MATCH_EVENTs
  /// the server sent before the connection broke are still dispatched.
  util::Status Flush();

  /// Barrier: all previously sent ticks applied server-side, and — when
  /// subscribed — every match they caused has been dispatched to the
  /// callback before this returns. Returns total ticks the server applied.
  util::StatusOr<uint64_t> Drain();

  /// Asks the server to checkpoint; returns the serialized byte count.
  util::StatusOr<uint64_t> Checkpoint();

 private:
  util::Status ConnectOnce();
  /// Appends a request frame, flushes, and reads until `response_type`
  /// (dispatching interleaved MATCH_EVENTs); ERROR with our request id
  /// becomes the returned status.
  template <typename Request, typename Response>
  util::Status Call(FrameType request_type, const Request& request,
                    uint64_t request_id, FrameType response_type,
                    Response* response);
  util::Status WriteAll(std::span<const uint8_t> bytes);
  /// Blocking read of one frame (fills from the socket as needed).
  util::Status ReadFrame(Frame* frame);

  StreamClientOptions options_;
  MatchCallback match_callback_;
  int fd_ = -1;
  int64_t last_stream_ticks_ = 0;
  uint64_t next_request_id_ = 1;
  std::vector<uint8_t> send_buffer_;
  std::vector<uint8_t> recv_buffer_;
};

}  // namespace net
}  // namespace springdtw

#endif  // SPRINGDTW_NET_CLIENT_H_
