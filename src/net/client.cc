#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "util/stopwatch.h"
#include "util/string_util.h"

namespace springdtw {
namespace net {

StreamClient::StreamClient(const StreamClientOptions& options)
    : options_(options) {}

StreamClient::~StreamClient() { Close(); }

void StreamClient::SetMatchCallback(MatchCallback callback) {
  match_callback_ = std::move(callback);
}

void StreamClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  send_buffer_.clear();
  recv_buffer_.clear();
}

util::Status StreamClient::ConnectOnce() {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return util::IoError(util::StrFormat("socket: %s", strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return util::InvalidArgumentError(
        util::StrFormat("bad host '%s' (IPv4 literals only)",
                        options_.host.c_str()));
  }
  if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const util::Status status =
        util::IoError(util::StrFormat("connect %s:%d: %s",
                                      options_.host.c_str(), options_.port,
                                      strerror(errno)));
    Close();
    return status;
  }
  const int one = 1;
  (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.io_timeout_ms > 0) {
    timeval tv{};
    const auto micros = static_cast<int64_t>(options_.io_timeout_ms * 1000.0);
    tv.tv_sec = static_cast<time_t>(micros / 1000000);
    tv.tv_usec = static_cast<suseconds_t>(micros % 1000000);
    (void)setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  return util::Status::Ok();
}

util::Status StreamClient::Connect() {
  if (connected()) return util::Status::Ok();
  util::Status status = util::InternalError("no connect attempt made");
  double backoff_ms = options_.retry_backoff_ms;
  for (int attempt = 0; attempt < std::max(1, options_.connect_attempts);
       ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          backoff_ms));
      backoff_ms *= 2;
    }
    status = ConnectOnce();
    if (status.ok()) break;
  }
  SPRINGDTW_RETURN_IF_ERROR(status);

  HelloPayload hello;
  hello.peer_name = options_.peer_name;
  std::vector<uint8_t> bytes;
  AppendPayloadFrame(FrameType::kHello, hello, &bytes);
  status = WriteAll(bytes);
  if (!status.ok()) {
    Close();
    return status;
  }
  Frame frame;
  status = ReadFrame(&frame);
  if (!status.ok()) {
    Close();
    return status;
  }
  if (frame.type == FrameType::kError) {
    ErrorPayload error;
    if (DecodePayload(frame.payload, &error).ok()) {
      Close();
      return error.ToStatus();
    }
  }
  if (frame.type != FrameType::kHelloAck) {
    Close();
    return util::InternalError(
        util::StrFormat("expected HELLO_ACK, got %s",
                        std::string(FrameTypeName(frame.type)).c_str()));
  }
  HelloAckPayload ack;
  status = DecodePayload(frame.payload, &ack);
  if (!status.ok()) {
    Close();
    return status;
  }
  if (ack.version != kProtocolVersion) {
    Close();
    return util::InternalError(util::StrFormat(
        "server acked protocol version %u, client speaks version %u",
        ack.version, kProtocolVersion));
  }
  return util::Status::Ok();
}

util::Status StreamClient::WriteAll(std::span<const uint8_t> bytes) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    const ssize_t n = send(fd_, bytes.data() + offset, bytes.size() - offset,
                           MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::IoError(util::StrFormat("send: %s", strerror(errno)));
    }
    offset += static_cast<size_t>(n);
  }
  return util::Status::Ok();
}

util::Status StreamClient::ReadFrame(Frame* frame) {
  while (true) {
    size_t consumed = 0;
    SPRINGDTW_RETURN_IF_ERROR(CutFrame(recv_buffer_, options_.max_frame_bytes,
                                       frame, &consumed));
    if (consumed > 0) {
      recv_buffer_.erase(recv_buffer_.begin(),
                         recv_buffer_.begin() +
                             static_cast<ptrdiff_t>(consumed));
      return util::Status::Ok();
    }
    uint8_t chunk[64 * 1024];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      recv_buffer_.insert(recv_buffer_.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) return util::IoError("server closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return util::IoError("timed out waiting for a frame");
    }
    return util::IoError(util::StrFormat("recv: %s", strerror(errno)));
  }
}

template <typename Request, typename Response>
util::Status StreamClient::Call(FrameType request_type, const Request& request,
                                uint64_t request_id, FrameType response_type,
                                Response* response) {
  if (!connected()) return util::FailedPreconditionError("not connected");
  AppendPayloadFrame(request_type, request, &send_buffer_);
  SPRINGDTW_RETURN_IF_ERROR(Flush());
  while (true) {
    Frame frame;
    SPRINGDTW_RETURN_IF_ERROR(ReadFrame(&frame));
    if (frame.type == FrameType::kMatchEvent) {
      MatchEventPayload event;
      SPRINGDTW_RETURN_IF_ERROR(DecodePayload(frame.payload, &event));
      if (match_callback_) match_callback_(event);
      continue;
    }
    if (frame.type == FrameType::kError) {
      ErrorPayload error;
      SPRINGDTW_RETURN_IF_ERROR(DecodePayload(frame.payload, &error));
      return error.ToStatus();
    }
    if (frame.type != response_type) {
      return util::InternalError(util::StrFormat(
          "expected %s, got %s",
          std::string(FrameTypeName(response_type)).c_str(),
          std::string(FrameTypeName(frame.type)).c_str()));
    }
    SPRINGDTW_RETURN_IF_ERROR(DecodePayload(frame.payload, response));
    if (response->request_id != request_id) {
      return util::InternalError(util::StrFormat(
          "response for request %llu, expected %llu",
          static_cast<unsigned long long>(response->request_id),
          static_cast<unsigned long long>(request_id)));
    }
    return util::Status::Ok();
  }
}

util::StatusOr<int64_t> StreamClient::OpenStream(const std::string& name) {
  OpenStreamPayload request;
  request.request_id = next_request_id_++;
  request.name = name;
  StreamOpenedPayload response;
  SPRINGDTW_RETURN_IF_ERROR(Call(FrameType::kOpenStream, request,
                                 request.request_id, FrameType::kStreamOpened,
                                 &response));
  last_stream_ticks_ = response.ticks;
  return response.stream_id;
}

util::StatusOr<int64_t> StreamClient::AddQuery(
    int64_t stream_id, const std::string& name,
    const std::vector<double>& values, const core::SpringOptions& options) {
  AddQueryPayload request;
  request.request_id = next_request_id_++;
  request.stream_id = stream_id;
  request.name = name;
  request.values = values;
  request.epsilon = options.epsilon;
  request.local_distance = static_cast<uint8_t>(options.local_distance);
  request.max_match_length = options.max_match_length;
  request.min_match_length = options.min_match_length;
  QueryAddedPayload response;
  SPRINGDTW_RETURN_IF_ERROR(Call(FrameType::kAddQuery, request,
                                 request.request_id, FrameType::kQueryAdded,
                                 &response));
  return response.query_id;
}

util::StatusOr<int64_t> StreamClient::RemoveQuery(int64_t query_id) {
  RemoveQueryPayload request;
  request.request_id = next_request_id_++;
  request.query_id = query_id;
  QueryRemovedPayload response;
  SPRINGDTW_RETURN_IF_ERROR(Call(FrameType::kRemoveQuery, request,
                                 request.request_id, FrameType::kQueryRemoved,
                                 &response));
  return response.flushed_matches;
}

util::StatusOr<std::vector<QueryListPayload::Entry>>
StreamClient::ListQueries() {
  ListQueriesPayload request;
  request.request_id = next_request_id_++;
  QueryListPayload response;
  SPRINGDTW_RETURN_IF_ERROR(Call(FrameType::kListQueries, request,
                                 request.request_id, FrameType::kQueryList,
                                 &response));
  return std::move(response.entries);
}

util::Status StreamClient::SubscribeMatches() {
  SubscribeMatchesPayload request;
  request.request_id = next_request_id_++;
  SubscribedPayload response;
  return Call(FrameType::kSubscribeMatches, request, request.request_id,
              FrameType::kSubscribed, &response);
}

util::Status StreamClient::TickBatch(int64_t stream_id,
                                     std::span<const double> values) {
  if (!connected()) return util::FailedPreconditionError("not connected");
  // Leave generous header room under the cap; each value is 8 bytes.
  const size_t max_per_frame =
      (static_cast<size_t>(options_.max_frame_bytes) - 64) / sizeof(double);
  for (size_t offset = 0; offset < values.size();) {
    const size_t count = std::min(max_per_frame, values.size() - offset);
    TickBatchPayload batch;
    batch.stream_id = stream_id;
    batch.values.assign(values.begin() + static_cast<ptrdiff_t>(offset),
                        values.begin() + static_cast<ptrdiff_t>(offset + count));
    batch.send_nanos = static_cast<uint64_t>(util::Stopwatch::NowNanos());
    AppendPayloadFrame(FrameType::kTickBatch, batch, &send_buffer_);
    offset += count;
    if (send_buffer_.size() >= options_.tick_flush_bytes) {
      SPRINGDTW_RETURN_IF_ERROR(Flush());
    }
  }
  return util::Status::Ok();
}

util::Status StreamClient::Flush() {
  if (send_buffer_.empty()) return util::Status::Ok();
  const util::Status status = WriteAll(send_buffer_);
  send_buffer_.clear();
  if (!status.ok()) {
    // The connection broke, but frames the server sent before it did may
    // still sit in the socket: a server that dies holding unread input
    // resets the connection, which fails this write first. Dispatch every
    // MATCH_EVENT received until EOF or a read error, then report the
    // write error.
    Frame frame;
    MatchEventPayload event;
    while (ReadFrame(&frame).ok()) {
      if (frame.type != FrameType::kMatchEvent) continue;
      if (!DecodePayload(frame.payload, &event).ok()) break;
      if (match_callback_) match_callback_(event);
    }
  }
  return status;
}

util::StatusOr<uint64_t> StreamClient::Drain() {
  DrainPayload request;
  request.request_id = next_request_id_++;
  DrainAckPayload response;
  SPRINGDTW_RETURN_IF_ERROR(Call(FrameType::kDrain, request,
                                 request.request_id, FrameType::kDrainAck,
                                 &response));
  return response.ticks_applied;
}

util::StatusOr<uint64_t> StreamClient::Checkpoint() {
  CheckpointPayload request;
  request.request_id = next_request_id_++;
  CheckpointedPayload response;
  SPRINGDTW_RETURN_IF_ERROR(Call(FrameType::kCheckpoint, request,
                                 request.request_id, FrameType::kCheckpointed,
                                 &response));
  return response.state_bytes;
}

}  // namespace net
}  // namespace springdtw
