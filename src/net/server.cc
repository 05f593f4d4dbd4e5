#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace springdtw {
namespace net {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(util::Stopwatch::NowNanos());
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

StreamServer::StreamServer(monitor::ShardedMonitor* monitor,
                           const StreamServerOptions& options)
    : monitor_(monitor), options_(options) {
  connections_gauge_ =
      registry_.GetGauge("spring_net_connections", "Open connections");
  bytes_rx_ = registry_.GetCounter("spring_net_bytes_total",
                                   "Bytes moved over the wire",
                                   {{"direction", "rx"}});
  bytes_tx_ = registry_.GetCounter("spring_net_bytes_total",
                                   "Bytes moved over the wire",
                                   {{"direction", "tx"}});
  slow_disconnects_counter_ = registry_.GetCounter(
      "spring_net_slow_disconnects_total",
      "Subscribers dropped for exceeding the output buffer cap");
  protocol_errors_ = registry_.GetCounter(
      "spring_net_protocol_errors_total",
      "Framing/session violations that closed a connection");
  ingest_report_latency_ms_ = registry_.GetHistogram(
      "spring_net_ingest_report_latency_ms",
      "Milliseconds from tick arrival to match fan-out");
  const auto first = static_cast<uint8_t>(FrameType::kHello);
  const auto last = static_cast<uint8_t>(FrameType::kError);
  for (uint8_t t = first; t <= last; ++t) {
    frame_counters_.push_back(registry_.GetCounter(
        "spring_net_frames_total", "Frames received by type",
        {{"type", std::string(FrameTypeName(static_cast<FrameType>(t)))}}));
  }
}

StreamServer::~StreamServer() { Stop(); }

void StreamServer::SetCheckpointFn(CheckpointFn fn) {
  SPRINGDTW_CHECK(!running()) << "SetCheckpointFn before Start()";
  checkpoint_fn_ = std::move(fn);
}

void StreamServer::SetWal(wal::WalWriter* wal) {
  SPRINGDTW_CHECK(!running()) << "SetWal before Start()";
  wal_ = wal;
}

void StreamServer::SetRecoveredMatches(std::vector<RecoveredMatch> matches) {
  SPRINGDTW_CHECK(!running()) << "SetRecoveredMatches before Start()";
  recovered_matches_ = std::move(matches);
}

util::Status StreamServer::Start() {
  if (running()) return util::Status::Ok();
  if (!monitor_->started()) {
    return util::FailedPreconditionError(
        "Start() the monitor before the server");
  }
  if (wal_ != nullptr && !checkpoint_fn_) {
    // Admin mutations must checkpoint so the WAL tail never references
    // topology that exists only in memory.
    return util::FailedPreconditionError(
        "durable ingest (SetWal) requires a checkpoint destination "
        "(SetCheckpointFn)");
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return util::IoError(util::StrFormat("socket: %s", strerror(errno)));
  }
  const int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return util::InvalidArgumentError(
        util::StrFormat("bad bind address '%s'", options_.bind_address.c_str()));
  }
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0 ||
      listen(listen_fd_, 128) != 0 || !SetNonBlocking(listen_fd_)) {
    const util::Status status =
        util::IoError(util::StrFormat("bind/listen: %s", strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) != 0) {
    const util::Status status =
        util::IoError(util::StrFormat("getsockname: %s", strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = static_cast<int>(ntohs(bound.sin_port));

  if (!sink_registered_) {
    // The sink fires on the router thread (= the loop thread while the
    // server runs); after Stop() any embedder-triggered flush hits the
    // subscriber-less path and the matches are simply not fanned out.
    sink_ = std::make_unique<monitor::CallbackSink>(
        [this](const monitor::MatchOrigin& origin, const core::Match& match) {
          OnMatch(origin, match);
        });
    monitor_->AddSink(sink_.get());
    sink_registered_ = true;
  }
  if (monitor::Telemetry* telemetry = monitor_->telemetry()) {
    // Sampled-tick spans finalize on the router thread (= loop thread) at
    // the drain barrier, after OnMatch appended this barrier's MATCH_EVENT
    // frames to subscriber buffers — so the stamp covers serialization +
    // fan-out.
    telemetry->SetSpanFinalizer([](obs::TickSpan* span) {
      span->subscriber_write_nanos = NowNanos();
    });
    // Also on the router thread, so the loop-thread-only registry needs no
    // published copy of its own.
    telemetry->SetAuxMetricsProvider([this] {
      if (wal_ == nullptr) return registry_.Snapshot();
      return obs::MergeSnapshots(
          {registry_.Snapshot(), wal_->MetricsSnapshot()});
    });
  }

  // order: release ×2 — pairs with running()'s acquire: a caller that sees
  // running_ == true also sees the bound port and loop state above.
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  last_checkpoint_nanos_ = NowNanos();
  loop_thread_ = std::thread([this] { LoopThread(); });
  return util::Status::Ok();
}

void StreamServer::Stop() {
  if (!running()) return;
  // order: release — pairs with the loop's acquire load of stop_; the loop
  // observes every write made before Stop() was called.
  stop_.store(true, std::memory_order_release);
  if (loop_thread_.joinable()) loop_thread_.join();
  // The join handed the router role back; later embedder drains should not
  // stamp subscriber_write on spans the server never saw, nor read this
  // server's registry.
  if (monitor::Telemetry* telemetry = monitor_->telemetry()) {
    telemetry->SetSpanFinalizer(nullptr);
    telemetry->SetAuxMetricsProvider(nullptr);
  }
  // order: release — pairs with running()'s acquire; the join above is the
  // real synchronization edge, the flag just reports it.
  running_.store(false, std::memory_order_release);
}

obs::Counter* StreamServer::FrameCounter(FrameType type) {
  const size_t index =
      static_cast<size_t>(type) - static_cast<size_t>(FrameType::kHello);
  return frame_counters_[index];
}

void StreamServer::LoopThread() {
  std::vector<pollfd> fds;
  // order: acquire — pairs with Stop()'s release store; see Stop().
  while (!stop_.load(std::memory_order_acquire)) {
    fds.clear();
    pollfd listen_entry{};
    listen_entry.fd = listen_fd_;
    listen_entry.events = POLLIN;
    fds.push_back(listen_entry);
    for (const auto& conn : connections_) {
      pollfd entry{};
      entry.fd = conn->fd;
      entry.events = POLLIN;
      if (conn->out.size() > conn->out_offset) entry.events |= POLLOUT;
      fds.push_back(entry);
    }
    (void)poll(fds.data(), static_cast<nfds_t>(fds.size()),
               static_cast<int>(options_.poll_interval_ms));
    const uint64_t now = NowNanos();

    if ((fds[0].revents & POLLIN) != 0) AcceptPending(now);

    // fds[i + 1] maps to connections_[i]; connections accepted this round
    // sit past the pollfd list and simply wait for the next poll.
    const size_t polled = fds.size() - 1;
    for (size_t i = 0; i < polled; ++i) {
      Connection* conn = connections_[i].get();
      const short revents = fds[i + 1].revents;
      if ((revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        if (!ReadAndProcess(conn, now)) {
          CloseConnection(conn);
          continue;
        }
      }
    }

    // Deliver matches caused by this round's ticks before writing, so the
    // fan-out frames ride the same flush.
    DrainIfDirty();

    for (const auto& conn : connections_) {
      if (conn->fd < 0) continue;
      if (!WritePending(conn.get())) CloseConnection(conn.get());
    }

    // Durability duties, after the write pass so "flushed" is current:
    // watermark what subscribers now have, truncate behind a completed
    // checkpoint, and honor the interval fsync policy.
    if (wal_ != nullptr) {
      MaybeLogDeliveryMark();
      MaybeTruncateWal();
      const util::Status synced = wal_->MaybeSync(now);
      if (!synced.ok()) {
        SPRINGDTW_LOG(Error) << "WAL interval sync failed: "
                             << synced.ToString();
      }
    }

    if (options_.idle_timeout_ms > 0) {
      const uint64_t budget =
          static_cast<uint64_t>(options_.idle_timeout_ms * 1e6);
      for (const auto& conn : connections_) {
        if (conn->fd >= 0 && now - conn->last_activity_nanos > budget) {
          CloseConnection(conn.get());
        }
      }
    }

    std::erase_if(connections_,
                  [](const std::unique_ptr<Connection>& c) { return c->fd < 0; });
    connections_gauge_->Set(static_cast<double>(connections_.size()));

    MaybePeriodicCheckpoint(now);
    // The monitor's throttled telemetry publish: picks up this server's
    // families and keeps the timeline and alert state machine advancing
    // through idle stretches (absence rules and firing->resolved
    // transitions need evaluation passes, not traffic).
    monitor_->PollTimeline();
  }

  for (const auto& conn : connections_) {
    if (conn->fd >= 0) {
      (void)WritePending(conn.get());  // best-effort final flush
      CloseConnection(conn.get());
    }
  }
  connections_.clear();
  connections_gauge_->Set(0.0);
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  monitor_->PollTimeline(/*force=*/true);
}

void StreamServer::AcceptPending(uint64_t now_nanos) {
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;
    if (static_cast<int64_t>(connections_.size()) >= options_.max_connections ||
        !SetNonBlocking(fd)) {
      close(fd);
      continue;
    }
    const int one = 1;
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->last_activity_nanos = now_nanos;
    connections_.push_back(std::move(conn));
    // order: relaxed — test/diagnostic counter; never synchronization.
    total_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool StreamServer::ReadAndProcess(Connection* conn, uint64_t now_nanos) {
  uint8_t chunk[64 * 1024];
  bool peer_closed = false;
  while (true) {
    const ssize_t n = recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->in.insert(conn->in.end(), chunk, chunk + n);
      bytes_rx_->Increment(n);
      conn->last_activity_nanos = now_nanos;
      if (static_cast<size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // hard socket error
  }

  size_t offset = 0;
  bool session_ok = true;
  while (session_ok && !conn->closing) {
    Frame frame;
    size_t consumed = 0;
    const util::Status status =
        CutFrame(std::span<const uint8_t>(conn->in).subspan(offset),
                 options_.max_frame_bytes, &frame, &consumed);
    if (!status.ok()) {
      protocol_errors_->Increment();
      SendError(conn, 0, status, /*fatal=*/true);
      break;
    }
    if (consumed == 0) break;
    offset += consumed;
    session_ok = HandleFrame(conn, frame);
  }
  if (offset > 0) {
    conn->in.erase(conn->in.begin(),
                   conn->in.begin() + static_cast<ptrdiff_t>(offset));
  }
  // A half-closed peer that sent a complete trailing request still gets
  // its response attempt; the write path discovers the close.
  if (peer_closed && conn->in.empty() && conn->out.size() == conn->out_offset) {
    return false;
  }
  if (peer_closed) conn->closing = true;
  return true;
}

bool StreamServer::HandleFrame(Connection* conn, const Frame& frame) {
  const uint8_t raw_type = static_cast<uint8_t>(frame.type);
  if (!KnownFrameType(raw_type)) {
    protocol_errors_->Increment();
    SendError(conn, 0,
              util::InvalidArgumentError(
                  util::StrFormat("unknown frame type %u", raw_type)),
              /*fatal=*/true);
    return false;
  }
  FrameCounter(frame.type)->Increment();

  if (!conn->hello_done && frame.type != FrameType::kHello) {
    protocol_errors_->Increment();
    SendError(conn, 0,
              util::FailedPreconditionError(util::StrFormat(
                  "%s before HELLO",
                  std::string(FrameTypeName(frame.type)).c_str())),
              /*fatal=*/true);
    return false;
  }

  // Decode + dispatch. Decode failures on known types are session-fatal:
  // the peer speaks the right version, so a malformed payload means a
  // broken or hostile peer, not a request worth retrying.
  auto fatal_decode = [&](const util::Status& status) {
    protocol_errors_->Increment();
    SendError(conn, 0, status, /*fatal=*/true);
    return false;
  };

  switch (frame.type) {
    case FrameType::kHello: {
      HelloPayload hello;
      util::Status status = DecodePayload(frame.payload, &hello);
      if (!status.ok()) return fatal_decode(status);
      if (hello.version != kProtocolVersion) {
        SendError(conn, 0,
                  util::FailedPreconditionError(util::StrFormat(
                      "protocol version %u, server speaks version %u",
                      hello.version, kProtocolVersion)),
                  /*fatal=*/true);
        return false;
      }
      conn->hello_done = true;
      HelloAckPayload ack;
      ack.server_name = options_.server_name;
      Send(conn, FrameType::kHelloAck, ack);
      return true;
    }
    case FrameType::kOpenStream: {
      OpenStreamPayload req;
      util::Status status = DecodePayload(frame.payload, &req);
      if (!status.ok()) return fatal_decode(status);
      if (req.name.empty()) {
        SendError(conn, req.request_id,
                  util::InvalidArgumentError("stream name is empty"),
                  /*fatal=*/false);
        return true;
      }
      StreamOpenedPayload resp;
      resp.request_id = req.request_id;
      resp.stream_id = monitor_->FindStream(req.name);
      if (resp.stream_id < 0) {
        resp.stream_id = monitor_->AddStream(req.name);
        // New topology must be on disk before the WAL logs ticks against
        // it. A crash before the checkpoint loses the stream AND this
        // ack, so the client's retry re-creates it: exactly-once admin.
        if (!CheckpointAfterAdmin(conn, req.request_id)) return false;
      }
      // The stream's durable position, so a resuming producer knows how
      // much of its input the server already holds.
      resp.ticks = monitor_->stream_ticks(resp.stream_id);
      Send(conn, FrameType::kStreamOpened, resp);
      return true;
    }
    case FrameType::kAddQuery: {
      AddQueryPayload req;
      util::Status status = DecodePayload(frame.payload, &req);
      if (!status.ok()) return fatal_decode(status);
      util::StatusOr<core::SpringOptions> options = req.ToSpringOptions();
      if (!options.ok()) {
        SendError(conn, req.request_id, options.status(), /*fatal=*/false);
        return true;
      }
      if (req.stream_id < 0 || req.stream_id >= monitor_->num_streams()) {
        SendError(conn, req.request_id,
                  util::NotFoundError(util::StrFormat(
                      "no stream %lld",
                      static_cast<long long>(req.stream_id))),
                  /*fatal=*/false);
        return true;
      }
      util::StatusOr<int64_t> query_id = monitor_->AddQuery(
          req.stream_id, req.name, req.values, *options);
      if (!query_id.ok()) {
        SendError(conn, req.request_id, query_id.status(), /*fatal=*/false);
        return true;
      }
      if (!CheckpointAfterAdmin(conn, req.request_id)) return false;
      QueryAddedPayload resp;
      resp.request_id = req.request_id;
      resp.query_id = *query_id;
      Send(conn, FrameType::kQueryAdded, resp);
      return true;
    }
    case FrameType::kRemoveQuery: {
      RemoveQueryPayload req;
      util::Status status = DecodePayload(frame.payload, &req);
      if (!status.ok()) return fatal_decode(status);
      // Removal drains internally; a flushed candidate fans out to
      // subscribers (including this connection) before the response below.
      util::StatusOr<int64_t> flushed = monitor_->RemoveQuery(req.query_id);
      if (!flushed.ok()) {
        SendError(conn, req.request_id, flushed.status(), /*fatal=*/false);
        return true;
      }
      if (!CheckpointAfterAdmin(conn, req.request_id)) return false;
      QueryRemovedPayload resp;
      resp.request_id = req.request_id;
      resp.query_id = req.query_id;
      resp.flushed_matches = *flushed;
      Send(conn, FrameType::kQueryRemoved, resp);
      return true;
    }
    case FrameType::kListQueries: {
      ListQueriesPayload req;
      util::Status status = DecodePayload(frame.payload, &req);
      if (!status.ok()) return fatal_decode(status);
      QueryListPayload resp;
      resp.request_id = req.request_id;
      // ListQueries takes the barrier itself, so every column is exact as
      // of every tick this loop has routed, pipelined ones included. The
      // server's drain first, so its dirty-tick state resets with it.
      DrainIfDirty();
      for (monitor::QueryCost& row : monitor_->ListQueries()) {
        QueryListPayload::Entry out;
        out.query_id = row.query_id;
        out.stream_id = row.stream_id;
        out.name = std::move(row.query_name);
        out.stream_name = std::move(row.stream_name);
        out.ticks = row.ticks;
        out.matches = row.matches;
        out.cells = row.cells;
        out.last_match_seq = row.last_match_seq;
        out.est_cpu_nanos = row.est_cpu_nanos;
        resp.entries.push_back(std::move(out));
      }
      Send(conn, FrameType::kQueryList, resp);
      return true;
    }
    case FrameType::kSubscribeMatches: {
      SubscribeMatchesPayload req;
      util::Status status = DecodePayload(frame.payload, &req);
      if (!status.ok()) return fatal_decode(status);
      conn->subscribed = true;
      SubscribedPayload resp;
      resp.request_id = req.request_id;
      Send(conn, FrameType::kSubscribed, resp);
      // Recovery buffer: matches replayed past the pre-crash delivery
      // watermark are re-offered to every new subscriber, right behind
      // the SUBSCRIBED ack so they precede any live match.
      for (const RecoveredMatch& recovered : recovered_matches_) {
        FanOutMatch(recovered.origin, recovered.match, conn);
      }
      return true;
    }
    case FrameType::kTickBatch: {
      TickBatchPayload req;
      util::Status status = DecodePayload(frame.payload, &req);
      if (!status.ok()) return fatal_decode(status);
      // Write-ahead: the ticks are logged (and, under every_record, synced)
      // before the monitor sees them, so anything that influences
      // delivered output is replayable.
      status = AppendWalTicks(req.stream_id, req.values);
      if (status.ok()) {
        status = monitor_->PushBatch(req.stream_id, req.values,
                                     req.send_nanos);
      }
      if (!status.ok()) {
        // Ticks are fire-and-forget; an undeliverable tick would silently
        // desync the peer's view, so it ends the session.
        SendError(conn, 0, status, /*fatal=*/true);
        return false;
      }
      if (!req.values.empty()) {
        ticks_routed_ += req.values.size();
        if (!ticks_dirty_) oldest_tick_nanos_ = NowNanos();
        ticks_dirty_ = true;
      }
      return true;
    }
    case FrameType::kCheckpoint: {
      CheckpointPayload req;
      util::Status status = DecodePayload(frame.payload, &req);
      if (!status.ok()) return fatal_decode(status);
      if (!checkpoint_fn_) {
        SendError(conn, req.request_id,
                  util::FailedPreconditionError(
                      "server runs without a checkpoint destination"),
                  /*fatal=*/false);
        return true;
      }
      util::StatusOr<uint64_t> bytes = RunCheckpoint();
      if (!bytes.ok()) {
        SendError(conn, req.request_id, bytes.status(), /*fatal=*/false);
        return true;
      }
      last_checkpoint_nanos_ = NowNanos();
      CheckpointedPayload resp;
      resp.request_id = req.request_id;
      resp.state_bytes = *bytes;
      Send(conn, FrameType::kCheckpointed, resp);
      return true;
    }
    case FrameType::kDrain: {
      DrainPayload req;
      util::Status status = DecodePayload(frame.payload, &req);
      if (!status.ok()) return fatal_decode(status);
      // Synchronous barrier: match fan-out lands in subscriber buffers
      // before the ack, so on one connection DRAIN_ACK is proof that every
      // match caused by earlier ticks has been delivered.
      DrainIfDirty();
      (void)monitor_->Drain();
      DrainAckPayload resp;
      resp.request_id = req.request_id;
      resp.ticks_applied = ticks_routed_;
      Send(conn, FrameType::kDrainAck, resp);
      return true;
    }
    case FrameType::kHelloAck:
    case FrameType::kStreamOpened:
    case FrameType::kQueryAdded:
    case FrameType::kQueryRemoved:
    case FrameType::kQueryList:
    case FrameType::kSubscribed:
    case FrameType::kMatchEvent:
    case FrameType::kCheckpointed:
    case FrameType::kDrainAck:
    case FrameType::kError: {
      protocol_errors_->Increment();
      SendError(conn, 0,
                util::InvalidArgumentError(util::StrFormat(
                    "server-to-client frame %s from a client",
                    std::string(FrameTypeName(frame.type)).c_str())),
                /*fatal=*/true);
      return false;
    }
  }
  return true;
}

void StreamServer::SendError(Connection* conn, uint64_t request_id,
                             const util::Status& status, bool fatal) {
  Send(conn, FrameType::kError, MakeErrorPayload(request_id, status));
  if (fatal) conn->closing = true;
}

void StreamServer::DrainIfDirty() {
  if (!ticks_dirty_) return;
  (void)monitor_->Drain();
  ticks_dirty_ = false;
  oldest_tick_nanos_ = 0;
}

void StreamServer::OnMatch(const monitor::MatchOrigin& origin,
                           const core::Match& match) {
  if (oldest_tick_nanos_ != 0) {
    ingest_report_latency_ms_->Observe(
        static_cast<double>(NowNanos() - oldest_tick_nanos_) / 1e6);
  }
  FanOutMatch(origin, match, /*only=*/nullptr);
  // Candidate for the next delivery mark. Fan-out follows the monitor's
  // (seq, query id) order, so the last match seen is the watermark. The
  // mark is appended only after the sockets flush (MaybeLogDeliveryMark):
  // logging after the write errs toward re-delivery on crash — recoverable
  // by client-side dedup — never toward loss. Flush matches carry no seq
  // and are not markable.
  if (wal_ != nullptr && origin.global_seq >= 0) {
    mark_pending_ = true;
    mark_seq_ = static_cast<uint64_t>(origin.global_seq);
    mark_query_ = origin.query_id;
  }
}

void StreamServer::AppendEncoded(Connection* conn,
                                 std::span<const uint8_t> frame) {
  if (conn->fd < 0 || conn->closing) return;
  conn->out.insert(conn->out.end(), frame.begin(), frame.end());
  if (conn->out.size() - conn->out_offset >
      options_.max_output_buffer_bytes) {
    // Bounded queue, then disconnect: drop the backlog rather than stall
    // ingest for everyone else.
    slow_disconnects_counter_->Increment();
    // order: relaxed — test/diagnostic counter; never synchronization.
    slow_disconnects_.fetch_add(1, std::memory_order_relaxed);
    conn->out.clear();
    conn->out_offset = 0;
    conn->closing = true;
  }
}

void StreamServer::FanOutMatch(const monitor::MatchOrigin& origin,
                               const core::Match& match, Connection* only) {
  MatchEventPayload event;
  event.delivery_seq = delivery_seq_++;
  event.stream_id = origin.stream_id;
  event.query_id = origin.query_id;
  event.stream_name = origin.stream_name;
  event.query_name = origin.query_name;
  event.match = match;
  event.match_seq = origin.global_seq;
  frame_scratch_.clear();
  AppendPayloadFrame(FrameType::kMatchEvent, event, &frame_scratch_);
  if (only != nullptr) {
    AppendEncoded(only, frame_scratch_);
    return;
  }
  for (const auto& conn : connections_) {
    if (conn->fd < 0 || !conn->subscribed || conn->closing) continue;
    AppendEncoded(conn.get(), frame_scratch_);
  }
}

util::Status StreamServer::AppendWalTicks(int64_t stream_id,
                                          std::span<const double> values) {
  if (wal_ == nullptr || values.empty()) return util::Status::Ok();
  // Pre-validate so rejected ticks are never logged; the monitor re-checks
  // and its error (not ours) is what the peer sees for bad ids.
  if (stream_id < 0 || stream_id >= monitor_->num_streams()) {
    return util::Status::Ok();
  }
  const int64_t shard = monitor_->worker_of_stream(stream_id);
  return wal_->AppendTicks(shard, monitor_->next_seq(), stream_id, values);
}

util::StatusOr<uint64_t> StreamServer::RunCheckpoint() {
  if (!checkpoint_fn_) {
    return util::FailedPreconditionError(
        "server runs without a checkpoint destination");
  }
  DrainIfDirty();
  util::StatusOr<uint64_t> bytes = checkpoint_fn_();
  if (bytes.ok() && wal_ != nullptr) {
    // The checkpoint covers every logged tick; the log can restart — but
    // only once subscribers have flushed, so a match sitting in an output
    // buffer keeps its replayability until it is truly on the wire.
    truncate_pending_ = true;
    MaybeTruncateWal();
  }
  return bytes;
}

bool StreamServer::CheckpointAfterAdmin(Connection* conn,
                                        uint64_t request_id) {
  if (wal_ == nullptr) return true;
  const util::StatusOr<uint64_t> bytes = RunCheckpoint();
  if (bytes.ok()) {
    last_checkpoint_nanos_ = NowNanos();
    return true;
  }
  // The mutation is applied in memory but not durable, so the WAL tail
  // would replay against a topology the checkpoint does not hold. No
  // honest ack is possible: kill the session.
  SPRINGDTW_LOG(Error) << "post-admin checkpoint failed: "
                       << bytes.status().ToString();
  SendError(conn, request_id, bytes.status(), /*fatal=*/true);
  return false;
}

bool StreamServer::AllSubscribersFlushed() const {
  for (const auto& conn : connections_) {
    if (conn->fd < 0 || !conn->subscribed) continue;
    if (conn->out.size() > conn->out_offset) return false;
  }
  return true;
}

void StreamServer::MaybeLogDeliveryMark() {
  if (!mark_pending_ || !AllSubscribersFlushed()) return;
  const util::Status status = wal_->AppendDeliveryMark(mark_seq_, mark_query_);
  if (!status.ok()) {
    // Marks only bound re-delivery; keep it pending and retry next round.
    SPRINGDTW_LOG(Error) << "delivery mark append failed: "
                         << status.ToString();
    return;
  }
  mark_pending_ = false;
}

void StreamServer::MaybeTruncateWal() {
  if (!truncate_pending_ || !AllSubscribersFlushed()) return;
  const util::Status status = wal_->Truncate();
  if (!status.ok()) {
    // Stale segments are skipped by sequence at recovery; retrying later
    // is safe.
    SPRINGDTW_LOG(Error) << "WAL truncation failed: " << status.ToString();
    return;
  }
  // The truncation dropped the marks file along with the segments it
  // covered; a pending mark now refers to pre-checkpoint history.
  mark_pending_ = false;
  truncate_pending_ = false;
}

bool StreamServer::WritePending(Connection* conn) {
  while (conn->out_offset < conn->out.size()) {
    const ssize_t n =
        send(conn->fd, conn->out.data() + conn->out_offset,
             conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      bytes_tx_->Increment(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (conn->out_offset == conn->out.size()) {
    conn->out.clear();
    conn->out_offset = 0;
    if (conn->closing) return false;
  }
  return true;
}

void StreamServer::CloseConnection(Connection* conn) {
  if (conn->fd < 0) return;
  close(conn->fd);
  conn->fd = -1;
  conn->in.clear();
  conn->out.clear();
  conn->out_offset = 0;
}

void StreamServer::MaybePeriodicCheckpoint(uint64_t now_nanos) {
  if (options_.checkpoint_period_ms <= 0 || !checkpoint_fn_) return;
  const uint64_t period =
      static_cast<uint64_t>(options_.checkpoint_period_ms * 1e6);
  if (now_nanos - last_checkpoint_nanos_ < period) return;
  util::StatusOr<uint64_t> bytes = RunCheckpoint();
  if (!bytes.ok()) {
    SPRINGDTW_LOG(Error) << "periodic checkpoint failed: "
                         << bytes.status().ToString();
  }
  last_checkpoint_nanos_ = now_nanos;
}

}  // namespace net
}  // namespace springdtw
