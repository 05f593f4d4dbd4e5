#include "drive.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "net/protocol.h"
#include "util/string_util.h"

namespace perfbench {

using namespace springdtw;

int64_t Feeders::StreamIndex(int64_t server_id) const {
  return server_id >= 0 &&
                 server_id < static_cast<int64_t>(stream_index_of_id.size())
             ? stream_index_of_id[static_cast<size_t>(server_id)]
             : -1;
}

int64_t Feeders::QueryIndex(int64_t server_id) const {
  return server_id >= 0 &&
                 server_id < static_cast<int64_t>(query_index_of_id.size())
             ? query_index_of_id[static_cast<size_t>(server_id)]
             : -1;
}

util::Status ConnectAndRegister(const Inputs& inputs, int port,
                                Feeders* feeders) {
  for (int c = 0; c < inputs.spec.connections; ++c) {
    net::StreamClientOptions options;
    options.port = port;
    options.peer_name = "perfbench";
    auto client = std::make_unique<net::StreamClient>(options);
    SPRINGDTW_RETURN_IF_ERROR(client->Connect());
    feeders->clients.push_back(std::move(client));
  }
  net::StreamClient& admin = *feeders->clients[0];
  for (const StreamInput& stream : inputs.streams) {
    ++feeders->calls;
    auto id = admin.OpenStream(stream.name);
    if (!id.ok()) return id.status();
    feeders->stream_ids.push_back(*id);
  }
  for (const QueryInput& query : inputs.queries) {
    core::SpringOptions options;
    options.epsilon = query.epsilon;
    ++feeders->calls;
    auto id = admin.AddQuery(feeders->stream_ids[static_cast<size_t>(query.stream)],
                             query.name, query.values, options);
    if (!id.ok()) return id.status();
    feeders->query_ids.push_back(*id);
  }
  const auto invert = [](const std::vector<int64_t>& ids) {
    std::vector<int64_t> inverse(
        static_cast<size_t>(*std::max_element(ids.begin(), ids.end()) + 1), -1);
    for (size_t i = 0; i < ids.size(); ++i) {
      inverse[static_cast<size_t>(ids[i])] = static_cast<int64_t>(i);
    }
    return inverse;
  };
  feeders->stream_index_of_id = invert(feeders->stream_ids);
  feeders->query_index_of_id = invert(feeders->query_ids);
  return util::Status::Ok();
}

Rounds::Rounds(const Inputs& inputs)
    : spec_(inputs.spec),
      schedule_(inputs.spec.open_loop() ? inputs.spec.rate_ticks_per_s : 1.0,
                inputs.spec.open_loop() ? inputs.spec.batch_period_ms : 1.0,
                inputs.spec.num_streams) {}

const std::vector<Rounds::Chunk>& Rounds::Get(int64_t r) {
  chunks_.clear();
  if (spec_.open_loop()) {
    for (int64_t s = 0; s < spec_.num_streams; ++s) {
      Chunk chunk;
      chunk.stream = s;
      schedule_.StreamRange(r, s, &chunk.begin, &chunk.end);
      if (chunk.end > chunk.begin) chunks_.push_back(chunk);
    }
    return chunks_;
  }
  for (int64_t b = 0; b < spec_.batches_per_window; ++b) {
    const int64_t begin = (r * spec_.batches_per_window + b) * spec_.batch_ticks;
    for (int64_t s = 0; s < spec_.num_streams; ++s) {
      chunks_.push_back(Chunk{s, begin, begin + spec_.batch_ticks});
    }
  }
  return chunks_;
}

int64_t Rounds::RoundOf(int64_t stream, int64_t pos) const {
  if (spec_.open_loop()) return schedule_.BatchOf(stream, pos);
  return pos / (spec_.batches_per_window * spec_.batch_ticks);
}

namespace {

/// Runs one client call, counting it and recording its span.
template <typename Fn>
auto Call(Feeders* feeders, Tracer* tracer, const char* span, Fn&& fn) {
  ScopedSpan scoped(tracer, span);
  ++feeders->calls;
  auto result = fn();
  if (!result.ok()) ++feeders->call_errors;
  return result;
}

void SleepUntil(int64_t t_ns) {
  timespec ts{static_cast<time_t>(t_ns / 1000000000),
              static_cast<long>(t_ns % 1000000000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// Raw MATCH_EVENT reader on its own connection, decoding frames with the
/// public net/protocol functions. Its thread also sends the backlog probes
/// (DRAIN frames) and, when asked, a final DRAIN after which every match of
/// the run has been read.
class Subscriber {
 public:
  struct Received {
    int64_t recv_ns = 0;
    net::MatchEventPayload event;
  };
  struct Probe {
    int64_t sent_ns = 0;
    int64_t applied = -1;
  };

  Subscriber() = default;
  ~Subscriber() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    if (fd_ >= 0) close(fd_);
  }
  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;

  util::Status Connect(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return util::IoError("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return util::IoError("subscriber connect failed");
    }
    const int one = 1;
    (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    net::HelloPayload hello;
    hello.peer_name = "perfbench-subscriber";
    SPRINGDTW_RETURN_IF_ERROR(Send(net::FrameType::kHello, hello));
    net::Frame frame;
    SPRINGDTW_RETURN_IF_ERROR(ReadFrame(&frame));
    if (frame.type != net::FrameType::kHelloAck) {
      return util::IoError("subscriber: no HELLO_ACK");
    }
    net::SubscribeMatchesPayload subscribe;
    subscribe.request_id = 1;
    SPRINGDTW_RETURN_IF_ERROR(Send(net::FrameType::kSubscribeMatches, subscribe));
    SPRINGDTW_RETURN_IF_ERROR(ReadFrame(&frame));
    if (frame.type != net::FrameType::kSubscribed) {
      return util::IoError("subscriber: no SUBSCRIBED");
    }
    return util::Status::Ok();
  }

  void Start(int64_t probe_every_ns) {
    thread_ = std::thread([this, probe_every_ns] { Loop(probe_every_ns); });
  }

  /// Sends the final DRAIN and waits until its ack (or a disconnect).
  void Finish() {
    final_requested_.store(true);
    thread_.join();
  }

  bool disconnected() const { return disconnected_; }
  std::vector<Received>& received() { return received_; }
  const std::vector<Probe>& probes() const { return probes_; }

 private:
  static constexpr uint64_t kFinalRequest = ~uint64_t{0};

  template <typename Payload>
  util::Status Send(net::FrameType type, const Payload& payload) {
    std::vector<uint8_t> bytes;
    net::AppendPayloadFrame(type, payload, &bytes);
    size_t offset = 0;
    while (offset < bytes.size()) {
      const ssize_t n = send(fd_, bytes.data() + offset, bytes.size() - offset,
                             MSG_NOSIGNAL);
      if (n <= 0) return util::IoError("subscriber send failed");
      offset += static_cast<size_t>(n);
    }
    return util::Status::Ok();
  }

  /// Cuts one buffered frame; false when more bytes are needed or on a
  /// framing error (reported in `*error`).
  bool CutBuffered(net::Frame* frame, util::Status* error) {
    size_t consumed = 0;
    *error = net::CutFrame(buffer_, net::kDefaultMaxFrameBytes, frame, &consumed);
    if (!error->ok() || consumed == 0) return false;
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed));
    return true;
  }

  /// Returns false on EOF or error.
  bool Fill() {
    uint8_t chunk[64 * 1024];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.insert(buffer_.end(), chunk, chunk + n);
    return true;
  }

  util::Status ReadFrame(net::Frame* frame) {
    util::Status error;
    while (!CutBuffered(frame, &error)) {
      SPRINGDTW_RETURN_IF_ERROR(error);
      if (!Fill()) return util::IoError("subscriber connection closed");
    }
    return util::Status::Ok();
  }

  void SendDrain(uint64_t request_id) {
    net::DrainPayload drain;
    drain.request_id = request_id;
    if (!Send(net::FrameType::kDrain, drain).ok()) disconnected_ = true;
  }

  void Loop(int64_t probe_every_ns) {
    int64_t next_probe = NowNanos() + probe_every_ns;
    bool final_sent = false;
    while (!stop_.load() && !disconnected_) {
      const int64_t now = NowNanos();
      if (!final_sent && final_requested_.load()) {
        SendDrain(kFinalRequest);
        final_sent = true;
      } else if (!final_sent && now >= next_probe) {
        probes_.push_back(Probe{now, -1});
        SendDrain(probes_.size() + 1);
        next_probe += probe_every_ns;
      }
      pollfd entry{fd_, POLLIN, 0};
      if (poll(&entry, 1, 5) <= 0) continue;
      if (!Fill()) {
        disconnected_ = true;
        return;
      }
      const int64_t recv_ns = NowNanos();
      net::Frame frame;
      util::Status error;
      while (CutBuffered(&frame, &error)) {
        if (frame.type == net::FrameType::kMatchEvent) {
          Received r;
          r.recv_ns = recv_ns;
          if (net::DecodePayload(frame.payload, &r.event).ok()) {
            received_.push_back(std::move(r));
          }
        } else if (frame.type == net::FrameType::kDrainAck) {
          net::DrainAckPayload ack;
          if (!net::DecodePayload(frame.payload, &ack).ok()) continue;
          if (ack.request_id == kFinalRequest) return;
          const size_t index = static_cast<size_t>(ack.request_id - 2);
          if (index < probes_.size()) {
            probes_[index].applied = static_cast<int64_t>(ack.ticks_applied);
          }
        } else if (frame.type == net::FrameType::kError) {
          disconnected_ = true;
          return;
        }
      }
      if (!error.ok()) {
        disconnected_ = true;
        return;
      }
    }
  }

  int fd_ = -1;
  std::vector<uint8_t> buffer_;
  std::vector<Received> received_;
  std::vector<Probe> probes_;
  bool disconnected_ = false;
  std::atomic<bool> final_requested_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Offered (due) minus applied ticks at each probe of the last quarter of
/// the run must not grow.
void JudgeBacklog(const Rounds& rounds,
                  const std::vector<Subscriber::Probe>& probes, int64_t t0,
                  int64_t duration_ns, DriveResult* result) {
  const OpenLoopSchedule& schedule = rounds.schedule();
  std::vector<Subscriber::Probe> tail;
  for (const Subscriber::Probe& p : probes) {
    const int64_t t = p.sent_ns - t0;
    if (p.applied >= 0 && t >= duration_ns * 3 / 4 && t < duration_ns) {
      tail.push_back(p);
    }
  }
  if (tail.size() < 2) {
    result->backlog_grew = true;
    result->backlog_note = "too few backlog probes answered in the last quarter";
    return;
  }
  const auto backlog = [&](const Subscriber::Probe& p) {
    return schedule.TicksDueBy(p.sent_ns - t0) - p.applied;
  };
  const int64_t growth = backlog(tail.back()) - backlog(tail.front());
  const int64_t offered = schedule.TicksDueBy(tail.back().sent_ns - t0) -
                          schedule.TicksDueBy(tail.front().sent_ns - t0);
  const int64_t allowed =
      std::max<int64_t>(5 * schedule.ticks_per_batch(), offered / 50);
  result->backlog_grew = growth > allowed;
  result->backlog_note = util::StrFormat(
      "backlog %lld -> %lld ticks over the last quarter (%zu probes, growth "
      "allowed %lld)",
      static_cast<long long>(backlog(tail.front())),
      static_cast<long long>(backlog(tail.back())), tail.size(),
      static_cast<long long>(allowed));
}

}  // namespace

util::StatusOr<DriveResult> Drive(const Inputs& inputs, int port,
                                  Feeders* feeders, const DriveOptions& options) {
  const bool paced = inputs.spec.open_loop() && options.paced;
  Tracer* const tracer = options.tracer;
  const int64_t calls_before = feeders->calls;
  const int64_t errors_before = feeders->call_errors;
  const int64_t duration_ns = static_cast<int64_t>(options.seconds * 1e9);
  Rounds rounds(inputs);
  DriveResult result;
  result.ticks_sent.assign(inputs.streams.size(), 0);
  // When each round was due (open loop) or went out (closed loop).
  std::vector<int64_t> round_start_ns;
  const auto record_latency = [&](int64_t s, const core::Match& match,
                                  int64_t now) {
    const size_t r = static_cast<size_t>(rounds.RoundOf(s, match.report_time));
    if (r < round_start_ns.size()) {
      result.latency_us.push_back(
          static_cast<double>(now - round_start_ns[r]) / 1e3);
    }
  };

  Subscriber subscriber;
  net::StreamClient& first = *feeders->clients[0];
  if (paced) {
    SPRINGDTW_RETURN_IF_ERROR(subscriber.Connect(port));
    subscriber.Start(/*probe_every_ns=*/100 * 1000 * 1000);
  } else {
    first.SetMatchCallback([&](const net::MatchEventPayload& event) {
      const int64_t now = NowNanos();
      const int64_t s = feeders->StreamIndex(event.stream_id);
      const int64_t q = feeders->QueryIndex(event.query_id);
      if (s < 0 || q < 0) return;
      result.delivered.push_back(DeliveredMatch{q, event.match});
      record_latency(s, event.match, now);
    });
    if (auto st = Call(feeders, tracer, "client.SubscribeMatches",
                       [&] { return first.SubscribeMatches(); });
        !st.ok()) {
      first.SetMatchCallback(nullptr);  // It refers to this frame's locals.
      return st;
    }
  }

  std::vector<double> values;
  const size_t num_clients = feeders->clients.size();
  const int64_t t0 = NowNanos() + (paced ? 1000000 : 0);
  result.first_send_ns = t0;
  int64_t last_ack = t0;
  for (int64_t r = 0;; ++r) {
    if (paced) {
      const int64_t due = t0 + rounds.DueNanos(r);
      if (due - t0 >= duration_ns) break;
      SleepUntil(due);
      result.lag_us.push_back(static_cast<double>(NowNanos() - due) / 1e3);
      round_start_ns.push_back(due);
    } else {
      const int64_t start = NowNanos();
      if (r > 0) {
        result.lag_us.push_back(static_cast<double>(start - last_ack) / 1e3);
      }
      round_start_ns.push_back(start);
    }
    for (const Rounds::Chunk& chunk : rounds.Get(r)) {
      values.resize(static_cast<size_t>(chunk.end - chunk.begin));
      {
        ScopedSpan fill(tracer, "loadgen.Fill");
        inputs.Fill(chunk.stream, chunk.begin, values);
      }
      net::StreamClient& client =
          *feeders->clients[static_cast<size_t>(chunk.stream) % num_clients];
      (void)Call(feeders, tracer, "client.TickBatch", [&] {
        return client.TickBatch(
            feeders->stream_ids[static_cast<size_t>(chunk.stream)], values);
      });
      result.ticks_sent[static_cast<size_t>(chunk.stream)] = chunk.end;
      ++result.batches_sent;
    }
    for (auto& client : feeders->clients) {
      (void)Call(feeders, tracer, "client.Flush", [&] { return client->Flush(); });
    }
    if (paced) continue;
    // Drain the subscribed feeder last: once the others are acked, every
    // match their ticks caused is queued on it ahead of its own ack.
    for (size_t c = num_clients; c-- > 0;) {
      auto applied = Call(feeders, tracer, "client.Drain",
                          [&] { return feeders->clients[c]->Drain(); });
      if (applied.ok()) result.ticks_applied = static_cast<int64_t>(*applied);
    }
    last_ack = NowNanos();
    result.round_us.push_back(static_cast<double>(last_ack - round_start_ns.back()) / 1e3);
    if (last_ack - t0 >= duration_ns) break;
  }
  if (paced) {
    auto applied =
        Call(feeders, tracer, "client.Drain", [&] { return first.Drain(); });
    if (applied.ok()) result.ticks_applied = static_cast<int64_t>(*applied);
    last_ack = NowNanos();
    subscriber.Finish();
    result.subscriber_disconnected = subscriber.disconnected();
    for (Subscriber::Received& received : subscriber.received()) {
      const int64_t s = feeders->StreamIndex(received.event.stream_id);
      const int64_t q = feeders->QueryIndex(received.event.query_id);
      if (s < 0 || q < 0) continue;
      result.delivered.push_back(DeliveredMatch{q, received.event.match});
      record_latency(s, received.event.match, received.recv_ns);
    }
    JudgeBacklog(rounds, subscriber.probes(), t0, duration_ns, &result);
  }
  result.final_ack_ns = last_ack;
  for (int64_t n : result.ticks_sent) result.total_ticks_sent += n;
  result.calls = feeders->calls - calls_before;
  result.call_errors = feeders->call_errors - errors_before;
  first.SetMatchCallback(nullptr);
  return result;
}

}  // namespace perfbench
