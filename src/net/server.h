#ifndef SPRINGDTW_NET_SERVER_H_
#define SPRINGDTW_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "monitor/sharded_monitor.h"
#include "monitor/sink.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "wal/wal.h"

namespace springdtw {
namespace net {

/// A match reconstructed by WAL replay whose delivery was not yet
/// watermarked before the crash. The server re-fans these out to each new
/// subscriber (see SetRecoveredMatches).
struct RecoveredMatch {
  monitor::MatchOrigin origin;
  core::Match match;
};

struct StreamServerOptions {
  /// Bind address; loopback by default — this is an in-datacenter ingest
  /// protocol with no auth layer.
  std::string bind_address = "127.0.0.1";
  /// Listening port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Accepted connections beyond this are refused (accepted + closed).
  int64_t max_connections = 64;
  /// Frame cap enforced by CutFrame before payload buffering.
  uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Slow-subscriber policy: a connection whose unsent output exceeds this
  /// many bytes is disconnected (bounded queue, then disconnect) rather
  /// than allowed to stall ingest or grow without bound.
  uint64_t max_output_buffer_bytes = uint64_t{4} << 20;
  /// Connections idle (no bytes in either direction) longer than this are
  /// closed; 0 disables the idle timeout.
  double idle_timeout_ms = 0.0;
  /// poll() tick, which also bounds Stop() latency and the cadence of
  /// periodic duties (idle sweep, checkpoint, the monitor's throttled
  /// telemetry publish).
  double poll_interval_ms = 50.0;
  /// Periodic checkpoint cadence; 0 disables. Requires a checkpoint
  /// callback (SetCheckpointFn). Checkpoints run on the event-loop thread
  /// between frames, so they are barrier-consistent.
  double checkpoint_period_ms = 0.0;
  /// Advertised in HELLO_ACK.
  std::string server_name = "springdtw_serve";
};

/// TCP serving layer that turns a ShardedMonitor into a long-running
/// daemon speaking the net/protocol.h wire format.
///
/// ## Threading model
///
/// One event-loop thread runs a poll() loop over the listening socket and
/// every connection, and that thread IS the monitor's single router thread
/// for the server's lifetime: every Push/Drain/AddQuery/RemoveQuery/
/// SerializeState lands there, so the monitor's single-caller contract
/// holds with no extra locking. Consequences:
///
///  * The embedder must Start() the monitor before Start()ing the server
///    and must not touch the monitor (except the thread-safe introspection
///    methods) until after Stop() returns — the join inside Stop() is the
///    happens-before edge that hands the router role back to the caller.
///  * Checkpoints requested over the wire (and the periodic checkpoint)
///    run on the loop thread via the SetCheckpointFn callback.
///
/// ## Match fan-out
///
/// The server registers a sink on the monitor; sinks fire on the router
/// thread at drain barriers in the engine's deterministic (seq, query id)
/// order, and the server appends one MATCH_EVENT frame per match to every
/// subscribed connection in that order. The loop drains the monitor after
/// every poll round that routed ticks, and synchronously inside DRAIN
/// handling — so on one connection, all matches caused by ticks preceding
/// a DRAIN are delivered before its DRAIN_ACK (TCP ordering makes the
/// end-to-end byte stream deterministic).
///
/// ## Error policy
///
/// Admin requests that fail (bad stream/query id, invalid options) get an
/// ERROR frame echoing their request_id; the connection stays usable.
/// Session violations — frame before HELLO, a HELLO at another protocol
/// version, unknown frame type, framing errors, a TICK_BATCH for an
/// unknown stream (fire-and-forget, so nothing weaker is visible to the
/// peer) — get an ERROR with request_id 0 and the connection is closed
/// after the write flushes.
class StreamServer {
 public:
  /// Writes a checkpoint (implementation-defined destination) and returns
  /// the serialized byte count. Runs on the event-loop thread, which holds
  /// the router role — it may call monitor->SerializeState() directly.
  using CheckpointFn = std::function<util::StatusOr<uint64_t>()>;

  /// `monitor` is not owned and must outlive the server.
  StreamServer(monitor::ShardedMonitor* monitor,
               const StreamServerOptions& options);
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Set before Start(); enables CHECKPOINT frames and the periodic
  /// checkpoint.
  void SetCheckpointFn(CheckpointFn fn);

  /// Set before Start(); not owned, must outlive the server. Enables
  /// durable ingest (docs/DURABILITY.md): every accepted TICK_BATCH is
  /// appended to the WAL *before* it reaches the monitor, delivery
  /// watermarks are logged once subscriber sockets are flushed, every
  /// successful admin mutation forces a checkpoint (so the WAL tail always
  /// postdates a checkpoint that already contains the topology), and WAL
  /// truncation rides checkpoints — deferred until all subscribed
  /// connections have fully flushed, so no match inside an about-to-die
  /// output buffer loses its replayability. Requires SetCheckpointFn.
  void SetWal(wal::WalWriter* wal);

  /// Set before Start(): matches WAL replay reconstructed above the
  /// delivery watermark. Fanned out (in order, once per session) to every
  /// connection right after its SUBSCRIBE_MATCHES is acked, so a
  /// reconnecting subscriber resumes with exactly the matches whose
  /// pre-crash delivery was not confirmed. Held for this server
  /// generation only.
  void SetRecoveredMatches(std::vector<RecoveredMatch> matches);

  /// Binds, listens, and spawns the event-loop thread. The monitor must
  /// already be started. When the monitor runs its telemetry plane, the
  /// server's spring_net_* families (and, after SetWal, the WAL's
  /// spring_wal_* families) join its published metrics, snapshotted on
  /// the loop thread at the plane's throttled publish.
  util::Status Start();

  /// Signals the loop, closes every connection, joins the thread.
  /// Idempotent. After return the calling thread owns the router role.
  void Stop();

  bool running() const {
    // order: acquire — pairs with the loop thread's release store on
    // startup/exit so a caller that observes running_ == true also sees
    // the bound port and loop state written before it.
    return running_.load(std::memory_order_acquire);
  }

  /// Bound port (valid after Start), -1 before.
  int port() const { return port_; }

  /// Loop-thread counters for tests (racy reads are fine post-Stop).
  int64_t total_connections() const {
    // order: relaxed — test/diagnostic counter; exact reads only matter
    // post-Stop, where the join is the synchronization edge.
    return total_connections_.load(std::memory_order_relaxed);
  }
  int64_t slow_disconnects() const {
    // order: relaxed — test/diagnostic counter; see total_connections().
    return slow_disconnects_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    int fd = -1;
    std::vector<uint8_t> in;
    std::vector<uint8_t> out;
    /// Bytes of `out` already written to the socket.
    size_t out_offset = 0;
    bool hello_done = false;
    bool subscribed = false;
    /// Flush remaining output, then close (set on fatal session errors).
    bool closing = false;
    uint64_t last_activity_nanos = 0;
  };

  void LoopThread();
  void AcceptPending(uint64_t now_nanos);
  /// Reads available bytes; returns false when the connection is done.
  bool ReadAndProcess(Connection* conn, uint64_t now_nanos);
  /// Writes buffered output; returns false when the connection is done.
  bool WritePending(Connection* conn);
  /// Dispatches one decoded frame; returns false on session-fatal errors
  /// (an ERROR frame has been queued and `closing` set).
  bool HandleFrame(Connection* conn, const Frame& frame);
  template <typename Payload>
  void Send(Connection* conn, FrameType type, const Payload& payload) {
    std::vector<uint8_t> frame;
    AppendPayloadFrame(type, payload, &frame);
    AppendEncoded(conn, frame);
  }
  /// Queues an ERROR frame; request_id 0 + closing for session-fatal.
  void SendError(Connection* conn, uint64_t request_id,
                 const util::Status& status, bool fatal);
  /// Drains the monitor if any ticks were routed since the last barrier
  /// (sink fan-out happens inside).
  void DrainIfDirty();
  /// Sink callback: fans one match out to all subscribers.
  void OnMatch(const monitor::MatchOrigin& origin, const core::Match& match);
  /// Appends one fully framed byte run to `conn`'s output, enforcing the
  /// slow-subscriber cap. Every outgoing frame goes through here.
  void AppendEncoded(Connection* conn, std::span<const uint8_t> frame);
  /// Encodes one MATCH_EVENT once and appends it to every subscribed
  /// connection, or to `only` alone (recovery-buffer fan-out).
  void FanOutMatch(const monitor::MatchOrigin& origin,
                   const core::Match& match, Connection* only);
  /// Logs ticks accepted for `stream_id` before they enter the monitor.
  util::Status AppendWalTicks(int64_t stream_id,
                              std::span<const double> values);
  /// Drains, runs the checkpoint callback, and (with a WAL) schedules
  /// truncation.
  util::StatusOr<uint64_t> RunCheckpoint();
  /// After a successful admin mutation with a WAL: checkpoint so the WAL
  /// tail never refers to unpersisted topology. On failure the session is
  /// killed (`fatal` error to `conn`) and false returned — durability
  /// cannot be promised past this point.
  bool CheckpointAfterAdmin(Connection* conn, uint64_t request_id);
  /// Appends a delivery mark once every subscribed connection has fully
  /// flushed everything fanned out so far.
  void MaybeLogDeliveryMark();
  /// Runs a scheduled WAL truncation once subscribers are flushed.
  void MaybeTruncateWal();
  bool AllSubscribersFlushed() const;
  void CloseConnection(Connection* conn);
  void MaybePeriodicCheckpoint(uint64_t now_nanos);
  obs::Counter* FrameCounter(FrameType type);

  monitor::ShardedMonitor* monitor_;
  StreamServerOptions options_;
  CheckpointFn checkpoint_fn_;

  int listen_fd_ = -1;
  int port_ = -1;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  /// Event-loop state (loop thread only once Start() returns).
  std::vector<std::unique_ptr<Connection>> connections_;
  std::unique_ptr<monitor::CallbackSink> sink_;
  bool sink_registered_ = false;
  uint64_t delivery_seq_ = 0;
  /// Values routed into the monitor over this server's lifetime; echoed in
  /// DRAIN_ACK.
  uint64_t ticks_routed_ = 0;
  bool ticks_dirty_ = false;
  /// Arrival stamp of the oldest un-drained tick, for the ingest-to-report
  /// latency histogram.
  uint64_t oldest_tick_nanos_ = 0;
  uint64_t last_checkpoint_nanos_ = 0;
  std::vector<uint8_t> frame_scratch_;

  /// Durable ingest state (loop thread only; null/empty when disabled).
  wal::WalWriter* wal_ = nullptr;
  std::vector<RecoveredMatch> recovered_matches_;
  /// Highest (seq, query id) fanned out to subscriber buffers, pending a
  /// delivery-mark append once the sockets flush.
  bool mark_pending_ = false;
  uint64_t mark_seq_ = 0;
  int64_t mark_query_ = 0;
  /// A checkpoint succeeded; truncate the WAL at the next all-flushed
  /// point.
  bool truncate_pending_ = false;

  /// spring_net_* families: loop thread only; the monitor's telemetry
  /// plane snapshots them on this thread (see Start()).
  obs::MetricsRegistry registry_;
  obs::Gauge* connections_gauge_ = nullptr;
  obs::Counter* bytes_rx_ = nullptr;
  obs::Counter* bytes_tx_ = nullptr;
  obs::Counter* slow_disconnects_counter_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  obs::Histogram* ingest_report_latency_ms_ = nullptr;
  std::vector<obs::Counter*> frame_counters_;

  std::atomic<int64_t> total_connections_{0};
  std::atomic<int64_t> slow_disconnects_{0};
};

}  // namespace net
}  // namespace springdtw

#endif  // SPRINGDTW_NET_SERVER_H_
