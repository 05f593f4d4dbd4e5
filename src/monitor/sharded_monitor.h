#ifndef SPRINGDTW_MONITOR_SHARDED_MONITOR_H_
#define SPRINGDTW_MONITOR_SHARDED_MONITOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/spring.h"
#include "monitor/cost_accounting.h"
#include "monitor/engine.h"
#include "monitor/sink.h"
#include "monitor/spsc_queue.h"
#include "monitor/telemetry.h"
#include "obs/alert.h"
#include "obs/introspection_server.h"
#include "obs/metrics.h"
#include "ts/repair.h"
#include "util/memory.h"
#include "util/status.h"

namespace springdtw {
namespace monitor {

struct ShardedMonitorOptions {
  /// Worker (shard) count. Streams are hash-partitioned across workers by
  /// name; each worker owns one MonitorEngine on its own thread.
  int64_t num_workers = 1;
  /// Per-worker tick-queue capacity in messages (each message carries up
  /// to 16 values). Rounded up to a power of two.
  size_t queue_capacity = 256;
  /// The one telemetry switch (docs/OBSERVABILITY.md). On, the monitor
  /// runs its telemetry plane (monitor/telemetry.h): per-shard metrics and
  /// trace rings (merged by MergedMetricsSnapshot), ring metrics, watchdog
  /// stamps, published snapshots, sampled tick spans with their end-to-end
  /// stage latencies and per-query cost sampling. Each of the four options
  /// below that asks for telemetry — a port, a timeline, alert rules, an
  /// SLO — turns it on. Off, the hot path pays one predictable branch per
  /// message: no clock reads, no allocations.
  bool collect_metrics = false;

  /// When >= 0, serves the plane over HTTP on 127.0.0.1 at this port (0
  /// picks an ephemeral port; see introspection_port()): /metrics,
  /// /metrics.json, /healthz, /statusz, /tracez, /spanz, /queryz,
  /// /streamz, /timez and /alertz.
  int64_t introspect_port = -1;
  /// Watchdog staleness budget: a worker that has processed traffic before
  /// but has made no progress for longer than this is reported "stale" by
  /// /healthz (503). The budget therefore encodes the expected feed
  /// cadence — a stream silent longer than this is treated as a stall.
  double staleness_budget_ms = 1000.0;
  /// The router publishes the plane's snapshots — shards, router,
  /// embedder families (Telemetry::SetAuxMetricsProvider), timeline and
  /// alert pass — at most this often, and only while the workers are
  /// quiescent: after a Drain, or from PollTimeline. FlushAll, RemoveQuery,
  /// Stop, MergedMetricsSnapshot and PollTimeline(true) always publish.
  double publish_interval_ms = 100.0;

  /// Metrics timeline + alerting: the router folds each published fleet
  /// snapshot into a multi-resolution obs::MetricsTimeline (served as
  /// /timez) and evaluates `alert_rules` against it (served as /alertz; a
  /// firing page-severity rule flips /healthz to 503). Recording and
  /// evaluation ride the publish cadence, never the ingest hot path.
  bool enable_timeline = false;
  /// Parsed alert rules (obs::ParseAlertRules for the text form).
  std::vector<obs::AlertRule> alert_rules;
  /// > 0 appends the conventional two-window SLO page rule on p99
  /// spring_e2e_latency_nanos{stage=total} with this budget, in
  /// milliseconds (obs::MakeSloP99Rule).
  double slo_p99_ms = 0.0;
};

/// Scale-out shell around MonitorEngine: hash-partitions scalar streams
/// across N single-threaded worker engines, feeds them through bounded SPSC
/// tick queues, and merges match output, metrics, and checkpoints back into
/// one deterministic façade.
///
/// ## Threading model (details: docs/SCALEOUT.md)
///
/// Exactly one caller thread (the "router") may invoke the public API; N
/// worker threads each own one MonitorEngine and never touch anything
/// else. Values are repaired (NaN hold-last) and assigned a global
/// sequence number on the router, then shipped in 16-value messages over a
/// lock-free SPSC ring per worker. Workers ingest via the engine's batched
/// query-major path and buffer matches shard-locally.
///
/// Match delivery is *deferred and deterministic*: registered sinks are
/// invoked only on the caller thread at barrier points (Drain, FlushAll,
/// Stop), with all shards' pending matches merged in (sequence number,
/// global query id) order. The same workload therefore produces
/// byte-identical ordered output for any worker count — 1, 2, or 8 — which
/// the determinism test locks down.
///
/// The drain barrier is the memory-ordering keystone: each worker bumps a
/// `consumed` counter with a release store after fully processing a
/// message, and Drain() acquire-loads it until it matches the router's
/// `produced` count. Everything a worker wrote — engine state, buffered
/// matches — is therefore visible to the caller after Drain(), which is
/// what makes checkpointing, metrics merging, flushing, and topology
/// mutation plain single-threaded code on the caller thread.
///
/// Checkpoints are reshard-safe: SerializeState() stores router state plus
/// one per-query matcher snapshot (not per-worker engine images), so a
/// checkpoint taken at 8 workers restores into a monitor with any worker
/// count, resuming byte-identically.
class ShardedMonitor {
 public:
  explicit ShardedMonitor(const ShardedMonitorOptions& options = {});
  ~ShardedMonitor();

  ShardedMonitor(const ShardedMonitor&) = delete;
  ShardedMonitor& operator=(const ShardedMonitor&) = delete;

  /// ## Runtime admin contract
  ///
  /// AddStream, AddQuery, and RemoveQuery may be called while the monitor
  /// is running — still only from the single router thread. Each mutation
  /// drains internally first (a full barrier: every routed value processed,
  /// all buffered matches delivered to the sinks), then applies the change
  /// between worker passes, so workers never observe a topology mid-
  /// mutation. The cost is therefore one pipeline flush per mutation;
  /// batch admin changes together when ingest latency matters. Admin
  /// methods return util::Status errors for bad ids instead of aborting,
  /// so a serving layer can reject a request and keep running.

  /// Registers a stream; returns its (global) id. `repair_missing` repairs
  /// NaNs on the router before values are sharded.
  int64_t AddStream(std::string name, bool repair_missing = true);

  /// Stream id for `name`, or -1 when unknown — lets a serving layer make
  /// OPEN_STREAM idempotent (including across checkpoint restore, which
  /// repopulates the stream table).
  int64_t FindStream(std::string_view name) const;

  /// Attaches a query to `stream_id` on its owning shard; returns the
  /// global query id.
  util::StatusOr<int64_t> AddQuery(int64_t stream_id, std::string name,
                                   std::vector<double> query,
                                   const core::SpringOptions& options);

  /// Retires query `query_id`: drains, removes the matcher on its shard
  /// (MonitorEngine::RemoveQuery), and delivers any flushed candidate to
  /// the sinks — a pending candidate is emitted iff it was already
  /// report-eligible under the Problem-2 rule, ordered after every tick
  /// match like an end-of-stream flush. Returns the number of matches the
  /// removal flushed (0 or 1). The global id is tombstoned (stats(id)
  /// stays valid, ids of other queries do not shift) and is omitted from
  /// subsequent checkpoints.
  util::StatusOr<int64_t> RemoveQuery(int64_t query_id);

  /// Barrier, then one row per live (non-removed) query, for
  /// LIST_QUERIES-style admin: the same rows /queryz ranks. Every column is
  /// exact for every routed value. ticks, matches and cells come from the
  /// owning shard engine, so ticks counts the query's own clock (from its
  /// AddQuery); est_cpu_nanos is 0 unless collect_metrics is on.
  std::vector<QueryCost> ListQueries();

  /// Registers a sink; not owned; must outlive the monitor. Sinks run on
  /// the caller thread at barriers, never on worker threads.
  void AddSink(MatchSink* sink);

  /// Spawns the worker threads. Topology may still be changed afterwards
  /// (AddStream/AddQuery drain internally). Idempotent while running.
  void Start();
  bool started() const {
    // order: relaxed — Start()/Stop() happen on the router thread; this is
    // an advisory flag for callers, not a synchronization edge.
    return started_.load(std::memory_order_relaxed);
  }

  /// Routes a run of values (chunked into tick messages) to `stream_id`'s
  /// shard. Fails (kFailedPrecondition) unless started. Matches produced by
  /// these values are buffered until the next barrier. `client_send_nanos`,
  /// when nonzero, is the producer's monotonic send stamp (the wire
  /// protocol's TICK_BATCH `send_nanos`); if a value of the run is
  /// span-sampled it becomes the span's client_send stage.
  util::Status PushBatch(int64_t stream_id, std::span<const double> values,
                         uint64_t client_send_nanos = 0);

  /// PushBatch over one value.
  util::Status Push(int64_t stream_id, double value,
                    uint64_t client_send_nanos = 0) {
    return PushBatch(stream_id, std::span<const double>(&value, 1),
                     client_send_nanos);
  }

  /// Barrier: blocks until every routed value is fully processed, then
  /// delivers all buffered matches to the sinks in deterministic order and
  /// publishes the plane if a publish is due. Returns the number of
  /// matches delivered.
  int64_t Drain();

  /// Barrier, then end-of-stream flush of every query's pending candidate.
  /// Flushed matches order after all tick matches, by global query id.
  /// Returns the total matches delivered by this call.
  int64_t FlushAll();

  /// Drains, delivers, stops and joins the workers. Idempotent. Start()
  /// may be called again afterwards.
  void Stop();

  int64_t num_workers() const {
    return static_cast<int64_t>(shards_.size());
  }
  int64_t num_streams() const {
    return static_cast<int64_t>(streams_.size());
  }
  int64_t num_queries() const {
    return static_cast<int64_t>(queries_.size());
  }
  /// Which worker owns `stream_id` (stable for a given name and worker
  /// count).
  int64_t worker_of_stream(int64_t stream_id) const;

  /// Global sequence number the next routed value will be assigned.
  /// Checkpoints store and restore it, so a write-ahead log keyed on it
  /// (src/wal/) lines up exactly across restore + replay.
  uint64_t next_seq() const { return next_seq_; }

  /// Values routed to `stream_id` so far — the durable per-stream position
  /// a resuming producer should skip to (the STREAM_OPENED tick count).
  int64_t stream_ticks(int64_t stream_id) const;

  /// Barrier, then the owning shard engine's counters for `query_id`
  /// (tombstoned ids keep their final counters). The reference is valid
  /// until the next call that routes values or changes the topology.
  const QueryStats& stats(int64_t query_id);

  /// Barrier and forced publish, then the published fleet-wide merged
  /// metrics snapshot (see obs::MergeSnapshots): the shards, the router
  /// registry (span latencies, ring metrics) and any aux families. Empty
  /// unless options.collect_metrics.
  obs::MetricsSnapshot MergedMetricsSnapshot();

  /// The telemetry plane, or null when collect_metrics is off. Its
  /// published snapshots (metrics, traces, spans, /queryz, /timez, ...)
  /// are readable from any thread; see monitor/telemetry.h.
  Telemetry* telemetry() { return telemetry_.get(); }
  const Telemetry* telemetry() const { return telemetry_.get(); }

  /// ## Pipeline verdicts (thread-safe, any thread, no barrier)
  ///
  /// Built from always-safe atomics and the plane's watchdog stamps; the
  /// introspection server's /healthz and /statusz are thin wrappers.

  /// The introspection server's bound port, or -1 when no server runs.
  int introspection_port() const {
    return telemetry_ != nullptr ? telemetry_->port() : -1;
  }

  /// Per-worker staleness verdict; see
  /// ShardedMonitorOptions::staleness_budget_ms. "disabled" without the
  /// plane, "alerting" while a page-severity alert fires.
  obs::HealthReport HealthSnapshot() const;

  /// Pipeline snapshot: per-worker ticks, ring occupancy and contention,
  /// pending candidates, checkpoint age, uptime.
  obs::StatusReport StatusSnapshot() const;

  /// Router thread only: when a publish is due (or `force`), waits for
  /// the workers to consume every routed message, then publishes the plane
  /// — no match delivery, so sinks still run only at barriers. Embedders
  /// whose router thread idles (the net server's event loop) call it
  /// periodically so absence rules and resolve transitions happen without
  /// traffic. After PollTimeline(true) the published state is exact for
  /// every routed value. No-op without the plane.
  void PollTimeline(bool force = false);

  /// Barrier, then aggregate matcher working-set bytes across shards.
  util::MemoryFootprint Footprint();

  /// Barrier, then a reshard-safe checkpoint of the entire monitor.
  std::vector<uint8_t> SerializeState();

  /// Restores a checkpoint into this monitor. Requires a fresh, unstarted
  /// monitor (no streams/queries); the worker count may differ from the
  /// checkpointing monitor's.
  util::Status RestoreState(std::span<const uint8_t> bytes);

 private:
  /// Values per tick message. Sized so a message (16 doubles + header)
  /// stays within two cache lines.
  static constexpr int64_t kTickBatch = 16;
  /// Sequence number assigned to end-of-stream flush matches so they order
  /// after every tick match.
  static constexpr uint64_t kFlushSeq = ~uint64_t{0};

  struct TickMessage {
    enum class Kind : uint8_t { kData, kStop };
    Kind kind = Kind::kData;
    int32_t local_stream = 0;
    int32_t count = 0;
    /// Global sequence number of values[0]; the message's values carry
    /// consecutive numbers (the router never stages across other pushes).
    uint64_t seq0 = 0;
    /// Stamp taken just before the router enqueues a span-sampled message
    /// (0 otherwise): the span's router_enqueue stamp.
    uint64_t enqueue_nanos = 0;
    /// Span sampling: index into values[] of the sampled tick, or -1 when
    /// no tick in this message is sampled. The recv stamp was taken when
    /// the router accepted the value; client_send comes from the wire
    /// send stamp (0 for in-process pushes).
    int32_t span_index = -1;
    uint64_t span_client_send_nanos = 0;
    uint64_t span_recv_nanos = 0;
    double values[kTickBatch] = {};
  };

  struct PendingMatch {
    uint64_t seq = 0;
    int64_t global_query_id = 0;
    core::Match match;
  };

  /// One worker: engine + queue + thread + handoff counters. Worker-side
  /// fields are written by the worker thread and readable by the caller
  /// only after a drain barrier (release on `consumed`, acquire in
  /// Drain()).
  struct Shard {
    std::unique_ptr<MonitorEngine> engine;
    std::unique_ptr<SpscQueue<TickMessage>> queue;
    std::unique_ptr<CallbackSink> sink;
    std::thread thread;
    /// This worker's half of the plane; null when telemetry is off.
    ShardTelemetry* telemetry = nullptr;

    /// Messages routed (caller thread) / fully processed (worker thread).
    std::atomic<uint64_t> produced{0};
    std::atomic<uint64_t> consumed{0};

    /// Global seq of the message being ingested (worker thread).
    uint64_t msg_seq0 = 0;
    /// Local id -> global id maps.
    std::vector<int64_t> global_stream_ids;
    std::vector<int64_t> global_query_ids;
    /// Matches buffered since the last barrier.
    std::vector<PendingMatch> matches;

    /// Streams/queries placed on this shard (router writes, /statusz
    /// reads).
    std::atomic<int64_t> stream_count{0};
    std::atomic<int64_t> query_count{0};
  };

  struct StreamInfo {
    std::string name;
    bool repair_missing = true;
    ts::StreamingRepairer repairer;
    bool repairer_seeded = false;
    int64_t worker = 0;
    int64_t local_id = 0;
    /// Values routed so far: the stream's clock. A query added later
    /// counts its own ticks from its AddQuery.
    int64_t pushes = 0;
  };

  /// What only the router knows about a query. Its counters live in the
  /// owning shard engine, readable at quiescence.
  struct QueryInfo {
    int64_t stream_id = 0;
    std::string name;
    int64_t local_id = 0;
    /// RemoveQuery tombstone; mirrors the engine-side flag so global ids
    /// stay stable while checkpoints and listings skip the entry.
    bool removed = false;
    /// Global seq of the last delivered match (DeliverPending); -1 before
    /// any match. Flush matches (kFlushSeq) do not update it.
    int64_t last_match_seq = -1;
  };

  void WorkerLoop(Shard* shard);
  /// Repairs + stages one value (stream already validated).
  void RouteValue(StreamInfo& stream, double value,
                  uint64_t client_send_nanos);
  /// Ships the staged message, if any, to its worker queue.
  void FlushStaged();
  /// Waits until every shard's consumed count matches produced.
  void AwaitQuiescent();
  /// Merges, orders, and dispatches all shards' buffered matches; updates
  /// last_match_seq. Caller must hold the drain barrier.
  int64_t DeliverPending();
  /// The engine that owns `query`.
  const MonitorEngine& EngineOf(const QueryInfo& query) const;
  /// One QueryCost row per live query, read from the shard engines. Caller
  /// must hold the drain barrier.
  std::vector<QueryCost> QueryRows() const;
  /// Router thread, workers quiescent: the plane's one publish point
  /// (Telemetry::Publish), at most once per publish_interval_ms unless
  /// `force`. No-op without the plane.
  void Publish(bool force);
  /// Shared staleness verdict for HealthSnapshot/StatusSnapshot.
  obs::WorkerHealth WorkerHealthFor(int64_t worker, uint64_t now_nanos) const;

  ShardedMonitorOptions options_;
  /// Declared before shards_ so the engines it observes die first.
  std::unique_ptr<Telemetry> telemetry_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<StreamInfo> streams_;
  std::vector<QueryInfo> queries_;
  std::vector<MatchSink*> sinks_;
  std::atomic<bool> started_{false};

  /// Next global sequence number (one per routed value, all streams).
  uint64_t next_seq_ = 0;

  /// Router-side staging: at most one partially filled message, so the
  /// sequence numbers inside a message stay consecutive.
  TickMessage staged_;
  int64_t staged_worker_ = -1;
  bool has_staged_ = false;

  /// Scratch for DeliverPending.
  std::vector<PendingMatch> delivery_scratch_;

  /// Ticks until the next span claim (plane only); starts at 1 so the
  /// first tick is sampled, then resets to Telemetry::kSampleEvery.
  int64_t span_countdown_ = 1;

  /// /statusz counters and stamps.
  uint64_t start_nanos_ = 0;
  std::atomic<int64_t> matches_delivered_{0};
  std::atomic<uint64_t> last_checkpoint_nanos_{0};
};

}  // namespace monitor
}  // namespace springdtw

#endif  // SPRINGDTW_MONITOR_SHARDED_MONITOR_H_
