#ifndef SPRINGDTW_MONITOR_SHARDED_MONITOR_H_
#define SPRINGDTW_MONITOR_SHARDED_MONITOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
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
#include "obs/alert.h"
#include "obs/introspection_server.h"
#include "obs/span.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/timeline.h"
#include "ts/repair.h"
#include "util/memory.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace springdtw {
namespace monitor {

struct ShardedMonitorOptions {
  /// Worker (shard) count. Streams are hash-partitioned across workers by
  /// name; each worker owns one MonitorEngine on its own thread.
  int64_t num_workers = 1;
  /// Per-worker tick-queue capacity in messages (each message carries up
  /// to 16 values). Rounded up to a power of two.
  size_t queue_capacity = 256;
  /// Give each shard engine its own observability bundle; merged fleet
  /// metrics are then available via MergedMetricsSnapshot(). Shard engines
  /// keep their query-major PushBatch path; the bundle adds per-run
  /// counter updates and the kernel's exact candidate / best-match signals.
  /// Also enables the pipeline profiler: stage-latency histograms
  /// (router_enqueue / ring_residency / worker_pass / delivery_delay) and
  /// per-ring occupancy/contention metrics.
  bool collect_metrics = false;

  /// Live introspection (docs/OBSERVABILITY.md): when >= 0 the monitor runs
  /// an obs::IntrospectionServer on 127.0.0.1 at this port (0 picks an
  /// ephemeral port; see introspection_port()) serving /metrics,
  /// /metrics.json, /healthz, /statusz, and /tracez. Implies
  /// enable_introspection.
  int64_t introspect_port = -1;
  /// Attach the introspection plumbing — watchdog progress stamps and
  /// thread-safe published snapshots (HealthSnapshot, StatusSnapshot,
  /// PublishedMetricsSnapshot, PublishedTraces) — without running the HTTP
  /// server, for embedders that serve the reports themselves. Implies
  /// collect_metrics.
  bool enable_introspection = false;
  /// Watchdog staleness budget: a worker that has processed traffic before
  /// but has made no progress for longer than this is reported "stale" by
  /// /healthz (503). The budget therefore encodes the expected feed
  /// cadence — a stream silent longer than this is treated as a stall.
  double staleness_budget_ms = 1000.0;
  /// Workers and the router republish their introspection snapshots at
  /// most this often (plus whenever their queue runs empty).
  double publish_interval_ms = 100.0;
  /// Per-shard match-lifecycle trace ring capacity feeding /tracez, used
  /// only when introspection is enabled (0 disables tracing).
  int64_t introspect_trace_capacity = 1024;

  /// End-to-end tick span sampling (used only when introspection is
  /// enabled): every Nth routed value — globally, across streams — is
  /// traced from the ingest edge through enqueue, ring residency, the
  /// worker pass, and barrier delivery, feeding /spanz and the
  /// spring_e2e_latency_nanos stage histograms. 0 disables span sampling
  /// even with introspection on.
  int64_t span_sample_every = 64;
  /// Completed-span ring capacity behind /spanz (oldest overwritten;
  /// drops are counted). Used only when introspection is enabled.
  int64_t span_ring_capacity = 256;
  /// Per-query CPU cost sampling cadence forwarded to each shard engine
  /// (EngineOptions::cost_sample_every), feeding the est_cpu_nanos column
  /// of /queryz and LIST_QUERIES stats. Used only when collect_metrics is
  /// on; 0 disables CPU sampling (cells/ticks/matches accounting stays).
  int64_t cost_sample_every = 64;

  /// Metrics timeline + alerting (docs/OBSERVABILITY.md): when on, the
  /// router folds each published fleet snapshot into a multi-resolution
  /// obs::MetricsTimeline (served as /timez) and evaluates `alert_rules`
  /// against it (served as /alertz; a firing page-severity rule flips
  /// /healthz to 503). Implied by non-empty alert_rules or slo_p99_ms > 0;
  /// implies enable_introspection. Recording and evaluation ride the
  /// publish cadence (publish_interval_ms), never the ingest hot path, and
  /// cost nothing — no allocations, no atomics — when disabled.
  bool enable_timeline = false;
  /// Timeline tiers + channel cap; defaults per obs::TimelineOptions.
  obs::TimelineOptions timeline;
  /// Parsed alert rules (obs::ParseAlertRules for the text form).
  std::vector<obs::AlertRule> alert_rules;
  /// > 0 appends the conventional two-window SLO page rule on p99
  /// spring_e2e_latency_nanos{stage=total} with this budget, in
  /// milliseconds (obs::MakeSloP99Rule).
  double slo_p99_ms = 0.0;
  /// Capacity of the alert-transition trace ring merged into /tracez.
  int64_t alert_trace_capacity = 256;
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

  /// One row per live (non-removed) query, for LIST_QUERIES-style admin.
  /// The cost columns (cells, last_match_seq, est_cpu_nanos) are fresh as
  /// of the last barrier and stay 0/-1 unless collect_metrics is on.
  struct QueryListEntry {
    int64_t query_id = 0;
    int64_t stream_id = 0;
    std::string name;
    std::string stream_name;
    int64_t ticks = 0;
    int64_t matches = 0;
    int64_t cells = 0;
    int64_t last_match_seq = -1;
    int64_t est_cpu_nanos = 0;
  };

  /// Snapshot of the live query set, stats fresh as of the last barrier
  /// (call Drain() first for exact counts mid-ingest).
  std::vector<QueryListEntry> ListQueries() const;

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

  /// Routes one value to `stream_id`'s shard. Fails (kFailedPrecondition)
  /// unless started. Matches produced by this value are buffered until the
  /// next barrier. `client_send_nanos`, when nonzero, is the producer's
  /// monotonic send stamp (the wire protocol's v2 TICK trailer); if this
  /// value is span-sampled it becomes the span's client_send stage.
  util::Status Push(int64_t stream_id, double value,
                    uint64_t client_send_nanos = 0);

  /// Routes a run of values (chunked into tick messages). Same contract
  /// as Push per value; `client_send_nanos` applies to the whole run.
  util::Status PushBatch(int64_t stream_id, std::span<const double> values,
                         uint64_t client_send_nanos = 0);

  /// Barrier: blocks until every routed value is fully processed, then
  /// delivers all buffered matches to the sinks in deterministic order.
  /// Returns the number of matches delivered.
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
  /// a resuming producer should skip to (the STREAM_OPENED ticks trailer).
  int64_t stream_ticks(int64_t stream_id) const;

  /// Per-query counters, fresh as of the last barrier.
  const QueryStats& stats(int64_t query_id) const;

  /// Barrier, then a fleet-wide merged metrics snapshot (see
  /// obs::MergeSnapshots). Empty unless options.collect_metrics. Includes
  /// the router-side registry (stage latencies, ring metrics).
  obs::MetricsSnapshot MergedMetricsSnapshot();

  /// ## Introspection (thread-safe, any thread, no barrier)
  ///
  /// The HTTP endpoints are thin wrappers over these. They never touch
  /// live engine state: workers and the router publish snapshots into
  /// mutex-guarded slots (throttled by options.publish_interval_ms), and
  /// these methods read the latest published copy plus always-safe
  /// atomics. All are empty/"disabled" unless options.enable_introspection
  /// (or introspect_port >= 0).

  /// The introspection server's bound port, or -1 when no server runs.
  int introspection_port() const;

  /// Per-worker staleness verdict; see
  /// ShardedMonitorOptions::staleness_budget_ms.
  obs::HealthReport HealthSnapshot() const;

  /// Pipeline snapshot: per-worker ticks, ring occupancy and contention,
  /// pending candidates, checkpoint age, uptime.
  obs::StatusReport StatusSnapshot() const;

  /// Fleet-merged metrics as of each worker's last publish (the live
  /// equivalent is MergedMetricsSnapshot, which requires the caller
  /// thread).
  obs::MetricsSnapshot PublishedMetricsSnapshot() const;

  /// Recent match-lifecycle trace events across workers, as of the last
  /// publish.
  obs::TracezReport PublishedTraces() const;

  /// Recent completed end-to-end tick spans (/spanz), as of the router's
  /// last publish. Empty unless introspection + span sampling are on.
  obs::SpanzReport PublishedSpans() const;

  /// /queryz document: live queries ranked by cost (cells desc), top-K, as
  /// of the last published cost snapshot. "{}" shape with empty list
  /// unless collect_metrics is on and a barrier has run.
  std::string QueryzJson() const;

  /// /streamz document: per-stream cost aggregation, same snapshot
  /// discipline as QueryzJson.
  std::string StreamzJson() const;

  /// Router thread only: folds the current published fleet snapshot into
  /// the metrics timeline and runs one alert-evaluation pass. Called
  /// automatically at router publish points; embedders whose router thread
  /// idles (the net server's event loop) call it periodically so absence
  /// rules and resolve transitions happen without traffic. Throttled to
  /// publish_interval_ms unless `force`; no-op (and allocation-free)
  /// unless the timeline is enabled.
  void PollTimeline(bool force = false);
  bool timeline_enabled() const { return timeline_; }

  /// /timez document for a raw URL query string ("metric=...&window=..."),
  /// or the channel catalog when the query names no metric. Thread-safe;
  /// "{}"-shaped empty document when the timeline is disabled.
  std::string TimezJson(const std::string& query) const;

  /// /alertz document: every rule's state, observation, and transition
  /// counters. Thread-safe; empty rule list when alerting is disabled.
  std::string AlertzJson() const;

  /// Current rule statuses, for embedders and tests.
  std::vector<obs::AlertStatus> AlertStatuses() const;

  /// Installs a hook invoked on the router thread for every completed span
  /// just before it is recorded, so an embedding layer (the net server)
  /// can stamp its own final stage (subscriber_write_nanos). Set before
  /// Start(); pass nullptr to detach.
  using SpanFinalizer = std::function<void(obs::TickSpan*)>;
  void SetSpanFinalizer(SpanFinalizer finalizer);

  /// Registers a callback whose snapshot is appended to
  /// PublishedMetricsSnapshot() merges — how an embedding layer (e.g. the
  /// net serving layer) splices its own metric families into the monitor's
  /// /metrics exposition. The callback runs on whatever thread scrapes
  /// (the introspection server's), so it must be thread-safe; set it
  /// before traffic starts. Pass nullptr to detach.
  void SetAuxMetricsProvider(std::function<obs::MetricsSnapshot()> provider);

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
    /// Profiler stamp taken just before the router enqueues (0 when
    /// profiling is off); the worker's pop time minus this is the
    /// ring_residency stage latency.
    uint64_t enqueue_nanos = 0;
    /// Span sampling: index into values[] of the sampled tick, or -1 when
    /// no tick in this message is sampled. The recv stamp was taken when
    /// the router accepted the value; client_send comes from the wire
    /// trailer (0 for in-process pushes).
    int32_t span_index = -1;
    uint64_t span_client_send_nanos = 0;
    uint64_t span_recv_nanos = 0;
    double values[kTickBatch] = {};
  };

  struct PendingMatch {
    uint64_t seq = 0;
    int64_t global_query_id = 0;
    /// Profiler stamp taken when the worker buffered the match (0 when
    /// profiling is off); delivery time minus this is the delivery_delay
    /// stage latency.
    uint64_t buffered_nanos = 0;
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
    std::unique_ptr<obs::Observability> obs;
    std::thread thread;

    /// Messages routed (caller thread) / fully processed (worker thread).
    std::atomic<uint64_t> produced{0};
    std::atomic<uint64_t> consumed{0};

    /// Worker-side ingest context for sequence attribution.
    uint64_t msg_seq0 = 0;
    int64_t msg_base_tick = 0;
    bool flushing = false;
    /// Ticks each local stream has consumed (mirrors engine state).
    std::vector<int64_t> stream_ticks;
    /// Local id -> global id maps.
    std::vector<int64_t> global_stream_ids;
    std::vector<int64_t> global_query_ids;
    /// Matches buffered since the last barrier.
    std::vector<PendingMatch> matches;
    /// Sampled spans whose worker stages are complete, awaiting barrier
    /// delivery stamps. Same visibility rule as `matches`.
    std::vector<obs::TickSpan> pending_spans;

    /// Stage-latency handles in this shard's registry, resolved once at
    /// construction; null unless collect_metrics.
    obs::Histogram* stage_ring_residency = nullptr;
    obs::Histogram* stage_worker_pass = nullptr;

    /// ## Introspection (cross-thread; unused unless enable_introspection)
    ///
    /// Watchdog stamp: monotonic nanos of the worker's last completed
    /// message (and of thread start).
    std::atomic<uint64_t> last_progress_nanos{0};
    /// Values this worker has ingested (worker thread writes, server
    /// reads).
    std::atomic<int64_t> ticks_ingested{0};
    /// Streams/queries placed on this shard (router writes, server reads).
    std::atomic<int64_t> stream_count{0};
    std::atomic<int64_t> query_count{0};
    /// Pending-candidate count as of the last publish.
    std::atomic<int64_t> pending_candidates{0};
    /// Worker-local publish throttle clock; worker thread only.
    uint64_t last_publish_nanos = 0;
    /// Latest published snapshot, read by the introspection methods.
    mutable util::Mutex publish_mu;
    obs::MetricsSnapshot published_metrics SPRINGDTW_GUARDED_BY(publish_mu);
    std::vector<obs::TraceEvent> published_traces
        SPRINGDTW_GUARDED_BY(publish_mu);
    int64_t published_trace_dropped SPRINGDTW_GUARDED_BY(publish_mu) = 0;
  };

  struct StreamInfo {
    std::string name;
    bool repair_missing = true;
    ts::StreamingRepairer repairer;
    bool repairer_seeded = false;
    int64_t worker = 0;
    int64_t local_id = 0;
    /// Values routed so far (== every attached query's tick count).
    int64_t pushes = 0;
  };

  struct QueryInfo {
    int64_t stream_id = 0;
    std::string name;
    int64_t local_id = 0;
    /// RemoveQuery tombstone; mirrors the engine-side flag so global ids
    /// stay stable while checkpoints and listings skip the entry.
    bool removed = false;
    QueryStats stats;
    /// Cost columns cached from the owning engine at the last barrier
    /// (RefreshCostAccounting) so ListQueries never touches live engines.
    int64_t cells = 0;
    int64_t est_cpu_nanos = 0;
    /// Global seq of the last delivered match (DeliverPending); -1 before
    /// any match. Flush matches (kFlushSeq) do not update it.
    int64_t last_match_seq = -1;
  };

  /// Per-ring instrument handles in the router registry, plus the counter
  /// deltas already exported (counters are monotonic; the queue exposes
  /// totals, the registry wants increments).
  struct RingObs {
    obs::Gauge* occupancy = nullptr;
    obs::Gauge* capacity = nullptr;
    obs::Counter* blocked_pushes = nullptr;
    obs::Counter* producer_parks = nullptr;
    obs::Counter* consumer_parks = nullptr;
    uint64_t blocked_exported = 0;
    uint64_t producer_parks_exported = 0;
    uint64_t consumer_parks_exported = 0;
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
  /// per-query stats. Caller must hold the drain barrier.
  int64_t DeliverPending();
  /// Worker thread: snapshots the shard registry/trace ring into the
  /// shard's published slot. Runs before the message's `consumed` release,
  /// so post-barrier the router may mutate the registry safely.
  void PublishShard(Shard* shard, uint64_t now_nanos);
  /// Router thread: refreshes ring metrics and snapshots the router
  /// registry into its published slot.
  void PublishRouter(uint64_t now_nanos);
  /// Router thread: brings ring occupancy gauges and contention counters
  /// up to date in the router registry.
  void RefreshRingMetrics();
  /// Shared staleness verdict for HealthSnapshot/StatusSnapshot.
  obs::WorkerHealth WorkerHealthFor(int64_t worker, uint64_t now_nanos) const;
  /// Observes one completed span into the spring_e2e_latency_nanos stage
  /// histograms (router registry). Absent stages (0 stamps) are skipped.
  void ObserveSpan(const obs::TickSpan& span);
  /// Router thread, post-barrier only (reads shard engines): refreshes the
  /// per-query cost cache (QueryInfo::cells/est_cpu_nanos) and publishes a
  /// ranked CostSnapshot for /queryz and /streamz.
  void RefreshCostAccounting();

  ShardedMonitorOptions options_;
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

  /// Pipeline profiler (set iff collect_metrics): router-side registry
  /// holding the router_enqueue/delivery_delay stages and the per-ring
  /// metrics. Router thread only; the server reads the published copy.
  bool profile_ = false;
  std::unique_ptr<obs::Observability> router_obs_;
  obs::Histogram* stage_router_enqueue_ = nullptr;
  obs::Histogram* stage_delivery_delay_ = nullptr;
  std::vector<RingObs> ring_obs_;

  /// End-to-end span sampling (iff introspection + span_sample_every > 0).
  /// The ring and scratch are router-thread-only; readers get the
  /// published copy.
  int64_t span_every_ = 0;
  /// Ticks until the next span claim; starts at 1 so the first tick is
  /// sampled, then resets to span_every_ on each cadence point.
  int64_t span_countdown_ = 1;
  obs::SpanRing span_ring_;
  std::vector<obs::TickSpan> span_scratch_;
  SpanFinalizer span_finalizer_;
  /// spring_e2e_latency_nanos stage handles (router registry); null unless
  /// profiling.
  obs::Histogram* e2e_client_to_server_ = nullptr;
  obs::Histogram* e2e_ingest_to_enqueue_ = nullptr;
  obs::Histogram* e2e_ring_residency_ = nullptr;
  obs::Histogram* e2e_worker_pass_ = nullptr;
  obs::Histogram* e2e_delivery_wait_ = nullptr;
  obs::Histogram* e2e_subscriber_write_ = nullptr;
  obs::Histogram* e2e_total_ = nullptr;

  /// Introspection state (used iff enable_introspection).
  bool introspect_ = false;
  uint64_t publish_interval_nanos_ = 0;
  uint64_t router_last_publish_nanos_ = 0;
  uint64_t start_nanos_ = 0;
  std::atomic<int64_t> matches_delivered_{0};
  std::atomic<uint64_t> last_checkpoint_nanos_{0};
  mutable util::Mutex router_publish_mu_;
  obs::MetricsSnapshot router_published_metrics_
      SPRINGDTW_GUARDED_BY(router_publish_mu_);
  obs::SpanzReport published_spans_ SPRINGDTW_GUARDED_BY(router_publish_mu_);
  CostSnapshot published_costs_ SPRINGDTW_GUARDED_BY(router_publish_mu_);
  std::function<obs::MetricsSnapshot()> aux_metrics_provider_;
  std::unique_ptr<obs::IntrospectionServer> server_;

  /// Timeline + alerting (iff timeline_). Fed on the router thread at
  /// publish points, read by the server thread; both sides take
  /// timeline_mu_. The throttle clock is router-thread-only.
  bool timeline_ = false;
  uint64_t timeline_last_poll_nanos_ = 0;
  mutable util::Mutex timeline_mu_;
  std::unique_ptr<obs::MetricsTimeline> metrics_timeline_
      SPRINGDTW_GUARDED_BY(timeline_mu_);
  std::unique_ptr<obs::AlertEngine> alert_engine_
      SPRINGDTW_GUARDED_BY(timeline_mu_);
  obs::TraceRing alert_trace_ SPRINGDTW_GUARDED_BY(timeline_mu_);
  /// Latest AnyFiringPage() verdict, read lock-free by health scrapes.
  std::atomic<bool> alert_page_firing_{false};
};

}  // namespace monitor
}  // namespace springdtw

#endif  // SPRINGDTW_MONITOR_SHARDED_MONITOR_H_
