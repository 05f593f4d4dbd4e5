#ifndef SPRINGDTW_MONITOR_TELEMETRY_H_
#define SPRINGDTW_MONITOR_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "monitor/cost_accounting.h"
#include "monitor/engine.h"
#include "obs/alert.h"
#include "obs/introspection_server.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/span.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace springdtw {
namespace monitor {

/// Worker half of the telemetry plane: the shard engine's observability
/// bundle, the sampled spans awaiting delivery and the watchdog atomics.
/// The worker thread writes the bundle, `pending_spans` and the stamps;
/// the router reads the bundle and `pending_spans` only while the workers
/// are quiescent (Telemetry::Publish, the barrier's span delivery); any
/// thread reads the atomics.
struct ShardTelemetry {
  ShardTelemetry();

  obs::Observability obs;
  /// Sampled spans whose worker stages are complete, awaiting their
  /// barrier delivery stamp.
  std::vector<obs::TickSpan> pending_spans;
  /// Watchdog stamp: monotonic nanos of the worker's last completed
  /// message (and of thread start).
  std::atomic<uint64_t> last_progress_nanos{0};
  std::atomic<int64_t> ticks_ingested{0};
  /// Pending-candidate count as of the last publish.
  std::atomic<int64_t> pending_candidates{0};
};

/// ShardedMonitor's telemetry plane (docs/OBSERVABILITY.md). It exists iff
/// ShardedMonitorOptions::collect_metrics is on, and then always runs all
/// of it: per-shard bundles with 1024-event trace rings, watchdog stamps,
/// 1-in-kSampleEvery tick spans, 1-in-kSampleEvery per-query cost
/// sampling, and — when the monitor has a timeline or alert rules — the
/// metrics timeline and alert engine.
///
/// Methods marked "router thread" belong to the monitor's single caller
/// thread; Publish is the only writer of the published state. Everything
/// else is thread-safe and reads published copies only, so the
/// introspection server never touches live pipeline state.
class Telemetry {
 public:
  /// Span and per-query CPU cost sampling cadence.
  static constexpr int64_t kSampleEvery = 64;

  /// `ring_capacity` is each worker ring's (spring_ring_capacity).
  /// `alert_rules` or `timeline` builds the timeline and alert engine.
  Telemetry(int64_t num_workers, size_t ring_capacity,
            double publish_interval_ms, std::vector<obs::AlertRule> alert_rules,
            bool timeline);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Serves the plane on 127.0.0.1:`port` (0 picks an ephemeral port),
  /// taking /healthz and /statusz from the pipeline. A bind failure only
  /// logs: introspection must not kill monitoring.
  void StartServer(int port, std::function<obs::HealthReport()> health,
                   std::function<obs::StatusReport()> status);
  /// Stops the server (its handlers read pipeline state). Idempotent.
  void StopServer();
  /// The server's bound port, or -1 when none runs.
  int port() const { return server_ != nullptr ? server_->port() : -1; }

  ShardTelemetry& shard(size_t worker) { return *shards_[worker]; }
  bool timeline_enabled() const { return timeline_enabled_; }
  /// Latest alert verdict: a page-severity rule is firing.
  bool alert_page_firing() const {
    // order: relaxed — advisory verdict for /healthz scrapes; the scrape
    // needs no happens-before with the evaluation pass.
    return alert_page_firing_.load(std::memory_order_relaxed);
  }

  /// ## Router thread

  /// True before the first publish and once publish_interval has passed
  /// since the last one.
  bool PublishDue(uint64_t now_nanos) const {
    return last_publish_nanos_ == 0 ||
           now_nanos - last_publish_nanos_ >= publish_interval_nanos_;
  }
  /// Brings worker `worker`'s ring gauges and contention counters up to
  /// date from its queue (counters export deltas of the queue's totals).
  template <typename Queue>
  void RefreshRing(size_t worker, const Queue& queue) {
    RingObs& ring = rings_[worker];
    ring.occupancy->Set(static_cast<double>(queue.ApproxSize()));
    ExportDelta(queue.blocked_pushes(), ring.blocked_pushes,
                &ring.blocked_exported);
    ExportDelta(queue.producer_parks(), ring.producer_parks,
                &ring.producer_parks_exported);
    ExportDelta(queue.consumer_parks(), ring.consumer_parks,
                &ring.consumer_parks_exported);
  }
  /// The plane's one publisher (call RefreshRing first). Requires quiescent
  /// workers — every routed message consumed — because it reads the shard
  /// bundles; `engines[w]` is worker w's engine. In one pass it snapshots
  /// each shard's registry (gauges refreshed), trace ring and pending-
  /// candidate count, the router registry and span ring, ranks `costs` and
  /// pulls the aux families, then, under one mutex, publishes them all,
  /// folds the fleet snapshot into the timeline and runs the alert pass.
  void Publish(uint64_t now_nanos, std::span<MonitorEngine* const> engines,
               CostSnapshot costs);
  /// Barrier delivery of the spans the workers completed: stamps
  /// delivered_nanos, runs the finalizer, observes spring_e2e_latency_nanos
  /// and records each into the /spanz ring, in seq order.
  void DeliverSpans();

  /// Hook run on every delivered span before it is recorded, so an
  /// embedding layer (the net server) can stamp its own final stage
  /// (subscriber_write_nanos). nullptr detaches.
  using SpanFinalizer = std::function<void(obs::TickSpan*)>;
  void SetSpanFinalizer(SpanFinalizer finalizer) {
    span_finalizer_ = std::move(finalizer);
  }
  /// Extra families (the net server's spring_net_* and spring_wal_*)
  /// merged into every publish. The provider runs in Publish, on the
  /// router thread, so it may read router-owned registries directly.
  /// nullptr detaches; later publishes keep its last families.
  void SetAuxMetricsProvider(std::function<obs::MetricsSnapshot()> provider) {
    aux_provider_ = std::move(provider);
  }

  /// ## Any thread

  /// Fleet-merged metrics (shards, router, aux families) as of the last
  /// publish.
  obs::MetricsSnapshot PublishedMetricsSnapshot() const;
  /// Recent match-lifecycle and alert-transition events (/tracez).
  obs::TracezReport PublishedTraces() const;
  /// Recent completed tick spans (/spanz).
  obs::SpanzReport PublishedSpans() const;
  /// /queryz and /streamz documents, top-K by cost.
  std::string QueryzJson() const;
  std::string StreamzJson() const;
  /// /timez document for a raw URL query string, or the channel catalog
  /// when it names no metric; an empty document without a timeline.
  std::string TimezJson(const std::string& query) const;
  /// /alertz document; an empty rule list without alert rules.
  std::string AlertzJson() const;

 private:
  /// Per-ring instrument handles plus the queue totals already exported.
  struct RingObs {
    obs::Gauge* occupancy = nullptr;
    obs::Counter* blocked_pushes = nullptr;
    obs::Counter* producer_parks = nullptr;
    obs::Counter* consumer_parks = nullptr;
    uint64_t blocked_exported = 0;
    uint64_t producer_parks_exported = 0;
    uint64_t consumer_parks_exported = 0;
  };

  static void ExportDelta(uint64_t total, obs::Counter* counter,
                          uint64_t* exported) {
    counter->Increment(static_cast<int64_t>(total - *exported));
    *exported = total;
  }
  /// Observes one span's stages; absent stages (0 stamps) are skipped.
  void ObserveSpan(const obs::TickSpan& span);

  const uint64_t publish_interval_nanos_;
  const bool timeline_enabled_;
  std::vector<std::unique_ptr<ShardTelemetry>> shards_;

  /// Router thread only; readers get the published copies below.
  obs::MetricsRegistry router_registry_;
  obs::Histogram* e2e_client_to_server_ = nullptr;
  obs::Histogram* e2e_ingest_to_enqueue_ = nullptr;
  obs::Histogram* e2e_ring_residency_ = nullptr;
  obs::Histogram* e2e_worker_pass_ = nullptr;
  obs::Histogram* e2e_delivery_wait_ = nullptr;
  obs::Histogram* e2e_subscriber_write_ = nullptr;
  obs::Histogram* e2e_total_ = nullptr;
  std::vector<RingObs> rings_;
  obs::SpanRing span_ring_;
  std::vector<obs::TickSpan> span_scratch_;
  SpanFinalizer span_finalizer_;
  std::function<obs::MetricsSnapshot()> aux_provider_;
  obs::MetricsSnapshot aux_metrics_;
  uint64_t last_publish_nanos_ = 0;

  /// Written by Publish, read by the server thread.
  mutable util::Mutex publish_mu_;
  obs::MetricsSnapshot metrics_ SPRINGDTW_GUARDED_BY(publish_mu_);
  obs::TracezReport traces_ SPRINGDTW_GUARDED_BY(publish_mu_);
  obs::SpanzReport spans_ SPRINGDTW_GUARDED_BY(publish_mu_);
  CostSnapshot costs_ SPRINGDTW_GUARDED_BY(publish_mu_);
  std::unique_ptr<obs::MetricsTimeline> timeline_
      SPRINGDTW_GUARDED_BY(publish_mu_);
  std::unique_ptr<obs::AlertEngine> alerts_ SPRINGDTW_GUARDED_BY(publish_mu_);
  obs::TraceRing alert_trace_ SPRINGDTW_GUARDED_BY(publish_mu_);
  std::atomic<bool> alert_page_firing_{false};

  std::unique_ptr<obs::IntrospectionServer> server_;
};

}  // namespace monitor
}  // namespace springdtw

#endif  // SPRINGDTW_MONITOR_TELEMETRY_H_
