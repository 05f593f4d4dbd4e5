#include "monitor/telemetry.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace springdtw {
namespace monitor {

namespace {

/// Match-lifecycle trace ring per shard, spans kept for /spanz, and alert
/// transitions merged into /tracez.
constexpr int64_t kTraceCapacity = 1024;
constexpr int64_t kSpanRingCapacity = 256;
constexpr int64_t kAlertTraceCapacity = 256;

// End-to-end span stage histograms: one family, `stage`-labelled, fed by
// sampled tick spans (docs/OBSERVABILITY.md).
constexpr char kMetricE2eLatency[] = "spring_e2e_latency_nanos";
constexpr char kE2eLatencyHelp[] =
    "End-to-end latency of span-sampled ticks in nanoseconds, by stage: "
    "client_to_server (wire send stamp to router accept), ingest_to_enqueue "
    "(router accept to ring push), ring_residency (ring push to worker "
    "pop), worker_pass (engine ingest), delivery_wait (worker done to "
    "barrier delivery), subscriber_write (delivery to fan-out frames "
    "written), total (first to last observed stage).";

uint64_t NowNanos() {
  return static_cast<uint64_t>(util::Stopwatch::NowNanos());
}

}  // namespace

ShardTelemetry::ShardTelemetry()
    : obs(obs::ObservabilityOptions{.trace_capacity = kTraceCapacity}) {}

Telemetry::Telemetry(int64_t num_workers, size_t ring_capacity,
                     double publish_interval_ms,
                     std::vector<obs::AlertRule> alert_rules, bool timeline)
    : publish_interval_nanos_(static_cast<uint64_t>(
          std::max(publish_interval_ms, 0.0) * 1e6)),
      timeline_enabled_(timeline || !alert_rules.empty()),
      span_ring_(kSpanRingCapacity) {
  for (int64_t w = 0; w < num_workers; ++w) {
    shards_.push_back(std::make_unique<ShardTelemetry>());
  }
  const auto stage = [this](const char* name) {
    return router_registry_.GetHistogram(kMetricE2eLatency, kE2eLatencyHelp,
                                         {{"stage", name}});
  };
  e2e_client_to_server_ = stage("client_to_server");
  e2e_ingest_to_enqueue_ = stage("ingest_to_enqueue");
  e2e_ring_residency_ = stage("ring_residency");
  e2e_worker_pass_ = stage("worker_pass");
  e2e_delivery_wait_ = stage("delivery_wait");
  e2e_subscriber_write_ = stage("subscriber_write");
  e2e_total_ = stage("total");
  rings_.resize(shards_.size());
  for (size_t w = 0; w < rings_.size(); ++w) {
    const obs::Labels labels = {
        {"worker", util::StrFormat("%lld", static_cast<long long>(w))}};
    RingObs& ring = rings_[w];
    ring.occupancy = router_registry_.GetGauge(
        "spring_ring_occupancy",
        "Messages currently queued in the worker's SPSC ring (racy "
        "estimate).",
        labels);
    router_registry_
        .GetGauge("spring_ring_capacity", "Capacity of the worker's SPSC ring.",
                  labels)
        ->Set(static_cast<double>(ring_capacity));
    ring.blocked_pushes = router_registry_.GetCounter(
        "spring_ring_blocked_pushes_total",
        "Router pushes that found the ring full and had to spin or park.",
        labels);
    ring.producer_parks = router_registry_.GetCounter(
        "spring_ring_producer_parks_total",
        "Times the router exhausted its spin budget and parked on a full "
        "ring.",
        labels);
    ring.consumer_parks = router_registry_.GetCounter(
        "spring_ring_consumer_parks_total",
        "Times the worker exhausted its spin budget and parked on an "
        "empty ring.",
        labels);
  }
  if (timeline_enabled_) {
    // Construction is single-threaded; the lock only satisfies the thread-
    // safety analysis (readers appear once the server starts).
    util::MutexLock lock(&publish_mu_);
    timeline_ = std::make_unique<obs::MetricsTimeline>();
    alerts_ = std::make_unique<obs::AlertEngine>(std::move(alert_rules));
    alert_trace_ = obs::TraceRing(kAlertTraceCapacity);
  }
}

void Telemetry::StartServer(int port,
                            std::function<obs::HealthReport()> health,
                            std::function<obs::StatusReport()> status) {
  obs::IntrospectionHandlers handlers;
  handlers.metrics = [this] { return PublishedMetricsSnapshot(); };
  handlers.health = std::move(health);
  handlers.status = std::move(status);
  handlers.traces = [this] { return PublishedTraces(); };
  handlers.spans = [this] { return PublishedSpans(); };
  handlers.queryz_json = [this] { return QueryzJson(); };
  handlers.streamz_json = [this] { return StreamzJson(); };
  handlers.timez_json = [this](const std::string& query) {
    return TimezJson(query);
  };
  handlers.alertz_json = [this] { return AlertzJson(); };
  obs::IntrospectionServerOptions options;
  options.port = port;
  server_ = std::make_unique<obs::IntrospectionServer>(options,
                                                       std::move(handlers));
  const util::Status started = server_->Start();
  if (!started.ok()) {
    SPRINGDTW_LOG(Warning) << "introspection server disabled: "
                           << started.ToString();
    server_.reset();
  }
}

void Telemetry::StopServer() {
  if (server_ != nullptr) server_->Stop();
}

void Telemetry::Publish(uint64_t now_nanos,
                        std::span<MonitorEngine* const> engines,
                        CostSnapshot costs) {
  last_publish_nanos_ = now_nanos;
  std::vector<obs::MetricsSnapshot> snapshots;
  snapshots.reserve(shards_.size() + 2);
  snapshots.push_back(router_registry_.Snapshot());
  obs::TracezReport traces;
  for (size_t w = 0; w < shards_.size(); ++w) {
    MonitorEngine& engine = *engines[w];
    ShardTelemetry& shard = *shards_[w];
    engine.RefreshObservabilityGauges();
    snapshots.push_back(shard.obs.registry().Snapshot());
    const std::vector<obs::TraceEvent> events = shard.obs.trace().Items();
    traces.events.insert(traces.events.end(), events.begin(), events.end());
    traces.dropped += shard.obs.trace().dropped();
    // order: relaxed — introspection gauge; the server tolerates staleness.
    shard.pending_candidates.store(engine.PendingCandidateCount(),
                                   std::memory_order_relaxed);
  }
  if (aux_provider_ != nullptr) aux_metrics_ = aux_provider_();
  snapshots.push_back(aux_metrics_);
  obs::MetricsSnapshot merged = obs::MergeSnapshots(snapshots);
  RankByCost(&costs);
  obs::SpanzReport spans{span_ring_.Items(), span_ring_.dropped()};
  bool page = false;
  {
    util::MutexLock lock(&publish_mu_);
    if (timeline_ != nullptr) {
      timeline_->Record(now_nanos, merged);
      alerts_->Evaluate(now_nanos, merged, *timeline_, &alert_trace_);
      page = alerts_->AnyFiringPage();
      // Alert transitions join the match-lifecycle events on /tracez.
      const std::vector<obs::TraceEvent> events = alert_trace_.Items();
      traces.events.insert(traces.events.end(), events.begin(), events.end());
      traces.dropped += alert_trace_.dropped();
    }
    metrics_ = std::move(merged);
    traces_ = std::move(traces);
    spans_ = std::move(spans);
    costs_ = std::move(costs);
  }
  // order: relaxed — see alert_page_firing().
  alert_page_firing_.store(page, std::memory_order_relaxed);
}

void Telemetry::DeliverSpans() {
  span_scratch_.clear();
  for (auto& shard : shards_) {
    span_scratch_.insert(span_scratch_.end(), shard->pending_spans.begin(),
                         shard->pending_spans.end());
    shard->pending_spans.clear();
  }
  if (span_scratch_.empty()) return;
  std::sort(span_scratch_.begin(), span_scratch_.end(),
            [](const obs::TickSpan& a, const obs::TickSpan& b) {
              return a.seq < b.seq;
            });
  const uint64_t now = NowNanos();
  for (obs::TickSpan& span : span_scratch_) {
    span.delivered_nanos = now;
    if (span_finalizer_ != nullptr) span_finalizer_(&span);
    ObserveSpan(span);
    span_ring_.Record(span);
  }
}

void Telemetry::ObserveSpan(const obs::TickSpan& span) {
  // Stamps come from one monotonic clock with happens-before edges between
  // every consecutive pair, so each stage is non-negative by construction;
  // the clamp only guards a remote client's foreign clock.
  const auto observe = [](obs::Histogram* histogram, uint64_t from,
                          uint64_t to) {
    if (from == 0 || to == 0) return;
    histogram->Observe(to >= from ? static_cast<double>(to - from) : 0.0);
  };
  observe(e2e_client_to_server_, span.client_send_nanos,
          span.server_recv_nanos);
  observe(e2e_ingest_to_enqueue_, span.server_recv_nanos,
          span.router_enqueue_nanos);
  observe(e2e_ring_residency_, span.router_enqueue_nanos,
          span.worker_pop_nanos);
  observe(e2e_worker_pass_, span.worker_pop_nanos, span.worker_done_nanos);
  observe(e2e_delivery_wait_, span.worker_done_nanos, span.delivered_nanos);
  observe(e2e_subscriber_write_, span.delivered_nanos,
          span.subscriber_write_nanos);
  const uint64_t origin = span.client_send_nanos != 0
                              ? span.client_send_nanos
                              : span.server_recv_nanos;
  const uint64_t finish = span.subscriber_write_nanos != 0
                              ? span.subscriber_write_nanos
                              : span.delivered_nanos;
  observe(e2e_total_, origin, finish);
}

obs::MetricsSnapshot Telemetry::PublishedMetricsSnapshot() const {
  util::MutexLock lock(&publish_mu_);
  return metrics_;
}

obs::TracezReport Telemetry::PublishedTraces() const {
  util::MutexLock lock(&publish_mu_);
  return traces_;
}

obs::SpanzReport Telemetry::PublishedSpans() const {
  util::MutexLock lock(&publish_mu_);
  return spans_;
}

std::string Telemetry::QueryzJson() const {
  util::MutexLock lock(&publish_mu_);
  return RenderQueryzJson(costs_, kCostTopK);
}

std::string Telemetry::StreamzJson() const {
  util::MutexLock lock(&publish_mu_);
  return RenderStreamzJson(costs_, kCostTopK);
}

std::string Telemetry::TimezJson(const std::string& query) const {
  util::MutexLock lock(&publish_mu_);
  if (timeline_ == nullptr) {
    return "{\"tiers\":[],\"records\":0,\"dropped_channels\":0,"
           "\"channels\":[]}";
  }
  return obs::RenderTimezJson(*timeline_, query);
}

std::string Telemetry::AlertzJson() const {
  util::MutexLock lock(&publish_mu_);
  if (alerts_ == nullptr) {
    return "{\"rules\":[],\"firing\":0,\"firing_page\":0}";
  }
  return obs::RenderAlertzJson(alerts_->Statuses(), NowNanos());
}

}  // namespace monitor
}  // namespace springdtw
