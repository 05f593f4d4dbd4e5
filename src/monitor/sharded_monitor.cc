#include "monitor/sharded_monitor.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/codec.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace springdtw {
namespace monitor {

namespace {

/// FNV-1a: stable across runs and platforms (std::hash is not guaranteed
/// to be), so stream placement — and thus shard-local state layout — is
/// reproducible for a given name and worker count.
uint64_t HashName(const std::string& name) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr uint32_t kMonitorMagic = 0x5350524D;  // "SPRM"
constexpr uint32_t kMonitorVersion = 1;

// Pipeline-profiler metric families (docs/OBSERVABILITY.md). Stage
// latencies share one histogram family distinguished by the `stage` label;
// ring metrics carry a `worker` label.
constexpr char kMetricStageLatency[] = "spring_stage_latency_nanos";
constexpr char kMetricRingOccupancy[] = "spring_ring_occupancy";
constexpr char kMetricRingCapacity[] = "spring_ring_capacity";
constexpr char kMetricRingBlockedPushes[] = "spring_ring_blocked_pushes_total";
constexpr char kMetricRingProducerParks[] = "spring_ring_producer_parks_total";
constexpr char kMetricRingConsumerParks[] = "spring_ring_consumer_parks_total";
constexpr char kStageLatencyHelp[] =
    "Pipeline stage latency in nanoseconds, by stage: router_enqueue "
    "(queue push on the router), ring_residency (enqueue to worker pop), "
    "worker_pass (engine batch ingest), delivery_delay (match buffered to "
    "barrier delivery).";

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

void WriteStats(util::ByteWriter* writer, const QueryStats& stats) {
  writer->WriteI64(stats.ticks);
  writer->WriteI64(stats.matches);
  stats.output_delay.SerializeTo(writer);
}

bool ReadStats(util::ByteReader* reader, QueryStats* stats) {
  return reader->ReadI64(&stats->ticks) &&
         reader->ReadI64(&stats->matches) &&
         stats->output_delay.DeserializeFrom(reader);
}

}  // namespace

ShardedMonitor::ShardedMonitor(const ShardedMonitorOptions& options)
    : options_(options) {
  SPRINGDTW_CHECK_GE(options_.num_workers, 1);
  if (options_.slo_p99_ms > 0.0) {
    options_.alert_rules.push_back(obs::MakeSloP99Rule(options_.slo_p99_ms));
  }
  if (!options_.alert_rules.empty()) options_.enable_timeline = true;
  if (options_.enable_timeline) options_.enable_introspection = true;
  if (options_.introspect_port >= 0) options_.enable_introspection = true;
  if (options_.enable_introspection) options_.collect_metrics = true;
  introspect_ = options_.enable_introspection;
  profile_ = options_.collect_metrics;
  publish_interval_nanos_ = static_cast<uint64_t>(
      std::max(options_.publish_interval_ms, 0.0) * 1e6);
  start_nanos_ = NowNanos();
  shards_.reserve(static_cast<size_t>(options_.num_workers));
  for (int64_t w = 0; w < options_.num_workers; ++w) {
    auto shard = std::make_unique<Shard>();
    EngineOptions engine_options;
    if (options_.collect_metrics && options_.cost_sample_every > 0) {
      engine_options.cost_sample_every = options_.cost_sample_every;
    }
    shard->engine = std::make_unique<MonitorEngine>(engine_options);
    shard->queue =
        std::make_unique<SpscQueue<TickMessage>>(options_.queue_capacity);
    if (options_.collect_metrics) {
      obs::ObservabilityOptions obs_options;
      if (introspect_) {
        obs_options.trace_capacity = options_.introspect_trace_capacity;
      }
      shard->obs = std::make_unique<obs::Observability>(obs_options);
      shard->engine->AttachObservability(shard->obs.get());
      shard->stage_ring_residency = shard->obs->registry().GetHistogram(
          kMetricStageLatency, kStageLatencyHelp,
          {{"stage", "ring_residency"}});
      shard->stage_worker_pass = shard->obs->registry().GetHistogram(
          kMetricStageLatency, kStageLatencyHelp, {{"stage", "worker_pass"}});
    }
    Shard* shard_raw = shard.get();
    shard->sink = std::make_unique<CallbackSink>(
        [this, shard_raw](const MatchOrigin& origin,
                          const core::Match& match) {
          PendingMatch pending;
          pending.global_query_id =
              shard_raw->global_query_ids[static_cast<size_t>(
                  origin.query_id)];
          pending.seq =
              shard_raw->flushing
                  ? kFlushSeq
                  : shard_raw->msg_seq0 +
                        static_cast<uint64_t>(match.report_time -
                                              shard_raw->msg_base_tick);
          if (profile_) pending.buffered_nanos = NowNanos();
          pending.match = match;
          shard_raw->matches.push_back(pending);
        });
    shard->engine->AddSink(shard->sink.get());
    shards_.push_back(std::move(shard));
  }
  if (introspect_ && options_.span_sample_every > 0 &&
      options_.span_ring_capacity > 0) {
    span_every_ = options_.span_sample_every;
    span_ring_ = obs::SpanRing(options_.span_ring_capacity);
  }
  if (profile_) {
    router_obs_ = std::make_unique<obs::Observability>();
    obs::MetricsRegistry& registry = router_obs_->registry();
    stage_router_enqueue_ = registry.GetHistogram(
        kMetricStageLatency, kStageLatencyHelp, {{"stage", "router_enqueue"}});
    stage_delivery_delay_ = registry.GetHistogram(
        kMetricStageLatency, kStageLatencyHelp, {{"stage", "delivery_delay"}});
    e2e_client_to_server_ = registry.GetHistogram(
        kMetricE2eLatency, kE2eLatencyHelp, {{"stage", "client_to_server"}});
    e2e_ingest_to_enqueue_ = registry.GetHistogram(
        kMetricE2eLatency, kE2eLatencyHelp, {{"stage", "ingest_to_enqueue"}});
    e2e_ring_residency_ = registry.GetHistogram(
        kMetricE2eLatency, kE2eLatencyHelp, {{"stage", "ring_residency"}});
    e2e_worker_pass_ = registry.GetHistogram(
        kMetricE2eLatency, kE2eLatencyHelp, {{"stage", "worker_pass"}});
    e2e_delivery_wait_ = registry.GetHistogram(
        kMetricE2eLatency, kE2eLatencyHelp, {{"stage", "delivery_wait"}});
    e2e_subscriber_write_ = registry.GetHistogram(
        kMetricE2eLatency, kE2eLatencyHelp, {{"stage", "subscriber_write"}});
    e2e_total_ = registry.GetHistogram(kMetricE2eLatency, kE2eLatencyHelp,
                                       {{"stage", "total"}});
    ring_obs_.resize(shards_.size());
    for (size_t w = 0; w < shards_.size(); ++w) {
      const obs::Labels labels = {
          {"worker", util::StrFormat("%lld", static_cast<long long>(w))}};
      RingObs& ring = ring_obs_[w];
      ring.occupancy = registry.GetGauge(
          kMetricRingOccupancy,
          "Messages currently queued in the worker's SPSC ring (racy "
          "estimate).",
          labels);
      ring.capacity = registry.GetGauge(
          kMetricRingCapacity, "Capacity of the worker's SPSC ring.", labels);
      ring.capacity->Set(static_cast<double>(shards_[w]->queue->capacity()));
      ring.blocked_pushes = registry.GetCounter(
          kMetricRingBlockedPushes,
          "Router pushes that found the ring full and had to spin or park.",
          labels);
      ring.producer_parks = registry.GetCounter(
          kMetricRingProducerParks,
          "Times the router exhausted its spin budget and parked on a full "
          "ring.",
          labels);
      ring.consumer_parks = registry.GetCounter(
          kMetricRingConsumerParks,
          "Times the worker exhausted its spin budget and parked on an "
          "empty ring.",
          labels);
    }
  }
  timeline_ = options_.enable_timeline;
  if (timeline_) {
    // Construction is single-threaded; the lock only satisfies the thread-
    // safety analysis (readers appear once the server starts below).
    util::MutexLock lock(&timeline_mu_);
    metrics_timeline_ =
        std::make_unique<obs::MetricsTimeline>(options_.timeline);
    alert_engine_ =
        std::make_unique<obs::AlertEngine>(options_.alert_rules);
    alert_trace_ = obs::TraceRing(options_.alert_trace_capacity);
  }
  if (options_.introspect_port >= 0) {
    obs::IntrospectionServerOptions server_options;
    server_options.port = static_cast<int>(options_.introspect_port);
    obs::IntrospectionHandlers handlers;
    handlers.metrics = [this] { return PublishedMetricsSnapshot(); };
    handlers.health = [this] { return HealthSnapshot(); };
    handlers.status = [this] { return StatusSnapshot(); };
    handlers.traces = [this] { return PublishedTraces(); };
    handlers.spans = [this] { return PublishedSpans(); };
    handlers.queryz_json = [this] { return QueryzJson(); };
    handlers.streamz_json = [this] { return StreamzJson(); };
    handlers.timez_json = [this](const std::string& query) {
      return TimezJson(query);
    };
    handlers.alertz_json = [this] { return AlertzJson(); };
    server_ = std::make_unique<obs::IntrospectionServer>(server_options,
                                                         std::move(handlers));
    const util::Status started = server_->Start();
    if (!started.ok()) {
      // Introspection is auxiliary: a taken port must not kill monitoring.
      SPRINGDTW_LOG(Warning)
          << "introspection server disabled: " << started.ToString();
      server_.reset();
    }
  }
}

ShardedMonitor::~ShardedMonitor() {
  // Stop the server first: its handlers read shard state.
  if (server_ != nullptr) server_->Stop();
  Stop();
}

int64_t ShardedMonitor::AddStream(std::string name, bool repair_missing) {
  if (started()) Drain();
  const int64_t stream_id = static_cast<int64_t>(streams_.size());
  StreamInfo info;
  info.worker = static_cast<int64_t>(
      HashName(name) % static_cast<uint64_t>(num_workers()));
  info.repair_missing = repair_missing;
  Shard& shard = *shards_[static_cast<size_t>(info.worker)];
  // The router repairs before sharding, so the shard stream runs with
  // repair off and only ever sees finite values.
  info.local_id = shard.engine->AddStream(name, /*repair_missing=*/false);
  info.name = std::move(name);
  shard.global_stream_ids.push_back(stream_id);
  shard.stream_ticks.push_back(0);
  // order: relaxed — introspection gauge; the server tolerates staleness.
  shard.stream_count.fetch_add(1, std::memory_order_relaxed);
  streams_.push_back(std::move(info));
  return stream_id;
}

int64_t ShardedMonitor::FindStream(std::string_view name) const {
  for (size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i].name == name) return static_cast<int64_t>(i);
  }
  return -1;
}

util::StatusOr<int64_t> ShardedMonitor::AddQuery(
    int64_t stream_id, std::string name, std::vector<double> query,
    const core::SpringOptions& options) {
  if (stream_id < 0 || stream_id >= num_streams()) {
    return util::NotFoundError(
        util::StrFormat("no stream %lld", static_cast<long long>(stream_id)));
  }
  if (started()) Drain();
  StreamInfo& stream = streams_[static_cast<size_t>(stream_id)];
  Shard& shard = *shards_[static_cast<size_t>(stream.worker)];
  QueryInfo info;
  info.stream_id = stream_id;
  info.name = name;
  auto local = shard.engine->AddQuery(stream.local_id, std::move(name),
                                      std::move(query), options);
  if (!local.ok()) return local.status();
  info.local_id = *local;
  const int64_t query_id = static_cast<int64_t>(queries_.size());
  shard.global_query_ids.push_back(query_id);
  // order: relaxed — introspection gauge; the server tolerates staleness.
  shard.query_count.fetch_add(1, std::memory_order_relaxed);
  queries_.push_back(std::move(info));
  return query_id;
}

util::StatusOr<int64_t> ShardedMonitor::RemoveQuery(int64_t query_id) {
  if (query_id < 0 || query_id >= num_queries() ||
      queries_[static_cast<size_t>(query_id)].removed) {
    return util::NotFoundError(
        util::StrFormat("no query %lld", static_cast<long long>(query_id)));
  }
  if (started()) AwaitQuiescent();
  QueryInfo& query = queries_[static_cast<size_t>(query_id)];
  StreamInfo& stream = streams_[static_cast<size_t>(query.stream_id)];
  Shard& shard = *shards_[static_cast<size_t>(stream.worker)];
  // A candidate flushed by the removal is an end-of-stream-style report:
  // the flushing flag stamps it kFlushSeq so DeliverPending orders it
  // after every buffered tick match.
  shard.flushing = true;
  auto flushed = shard.engine->RemoveQuery(query.local_id);
  shard.flushing = false;
  if (!flushed.ok()) return flushed.status();
  // Final tick count is exact post-barrier; freeze it before the tombstone
  // makes DeliverPending skip this query.
  query.stats.ticks = stream.pushes;
  query.removed = true;
  // order: relaxed — introspection gauge; the server tolerates staleness.
  shard.query_count.fetch_add(-1, std::memory_order_relaxed);
  DeliverPending();
  RefreshCostAccounting();
  if (introspect_) {
    // Same reasoning as FlushAll: the mutation ran on the caller thread
    // post-barrier, so republish or scrapes would keep seeing the removed
    // query's gauges.
    const uint64_t now = NowNanos();
    PublishShard(&shard, now);
    PublishRouter(now);
  }
  return *flushed;
}

std::vector<ShardedMonitor::QueryListEntry> ShardedMonitor::ListQueries()
    const {
  std::vector<QueryListEntry> entries;
  entries.reserve(queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    const QueryInfo& query = queries_[i];
    if (query.removed) continue;
    QueryListEntry entry;
    entry.query_id = static_cast<int64_t>(i);
    entry.stream_id = query.stream_id;
    entry.name = query.name;
    entry.stream_name = streams_[static_cast<size_t>(query.stream_id)].name;
    entry.ticks = query.stats.ticks;
    entry.matches = query.stats.matches;
    entry.cells = query.cells;
    entry.last_match_seq = query.last_match_seq;
    entry.est_cpu_nanos = query.est_cpu_nanos;
    entries.push_back(std::move(entry));
  }
  return entries;
}

void ShardedMonitor::AddSink(MatchSink* sink) {
  SPRINGDTW_CHECK(sink != nullptr);
  sinks_.push_back(sink);
}

void ShardedMonitor::Start() {
  if (started()) return;
  for (auto& shard : shards_) {
    if (introspect_) {
      // order: relaxed — watchdog stamp; the health check tolerates a
      // stale read (it only widens the staleness window by one scrape).
      shard->last_progress_nanos.store(NowNanos(),
                                       std::memory_order_relaxed);
    }
    shard->thread = std::thread(&ShardedMonitor::WorkerLoop, this,
                                shard.get());
  }
  // order: relaxed — the std::thread constructor above is the
  // happens-before edge to the workers; this flag is router-thread
  // bookkeeping.
  started_.store(true, std::memory_order_relaxed);
}

void ShardedMonitor::WorkerLoop(Shard* shard) {
  TickMessage msg;
  for (;;) {
    shard->queue->Pop(&msg);
    if (msg.kind == TickMessage::Kind::kStop) {
      // Final snapshot so post-run scrapes (and a lingering server) see the
      // complete worker state.
      if (introspect_) PublishShard(shard, NowNanos());
      // order: release — pairs with Stop()'s drain acquire; publishes the
      // final engine state before the thread exits.
      shard->consumed.fetch_add(1, std::memory_order_release);
      return;
    }
    // Stage profiling is sampled alongside spans: when span sampling is
    // active only the message carrying the sampled tick pays for clock
    // reads and histogram observes (1 in ~4 messages at the 1-in-64
    // default); with spans off (metrics-only embedders) every message is
    // profiled so the stage histograms stay exact.
    const bool profile_msg =
        profile_ && (span_every_ == 0 || msg.span_index >= 0);
    uint64_t t_pop = 0;
    if (profile_msg) {
      t_pop = NowNanos();
      if (msg.enqueue_nanos != 0) {
        shard->stage_ring_residency->Observe(
            static_cast<double>(t_pop - msg.enqueue_nanos));
      }
    }
    shard->msg_seq0 = msg.seq0;
    shard->msg_base_tick =
        shard->stream_ticks[static_cast<size_t>(msg.local_stream)];
    const size_t matches_before = shard->matches.size();
    const auto pushed = shard->engine->PushBatch(
        msg.local_stream,
        std::span<const double>(msg.values,
                                static_cast<size_t>(msg.count)));
    SPRINGDTW_CHECK(pushed.ok())
        << "shard ingest failed: " << pushed.status().ToString();
    shard->stream_ticks[static_cast<size_t>(msg.local_stream)] += msg.count;
    if (profile_) {
      uint64_t t_done = 0;
      if (profile_msg) {
        t_done = NowNanos();
        shard->stage_worker_pass->Observe(
            static_cast<double>(t_done - t_pop));
      }
      if (msg.span_index >= 0) {
        // Assemble the sampled tick's span: router stamps ride in the
        // message, worker stamps are local, delivery stamps come at the
        // barrier. Visible to the router via the `consumed` release.
        obs::TickSpan span;
        span.seq = msg.seq0 + static_cast<uint64_t>(msg.span_index);
        span.stream_id = shard->global_stream_ids[static_cast<size_t>(
            msg.local_stream)];
        span.client_send_nanos = msg.span_client_send_nanos;
        span.server_recv_nanos = msg.span_recv_nanos;
        span.router_enqueue_nanos = msg.enqueue_nanos;
        span.worker_pop_nanos = t_pop;
        span.worker_done_nanos = t_done;
        for (size_t i = matches_before; i < shard->matches.size(); ++i) {
          if (shard->matches[i].seq == span.seq) ++span.matches;
        }
        shard->pending_spans.push_back(span);
      }
      if (introspect_) {
        if (t_done == 0) t_done = NowNanos();
        // order: relaxed — watchdog stamp; see Start().
        shard->last_progress_nanos.store(t_done, std::memory_order_relaxed);
        // order: relaxed — introspection counter; never synchronization.
        shard->ticks_ingested.fetch_add(msg.count,
                                        std::memory_order_relaxed);
        // Republish on the throttle interval, and opportunistically
        // whenever the ring runs dry (a scrape then sees fully current
        // state). The dry-ring publish keeps half the throttle as a floor:
        // on a saturated machine the ring drains between bursts constantly,
        // and snapshotting the full registry each time would dominate the
        // worker — drain barriers already republish unconditionally, so
        // post-drain scrapes never depend on this path. Must happen before
        // the `consumed` release below: after a drain barrier the worker
        // is provably not inside PublishShard, so the router may mutate
        // the shard registry (AddQuery) safely.
        if (t_done - shard->last_publish_nanos >= publish_interval_nanos_ ||
            (shard->queue->ApproxSize() == 0 &&
             t_done - shard->last_publish_nanos >=
                 publish_interval_nanos_ / 2)) {
          PublishShard(shard, t_done);
        }
      }
    }
    // order: release — publishes everything written above (engine state,
    // buffered matches) to the drain barrier's acquire of `consumed`.
    shard->consumed.fetch_add(1, std::memory_order_release);
  }
}

void ShardedMonitor::PublishShard(Shard* shard, uint64_t now_nanos) {
  shard->engine->RefreshObservabilityGauges();
  obs::MetricsSnapshot snapshot = shard->obs->registry().Snapshot();
  std::vector<obs::TraceEvent> traces;
  int64_t dropped = 0;
  if (shard->obs->trace().enabled()) {
    traces = shard->obs->trace().Events();
    dropped = shard->obs->trace().dropped();
  }
  // order: relaxed — introspection gauge; the server tolerates staleness.
  shard->pending_candidates.store(shard->engine->PendingCandidateCount(),
                                  std::memory_order_relaxed);
  {
    util::MutexLock lock(&shard->publish_mu);
    shard->published_metrics = std::move(snapshot);
    shard->published_traces = std::move(traces);
    shard->published_trace_dropped = dropped;
  }
  shard->last_publish_nanos = now_nanos;
}

util::Status ShardedMonitor::Push(int64_t stream_id, double value,
                                  uint64_t client_send_nanos) {
  if (stream_id < 0 || stream_id >= num_streams()) {
    return util::NotFoundError(
        util::StrFormat("no stream %lld", static_cast<long long>(stream_id)));
  }
  if (!started()) {
    return util::FailedPreconditionError(
        "Start() the monitor before pushing");
  }
  StreamInfo& stream = streams_[static_cast<size_t>(stream_id)];
  if (!stream.repair_missing && ts::IsMissing(value)) {
    return util::InvalidArgumentError(
        "missing value pushed to a stream with repair disabled");
  }
  RouteValue(stream, value, client_send_nanos);
  return util::Status::Ok();
}

util::Status ShardedMonitor::PushBatch(int64_t stream_id,
                                       std::span<const double> values,
                                       uint64_t client_send_nanos) {
  if (stream_id < 0 || stream_id >= num_streams()) {
    return util::NotFoundError(
        util::StrFormat("no stream %lld", static_cast<long long>(stream_id)));
  }
  if (!started()) {
    return util::FailedPreconditionError(
        "Start() the monitor before pushing");
  }
  StreamInfo& stream = streams_[static_cast<size_t>(stream_id)];
  for (const double value : values) {
    // Same error contract as MonitorEngine: values before the first NaN on
    // a repair-disabled stream are processed, then the push fails.
    if (!stream.repair_missing && ts::IsMissing(value)) {
      return util::InvalidArgumentError(
          "missing value pushed to a stream with repair disabled");
    }
    RouteValue(stream, value, client_send_nanos);
  }
  return util::Status::Ok();
}

void ShardedMonitor::RouteValue(StreamInfo& stream, double value,
                                uint64_t client_send_nanos) {
  if (stream.repair_missing) {
    if (!stream.repairer_seeded && !ts::IsMissing(value)) {
      stream.repairer = ts::StreamingRepairer(value);
      stream.repairer_seeded = true;
    }
    value = stream.repairer.Next(value);
  }
  // Stage into the (single) pending message; flush it first if it belongs
  // to a different stream or is full, so in-message sequence numbers stay
  // consecutive.
  if (has_staged_ && (staged_worker_ != stream.worker ||
                      staged_.local_stream !=
                          static_cast<int32_t>(stream.local_id) ||
                      staged_.count == kTickBatch)) {
    FlushStaged();
  }
  if (!has_staged_) {
    staged_ = TickMessage{};
    staged_.local_stream = static_cast<int32_t>(stream.local_id);
    staged_.seq0 = next_seq_;
    staged_worker_ = stream.worker;
    has_staged_ = true;
  }
  // Span sampling: claim this value (one per message at most) when the
  // cadence countdown expires. The countdown is equivalent to
  // `next_seq_ % span_every_ == 0` (the router thread is the only writer)
  // but avoids a 64-bit modulo on every ingested tick.
  if (span_every_ != 0 && --span_countdown_ <= 0) {
    span_countdown_ = span_every_;
    if (staged_.span_index < 0) {
      staged_.span_index = staged_.count;
      staged_.span_client_send_nanos = client_send_nanos;
      staged_.span_recv_nanos = NowNanos();
    }
  }
  staged_.values[staged_.count++] = value;
  ++next_seq_;
  ++stream.pushes;
  if (staged_.count == kTickBatch) FlushStaged();
}

void ShardedMonitor::FlushStaged() {
  if (!has_staged_) return;
  Shard& shard = *shards_[static_cast<size_t>(staged_worker_)];
  // order: relaxed — produced is router-owned; the ring's own
  // acquire/release protocol carries the message payload, and the drain
  // barrier re-reads produced on this same thread.
  shard.produced.fetch_add(1, std::memory_order_relaxed);
  // Same sampling policy as the worker: with span sampling active only the
  // span-carrying message is stamped (unsampled messages keep
  // enqueue_nanos == 0, which the worker reads as "no residency sample");
  // with spans off every message is profiled.
  if (profile_ && (span_every_ == 0 || staged_.span_index >= 0)) {
    const uint64_t t_push = NowNanos();
    staged_.enqueue_nanos = t_push;
    shard.queue->Push(staged_);
    const uint64_t t_pushed = NowNanos();
    stage_router_enqueue_->Observe(static_cast<double>(t_pushed - t_push));
    if (introspect_ &&
        t_pushed - router_last_publish_nanos_ >= publish_interval_nanos_) {
      PublishRouter(t_pushed);
    }
  } else {
    shard.queue->Push(staged_);
  }
  has_staged_ = false;
  staged_worker_ = -1;
}

void ShardedMonitor::RefreshRingMetrics() {
  if (!profile_) return;
  for (size_t w = 0; w < shards_.size(); ++w) {
    RingObs& ring = ring_obs_[w];
    const SpscQueue<TickMessage>& queue = *shards_[w]->queue;
    ring.occupancy->Set(static_cast<double>(queue.ApproxSize()));
    const uint64_t blocked = queue.blocked_pushes();
    ring.blocked_pushes->Increment(
        static_cast<int64_t>(blocked - ring.blocked_exported));
    ring.blocked_exported = blocked;
    const uint64_t producer_parks = queue.producer_parks();
    ring.producer_parks->Increment(
        static_cast<int64_t>(producer_parks - ring.producer_parks_exported));
    ring.producer_parks_exported = producer_parks;
    const uint64_t consumer_parks = queue.consumer_parks();
    ring.consumer_parks->Increment(
        static_cast<int64_t>(consumer_parks - ring.consumer_parks_exported));
    ring.consumer_parks_exported = consumer_parks;
  }
}

void ShardedMonitor::PublishRouter(uint64_t now_nanos) {
  RefreshRingMetrics();
  obs::MetricsSnapshot snapshot = router_obs_->registry().Snapshot();
  {
    util::MutexLock lock(&router_publish_mu_);
    router_published_metrics_ = std::move(snapshot);
    if (span_ring_.enabled()) {
      published_spans_.spans = span_ring_.Spans();
      published_spans_.dropped = span_ring_.dropped();
    }
  }
  router_last_publish_nanos_ = now_nanos;
  // Timeline recording + alert evaluation ride the same publish cadence
  // (throttled internally, so barrier-heavy callers don't re-fold the
  // fleet snapshot on every Drain).
  PollTimeline();
}

void ShardedMonitor::PollTimeline(bool force) {
  if (!timeline_) return;
  const uint64_t now = NowNanos();
  if (!force && publish_interval_nanos_ > 0 &&
      timeline_last_poll_nanos_ != 0 &&
      now - timeline_last_poll_nanos_ < publish_interval_nanos_) {
    return;
  }
  timeline_last_poll_nanos_ = now;
  const obs::MetricsSnapshot merged = PublishedMetricsSnapshot();
  bool page = false;
  {
    util::MutexLock lock(&timeline_mu_);
    metrics_timeline_->Record(now, merged);
    alert_engine_->Evaluate(now, merged, *metrics_timeline_, &alert_trace_);
    page = alert_engine_->AnyFiringPage();
  }
  // order: relaxed — advisory verdict for /healthz scrapes; the scrape
  // needs no happens-before with the evaluation pass.
  alert_page_firing_.store(page, std::memory_order_relaxed);
}

void ShardedMonitor::AwaitQuiescent() {
  FlushStaged();
  for (auto& shard : shards_) {
    // order: relaxed — produced is only ever written by this (router)
    // thread.
    const uint64_t produced =
        shard->produced.load(std::memory_order_relaxed);
    // order: acquire — pairs with the worker's release fetch_add; once the
    // counts match, everything the worker wrote (engine state, buffered
    // matches, pending spans) is visible to this thread.
    while (shard->consumed.load(std::memory_order_acquire) < produced) {
      std::this_thread::yield();
    }
  }
}

int64_t ShardedMonitor::Drain() {
  if (started()) AwaitQuiescent();
  const int64_t delivered = DeliverPending();
  // Post-barrier the engines are caller-visible: refresh the per-query
  // cost cache so ListQueries / the published /queryz snapshot are exact
  // as of this barrier.
  RefreshCostAccounting();
  // Barriers republish the router snapshot unconditionally so a scrape
  // right after a drain sees current stage/ring metrics even on a
  // low-traffic pipeline that never hits the throttle interval.
  if (introspect_) PublishRouter(NowNanos());
  return delivered;
}

int64_t ShardedMonitor::DeliverPending() {
  delivery_scratch_.clear();
  for (auto& shard : shards_) {
    delivery_scratch_.insert(delivery_scratch_.end(),
                             shard->matches.begin(), shard->matches.end());
    shard->matches.clear();
  }
  std::sort(delivery_scratch_.begin(), delivery_scratch_.end(),
            [](const PendingMatch& a, const PendingMatch& b) {
              if (a.seq != b.seq) return a.seq < b.seq;
              return a.global_query_id < b.global_query_id;
            });
  const uint64_t delivery_now =
      (profile_ && !delivery_scratch_.empty()) ? NowNanos() : 0;
  for (const PendingMatch& pending : delivery_scratch_) {
    if (profile_ && pending.buffered_nanos != 0) {
      stage_delivery_delay_->Observe(
          static_cast<double>(delivery_now - pending.buffered_nanos));
    }
    QueryInfo& query =
        queries_[static_cast<size_t>(pending.global_query_id)];
    ++query.stats.matches;
    if (pending.seq != kFlushSeq) {
      query.last_match_seq = static_cast<int64_t>(pending.seq);
    }
    query.stats.output_delay.Add(static_cast<double>(
        pending.match.report_time - pending.match.end));
    MatchOrigin origin;
    origin.stream_id = query.stream_id;
    origin.query_id = pending.global_query_id;
    origin.stream_name = streams_[static_cast<size_t>(query.stream_id)].name;
    origin.query_name = query.name;
    origin.global_seq = pending.seq == kFlushSeq
                            ? -1
                            : static_cast<int64_t>(pending.seq);
    for (MatchSink* sink : sinks_) sink->OnMatch(origin, pending.match);
  }
  for (QueryInfo& query : queries_) {
    if (query.removed) continue;
    query.stats.ticks =
        streams_[static_cast<size_t>(query.stream_id)].pushes;
  }
  // Completed spans: every worker stage is done (the barrier made
  // pending_spans visible), so stamp delivery, give the embedder its
  // subscriber_write stamp, then observe + record.
  span_scratch_.clear();
  for (auto& shard : shards_) {
    span_scratch_.insert(span_scratch_.end(), shard->pending_spans.begin(),
                         shard->pending_spans.end());
    shard->pending_spans.clear();
  }
  if (!span_scratch_.empty()) {
    std::sort(span_scratch_.begin(), span_scratch_.end(),
              [](const obs::TickSpan& a, const obs::TickSpan& b) {
                return a.seq < b.seq;
              });
    const uint64_t span_now = NowNanos();
    for (obs::TickSpan& span : span_scratch_) {
      span.delivered_nanos = span_now;
      if (span_finalizer_ != nullptr) span_finalizer_(&span);
      ObserveSpan(span);
      span_ring_.Record(span);
    }
  }
  // order: relaxed — introspection counter; never synchronization.
  matches_delivered_.fetch_add(
      static_cast<int64_t>(delivery_scratch_.size()),
      std::memory_order_relaxed);
  return static_cast<int64_t>(delivery_scratch_.size());
}

int64_t ShardedMonitor::FlushAll() {
  int64_t delivered = Drain();
  // Post-barrier the caller owns the engines; flush them inline and mark
  // the matches so they order after every tick match.
  for (auto& shard : shards_) {
    shard->flushing = true;
    shard->engine->FlushAll();
    shard->flushing = false;
  }
  delivered += DeliverPending();
  RefreshCostAccounting();
  if (introspect_) {
    // Republish everything: the flush mutated engine state on the caller
    // thread, which the workers (parked until the router sends more work)
    // would otherwise never pick up. Safe post-barrier — a worker is
    // provably outside PublishShard and stays parked until this thread
    // routes to it again.
    const uint64_t now = NowNanos();
    for (auto& shard : shards_) PublishShard(shard.get(), now);
    PublishRouter(now);
  }
  return delivered;
}

void ShardedMonitor::Stop() {
  if (!started()) return;
  Drain();
  for (auto& shard : shards_) {
    TickMessage stop;
    stop.kind = TickMessage::Kind::kStop;
    // order: relaxed — router-owned counter; see FlushStaged().
    shard->produced.fetch_add(1, std::memory_order_relaxed);
    shard->queue->Push(stop);
  }
  for (auto& shard : shards_) {
    shard->thread.join();
  }
  // order: relaxed — the joins above are the synchronization edge; this
  // flag is router-thread bookkeeping.
  started_.store(false, std::memory_order_relaxed);
}

int64_t ShardedMonitor::worker_of_stream(int64_t stream_id) const {
  SPRINGDTW_CHECK(stream_id >= 0 && stream_id < num_streams());
  return streams_[static_cast<size_t>(stream_id)].worker;
}

int64_t ShardedMonitor::stream_ticks(int64_t stream_id) const {
  SPRINGDTW_CHECK(stream_id >= 0 && stream_id < num_streams());
  return streams_[static_cast<size_t>(stream_id)].pushes;
}

const QueryStats& ShardedMonitor::stats(int64_t query_id) const {
  SPRINGDTW_CHECK(query_id >= 0 && query_id < num_queries());
  return queries_[static_cast<size_t>(query_id)].stats;
}

obs::MetricsSnapshot ShardedMonitor::MergedMetricsSnapshot() {
  Drain();
  std::vector<obs::MetricsSnapshot> snapshots;
  snapshots.reserve(shards_.size() + 1);
  if (router_obs_ != nullptr) {
    RefreshRingMetrics();
    snapshots.push_back(router_obs_->registry().Snapshot());
  }
  for (auto& shard : shards_) {
    if (shard->obs == nullptr) continue;
    shard->engine->RefreshObservabilityGauges();
    snapshots.push_back(shard->obs->registry().Snapshot());
  }
  return obs::MergeSnapshots(snapshots);
}

util::MemoryFootprint ShardedMonitor::Footprint() {
  Drain();
  util::MemoryFootprint fp;
  for (auto& shard : shards_) {
    fp.Merge(shard->engine->Footprint());
  }
  return fp;
}

std::vector<uint8_t> ShardedMonitor::SerializeState() {
  // Full barrier: pending matches are delivered (a checkpoint never holds
  // undelivered matches), engines quiescent and caller-visible.
  Drain();
  util::ByteWriter writer;
  writer.WriteU32(kMonitorMagic);
  writer.WriteU32(kMonitorVersion);
  writer.WriteU64(next_seq_);
  writer.WriteU64(streams_.size());
  for (const StreamInfo& stream : streams_) {
    writer.WriteString(stream.name);
    writer.WriteBool(stream.repair_missing);
    writer.WriteBool(stream.repairer_seeded);
    writer.WriteDouble(stream.repairer.last());
    writer.WriteI64(stream.pushes);
  }
  // Removed queries are omitted (like the engine's checkpoints), so a
  // restored monitor holds a dense query set; global ids therefore compact
  // across a restore while names stay stable.
  uint64_t active = 0;
  for (const QueryInfo& query : queries_) {
    if (!query.removed) ++active;
  }
  writer.WriteU64(active);
  for (size_t i = 0; i < queries_.size(); ++i) {
    const QueryInfo& query = queries_[i];
    if (query.removed) continue;
    const Shard& shard = *shards_[static_cast<size_t>(
        streams_[static_cast<size_t>(query.stream_id)].worker)];
    writer.WriteI64(query.stream_id);
    writer.WriteString(query.name);
    // One snapshot per query, not per engine: restorable into any worker
    // count.
    writer.WriteBytes(shard.engine->SerializeQueryState(query.local_id));
    WriteStats(&writer, query.stats);
  }
  // order: relaxed — introspection stamp (checkpoint age); staleness only
  // skews the reported age by one scrape.
  last_checkpoint_nanos_.store(NowNanos(), std::memory_order_relaxed);
  return writer.Take();
}

util::Status ShardedMonitor::RestoreState(std::span<const uint8_t> bytes) {
  if (started() || num_streams() > 0 || num_queries() > 0) {
    return util::FailedPreconditionError(
        "RestoreState requires a fresh, unstarted monitor");
  }
  util::ByteReader reader(bytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  reader.ReadU32(&magic);
  reader.ReadU32(&version);
  if (!reader.ok() || magic != kMonitorMagic) {
    return util::InvalidArgumentError("not a ShardedMonitor checkpoint");
  }
  if (version != kMonitorVersion) {
    return util::InvalidArgumentError("unsupported checkpoint version");
  }
  reader.ReadU64(&next_seq_);

  uint64_t num_ckpt_streams = 0;
  reader.ReadU64(&num_ckpt_streams);
  for (uint64_t i = 0; reader.ok() && i < num_ckpt_streams; ++i) {
    std::string name;
    bool repair_missing = true;
    bool seeded = false;
    double last = 0.0;
    int64_t pushes = 0;
    reader.ReadString(&name);
    reader.ReadBool(&repair_missing);
    reader.ReadBool(&seeded);
    reader.ReadDouble(&last);
    reader.ReadI64(&pushes);
    if (!reader.ok() || pushes < 0) {
      return util::InvalidArgumentError("checkpoint stream corrupt");
    }
    const int64_t stream_id = AddStream(std::move(name), repair_missing);
    StreamInfo& stream = streams_[static_cast<size_t>(stream_id)];
    stream.repairer_seeded = seeded;
    stream.repairer = ts::StreamingRepairer(last);
    stream.pushes = pushes;
    Shard& shard = *shards_[static_cast<size_t>(stream.worker)];
    shard.stream_ticks[static_cast<size_t>(stream.local_id)] = pushes;
  }

  uint64_t num_ckpt_queries = 0;
  reader.ReadU64(&num_ckpt_queries);
  for (uint64_t i = 0; reader.ok() && i < num_ckpt_queries; ++i) {
    int64_t stream_id = 0;
    std::string name;
    std::span<const uint8_t> snapshot;
    reader.ReadI64(&stream_id);
    reader.ReadString(&name);
    if (!reader.ReadBytesSpan(&snapshot)) {
      return util::InvalidArgumentError("checkpoint truncated");
    }
    QueryStats stats;
    if (!ReadStats(&reader, &stats)) {
      return util::InvalidArgumentError("checkpoint stats truncated");
    }
    if (stream_id < 0 || stream_id >= num_streams()) {
      return util::InvalidArgumentError("checkpoint query has bad stream");
    }
    StreamInfo& stream = streams_[static_cast<size_t>(stream_id)];
    Shard& shard = *shards_[static_cast<size_t>(stream.worker)];
    auto local = shard.engine->AddQueryFromSnapshot(stream.local_id, name,
                                                    snapshot);
    if (!local.ok()) return local.status();
    QueryInfo info;
    info.stream_id = stream_id;
    info.name = std::move(name);
    info.local_id = *local;
    info.stats = stats;
    shard.global_query_ids.push_back(static_cast<int64_t>(queries_.size()));
    // order: relaxed — introspection gauge; the server tolerates
    // staleness.
    shard.query_count.fetch_add(1, std::memory_order_relaxed);
    queries_.push_back(std::move(info));
  }

  if (!reader.ok()) {
    return util::InvalidArgumentError("checkpoint truncated");
  }
  if (!reader.AtEnd()) {
    return util::InvalidArgumentError("checkpoint has trailing bytes");
  }
  return util::Status::Ok();
}

int ShardedMonitor::introspection_port() const {
  return server_ != nullptr ? server_->port() : -1;
}

obs::WorkerHealth ShardedMonitor::WorkerHealthFor(int64_t worker,
                                                  uint64_t now_nanos) const {
  const Shard& shard = *shards_[static_cast<size_t>(worker)];
  obs::WorkerHealth health;
  health.worker = worker;
  // order: relaxed ×2 — advisory lag estimate for /healthz; the clamp
  // below absorbs torn produced/consumed pairs.
  const uint64_t produced = shard.produced.load(std::memory_order_relaxed);
  const uint64_t consumed = shard.consumed.load(std::memory_order_relaxed);
  // Unsynchronized reads can observe consumed ahead of produced; clamp.
  health.lag_messages = produced > consumed ? produced - consumed : 0;
  if (!started()) {
    health.state = "stopped";
    return health;
  }
  if (produced == 0 && consumed == 0) {
    // Never routed to: silence is expected, not a stall.
    health.state = "idle";
    return health;
  }
  // order: relaxed — watchdog stamp read; staleness only widens the
  // reported window by one scrape.
  const uint64_t last_progress =
      shard.last_progress_nanos.load(std::memory_order_relaxed);
  const double ms_since =
      last_progress == 0 || now_nanos <= last_progress
          ? 0.0
          : static_cast<double>(now_nanos - last_progress) / 1e6;
  health.ms_since_progress = ms_since;
  if (ms_since > options_.staleness_budget_ms) {
    health.state = "stale";
    health.healthy = false;
  } else {
    health.state = "ok";
  }
  return health;
}

obs::HealthReport ShardedMonitor::HealthSnapshot() const {
  obs::HealthReport report;
  report.staleness_budget_ms = options_.staleness_budget_ms;
  if (!introspect_) {
    // Without the watchdog stamps a verdict would be meaningless; report
    // healthy-but-disabled rather than a false stall.
    report.state = "disabled";
    return report;
  }
  const uint64_t now = NowNanos();
  report.workers.reserve(shards_.size());
  for (int64_t w = 0; w < num_workers(); ++w) {
    report.workers.push_back(WorkerHealthFor(w, now));
    report.healthy = report.healthy && report.workers.back().healthy;
  }
  report.state = !started() ? "stopped" : (report.healthy ? "ok" : "stale");
  // order: relaxed — advisory verdict; see PollTimeline().
  if (report.healthy &&
      alert_page_firing_.load(std::memory_order_relaxed)) {
    // A firing page-severity alert is an operator-facing "take me out of
    // rotation" verdict, same as a stale worker.
    report.healthy = false;
    report.state = "alerting";
  }
  return report;
}

obs::StatusReport ShardedMonitor::StatusSnapshot() const {
  obs::StatusReport report;
  report.role = "sharded_monitor";
  report.started = started();
  const uint64_t now = NowNanos();
  report.uptime_seconds = static_cast<double>(now - start_nanos_) / 1e9;
  report.num_workers = num_workers();
  // order: relaxed — introspection counter read; staleness is fine.
  report.matches_delivered =
      matches_delivered_.load(std::memory_order_relaxed);
  // order: relaxed — introspection stamp read; staleness is fine.
  const uint64_t checkpoint_nanos =
      last_checkpoint_nanos_.load(std::memory_order_relaxed);
  if (checkpoint_nanos != 0 && now > checkpoint_nanos) {
    report.checkpoint_age_seconds =
        static_cast<double>(now - checkpoint_nanos) / 1e9;
  }
  report.workers.reserve(shards_.size());
  for (int64_t w = 0; w < num_workers(); ++w) {
    const Shard& shard = *shards_[static_cast<size_t>(w)];
    obs::WorkerStatus status;
    status.worker = w;
    status.state = introspect_ ? WorkerHealthFor(w, now).state : "unknown";
    // order: relaxed ×6 — /statusz snapshot rows are advisory; each field
    // is independently torn-tolerant and never used for synchronization.
    status.messages_produced =
        shard.produced.load(std::memory_order_relaxed);
    status.messages_consumed =
        shard.consumed.load(std::memory_order_relaxed);
    status.ticks = shard.ticks_ingested.load(std::memory_order_relaxed);
    status.streams = shard.stream_count.load(std::memory_order_relaxed);
    status.queries = shard.query_count.load(std::memory_order_relaxed);
    status.pending_candidates =
        shard.pending_candidates.load(std::memory_order_relaxed);
    status.ring_occupancy =
        static_cast<uint64_t>(shard.queue->ApproxSize());
    status.ring_capacity = static_cast<uint64_t>(shard.queue->capacity());
    status.ring_blocked_pushes = shard.queue->blocked_pushes();
    status.ring_producer_parks = shard.queue->producer_parks();
    status.ring_consumer_parks = shard.queue->consumer_parks();
    report.num_streams += status.streams;
    report.num_queries += status.queries;
    report.ticks_ingested += status.ticks;
    report.workers.push_back(std::move(status));
  }
  return report;
}

void ShardedMonitor::SetAuxMetricsProvider(
    std::function<obs::MetricsSnapshot()> provider) {
  aux_metrics_provider_ = std::move(provider);
}

obs::MetricsSnapshot ShardedMonitor::PublishedMetricsSnapshot() const {
  std::vector<obs::MetricsSnapshot> snapshots;
  if (introspect_) {
    snapshots.reserve(shards_.size() + 2);
    {
      util::MutexLock lock(&router_publish_mu_);
      snapshots.push_back(router_published_metrics_);
    }
    for (const auto& shard : shards_) {
      util::MutexLock lock(&shard->publish_mu);
      snapshots.push_back(shard->published_metrics);
    }
    if (aux_metrics_provider_ != nullptr) {
      snapshots.push_back(aux_metrics_provider_());
    }
  }
  return obs::MergeSnapshots(snapshots);
}

obs::TracezReport ShardedMonitor::PublishedTraces() const {
  obs::TracezReport report;
  if (!introspect_) return report;
  for (const auto& shard : shards_) {
    util::MutexLock lock(&shard->publish_mu);
    report.events.insert(report.events.end(),
                         shard->published_traces.begin(),
                         shard->published_traces.end());
    report.dropped += shard->published_trace_dropped;
  }
  if (timeline_) {
    // Alert transitions live in a router-side ring; splice them in so
    // /tracez shows rule state changes alongside match-lifecycle events.
    util::MutexLock lock(&timeline_mu_);
    const std::vector<obs::TraceEvent> events = alert_trace_.Events();
    report.events.insert(report.events.end(), events.begin(), events.end());
    report.dropped += alert_trace_.dropped();
  }
  return report;
}

obs::SpanzReport ShardedMonitor::PublishedSpans() const {
  if (!introspect_) return obs::SpanzReport{};
  util::MutexLock lock(&router_publish_mu_);
  return published_spans_;
}

std::string ShardedMonitor::QueryzJson() const {
  util::MutexLock lock(&router_publish_mu_);
  return RenderQueryzJson(published_costs_, kCostTopK);
}

std::string ShardedMonitor::StreamzJson() const {
  util::MutexLock lock(&router_publish_mu_);
  return RenderStreamzJson(published_costs_, kCostTopK);
}

std::string ShardedMonitor::TimezJson(const std::string& query) const {
  util::MutexLock lock(&timeline_mu_);
  if (metrics_timeline_ == nullptr) {
    return "{\"tiers\":[],\"records\":0,\"dropped_channels\":0,"
           "\"channels\":[]}";
  }
  return obs::RenderTimezJson(*metrics_timeline_, query);
}

std::string ShardedMonitor::AlertzJson() const {
  util::MutexLock lock(&timeline_mu_);
  if (alert_engine_ == nullptr) {
    return "{\"rules\":[],\"firing\":0,\"firing_page\":0}";
  }
  return obs::RenderAlertzJson(alert_engine_->Statuses(), NowNanos());
}

std::vector<obs::AlertStatus> ShardedMonitor::AlertStatuses() const {
  util::MutexLock lock(&timeline_mu_);
  if (alert_engine_ == nullptr) return {};
  return alert_engine_->Statuses();
}

void ShardedMonitor::SetSpanFinalizer(SpanFinalizer finalizer) {
  span_finalizer_ = std::move(finalizer);
}

void ShardedMonitor::ObserveSpan(const obs::TickSpan& span) {
  if (!profile_) return;
  // Stamps come from one monotonic clock with happens-before edges between
  // every consecutive pair, so each stage is non-negative by construction;
  // the clamp only guards a remote client's foreign clock.
  const auto observe = [](obs::Histogram* histogram, uint64_t from,
                          uint64_t to) {
    if (histogram == nullptr || from == 0 || to == 0) return;
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

void ShardedMonitor::RefreshCostAccounting() {
  if (!profile_) return;
  CostSnapshot snapshot;
  snapshot.streams.resize(streams_.size());
  for (size_t s = 0; s < streams_.size(); ++s) {
    const StreamInfo& stream = streams_[s];
    StreamCost& row = snapshot.streams[s];
    row.stream_id = static_cast<int64_t>(s);
    row.name = stream.name;
    row.worker = stream.worker;
    row.ticks = stream.pushes;
  }
  snapshot.queries.reserve(queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    QueryInfo& query = queries_[i];
    if (query.removed) continue;
    const StreamInfo& stream =
        streams_[static_cast<size_t>(query.stream_id)];
    const MonitorEngine& engine =
        *shards_[static_cast<size_t>(stream.worker)]->engine;
    query.cells = engine.QueryCellsComputed(query.local_id);
    query.est_cpu_nanos = engine.QueryEstCpuNanos(query.local_id);
    QueryCost cost;
    cost.query_id = static_cast<int64_t>(i);
    cost.stream_id = query.stream_id;
    cost.query_name = query.name;
    cost.stream_name = stream.name;
    cost.ticks = query.stats.ticks;
    cost.cells = query.cells;
    cost.matches = query.stats.matches;
    cost.last_match_seq = query.last_match_seq;
    cost.est_cpu_nanos = query.est_cpu_nanos;
    StreamCost& srow =
        snapshot.streams[static_cast<size_t>(query.stream_id)];
    ++srow.queries;
    srow.cells += cost.cells;
    srow.matches += cost.matches;
    srow.est_cpu_nanos += cost.est_cpu_nanos;
    snapshot.queries.push_back(std::move(cost));
  }
  RankByCost(&snapshot);
  util::MutexLock lock(&router_publish_mu_);
  published_costs_ = std::move(snapshot);
}

}  // namespace monitor
}  // namespace springdtw
