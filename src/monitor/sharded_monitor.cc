#include "monitor/sharded_monitor.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/codec.h"
#include "util/logging.h"
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

uint64_t NowNanos() {
  return static_cast<uint64_t>(util::Stopwatch::NowNanos());
}

}  // namespace

ShardedMonitor::ShardedMonitor(const ShardedMonitorOptions& options)
    : options_(options) {
  SPRINGDTW_CHECK_GE(options_.num_workers, 1);
  if (options_.slo_p99_ms > 0.0) {
    options_.alert_rules.push_back(obs::MakeSloP99Rule(options_.slo_p99_ms));
  }
  // The one switch: whatever asks for telemetry turns the plane on.
  if (options_.introspect_port >= 0 || options_.enable_timeline ||
      !options_.alert_rules.empty()) {
    options_.collect_metrics = true;
  }
  start_nanos_ = NowNanos();
  EngineOptions engine_options;
  if (options_.collect_metrics) {
    engine_options.cost_sample_every = Telemetry::kSampleEvery;
  }
  for (int64_t w = 0; w < options_.num_workers; ++w) {
    auto shard = std::make_unique<Shard>();
    shard->engine = std::make_unique<MonitorEngine>(engine_options);
    shard->queue =
        std::make_unique<SpscQueue<TickMessage>>(options_.queue_capacity);
    Shard* shard_raw = shard.get();
    shard->sink = std::make_unique<CallbackSink>(
        [shard_raw](const MatchOrigin& origin, const core::Match& match) {
          PendingMatch pending;
          pending.global_query_id =
              shard_raw->global_query_ids[static_cast<size_t>(
                  origin.query_id)];
          // A reported match's seq is the stream-wide seq of its reporting
          // tick; flushed candidates have no tick and order last.
          pending.seq = origin.batch_offset < 0
                            ? kFlushSeq
                            : shard_raw->msg_seq0 +
                                  static_cast<uint64_t>(origin.batch_offset);
          pending.match = match;
          shard_raw->matches.push_back(pending);
        });
    shard->engine->AddSink(shard->sink.get());
    shards_.push_back(std::move(shard));
  }
  if (!options_.collect_metrics) return;
  telemetry_ = std::make_unique<Telemetry>(
      options_.num_workers, shards_[0]->queue->capacity(),
      options_.publish_interval_ms, options_.alert_rules,
      options_.enable_timeline);
  for (size_t w = 0; w < shards_.size(); ++w) {
    Shard& shard = *shards_[w];
    shard.telemetry = &telemetry_->shard(w);
    shard.engine->AttachObservability(&shard.telemetry->obs);
  }
  if (options_.introspect_port >= 0) {
    telemetry_->StartServer(static_cast<int>(options_.introspect_port),
                            [this] { return HealthSnapshot(); },
                            [this] { return StatusSnapshot(); });
  }
}

ShardedMonitor::~ShardedMonitor() {
  // Stop the server first: its handlers read shard state.
  if (telemetry_ != nullptr) telemetry_->StopServer();
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
  // the sink stamps it kFlushSeq so DeliverPending orders it after every
  // buffered tick match.
  auto flushed = shard.engine->RemoveQuery(query.local_id);
  if (!flushed.ok()) return flushed.status();
  query.removed = true;
  // order: relaxed — introspection gauge; the server tolerates staleness.
  shard.query_count.fetch_add(-1, std::memory_order_relaxed);
  DeliverPending();
  // The removal mutated an engine on this thread; publish so scrapes stop
  // seeing the removed query.
  Publish(/*force=*/true);
  return *flushed;
}

std::vector<QueryCost> ShardedMonitor::ListQueries() {
  Drain();
  return QueryRows();
}

const MonitorEngine& ShardedMonitor::EngineOf(const QueryInfo& query) const {
  return *shards_[static_cast<size_t>(
                      streams_[static_cast<size_t>(query.stream_id)].worker)]
              ->engine;
}

std::vector<QueryCost> ShardedMonitor::QueryRows() const {
  std::vector<QueryCost> rows;
  rows.reserve(queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    const QueryInfo& query = queries_[i];
    if (query.removed) continue;
    const MonitorEngine& engine = EngineOf(query);
    const QueryStats& stats = engine.stats(query.local_id);
    QueryCost row;
    row.query_id = static_cast<int64_t>(i);
    row.stream_id = query.stream_id;
    row.query_name = query.name;
    row.stream_name = streams_[static_cast<size_t>(query.stream_id)].name;
    row.ticks = stats.ticks;
    row.cells = engine.QueryCellsComputed(query.local_id);
    row.matches = stats.matches;
    row.last_match_seq = query.last_match_seq;
    row.est_cpu_nanos = engine.QueryEstCpuNanos(query.local_id);
    rows.push_back(std::move(row));
  }
  return rows;
}

void ShardedMonitor::AddSink(MatchSink* sink) {
  SPRINGDTW_CHECK(sink != nullptr);
  sinks_.push_back(sink);
}

void ShardedMonitor::Start() {
  if (started()) return;
  for (auto& shard : shards_) {
    if (shard->telemetry != nullptr) {
      // order: relaxed — watchdog stamp; the health check tolerates a
      // stale read (it only widens the staleness window by one scrape).
      shard->telemetry->last_progress_nanos.store(NowNanos(),
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
  ShardTelemetry* const telemetry = shard->telemetry;
  TickMessage msg;
  for (;;) {
    shard->queue->Pop(&msg);
    if (msg.kind == TickMessage::Kind::kStop) {
      // order: release — pairs with Stop()'s drain acquire; publishes the
      // final engine state before the thread exits.
      shard->consumed.fetch_add(1, std::memory_order_release);
      return;
    }
    // Span stamps ride the span cadence: only the message carrying the
    // sampled tick reads the clock at pop (1 in ~4 messages at 1-in-64
    // sampling).
    const bool sampled = telemetry != nullptr && msg.span_index >= 0;
    const uint64_t t_pop = sampled ? NowNanos() : 0;
    shard->msg_seq0 = msg.seq0;
    const size_t matches_before = shard->matches.size();
    const auto pushed = shard->engine->PushBatch(
        msg.local_stream,
        std::span<const double>(msg.values,
                                static_cast<size_t>(msg.count)));
    SPRINGDTW_CHECK(pushed.ok())
        << "shard ingest failed: " << pushed.status().ToString();
    if (telemetry != nullptr) {
      const uint64_t t_done = NowNanos();
      if (sampled) {
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
        telemetry->pending_spans.push_back(span);
      }
      // order: relaxed — watchdog stamp; see Start().
      telemetry->last_progress_nanos.store(t_done, std::memory_order_relaxed);
      // order: relaxed — introspection counter; never synchronization.
      telemetry->ticks_ingested.fetch_add(msg.count,
                                          std::memory_order_relaxed);
    }
    // order: release — publishes everything written above (engine state,
    // bundle, buffered matches, spans) to the acquire of `consumed` in
    // AwaitQuiescent, after which the router may snapshot the bundle.
    shard->consumed.fetch_add(1, std::memory_order_release);
  }
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
  // `next_seq_ % kSampleEvery == 0` (the router thread is the only writer)
  // but avoids a 64-bit modulo on every ingested tick.
  if (telemetry_ != nullptr && --span_countdown_ <= 0) {
    span_countdown_ = Telemetry::kSampleEvery;
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
  // Same sampling as the worker: only the span-carrying message is
  // stamped.
  if (staged_.span_index >= 0) staged_.enqueue_nanos = NowNanos();
  shard.queue->Push(staged_);
  has_staged_ = false;
  staged_worker_ = -1;
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
  Publish(/*force=*/false);
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
  for (const PendingMatch& pending : delivery_scratch_) {
    QueryInfo& query =
        queries_[static_cast<size_t>(pending.global_query_id)];
    if (pending.seq != kFlushSeq) {
      query.last_match_seq = static_cast<int64_t>(pending.seq);
    }
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
  // Completed spans: every worker stage is done (the barrier made
  // pending_spans visible).
  if (telemetry_ != nullptr) telemetry_->DeliverSpans();
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
  for (auto& shard : shards_) shard->engine->FlushAll();
  delivered += DeliverPending();
  Publish(/*force=*/true);
  return delivered;
}

void ShardedMonitor::Stop() {
  if (!started()) return;
  Drain();
  // The final snapshot, so post-run scrapes (and a lingering server) see
  // the complete state.
  Publish(/*force=*/true);
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

const QueryStats& ShardedMonitor::stats(int64_t query_id) {
  SPRINGDTW_CHECK(query_id >= 0 && query_id < num_queries());
  Drain();
  const QueryInfo& query = queries_[static_cast<size_t>(query_id)];
  return EngineOf(query).stats(query.local_id);
}

obs::MetricsSnapshot ShardedMonitor::MergedMetricsSnapshot() {
  Drain();
  if (telemetry_ == nullptr) return {};
  Publish(/*force=*/true);
  return telemetry_->PublishedMetricsSnapshot();
}

void ShardedMonitor::PollTimeline(bool force) {
  if (telemetry_ == nullptr ||
      !(force || telemetry_->PublishDue(NowNanos()))) {
    return;
  }
  if (started()) AwaitQuiescent();
  Publish(/*force=*/true);
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
  for (const QueryInfo& query : queries_) {
    if (query.removed) continue;
    // One snapshot per query, not per engine: restorable into any worker
    // count.
    const MonitorEngine& engine = EngineOf(query);
    const std::vector<uint8_t> snapshot =
        engine.SerializeQueryState(query.local_id);
    WriteQueryRecord(&writer, {query.stream_id, query.name, snapshot,
                               engine.stats(query.local_id)});
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
  }

  uint64_t num_ckpt_queries = 0;
  reader.ReadU64(&num_ckpt_queries);
  for (uint64_t i = 0; reader.ok() && i < num_ckpt_queries; ++i) {
    QueryRecord record;
    if (!ReadQueryRecord(&reader, &record)) {
      return util::InvalidArgumentError("checkpoint truncated");
    }
    if (record.stream_id < 0 || record.stream_id >= num_streams()) {
      return util::InvalidArgumentError("checkpoint query has bad stream");
    }
    StreamInfo& stream = streams_[static_cast<size_t>(record.stream_id)];
    Shard& shard = *shards_[static_cast<size_t>(stream.worker)];
    auto local = shard.engine->AddQueryFromSnapshot(
        stream.local_id, record.name, record.snapshot, record.stats);
    if (!local.ok()) return local.status();
    QueryInfo info;
    info.stream_id = record.stream_id;
    info.name = std::move(record.name);
    info.local_id = *local;
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
      shard.telemetry->last_progress_nanos.load(std::memory_order_relaxed);
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
  if (telemetry_ == nullptr) {
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
  if (report.healthy && telemetry_->alert_page_firing()) {
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
    // order: relaxed ×6 — /statusz snapshot rows are advisory; each field
    // is independently torn-tolerant and never used for synchronization.
    status.messages_produced =
        shard.produced.load(std::memory_order_relaxed);
    status.messages_consumed =
        shard.consumed.load(std::memory_order_relaxed);
    status.streams = shard.stream_count.load(std::memory_order_relaxed);
    status.queries = shard.query_count.load(std::memory_order_relaxed);
    if (shard.telemetry != nullptr) {
      status.state = WorkerHealthFor(w, now).state;
      status.ticks =
          shard.telemetry->ticks_ingested.load(std::memory_order_relaxed);
      status.pending_candidates = shard.telemetry->pending_candidates.load(
          std::memory_order_relaxed);
    } else {
      status.state = "unknown";
    }
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

void ShardedMonitor::Publish(bool force) {
  if (telemetry_ == nullptr) return;
  const uint64_t now = NowNanos();
  if (!force && !telemetry_->PublishDue(now)) return;
  CostSnapshot costs;
  costs.queries = QueryRows();
  costs.streams.resize(streams_.size());
  for (size_t s = 0; s < streams_.size(); ++s) {
    const StreamInfo& stream = streams_[s];
    StreamCost& row = costs.streams[s];
    row.stream_id = static_cast<int64_t>(s);
    row.name = stream.name;
    row.worker = stream.worker;
    row.ticks = stream.pushes;
  }
  for (const QueryCost& cost : costs.queries) {
    StreamCost& row = costs.streams[static_cast<size_t>(cost.stream_id)];
    ++row.queries;
    row.cells += cost.cells;
    row.matches += cost.matches;
    row.est_cpu_nanos += cost.est_cpu_nanos;
  }
  std::vector<MonitorEngine*> engines;
  engines.reserve(shards_.size());
  for (size_t w = 0; w < shards_.size(); ++w) {
    telemetry_->RefreshRing(w, *shards_[w]->queue);
    engines.push_back(shards_[w]->engine.get());
  }
  telemetry_->Publish(now, engines, std::move(costs));
}

}  // namespace monitor
}  // namespace springdtw
