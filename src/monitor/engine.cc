#include "monitor/engine.h"

#include <algorithm>
#include <utility>

#include "core/invariants.h"
#include "util/codec.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace springdtw {
namespace monitor {

namespace {

/// Metric names shared with docs/OBSERVABILITY.md — keep in sync.
constexpr char kMetricPushes[] = "spring_pushes_total";
constexpr char kMetricTicks[] = "spring_ticks_total";
constexpr char kMetricMatches[] = "spring_matches_total";
constexpr char kMetricCandidatesOpened[] = "spring_candidates_opened_total";
constexpr char kMetricCandidatesFlushed[] = "spring_candidates_flushed_total";
constexpr char kMetricBestImprovements[] = "spring_best_improvements_total";
constexpr char kMetricCellsPruned[] = "spring_cells_pruned_total";
constexpr char kMetricCandidatePending[] = "spring_candidate_pending";
constexpr char kMetricReportDelay[] = "spring_report_delay_ticks";
constexpr char kMetricPushLatency[] = "spring_push_latency_nanos";
constexpr char kMetricMemoryBytes[] = "spring_memory_bytes";
constexpr char kMetricStreams[] = "spring_streams";
constexpr char kMetricQueries[] = "spring_queries";
constexpr char kMetricCheckpointSaves[] = "spring_checkpoint_saves_total";
constexpr char kMetricCheckpointRestores[] =
    "spring_checkpoint_restores_total";
constexpr char kMetricTraceDropped[] = "spring_trace_dropped_total";

const char* SpaceName(bool vector_space) {
  return vector_space ? "vector" : "scalar";
}

}  // namespace

int64_t MonitorEngine::AddStream(std::string name, bool repair_missing) {
  ScalarStream entry;
  entry.name = std::move(name);
  entry.repair_missing = repair_missing;
  if (obs_ != nullptr) {
    entry.obs_pushes = ResolvePushCounter(entry.name, /*vector_space=*/false);
  }
  streams_.push_back(std::move(entry));
  if (obs_streams_ != nullptr) {
    obs_streams_->Set(
        static_cast<double>(num_streams() + num_vector_streams()));
  }
  return static_cast<int64_t>(streams_.size()) - 1;
}

template <typename Stream>
int64_t MonitorEngine::AttachQuery(Stream& stream,
                                   std::vector<QueryEntry>& queries,
                                   int64_t stream_id, std::string name,
                                   int64_t pool_index,
                                   obs::TraceSpace space) {
  const int64_t query_id = static_cast<int64_t>(queries.size());
  QueryEntry entry;
  entry.stream_id = stream_id;
  entry.name = std::move(name);
  entry.pool_index = pool_index;
  if (obs_ != nullptr) {
    entry.obs = ResolveQueryObs(stream.name, entry.name,
                                space == obs::TraceSpace::kVector);
  }
  queries.push_back(std::move(entry));
  stream.query_ids.push_back(query_id);
  if (obs_queries_ != nullptr) {
    obs_queries_->Set(
        static_cast<double>(num_active_queries() + num_vector_queries()));
  }
  return query_id;
}

util::StatusOr<int64_t> MonitorEngine::AddQuery(
    int64_t stream_id, std::string name, std::vector<double> query,
    const core::SpringOptions& options) {
  if (stream_id < 0 || stream_id >= num_streams()) {
    return util::NotFoundError(
        util::StrFormat("no stream %lld", static_cast<long long>(stream_id)));
  }
  SPRINGDTW_RETURN_IF_ERROR(core::ValidateSpringQuery(query, options));
  ScalarStream& stream = streams_[static_cast<size_t>(stream_id)];
  const int64_t index = stream.pool.AddQuery(std::move(query), options);
  return AttachQuery(stream, queries_, stream_id, std::move(name), index,
                     obs::TraceSpace::kScalar);
}

util::StatusOr<int64_t> MonitorEngine::AddQueryFromSnapshot(
    int64_t stream_id, std::string name, std::span<const uint8_t> snapshot) {
  if (stream_id < 0 || stream_id >= num_streams()) {
    return util::NotFoundError(
        util::StrFormat("no stream %lld", static_cast<long long>(stream_id)));
  }
  ScalarStream& stream = streams_[static_cast<size_t>(stream_id)];
  const util::StatusOr<int64_t> index =
      stream.pool.AddQueryFromSnapshot(snapshot);
  if (!index.ok()) return index.status();
  return AttachQuery(stream, queries_, stream_id, std::move(name), *index,
                     obs::TraceSpace::kScalar);
}

std::vector<uint8_t> MonitorEngine::SerializeQueryState(
    int64_t query_id) const {
  SPRINGDTW_CHECK(query_id >= 0 && query_id < num_queries());
  const QueryEntry& query = queries_[static_cast<size_t>(query_id)];
  SPRINGDTW_CHECK(!query.removed) << "query was removed";
  return streams_[static_cast<size_t>(query.stream_id)].pool.SerializeQuery(
      query.pool_index);
}

void MonitorEngine::AddSink(MatchSink* sink) {
  SPRINGDTW_CHECK(sink != nullptr);
  sinks_.push_back(sink);
}

int64_t MonitorEngine::num_active_queries() const {
  int64_t active = 0;
  for (const QueryEntry& query : queries_) {
    if (!query.removed) ++active;
  }
  return active;
}

bool MonitorEngine::query_removed(int64_t query_id) const {
  SPRINGDTW_CHECK(query_id >= 0 && query_id < num_queries());
  return queries_[static_cast<size_t>(query_id)].removed;
}

util::StatusOr<int64_t> MonitorEngine::RemoveQuery(int64_t query_id) {
  if (query_id < 0 || query_id >= num_queries() ||
      queries_[static_cast<size_t>(query_id)].removed) {
    return util::NotFoundError(
        util::StrFormat("no query %lld", static_cast<long long>(query_id)));
  }
  QueryEntry& query = queries_[static_cast<size_t>(query_id)];
  ScalarStream& stream = streams_[static_cast<size_t>(query.stream_id)];

  core::Match match;
  const bool has_flush = stream.pool.RemoveQuery(query.pool_index, &match);
  // The pool compacted: every later slot shifted down by one, and
  // query_ids[k] must keep matching pool slot k (the erase below
  // preserves that alignment).
  for (const int64_t other_id : stream.query_ids) {
    QueryEntry& other = queries_[static_cast<size_t>(other_id)];
    if (other.pool_index > query.pool_index) --other.pool_index;
  }
  if (has_flush) {
    Deliver(query, query_id, obs::TraceSpace::kScalar, match,
            obs::TraceEventKind::kCandidateFlushed);
  }

  // Tombstone rather than erase: ids stay stable for callers and sinks,
  // stats survive, only the matcher state goes away.
  std::vector<int64_t>& ids = stream.query_ids;
  ids.erase(std::find(ids.begin(), ids.end(), query_id));
  query.pool_index = -1;
  query.removed = true;
  query.obs = QueryObs{};
  if (obs_queries_ != nullptr) {
    obs_queries_->Set(
        static_cast<double>(num_active_queries() + num_vector_queries()));
  }
  return has_flush ? 1 : 0;
}

void MonitorEngine::Deliver(QueryEntry& query, int64_t query_id,
                            obs::TraceSpace space, const core::Match& match,
                            obs::TraceEventKind kind) {
  const int64_t delay = match.report_time - match.end;
  ++query.stats.matches;
  query.stats.output_delay.Add(static_cast<double>(delay));
  if (obs_ != nullptr) {
    if (kind == obs::TraceEventKind::kCandidateFlushed) {
      query.obs.candidates_flushed->Increment();
    }
    query.obs.matches->Increment();
    query.obs.report_delay->Observe(static_cast<double>(delay));
    Trace(kind, space, match.report_time, query, query_id, match.start,
          match.end, match.distance, delay);
  }
  MatchOrigin origin;
  origin.stream_id = query.stream_id;
  origin.query_id = query_id;
  const size_t stream = static_cast<size_t>(query.stream_id);
  origin.stream_name = space == obs::TraceSpace::kVector
                           ? vector_streams_[stream].name
                           : streams_[stream].name;
  origin.query_name = query.name;
  for (MatchSink* sink : sinks_) sink->OnMatch(origin, match);
}

void MonitorEngine::Trace(obs::TraceEventKind kind, obs::TraceSpace space,
                          int64_t tick, const QueryEntry& query,
                          int64_t query_id, int64_t start, int64_t end,
                          double distance, int64_t report_delay) {
  if (!obs_->trace().enabled()) return;
  obs::TraceEvent event;
  event.kind = kind;
  event.space = space;
  event.tick = tick;
  event.stream_id = query.stream_id;
  event.query_id = query_id;
  event.start = start;
  event.end = end;
  event.distance = distance;
  event.report_delay = report_delay;
  obs_->trace().Record(event);
}

void MonitorEngine::ObservedSignals::CandidateOpened(
    int64_t index, const core::SpringState& state) {
  const int64_t query_id = (*query_ids)[static_cast<size_t>(index)];
  QueryEntry& query = (*queries)[static_cast<size_t>(query_id)];
  query.obs.candidates_opened->Increment();
  engine->Trace(obs::TraceEventKind::kCandidateOpened, space, state.t - 1,
                query, query_id, state.ts, state.te, state.dmin);
}

void MonitorEngine::ObservedSignals::BestImproved(
    int64_t index, const core::SpringState& state) {
  const int64_t query_id = (*query_ids)[static_cast<size_t>(index)];
  QueryEntry& query = (*queries)[static_cast<size_t>(query_id)];
  query.obs.best_improvements->Increment();
  engine->Trace(obs::TraceEventKind::kBestImproved, space, state.t - 1,
                query, query_id, state.best.start, state.best.end,
                state.best.distance);
}

template <typename Stream>
int64_t MonitorEngine::Ingest(Stream& stream,
                              std::vector<QueryEntry>& queries,
                              obs::TraceSpace space,
                              std::span<const double> values) {
  const int64_t ticks =
      static_cast<int64_t>(values.size()) / stream.pool.dims();
  if (ticks == 0) return 0;
  // The cost sampler times 1 in every cost_sample_every runs and
  // attributes the measurement with that multiplier. Without cost
  // sampling, an attached bundle times every run so the push-latency
  // histogram stays exact for metrics-only embedders.
  const bool cost_sampled =
      options_.cost_sample_every > 0 &&
      (stream.cost_push_calls++ %
       static_cast<uint64_t>(options_.cost_sample_every)) == 0;
  const bool timed = track_latency_ || cost_sampled ||
                     (obs_ != nullptr && options_.cost_sample_every <= 0);
  int64_t start_nanos = 0;
  if (timed) start_nanos = util::Stopwatch::NowNanos();

  if (obs_ != nullptr) stream.obs_pushes->Increment(ticks);
  for (const int64_t query_id : stream.query_ids) {
    QueryEntry& query = queries[static_cast<size_t>(query_id)];
    query.stats.ticks += ticks;
    if (obs_ != nullptr) query.obs.ticks->Increment(ticks);
  }
  batch_reports_.clear();
  if (obs_ == nullptr) {
    stream.pool.PushBatch(values, &batch_reports_);
  } else {
    stream.pool.PushBatch(
        values, &batch_reports_,
        ObservedSignals{this, &stream.query_ids, &queries, space});
  }
  for (const core::SpringPoolReport& report : batch_reports_) {
    const int64_t query_id =
        stream.query_ids[static_cast<size_t>(report.query_index)];
    Deliver(queries[static_cast<size_t>(query_id)], query_id, space,
            report.match, obs::TraceEventKind::kMatchReported);
  }

  if (timed) {
    // One sample for the whole run; per-value latency is not observable
    // inside a run.
    const int64_t elapsed = util::Stopwatch::NowNanos() - start_nanos;
    if (track_latency_) push_latency_nanos_.Add(static_cast<double>(elapsed));
    if (obs_ != nullptr) {
      obs_push_latency_->Observe(static_cast<double>(elapsed));
    }
    if (cost_sampled) {
      AccumulateCost(stream, queries, elapsed, options_.cost_sample_every);
    }
  }
  if (obs_ != nullptr) MaybeReport(ticks);
  return static_cast<int64_t>(batch_reports_.size());
}

util::StatusOr<int64_t> MonitorEngine::Push(int64_t stream_id, double value) {
  return PushBatch(stream_id, std::span<const double>(&value, 1));
}

util::StatusOr<int64_t> MonitorEngine::PushBatch(
    int64_t stream_id, std::span<const double> values) {
  if (stream_id < 0 || stream_id >= num_streams()) {
    return util::NotFoundError(
        util::StrFormat("no stream %lld", static_cast<long long>(stream_id)));
  }
  ScalarStream& stream = streams_[static_cast<size_t>(stream_id)];
  std::span<const double> run = values;
  bool missing_error = false;
  if (stream.repair_missing) {
    // Repair into the scratch buffer so the pool sees the post-repair
    // stream.
    batch_values_.assign(values.begin(), values.end());
    for (double& value : batch_values_) {
      if (!stream.repairer_seeded && !ts::IsMissing(value)) {
        stream.repairer = ts::StreamingRepairer(value);
        stream.repairer_seeded = true;
      }
      value = stream.repairer.Next(value);
    }
    run = batch_values_;
  } else {
    // With repair disabled, values before the first NaN are processed,
    // then the push fails.
    const auto missing =
        std::find_if(values.begin(), values.end(), ts::IsMissing);
    missing_error = missing != values.end();
    run = values.first(static_cast<size_t>(missing - values.begin()));
  }
  const int64_t reported =
      Ingest(stream, queries_, obs::TraceSpace::kScalar, run);
  if (missing_error) {
    return util::InvalidArgumentError(
        "missing value pushed to a stream with repair disabled");
  }
  return reported;
}

int64_t MonitorEngine::AddVectorStream(std::string name, int64_t dims) {
  SPRINGDTW_CHECK_GE(dims, 1);
  VectorStream entry;
  entry.name = std::move(name);
  entry.pool = core::VectorSpringPool(dims);
  if (obs_ != nullptr) {
    entry.obs_pushes = ResolvePushCounter(entry.name, /*vector_space=*/true);
  }
  vector_streams_.push_back(std::move(entry));
  if (obs_streams_ != nullptr) {
    obs_streams_->Set(
        static_cast<double>(num_streams() + num_vector_streams()));
  }
  return static_cast<int64_t>(vector_streams_.size()) - 1;
}

util::StatusOr<int64_t> MonitorEngine::AddVectorQuery(
    int64_t stream_id, std::string name, ts::VectorSeries query,
    const core::SpringOptions& options) {
  if (stream_id < 0 || stream_id >= num_vector_streams()) {
    return util::NotFoundError(util::StrFormat(
        "no vector stream %lld", static_cast<long long>(stream_id)));
  }
  VectorStream& stream = vector_streams_[static_cast<size_t>(stream_id)];
  if (query.dims() != stream.pool.dims()) {
    return util::InvalidArgumentError(util::StrFormat(
        "query has %lld channels, stream has %lld",
        static_cast<long long>(query.dims()),
        static_cast<long long>(stream.pool.dims())));
  }
  SPRINGDTW_RETURN_IF_ERROR(core::ValidateSpringQuery(query.data(), options));
  const int64_t index = stream.pool.AddQuery(std::move(query), options);
  return AttachQuery(stream, vector_queries_, stream_id, std::move(name),
                     index, obs::TraceSpace::kVector);
}

util::StatusOr<int64_t> MonitorEngine::PushRow(int64_t stream_id,
                                               std::span<const double> row) {
  if (stream_id < 0 || stream_id >= num_vector_streams()) {
    return util::NotFoundError(util::StrFormat(
        "no vector stream %lld", static_cast<long long>(stream_id)));
  }
  VectorStream& stream = vector_streams_[static_cast<size_t>(stream_id)];
  if (static_cast<int64_t>(row.size()) != stream.pool.dims()) {
    return util::InvalidArgumentError(util::StrFormat(
        "row has %zu values, stream has %lld channels", row.size(),
        static_cast<long long>(stream.pool.dims())));
  }
  if (std::any_of(row.begin(), row.end(), ts::IsMissing)) {
    return util::InvalidArgumentError(
        "vector streams do not repair missing values; row has NaN");
  }
  return Ingest(stream, vector_queries_, obs::TraceSpace::kVector, row);
}

const QueryStats& MonitorEngine::vector_stats(int64_t query_id) const {
  SPRINGDTW_CHECK(query_id >= 0 && query_id < num_vector_queries());
  return vector_queries_[static_cast<size_t>(query_id)].stats;
}

int64_t MonitorEngine::FlushAll() {
  // Pools flush per stream; deliver in query-id order, scalar space first.
  const auto flush = [this](auto& streams, std::vector<QueryEntry>& queries,
                            obs::TraceSpace space) {
    std::vector<std::pair<int64_t, core::Match>> flushed;
    for (auto& stream : streams) {
      batch_reports_.clear();
      stream.pool.Flush(&batch_reports_);
      for (const core::SpringPoolReport& report : batch_reports_) {
        flushed.emplace_back(
            stream.query_ids[static_cast<size_t>(report.query_index)],
            report.match);
      }
    }
    std::sort(flushed.begin(), flushed.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [query_id, match] : flushed) {
      Deliver(queries[static_cast<size_t>(query_id)], query_id, space, match,
              obs::TraceEventKind::kCandidateFlushed);
    }
    return static_cast<int64_t>(flushed.size());
  };
  const int64_t scalar = flush(streams_, queries_, obs::TraceSpace::kScalar);
  return scalar +
         flush(vector_streams_, vector_queries_, obs::TraceSpace::kVector);
}

void MonitorEngine::AttachObservability(obs::Observability* obs) {
  obs_ = obs;
  if (obs_ == nullptr) {
    obs_push_latency_ = nullptr;
    obs_memory_bytes_ = nullptr;
    obs_streams_ = nullptr;
    obs_queries_ = nullptr;
    obs_checkpoint_saves_ = nullptr;
    obs_checkpoint_restores_ = nullptr;
    obs_trace_dropped_ = nullptr;
    for (ScalarStream& stream : streams_) stream.obs_pushes = nullptr;
    for (VectorStream& stream : vector_streams_) stream.obs_pushes = nullptr;
    for (QueryEntry& query : queries_) query.obs = QueryObs{};
    for (QueryEntry& query : vector_queries_) query.obs = QueryObs{};
    return;
  }
  ResolveEngineObs();
  const auto resolve = [this](auto& streams, std::vector<QueryEntry>& queries,
                              bool vector_space) {
    for (auto& stream : streams) {
      stream.obs_pushes = ResolvePushCounter(stream.name, vector_space);
    }
    for (QueryEntry& query : queries) {
      if (query.removed) continue;
      query.obs = ResolveQueryObs(
          streams[static_cast<size_t>(query.stream_id)].name, query.name,
          vector_space);
    }
  };
  resolve(streams_, queries_, false);
  resolve(vector_streams_, vector_queries_, true);
  obs_streams_->Set(static_cast<double>(num_streams() + num_vector_streams()));
  obs_queries_->Set(static_cast<double>(num_active_queries() + num_vector_queries()));
}

void MonitorEngine::ResolveEngineObs() {
  obs::MetricsRegistry& registry = obs_->registry();
  obs_push_latency_ = registry.GetHistogram(
      kMetricPushLatency, "Per-Push/PushRow ingest latency in nanoseconds.");
  obs_memory_bytes_ = registry.GetGauge(
      kMetricMemoryBytes,
      "Aggregate matcher working-set bytes (refresh-time).");
  obs_streams_ = registry.GetGauge(kMetricStreams,
                                   "Registered streams (scalar + vector).");
  obs_queries_ = registry.GetGauge(kMetricQueries,
                                   "Registered queries (scalar + vector).");
  obs_checkpoint_saves_ = registry.GetCounter(
      kMetricCheckpointSaves, "Engine checkpoints serialized.");
  obs_checkpoint_restores_ = registry.GetCounter(
      kMetricCheckpointRestores, "Engine checkpoints restored.");
  obs_trace_dropped_ = registry.GetCounter(
      kMetricTraceDropped,
      "Trace-ring events overwritten before an export could read them.");
}

obs::Counter* MonitorEngine::ResolvePushCounter(
    const std::string& stream_name, bool vector_space) {
  return obs_->registry().GetCounter(
      kMetricPushes, "Values ingested per stream (Push/PushRow calls).",
      obs::Labels{{"stream", stream_name},
                  {"space", SpaceName(vector_space)}});
}

MonitorEngine::QueryObs MonitorEngine::ResolveQueryObs(
    const std::string& stream_name, const std::string& query_name,
    bool vector_space) {
  obs::MetricsRegistry& registry = obs_->registry();
  const obs::Labels labels{{"stream", stream_name},
                           {"query", query_name},
                           {"space", SpaceName(vector_space)}};
  QueryObs handles;
  handles.ticks = registry.GetCounter(
      kMetricTicks, "Query-ticks processed (one per query per pushed value).",
      labels);
  handles.matches = registry.GetCounter(
      kMetricMatches, "Disjoint-query matches reported.", labels);
  handles.candidates_opened = registry.GetCounter(
      kMetricCandidatesOpened,
      "Qualifying candidates captured where none was pending.", labels);
  handles.candidates_flushed = registry.GetCounter(
      kMetricCandidatesFlushed,
      "Pending candidates emitted by an end-of-stream flush.", labels);
  handles.best_improvements = registry.GetCounter(
      kMetricBestImprovements,
      "Times the running best-match (Problem 1) improved.", labels);
  handles.cells_pruned = registry.GetCounter(
      kMetricCellsPruned,
      "STWM cells discarded by the max_match_length constraint "
      "(refresh-time).",
      labels);
  handles.report_delay = registry.GetHistogram(
      kMetricReportDelay,
      "Report delay t_report - t_e in ticks (the paper's output time).",
      labels);
  handles.candidate_pending = registry.GetGauge(
      kMetricCandidatePending,
      "1 while a qualifying candidate is pending (refresh-time).", labels);
  return handles;
}

void MonitorEngine::MaybeReport(int64_t ticks) {
  obs::StatsReporterSink* reporter = obs_->reporter();
  if (reporter == nullptr) return;
  bool due = false;
  for (int64_t i = 0; i < ticks; ++i) due = reporter->Tick() || due;
  if (!due) return;
  RefreshObservabilityGauges();
  reporter->Report(obs_->registry().Snapshot());
}

void MonitorEngine::RefreshObservabilityGauges() {
  if (obs_ == nullptr) return;
  obs_memory_bytes_->Set(static_cast<double>(Footprint().TotalBytes()));
  obs_streams_->Set(static_cast<double>(num_streams() + num_vector_streams()));
  obs_queries_->Set(static_cast<double>(num_active_queries() + num_vector_queries()));
  if (obs_->trace().enabled()) {
    const int64_t dropped = obs_->trace().dropped();
    obs_trace_dropped_->Increment(dropped - trace_dropped_exported_);
    trace_dropped_exported_ = dropped;
  }
  const auto refresh = [](auto& streams, std::vector<QueryEntry>& queries) {
    for (auto& stream : streams) {
      for (size_t k = 0; k < stream.query_ids.size(); ++k) {
        const core::SpringState& state =
            stream.pool.state(static_cast<int64_t>(k));
        QueryObs& handles =
            queries[static_cast<size_t>(stream.query_ids[k])].obs;
        handles.candidate_pending->Set(state.has_candidate ? 1.0 : 0.0);
        handles.cells_pruned->Increment(state.cells_pruned -
                                        handles.cells_pruned_exported);
        handles.cells_pruned_exported = state.cells_pruned;
      }
    }
  };
  refresh(streams_, queries_);
  refresh(vector_streams_, vector_queries_);
}

int64_t MonitorEngine::PendingCandidateCount() const {
  int64_t pending = 0;
  const auto count = [&pending](const auto& streams) {
    for (const auto& stream : streams) {
      for (int64_t k = 0; k < stream.pool.num_queries(); ++k) {
        if (stream.pool.state(k).has_candidate) ++pending;
      }
    }
  };
  count(streams_);
  count(vector_streams_);
  return pending;
}

const QueryStats& MonitorEngine::stats(int64_t query_id) const {
  SPRINGDTW_CHECK(query_id >= 0 && query_id < num_queries());
  return queries_[static_cast<size_t>(query_id)].stats;
}

template <typename Stream>
void MonitorEngine::AccumulateCost(const Stream& stream,
                                   std::vector<QueryEntry>& queries,
                                   int64_t elapsed_nanos, int64_t multiplier) {
  if (elapsed_nanos <= 0 || stream.query_ids.empty()) return;
  // Attribute by query length: one tick costs O(m) STWM cells per query,
  // so a stream-level measurement splits across its queries as m_i / sum_m.
  int64_t total_m = 0;
  for (int64_t k = 0; k < stream.pool.num_queries(); ++k) {
    total_m += stream.pool.query_length(k);
  }
  if (total_m <= 0) return;
  const double scaled = static_cast<double>(elapsed_nanos) *
                        static_cast<double>(multiplier);
  for (size_t k = 0; k < stream.query_ids.size(); ++k) {
    QueryEntry& query = queries[static_cast<size_t>(stream.query_ids[k])];
    query.est_cpu_nanos += static_cast<int64_t>(
        scaled *
        static_cast<double>(stream.pool.query_length(static_cast<int64_t>(k))) /
        static_cast<double>(total_m));
  }
}

int64_t MonitorEngine::QueryCellsComputed(int64_t query_id) const {
  SPRINGDTW_CHECK(query_id >= 0 && query_id < num_queries());
  const QueryEntry& query = queries_[static_cast<size_t>(query_id)];
  if (query.removed) return 0;
  return streams_[static_cast<size_t>(query.stream_id)]
      .pool.cells_computed_total(query.pool_index);
}

int64_t MonitorEngine::QueryEstCpuNanos(int64_t query_id) const {
  SPRINGDTW_CHECK(query_id >= 0 && query_id < num_queries());
  return queries_[static_cast<size_t>(query_id)].est_cpu_nanos;
}

util::MemoryFootprint MonitorEngine::Footprint() const {
  util::MemoryFootprint fp;
  for (const ScalarStream& stream : streams_) fp.Merge(stream.pool.Footprint());
  for (const VectorStream& stream : vector_streams_) {
    fp.Merge(stream.pool.Footprint());
  }
  return fp;
}

namespace {

constexpr uint32_t kEngineMagic = 0x53505245;  // "SPRE"
// Version 2 appends the latency-tracking flag and the push-latency
// histogram, so latency history survives checkpoint/restore. Version 1
// checkpoints still restore (with an empty histogram).
constexpr uint32_t kEngineVersion = 2;

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

std::vector<uint8_t> MonitorEngine::SerializeState() const {
  util::ByteWriter writer;
  writer.WriteU32(kEngineMagic);
  writer.WriteU32(kEngineVersion);

  writer.WriteU64(streams_.size());
  for (const ScalarStream& stream : streams_) {
    writer.WriteString(stream.name);
    writer.WriteBool(stream.repair_missing);
    writer.WriteBool(stream.repairer_seeded);
    writer.WriteDouble(stream.repairer.last());
  }
  // Tombstoned (removed) queries are omitted, so restore produces a dense
  // engine and serialize -> restore -> serialize is byte-identical.
  const auto write_queries = [&writer](const auto& streams,
                                       const std::vector<QueryEntry>& queries,
                                       uint64_t count) {
    writer.WriteU64(count);
    for (const QueryEntry& query : queries) {
      if (query.removed) continue;
      writer.WriteI64(query.stream_id);
      writer.WriteString(query.name);
      writer.WriteBytes(streams[static_cast<size_t>(query.stream_id)]
                            .pool.SerializeQuery(query.pool_index));
      WriteStats(&writer, query.stats);
    }
  };
  write_queries(streams_, queries_,
                static_cast<uint64_t>(num_active_queries()));

  writer.WriteU64(vector_streams_.size());
  for (const VectorStream& stream : vector_streams_) {
    writer.WriteString(stream.name);
    writer.WriteI64(stream.pool.dims());
  }
  write_queries(vector_streams_, vector_queries_, vector_queries_.size());

  writer.WriteBool(track_latency_);
  push_latency_nanos_.SerializeTo(&writer);

  if (obs_ != nullptr) {
    obs_checkpoint_saves_->Increment();
    if (obs_->trace().enabled()) {
      obs::TraceEvent event;
      event.kind = obs::TraceEventKind::kCheckpointSave;
      obs_->trace().Record(event);
    }
  }

#if SPRINGDTW_ENABLE_INVARIANT_CHECKS
  // Checkpoint round-trip equivalence: restoring the bytes into a fresh
  // engine and re-serializing must be byte-identical. The thread-local
  // guard stops the nested SerializeState from checking again.
  {
    static thread_local bool in_round_trip = false;
    if (!in_round_trip) {
      in_round_trip = true;
      MonitorEngine shadow;
      const util::Status restore = shadow.RestoreState(writer.buffer());
      SPRINGDTW_CHECK(restore.ok())
          << "engine checkpoint does not restore: " << restore.ToString();
      SPRINGDTW_CHECK(shadow.SerializeState() == writer.buffer())
          << "engine checkpoint round-trip not byte-identical";
      in_round_trip = false;
    }
  }
#endif
  return writer.Take();
}

util::Status MonitorEngine::RestoreState(std::span<const uint8_t> bytes) {
  if (num_streams() > 0 || num_queries() > 0 || num_vector_streams() > 0 ||
      num_vector_queries() > 0) {
    return util::FailedPreconditionError(
        "RestoreState requires a fresh engine");
  }
  util::ByteReader reader(bytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  reader.ReadU32(&magic);
  reader.ReadU32(&version);
  if (!reader.ok() || magic != kEngineMagic) {
    return util::InvalidArgumentError("not a MonitorEngine checkpoint");
  }
  if (version < 1 || version > kEngineVersion) {
    return util::InvalidArgumentError("unsupported checkpoint version");
  }

  uint64_t num_scalar_streams = 0;
  reader.ReadU64(&num_scalar_streams);
  for (uint64_t i = 0; reader.ok() && i < num_scalar_streams; ++i) {
    ScalarStream stream;
    double last = 0.0;
    reader.ReadString(&stream.name);
    reader.ReadBool(&stream.repair_missing);
    reader.ReadBool(&stream.repairer_seeded);
    reader.ReadDouble(&last);
    stream.repairer = ts::StreamingRepairer(last);
    streams_.push_back(std::move(stream));
  }

  // Query records: stream id, name, the pool's query snapshot, stats.
  const auto read_queries = [&](auto& streams,
                                std::vector<QueryEntry>& queries,
                                obs::TraceSpace space) -> util::Status {
    uint64_t count = 0;
    reader.ReadU64(&count);
    for (uint64_t i = 0; reader.ok() && i < count; ++i) {
      int64_t stream_id = 0;
      std::string name;
      std::span<const uint8_t> snapshot;
      QueryStats stats;
      reader.ReadI64(&stream_id);
      reader.ReadString(&name);
      if (!reader.ReadBytesSpan(&snapshot) || !ReadStats(&reader, &stats)) {
        return util::InvalidArgumentError("checkpoint truncated");
      }
      if (stream_id < 0 || stream_id >= static_cast<int64_t>(streams.size())) {
        return util::InvalidArgumentError("checkpoint query has bad stream");
      }
      auto& stream = streams[static_cast<size_t>(stream_id)];
      const util::StatusOr<int64_t> index =
          stream.pool.AddQueryFromSnapshot(snapshot);
      if (!index.ok()) return index.status();
      const int64_t query_id = AttachQuery(stream, queries, stream_id,
                                           std::move(name), *index, space);
      queries[static_cast<size_t>(query_id)].stats = stats;
    }
    return util::Status::Ok();
  };
  SPRINGDTW_RETURN_IF_ERROR(
      read_queries(streams_, queries_, obs::TraceSpace::kScalar));

  uint64_t num_vec_streams = 0;
  reader.ReadU64(&num_vec_streams);
  for (uint64_t i = 0; reader.ok() && i < num_vec_streams; ++i) {
    VectorStream stream;
    int64_t dims = 0;
    reader.ReadString(&stream.name);
    reader.ReadI64(&dims);
    if (dims < 1) {
      return util::InvalidArgumentError("checkpoint vector stream corrupt");
    }
    stream.pool = core::VectorSpringPool(dims);
    vector_streams_.push_back(std::move(stream));
  }
  SPRINGDTW_RETURN_IF_ERROR(
      read_queries(vector_streams_, vector_queries_, obs::TraceSpace::kVector));

  if (version >= 2) {
    if (!reader.ReadBool(&track_latency_) ||
        !push_latency_nanos_.DeserializeFrom(&reader)) {
      return util::InvalidArgumentError("checkpoint latency state corrupt");
    }
  }

  if (!reader.ok()) {
    return util::InvalidArgumentError("checkpoint truncated");
  }
  if (!reader.AtEnd()) {
    return util::InvalidArgumentError("checkpoint has trailing bytes");
  }

  if (obs_ != nullptr) {
    // Re-resolve per-stream/per-query handles for the restored topology.
    AttachObservability(obs_);
    obs_checkpoint_restores_->Increment();
    if (obs_->trace().enabled()) {
      obs::TraceEvent event;
      event.kind = obs::TraceEventKind::kCheckpointRestore;
      obs_->trace().Record(event);
    }
  }
  return util::Status::Ok();
}

}  // namespace monitor
}  // namespace springdtw
