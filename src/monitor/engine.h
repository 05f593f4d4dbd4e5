#ifndef SPRINGDTW_MONITOR_ENGINE_H_
#define SPRINGDTW_MONITOR_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/spring_batch.h"
#include "monitor/sink.h"
#include "obs/observability.h"
#include "ts/repair.h"
#include "ts/vector_series.h"
#include "util/memory.h"
#include "util/stats.h"
#include "util/status.h"

namespace springdtw {
namespace monitor {

/// Per-query counters maintained by the engine.
struct QueryStats {
  int64_t ticks = 0;
  int64_t matches = 0;
  /// Distribution of (report_time - end) — how many ticks after a match's
  /// end SPRING needed before it could commit to it (the paper's "output
  /// time" column in Table 2, relative to the match end).
  util::RunningStats output_delay;
};

/// One query's checkpoint record, shared by engine (SPRE) and sharded
/// monitor (SPRM) checkpoints: its stream id, name, matcher snapshot and
/// stats. `snapshot` views the reader's bytes.
struct QueryRecord {
  int64_t stream_id = 0;
  std::string name;
  std::span<const uint8_t> snapshot;
  QueryStats stats;
};
void WriteQueryRecord(util::ByteWriter* writer, const QueryRecord& record);
/// False on truncation.
bool ReadQueryRecord(util::ByteReader* reader, QueryRecord* record);

/// Engine construction options.
struct EngineOptions {
  /// Unused; kept only because perfbench/ladder.cc still assigns them.
  bool batch_queries = false;
  bool batch_with_obs = false;

  /// CPU cost sampling for per-query cost accounting (/queryz): when > 0,
  /// every Nth Push to a stream times the full query pass and attributes
  /// the elapsed nanoseconds (scaled by N) across the stream's queries in
  /// proportion to the STWM cells each computed in that pass (its
  /// ε-frontier, at most m per tick) — so
  /// QueryEstCpuNanos() converges on each query's true CPU share without
  /// per-tick clock reads. A PushBatch run counts as one Push. 0 (the
  /// default) disables sampling: no clock reads, no accounting. Estimates
  /// are diagnostic and are not serialized into checkpoints.
  int64_t cost_sample_every = 0;
};

/// Multi-stream, multi-query monitoring engine: the operational shell around
/// the SPRING kernel for the paper's headline use case ("monitor multiple
/// numerical streams" against pattern queries). Register streams, attach any
/// number of queries to each, push values as they arrive; matches fan out to
/// the registered sinks. Each stream holds its queries in one
/// structure-of-arrays pool (core::SpringBatchPool, core::VectorSpringPool
/// for vector streams); every query reports exactly like one SpringMatcher
/// fed the same values.
///
/// Threading model: an engine instance is confined to one thread — no member
/// is synchronized, and Push mutates matcher rows, stats, and sinks in
/// place. Matchers on different engines share nothing, so the supported
/// scale-out shape is stream sharding: partition streams across N engines,
/// one ingest thread each. monitor::ShardedMonitor packages exactly that
/// (hash-partitioned ingest over SPSC queues with deterministic merged
/// output); see docs/SCALEOUT.md for the model and its memory-ordering
/// contract.
class MonitorEngine {
 public:
  MonitorEngine() = default;
  explicit MonitorEngine(const EngineOptions& options) : options_(options) {}

  MonitorEngine(const MonitorEngine&) = delete;
  MonitorEngine& operator=(const MonitorEngine&) = delete;

  /// Registers a stream; returns its id. `repair_missing` replays the last
  /// value over NaN inputs (see ts::StreamingRepairer).
  int64_t AddStream(std::string name, bool repair_missing = true);

  /// Attaches a disjoint-query matcher for `query` to stream `stream_id`.
  /// Returns the query id, or an error for an unknown stream or a query
  /// that fails core::ValidateSpringQuery.
  util::StatusOr<int64_t> AddQuery(int64_t stream_id, std::string name,
                                   std::vector<double> query,
                                   const core::SpringOptions& options);

  /// Registers a sink; not owned; must outlive the engine.
  void AddSink(MatchSink* sink);

  /// Feeds one value to every query of `stream_id`. Returns the number of
  /// matches reported at this tick, or an error for an unknown stream.
  util::StatusOr<int64_t> Push(int64_t stream_id, double value);

  /// Retires query `query_id` at the current stream position: its pool slot
  /// is compacted away and it never reports again. A pending candidate is
  /// flushed to the sinks iff it is already report-eligible under the
  /// Problem-2 rule — no current-row STWM cell holds d < d_min with
  /// s <= t_e — exactly the condition a subsequent tick would have required
  /// before committing it; a candidate that could still be beaten by an
  /// in-flight warping path is dropped.
  /// Returns the number of matches flushed (0 or 1).
  ///
  /// The query id is tombstoned, not recycled: other query ids stay valid,
  /// stats(query_id) keeps returning the final counters, and checkpoints
  /// simply omit the removed query (so a restored engine re-serializes to
  /// the same bytes). Scalar queries only.
  util::StatusOr<int64_t> RemoveQuery(int64_t query_id);

  /// True when `query_id` was retired by RemoveQuery. Requires a valid id.
  bool query_removed(int64_t query_id) const;

  /// Feeds a contiguous run of values to every query of `stream_id`;
  /// returns the total number of matches reported. Equivalent to calling
  /// Push once per value (same matches, same sink order, same stats and
  /// counters), but the run is processed query-major so each query's DP
  /// rows stay in L1 across the whole span. Per-run signals (push latency,
  /// cost samples, the periodic reporter) see one run instead of N pushes.
  util::StatusOr<int64_t> PushBatch(int64_t stream_id,
                                    std::span<const double> values);

  /// Registers a k-dimensional ("vector") stream, Section 5.3 style.
  /// Vector streams have their own id space, separate from scalar streams.
  int64_t AddVectorStream(std::string name, int64_t dims);

  /// Attaches a vector query (same dims as the stream) to vector stream
  /// `stream_id`. Vector query ids are likewise their own id space. The
  /// query's values must pass core::ValidateSpringQuery.
  util::StatusOr<int64_t> AddVectorQuery(int64_t stream_id, std::string name,
                                         ts::VectorSeries query,
                                         const core::SpringOptions& options);

  /// Feeds one tick (exactly dims() values) to every query of vector
  /// stream `stream_id`. Missing values are not repaired for vector
  /// streams; rows must be finite.
  util::StatusOr<int64_t> PushRow(int64_t stream_id,
                                  std::span<const double> row);

  int64_t num_vector_streams() const {
    return static_cast<int64_t>(vector_streams_.size());
  }
  int64_t num_vector_queries() const {
    return static_cast<int64_t>(vector_queries_.size());
  }

  /// Per-vector-query counters. Requires a valid vector query id.
  const QueryStats& vector_stats(int64_t query_id) const;

  /// Flushes pending candidates of every query (end-of-stream semantics).
  /// Returns the number of matches emitted.
  int64_t FlushAll();

  /// Number of registered streams / query ids ever allocated (tombstoned
  /// ids from RemoveQuery included, so ids index stably into [0,
  /// num_queries())).
  int64_t num_streams() const {
    return static_cast<int64_t>(streams_.size());
  }
  int64_t num_queries() const {
    return static_cast<int64_t>(queries_.size());
  }
  /// Queries still live (num_queries() minus tombstones).
  int64_t num_active_queries() const;

  /// Per-query counters. Requires a valid query id.
  const QueryStats& stats(int64_t query_id) const;

  /// STWM cells this scalar query has computed since registration: per
  /// tick, the cells up to its ε-frontier (at most the query length m).
  /// Exact count maintained by the kernel; 0 after RemoveQuery. Requires a
  /// valid query id.
  int64_t QueryCellsComputed(int64_t query_id) const;

  /// Estimated CPU nanoseconds attributed to this scalar query by cost
  /// sampling (EngineOptions::cost_sample_every); 0 when sampling is off.
  /// Requires a valid query id.
  int64_t QueryEstCpuNanos(int64_t query_id) const;

  /// Attaches an observability bundle: per-query counters and report-delay
  /// histograms flow into its metrics registry, match-lifecycle events into
  /// its trace ring, and its periodic reporter (if configured) renders a
  /// summary line every N ingested ticks. The bundle is not owned and must
  /// outlive the engine (or a later AttachObservability(nullptr)).
  ///
  /// Candidate-opened and best-improved signals come from the kernel as
  /// they happen, so they are exact for Push, PushBatch and PushRow alike.
  ///
  /// Cost model: with no bundle attached (the default) every ingest run
  /// pays one null-pointer branch — no clock reads, no allocations. With a
  /// bundle attached, a run adds two clock reads (only on sampled runs when
  /// cost sampling is on) plus a handful of pointer-indirect counter
  /// increments; instrument handles are resolved once here and at AddQuery
  /// time, never on the hot path.
  void AttachObservability(obs::Observability* obs);
  obs::Observability* observability() const { return obs_; }

  /// Brings refresh-style gauges (memory bytes, pending candidates, pruned
  /// cells) up to date in the attached registry. Call before rendering an
  /// exposition; the periodic reporter calls it automatically. No-op when
  /// no bundle is attached.
  void RefreshObservabilityGauges();

  /// Aggregate working-set bytes across all matchers.
  util::MemoryFootprint Footprint() const;

  /// Queries (scalar + vector) whose matcher currently holds a pending
  /// candidate (d_m <= epsilon, not yet reported). O(queries); used by the
  /// introspection /statusz endpoint.
  int64_t PendingCandidateCount() const;

  /// Serializes the entire engine — streams, queries, matcher states,
  /// per-query counters — into a versioned checkpoint, so a monitoring
  /// process can restart and resume every stream without replaying
  /// history. Sinks are not serialized (re-add them after restore).
  std::vector<uint8_t> SerializeState() const;

  /// Restores a checkpoint into this engine. The engine must be freshly
  /// constructed (no streams or queries registered); sinks may already be
  /// attached. On error the engine is left unusable for matching — discard
  /// it.
  util::Status RestoreState(std::span<const uint8_t> bytes);

  /// Serializes one scalar query's live matcher state (the bytes
  /// core::SpringMatcher::SerializeState would produce for it).
  /// Building block for topology-changing restores — e.g. resharding a
  /// ShardedMonitor checkpoint into a different worker count — where whole-
  /// engine checkpoints cannot be replayed. Requires a valid, live
  /// (non-removed) query id.
  std::vector<uint8_t> SerializeQueryState(int64_t query_id) const;

  /// Attaches a query whose matcher state comes from a
  /// SerializeQueryState / SpringMatcher::SerializeState snapshot, resuming
  /// that query mid-stream on this engine with counters `stats`. Returns
  /// the new query id, or an error for a corrupt snapshot or one whose
  /// query fails core::ValidateSpringQuery.
  util::StatusOr<int64_t> AddQueryFromSnapshot(
      int64_t stream_id, std::string name, std::span<const uint8_t> snapshot,
      const QueryStats& stats = {});

  const EngineOptions& options() const { return options_; }

 private:
  /// Pre-resolved instrument handles for one query, so the observed ingest
  /// path performs no name or label lookups.
  struct QueryObs {
    obs::Counter* ticks = nullptr;
    obs::Counter* matches = nullptr;
    obs::Counter* candidates_opened = nullptr;
    obs::Counter* candidates_flushed = nullptr;
    obs::Counter* best_improvements = nullptr;
    obs::Counter* cells_pruned = nullptr;
    obs::Histogram* report_delay = nullptr;
    obs::Gauge* candidate_pending = nullptr;
    /// cells_pruned counter value already exported (the kernel keeps a
    /// running total; the counter advances by deltas at refresh time).
    int64_t cells_pruned_exported = 0;
  };

  /// A stream and the pool holding its queries' matcher state; pool slot k
  /// belongs to query query_ids[k].
  template <typename Pool>
  struct StreamEntry {
    std::string name;
    /// Scalar streams only: hold-last repair of NaN inputs.
    bool repair_missing = true;
    ts::StreamingRepairer repairer;
    bool repairer_seeded = false;
    std::vector<int64_t> query_ids;
    Pool pool;
    obs::Counter* obs_pushes = nullptr;
    /// Ingest runs seen, for cost-sampling cadence (not serialized).
    uint64_t cost_push_calls = 0;
  };
  using ScalarStream = StreamEntry<core::SpringBatchPool>;
  using VectorStream = StreamEntry<core::VectorSpringPool>;

  struct QueryEntry {
    int64_t stream_id = 0;
    std::string name;
    /// Slot in the stream's pool; -1 once removed.
    int64_t pool_index = -1;
    /// RemoveQuery tombstone: the entry stays in place (ids are stable) but
    /// holds no matcher state and is skipped everywhere but stats().
    bool removed = false;
    QueryStats stats;
    QueryObs obs;
    /// Sampled CPU attribution (see EngineOptions::cost_sample_every);
    /// diagnostic only, not serialized.
    int64_t est_cpu_nanos = 0;
  };

  /// Forwards the kernel's candidate-opened / best-improved signals for one
  /// stream's pool to metrics and trace events.
  struct ObservedSignals {
    MonitorEngine* engine;
    const std::vector<int64_t>* query_ids;
    std::vector<QueryEntry>* queries;
    obs::TraceSpace space;
    void CandidateOpened(int64_t index, const core::SpringState& state);
    void BestImproved(int64_t index, const core::SpringState& state);
  };

  /// The one ingest routine behind Push, PushBatch and PushRow: advances
  /// every query of `stream` through `values` (already repaired), then
  /// books stats, metrics, trace events and sinks. Returns the number of
  /// matches reported.
  template <typename Stream>
  int64_t Ingest(Stream& stream, std::vector<QueryEntry>& queries,
                 obs::TraceSpace space, std::span<const double> values);

  /// Registers a query entry, with counters `stats`, for pool slot
  /// `pool_index` of `stream`.
  template <typename Stream>
  int64_t AttachQuery(Stream& stream, std::vector<QueryEntry>& queries,
                      int64_t stream_id, std::string name,
                      int64_t pool_index, obs::TraceSpace space,
                      const QueryStats& stats = {});

  /// Books one reported or flushed match of `query` — stats, metrics, a
  /// trace event of `kind` — and hands it to the sinks. `batch_offset` is
  /// the reporting tick's index in the ingested run (-1 for flushes).
  void Deliver(QueryEntry& query, int64_t query_id, obs::TraceSpace space,
               const core::Match& match, obs::TraceEventKind kind,
               int64_t batch_offset = -1);

  /// Records a trace event when tracing is on.
  void Trace(obs::TraceEventKind kind, obs::TraceSpace space, int64_t tick,
             const QueryEntry& query, int64_t query_id, int64_t start,
             int64_t end, double distance, int64_t report_delay = 0);

  /// Resolves metric handles against the attached registry.
  QueryObs ResolveQueryObs(const std::string& stream_name,
                           const std::string& query_name, bool vector_space);
  obs::Counter* ResolvePushCounter(const std::string& stream_name,
                                   bool vector_space);
  void ResolveEngineObs();

  /// Advances the periodic reporter (if one is attached) by `ticks` and
  /// renders a summary when one came due.
  void MaybeReport(int64_t ticks);

  /// Distributes `elapsed_nanos * multiplier` of measured CPU across the
  /// stream's queries in proportion to the cells each computed in the run.
  template <typename Stream>
  void AccumulateCost(const Stream& stream, std::vector<QueryEntry>& queries,
                      int64_t elapsed_nanos, int64_t multiplier);

  EngineOptions options_;
  std::vector<ScalarStream> streams_;
  std::vector<QueryEntry> queries_;
  std::vector<VectorStream> vector_streams_;
  std::vector<QueryEntry> vector_queries_;
  std::vector<MatchSink*> sinks_;
  /// Ingest scratch, kept as members so steady-state ingest never
  /// allocates.
  std::vector<core::SpringPoolReport> batch_reports_;
  std::vector<double> batch_values_;
  /// Each query's cells_computed at the start of the cost-sampled run
  /// being timed (by pool index), so AccumulateCost splits by the cells
  /// the run computed.
  std::vector<int64_t> cost_cells_marks_;

  obs::Observability* obs_ = nullptr;
  obs::Histogram* obs_push_latency_ = nullptr;
  obs::Gauge* obs_memory_bytes_ = nullptr;
  obs::Gauge* obs_streams_ = nullptr;
  obs::Gauge* obs_queries_ = nullptr;
  obs::Counter* obs_checkpoint_saves_ = nullptr;
  obs::Counter* obs_checkpoint_restores_ = nullptr;
  obs::Counter* obs_trace_dropped_ = nullptr;
  /// Trace-ring dropped() value already exported (delta pattern, like
  /// QueryObs::cells_pruned_exported).
  int64_t trace_dropped_exported_ = 0;
};

}  // namespace monitor
}  // namespace springdtw

#endif  // SPRINGDTW_MONITOR_ENGINE_H_
