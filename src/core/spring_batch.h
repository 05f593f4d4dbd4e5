#ifndef SPRINGDTW_CORE_SPRING_BATCH_H_
#define SPRINGDTW_CORE_SPRING_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/match.h"
#include "core/spring_kernel.h"
#include "ts/vector_series.h"
#include "util/memory.h"
#include "util/status.h"

namespace springdtw {
namespace core {

/// Pool policy for scalar streams: one value per tick, std::vector<double>
/// templates, SPR1 query snapshots (SpringMatcher's bytes).
struct ScalarPoolPolicy {
  template <typename Dist>
  using Distance = ScalarDistance<Dist>;
  using Query = std::vector<double>;
  static constexpr uint32_t kSnapshotMagic = kScalarSnapshotMagic;
  static std::span<const double> Values(const Query& query) { return query; }
  static int64_t Dims(const Query& /*query*/) { return 1; }
  static std::string Name(const Query& /*query*/) { return ""; }
};

/// Pool policy for k-dimensional streams: `dims` values per tick,
/// ts::VectorSeries templates, SPV2 query snapshots (VectorSpringMatcher's
/// bytes, series name included).
struct RowPoolPolicy {
  template <typename Dist>
  using Distance = RowDistance<Dist>;
  using Query = ts::VectorSeries;
  static constexpr uint32_t kSnapshotMagic = kVectorSnapshotMagic;
  static std::span<const double> Values(const Query& query) {
    return query.data();
  }
  static int64_t Dims(const Query& query) { return query.dims(); }
  static std::string Name(const Query& query) { return query.name(); }
};

/// One disjoint-query report produced by a pool's PushBatch / Flush.
struct SpringPoolReport {
  int64_t query_index = 0;
  Match match;
  /// Index within the PushBatch span of the tick that reported.
  int64_t batch_offset = 0;
};

/// The kernel's candidate / best-match signals are dropped.
struct NoSpringSignals {
  void CandidateOpened(int64_t /*index*/, const SpringState& /*state*/) {}
  void BestImproved(int64_t /*index*/, const SpringState& /*state*/) {}
};

/// Structure-of-arrays SPRING pool: advances *every* query attached to one
/// stream through the shared kernel (core/spring_kernel.h) in one
/// cache-friendly pass. All queries' STWM rows live in two contiguous
/// double-buffered arrays (UCR-suite-style batching: Rakthanmanon et al.,
/// KDD 2012, applied to the SPRING recurrence) with the star row implicit,
/// and PushBatch() processes a span of ticks query-major, so each query's
/// two rows stay in L1 for the entire batch.
///
/// Each slot behaves exactly like one SpringMatcher (VectorSpringMatcher for
/// the row pool) fed the same ticks: same reports, same best match, and
/// SerializeQuery() writes that matcher's snapshot bytes. Queries may be
/// added mid-stream (each keeps its own tick counter) and may use different
/// SpringOptions. The pool is single-threaded; shard pools across threads
/// for parallelism (docs/SCALEOUT.md).
template <typename Policy>
class BasicSpringPool {
 public:
  using Query = typename Policy::Query;
  using Report = SpringPoolReport;

  BasicSpringPool() = default;
  /// `dims` values per tick (row pools; scalar pools have 1).
  explicit BasicSpringPool(int64_t dims) : dims_(dims) {}

  BasicSpringPool(const BasicSpringPool&) = default;
  BasicSpringPool& operator=(const BasicSpringPool&) = default;
  BasicSpringPool(BasicSpringPool&&) = default;
  BasicSpringPool& operator=(BasicSpringPool&&) = default;

  /// Adds a fresh query (tick 0); returns its pool index. The query and
  /// options must pass ValidateSpringQuery and a row query must have
  /// dims() channels (CHECK-enforced).
  int64_t AddQuery(Query query, const SpringOptions& options);

  /// Adds a query resuming from SerializeQuery() / matcher snapshot bytes;
  /// returns its pool index, or an error for a corrupt, inadmissible or
  /// (row pool) wrong-dims snapshot.
  util::StatusOr<int64_t> AddQueryFromSnapshot(
      std::span<const uint8_t> bytes);

  /// Query `index`'s snapshot: the bytes SpringMatcher::SerializeState
  /// (VectorSpringMatcher's for the row pool) would produce for a matcher
  /// fed the same ticks.
  std::vector<uint8_t> SerializeQuery(int64_t index) const;

  /// Advances every query through `values` (dims() values per tick),
  /// query-major: each query consumes the whole span before the next query
  /// starts, so its DP rows stay hot. Reports are appended ordered by
  /// (tick, query index) — the order per-tick processing would produce.
  /// `signals` receives each query's candidate-opened / best-improved
  /// events as the kernel produces them (see NoSpringSignals). Returns the
  /// number of reports appended.
  template <typename Signals = NoSpringSignals>
  int64_t PushBatch(std::span<const double> values,
                    std::vector<Report>* reports, Signals signals = {});

  /// End-of-stream flush of every query's still-pending candidate
  /// (SpringMatcher::Flush semantics), appended in query-index order.
  int64_t Flush(std::vector<Report>* reports);

  /// Removes query `index` and compacts the pool; surviving indices past
  /// `index` decrement by one.
  ///
  /// A pending candidate is emitted into `*match` (returns true) iff it is
  /// already report-eligible under the Problem-2 rule — no current-row cell
  /// has d(t, i) < d_min with s(t, i) <= t_e, i.e. nothing still evolving
  /// could beat it. A candidate that might still be improved by in-flight
  /// cells is dropped (returns false): reporting it could emit an overlap
  /// of a better match the stream was about to produce.
  bool RemoveQuery(int64_t index, Match* match);

  int64_t num_queries() const {
    return static_cast<int64_t>(queries_.size());
  }
  int64_t dims() const { return dims_; }

  /// Query `index`'s live kernel state (tick counter, candidate, best
  /// match, counters).
  const SpringState& state(int64_t index) const { return at(index).state; }
  int64_t query_length(int64_t index) const { return state(index).m; }
  int64_t cells_computed_total(int64_t index) const {
    return state(index).cells_computed;
  }

  /// Aggregate working-set bytes (rows + query values + per-query state).
  util::MemoryFootprint Footprint() const;

 private:
  /// One query's kernel state plus its segment [row_offset, row_offset + m)
  /// of the row arrays and its template in query_values_.
  struct Slot {
    int64_t query_offset = 0;
    int64_t row_offset = 0;
    SpringState state;
  };

  const Slot& at(int64_t index) const;

  /// Appends a fresh slot for an admitted template; returns its index.
  int64_t AppendSlot(std::span<const double> values,
                     const SpringOptions& options, std::string name);

  /// Runs query `index` through `ticks` ticks of `values`.
  template <typename Distance, typename Signals>
  void RunQuery(int64_t index, std::span<const double> values, int64_t ticks,
                std::vector<Report>* reports, Signals& signals);

  int64_t dims_ = 1;
  std::vector<Slot> queries_;
  std::vector<double> query_values_;  // Concatenated templates.
  std::vector<std::string> names_;    // Series names (SPV2 only).

  // Double-buffered SoA rows for all queries. rows_[parity_] holds the
  // previous tick's rows ("prev"), rows_[1 - parity_] is scratch for the
  // tick being computed; parity flips once per consumed tick.
  std::vector<double> d_rows_[2];
  std::vector<int64_t> s_rows_[2];
  int parity_ = 0;
};

using SpringBatchPool = BasicSpringPool<ScalarPoolPolicy>;
using VectorSpringPool = BasicSpringPool<RowPoolPolicy>;

template <typename Policy>
template <typename Distance, typename Signals>
void BasicSpringPool<Policy>::RunQuery(int64_t index,
                                       std::span<const double> values,
                                       int64_t ticks,
                                       std::vector<Report>* reports,
                                       Signals& signals) {
  Slot& slot = queries_[static_cast<size_t>(index)];
  SpringState& q = slot.state;
  const double* y = query_values_.data() + slot.query_offset;
  Match match;
  // Tick j reads buffer (parity_ + j) & 1 as "previous" and writes the
  // other one.
  for (int64_t j = 0; j < ticks; ++j) {
    const int prev = (parity_ + static_cast<int>(j & 1)) & 1;
    const unsigned events = SpringStep(
        q, Distance(values.data() + j * dims_, y, dims_),
        d_rows_[prev].data() + slot.row_offset,
        s_rows_[prev].data() + slot.row_offset,
        d_rows_[prev ^ 1].data() + slot.row_offset,
        s_rows_[prev ^ 1].data() + slot.row_offset,
        reports != nullptr ? &match : nullptr);
    if ((events & kSpringCandidateOpened) != 0) {
      signals.CandidateOpened(index, q);
    }
    if ((events & kSpringBestImproved) != 0) signals.BestImproved(index, q);
    if ((events & kSpringReported) != 0 && reports != nullptr) {
      reports->push_back(Report{index, match, j});
    }
  }
}

template <typename Policy>
template <typename Signals>
int64_t BasicSpringPool<Policy>::PushBatch(std::span<const double> values,
                                           std::vector<Report>* reports,
                                           Signals signals) {
  const int64_t ticks = static_cast<int64_t>(values.size()) / dims_;
  const size_t first_report = reports != nullptr ? reports->size() : 0;
  for (int64_t index = 0; index < num_queries(); ++index) {
    WithLocalDistance(queries_[static_cast<size_t>(index)]
                          .state.options.local_distance,
                      [&](auto dist) {
                        using Distance = typename Policy::template Distance<
                            decltype(dist)>;
                        RunQuery<Distance>(index, values, ticks, reports,
                                           signals);
                      });
  }
  parity_ = (parity_ + static_cast<int>(ticks & 1)) & 1;
  if (reports == nullptr) return 0;
  // Restore the order per-tick processing would produce: by tick, then by
  // query index (stable for equal keys).
  const auto first =
      reports->begin() + static_cast<std::ptrdiff_t>(first_report);
  std::stable_sort(first, reports->end(),
                   [](const Report& a, const Report& b) {
                     return a.batch_offset < b.batch_offset;
                   });
  return static_cast<int64_t>(reports->size() - first_report);
}

}  // namespace core
}  // namespace springdtw

#endif  // SPRINGDTW_CORE_SPRING_BATCH_H_
