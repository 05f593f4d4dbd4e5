#ifndef SPRINGDTW_CORE_SPRING_KERNEL_H_
#define SPRINGDTW_CORE_SPRING_KERNEL_H_

// The one implementation of SPRING (Sakurai, Faloutsos, Yamamuro, ICDE
// 2007): the Equation 7/8 column update of the star-padded subsequence time
// warping matrix (STWM), best-match tracking (Problem 1), the Figure-4
// disjoint-query report / kill / capture / group rule (Problem 2), and the
// snapshot codec. SpringMatcher, VectorSpringMatcher, SpringPathMatcher and
// the batch pools (core/spring_batch.h) only own storage and call in here.
//
// Row layout: every function takes one query's STWM rows i = 1..m as m
// contiguous cells (cell i - 1). The star-padding row i = 0 is implicit:
// d(t, 0) = 0 and s(t, 0) = t.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/invariants.h"
#include "core/match.h"
#include "dtw/local_distance.h"
#include "util/codec.h"
#include "util/status.h"

namespace springdtw {
namespace core {

inline constexpr double kSpringInf = std::numeric_limits<double>::infinity();

/// Options shared by the SPRING matchers.
struct SpringOptions {
  /// Disjoint-query threshold epsilon. Subsequences with DTW distance
  /// <= epsilon qualify. Irrelevant for pure best-match use (a negative
  /// epsilon disables reporting); set to +infinity to make every
  /// subsequence qualify.
  double epsilon = 0.0;
  /// Tick-to-tick distance; the paper's default is the squared difference.
  dtw::LocalDistance local_distance = dtw::LocalDistance::kSquared;
  /// Extension (not in the paper): if > 0, warping paths spanning more than
  /// this many stream ticks are pruned, bounding how far a match may
  /// stretch relative to the query (akin to a global constraint for the
  /// subsequence case). 0 means unlimited, the paper's semantics. Matches
  /// and best-match results then never exceed this length.
  int64_t max_match_length = 0;
  /// Extension (not in the paper): matches whose *optimal* alignment spans
  /// fewer than this many stream ticks do not qualify for disjoint-query
  /// reporting (best-match tracking also skips them). This is a report
  /// filter, not a constrained search: if a shorter alignment dominates the
  /// STWM cell, a longer-but-worse alignment of the same region is not
  /// resurrected. 0 means no minimum. Useful to suppress degenerate
  /// few-tick matches under loose epsilons.
  int64_t min_match_length = 0;
};

/// The admission rule for a SPRING query, applied by every matcher, pool,
/// engine and snapshot reader: a non-empty template of finite values (an
/// infinite element meeting an infinite tick would yield NaN distances), a
/// non-NaN epsilon, non-negative length bounds and a known local distance.
/// A negative epsilon stays legal: it selects best-match-only use.
util::Status ValidateSpringQuery(std::span<const double> values,
                                 const SpringOptions& options);

/// One query's live SPRING state apart from its template and STWM rows: the
/// tick counter, the paper's Figure-4 candidate (d_min, t_s, t_e) and group
/// extent, the running best match, and diagnostic counters.
struct SpringState {
  int64_t m = 0;  // Query length in ticks.
  SpringOptions options;
  int64_t t = 0;  // Next tick index == ticks consumed.
  bool has_candidate = false;
  double dmin = kSpringInf;
  int64_t ts = 0;
  int64_t te = 0;
  int64_t group_start = 0;
  int64_t group_end = 0;
  bool has_best = false;
  Match best;
  /// Cells pruned by max_match_length / computed (m per tick). Diagnostic
  /// only: not serialized, so a restored query restarts at 0.
  int64_t cells_pruned = 0;
  int64_t cells_computed = 0;
  /// End of the last reported match (-1 before any), for the debug-gated
  /// disjointness check. Not serialized.
  int64_t last_report_end = -1;
};

/// Distance policy for scalar streams: the tick `x` against query element i.
template <typename Dist>
struct ScalarDistance {
  ScalarDistance(const double* tick, const double* query, int64_t /*dims*/)
      : x(*tick), y(query) {}
  double operator()(int64_t i) const { return Dist()(x, y[i]); }
  double x;
  const double* y;
};

/// Distance policy for k-dimensional streams (paper Section 5.3): the
/// scalar distance summed over channels, row i of the query against the
/// tick's row.
template <typename Dist>
struct RowDistance {
  RowDistance(const double* tick, const double* query, int64_t dims)
      : x(tick), y(query), k(dims) {}
  double operator()(int64_t i) const {
    const double* yi = y + i * k;
    double total = 0.0;
    for (int64_t c = 0; c < k; ++c) total += Dist()(x[c], yi[c]);
    return total;
  }
  const double* x;
  const double* y;
  int64_t k;
};

/// Calls `fn` with the functor for `kind`, so each hot loop is instantiated
/// once per local distance.
template <typename Fn>
decltype(auto) WithLocalDistance(dtw::LocalDistance kind, Fn&& fn) {
  if (kind == dtw::LocalDistance::kAbsolute) {
    return fn(dtw::AbsoluteDistance());
  }
  return fn(dtw::SquaredDistance());
}

/// What one tick did to a query, as bits of SpringStep's result.
enum SpringEvent : unsigned {
  kSpringReported = 1u,           // A Figure-4 match was reported.
  kSpringCandidateOpened = 2u,    // Captured a candidate where none was
                                  // pending.
  kSpringCandidateCaptured = 4u,  // Captured or replaced the candidate.
  kSpringBestImproved = 8u,       // The running best match improved.
};

/// The max_match_length extension: a path that started at tick `s` spans
/// too many ticks at tick `t`.
inline bool ExceedsMaxLength(int64_t max_match_length, int64_t t,
                             int64_t s) {
  return max_match_length > 0 && t - s + 1 > max_match_length;
}

/// Figure 4's report condition for the column d/s: a qualifying candidate
/// is pending and no cell can still undercut it within its group
/// (d(t, i) >= d_min or s(t, i) > t_e for every row i >= 1).
inline bool SpringCanReport(const SpringState& q, const double* d,
                            const int64_t* s) {
  if (!q.has_candidate || q.dmin > q.options.epsilon) return false;
  for (int64_t i = 0; i < q.m; ++i) {
    if (d[i] < q.dmin && s[i] <= q.te) return false;
  }
  return true;
}

/// The pending candidate as a match committed at `report_time`.
inline Match SpringCandidate(const SpringState& q, int64_t report_time) {
  return Match{q.ts, q.te, q.dmin, report_time, q.group_start, q.group_end};
}

/// Commits the pending candidate: clears it and kills every cell whose path
/// started inside the reported group, so later candidates are disjoint.
inline void SpringKill(SpringState& q, double* d, const int64_t* s) {
  q.last_report_end = q.te;
  q.dmin = kSpringInf;
  q.has_candidate = false;
  for (int64_t i = 0; i < q.m; ++i) {
    if (s[i] <= q.te) d[i] = kSpringInf;
  }
}

namespace internal {
/// Debug-gated invariant wiring (docs/CORRECTNESS.md): a full column view
/// with the star row materialized into thread-local scratch, and a CHECK
/// on a checker's result.
invariants::StwmColumn CheckedColumn(const SpringState& q,
                                     const double* d_prev,
                                     const int64_t* s_prev, const double* d,
                                     const int64_t* s);
void Require(const std::string& violation);
}  // namespace internal

/// Everything after the column update of tick q.t, in the paper's order:
/// best-match tracking, then Figure 4 — the report check against the fresh
/// column d/s (with the post-report kill), then the candidate capture with
/// this tick's d_m and the group extent. Advances q.t. Returns SpringEvent
/// bits; a report is written to `*match` when non-null.
inline unsigned SpringTail(SpringState& q, const double* d_prev,
                           const int64_t* s_prev, double* d,
                           const int64_t* s, Match* match) {
  const int64_t t = q.t;
#if SPRINGDTW_ENABLE_INVARIANT_CHECKS
  // The report check below reads this copy, taken before the kill.
  const invariants::StwmColumn column =
      internal::CheckedColumn(q, d_prev, s_prev, d, s);
  internal::Require(invariants::CheckColumn(column));
  const double prev_best = q.has_best ? q.best.distance : kSpringInf;
#else
  (void)d_prev;
  (void)s_prev;
#endif
  unsigned events = 0;
  const double dm = d[q.m - 1];
  const int64_t sm = s[q.m - 1];
  const bool long_enough = q.options.min_match_length <= 0 ||
                           t - sm + 1 >= q.options.min_match_length;

  // --- Best-match tracking (Problem 1 / Theorem 1). ---
  if (long_enough && (!q.has_best || dm < q.best.distance)) {
    q.has_best = true;
    q.best = Match{sm, t, dm, t, sm, t};
    events |= kSpringBestImproved;
  }
#if SPRINGDTW_ENABLE_INVARIANT_CHECKS
  if (q.has_best) internal::Require(invariants::CheckBest(q.best, prev_best));
#endif

  // --- Disjoint-query algorithm (Figure 4), verbatim order: first the
  // report check against the current column, then the candidate update
  // with this tick's d_m. ---
  if (SpringCanReport(q, d, s)) {
    if (match != nullptr) *match = SpringCandidate(q, t);
#if SPRINGDTW_ENABLE_INVARIANT_CHECKS
    internal::Require(invariants::CheckReport(column, SpringCandidate(q, t),
                                              q.options.epsilon,
                                              q.last_report_end));
#endif
    SpringKill(q, d, s);
    events |= kSpringReported;
  }

  // Candidate capture / replacement. Note d_m may have just been killed.
  const double dm_after = d[q.m - 1];
  if (dm_after <= q.options.epsilon && long_enough) {
    if (dm_after < q.dmin) {
      q.dmin = dm_after;
      q.ts = sm;
      q.te = t;
      if (!q.has_candidate) {
        q.group_start = sm;
        q.group_end = t;
        events |= kSpringCandidateOpened;
      }
      q.has_candidate = true;
      events |= kSpringCandidateCaptured;
    }
    // Track the group of *all* qualifying overlapping subsequences
    // (Section 5.3 extension: report the range of the group).
    if (q.has_candidate) {
      q.group_start = std::min(q.group_start, sm);
      q.group_end = std::max(q.group_end, t);
    }
  }
#if SPRINGDTW_ENABLE_INVARIANT_CHECKS
  if (q.has_candidate) {
    internal::Require(invariants::CheckCandidate(
        column, q.dmin, q.ts, q.te, q.group_start, q.group_end,
        q.options.epsilon));
  }
#endif
  ++q.t;
  return events;
}

/// One SPRING tick for one query: the STWM column update of Equations (7)
/// and (8) from the previous column d_prev/s_prev into d/s, with the
/// max_match_length prune, followed by SpringTail. `local(i)` is the
/// distance policy's local distance between this tick and query element i.
/// O(m), allocation-free. Returns SpringEvent bits.
template <typename Distance>
inline unsigned SpringStep(SpringState& q, const Distance& local,
                           const double* d_prev, const int64_t* s_prev,
                           double* d, int64_t* s, Match* match) {
  const int64_t m = q.m;
  const int64_t t = q.t;
  const int64_t max_length = q.options.max_match_length;
  int64_t pruned = 0;
  double d_here = 0.0;  // d(t, i-1), starts at the star row.
  int64_t s_here = t;   // s(t, i-1)
  double d_diag = 0.0;  // d(t-1, i-1)
  int64_t s_diag = t - 1;
  for (int64_t i = 0; i < m; ++i) {
    const double d_up = d_prev[i];  // d(t-1, i)
    const int64_t s_up = s_prev[i];
    double dbest = d_here;
    if (d_up < dbest) dbest = d_up;
    if (d_diag < dbest) dbest = d_diag;
    double d_new = local(i) + dbest;
    // Tie-break order follows Equation (8): (t, i-1), (t-1, i), (t-1, i-1).
    int64_t s_new;
    if (d_here == dbest) {
      s_new = s_here;
    } else if (d_up == dbest) {
      s_new = s_up;
    } else {
      s_new = s_diag;
    }
    if (ExceedsMaxLength(max_length, t, s_new)) {
      d_new = kSpringInf;
      ++pruned;
    }
    d[i] = d_new;
    s[i] = s_new;
    d_here = d_new;
    s_here = s_new;
    d_diag = d_up;
    s_diag = s_up;
  }
  q.cells_computed += m;
  q.cells_pruned += pruned;
  return SpringTail(q, d_prev, s_prev, d, s, match);
}

/// End-of-stream flush: reports a still-pending qualifying candidate and
/// kills its group on the live rows d/s, so resuming the stream cannot
/// re-report an overlap. Returns true when `*match` (may be null) was
/// filled.
bool SpringFlush(SpringState& q, double* d, const int64_t* s, Match* match);

/// Snapshot magics. Both layouts are
///   magic, version, options, <query>, rows, state
/// where <query> is the template (SPR1) or dims, name and row-major values
/// (SPV2), and the rows include the star row.
inline constexpr uint32_t kScalarSnapshotMagic = 0x53505231;  // "SPR1"
inline constexpr uint32_t kVectorSnapshotMagic = 0x53505632;  // "SPV2"

/// Appends one query's complete snapshot: `values` is the template
/// row-major (`dims` values per tick); SPV2 also carries dims and `name`.
/// d/s are the live rows.
void WriteSpringSnapshot(util::ByteWriter* writer, uint32_t magic,
                         const SpringState& q, std::span<const double> values,
                         int64_t dims, const std::string& name,
                         const double* d, const int64_t* s);

/// A snapshot's options and template, read before the caller allocates the
/// query's rows.
struct SpringTemplate {
  SpringOptions options;
  std::vector<double> values;  // Row-major, `dims` values per tick.
  int64_t dims = 1;
  std::string name;  // SPV2 only.
  int64_t length() const {
    return static_cast<int64_t>(values.size()) / dims;
  }
};

/// Reads the header and template of a `magic` snapshot and admits them
/// (ValidateSpringQuery).
util::Status ReadSpringTemplate(util::ByteReader* reader, uint32_t magic,
                                SpringTemplate* tmpl);

/// Reads the rest of the snapshot — the rows and the state — into `q`
/// (whose m and options must already be set) and the rows d/s. Rejects
/// structurally broken input and state no live matcher could have been
/// in, so resuming cannot violate the STWM invariants.
util::Status ReadSpringBody(util::ByteReader* reader, SpringState* q,
                            double* d, int64_t* s);

}  // namespace core
}  // namespace springdtw

#endif  // SPRINGDTW_CORE_SPRING_KERNEL_H_
