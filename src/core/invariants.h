#ifndef SPRINGDTW_CORE_INVARIANTS_H_
#define SPRINGDTW_CORE_INVARIANTS_H_

#include <cstdint>
#include <span>
#include <string>

#include "core/match.h"

/// Compile-time gate for the STWM invariant checks wired into the SPRING
/// matchers and the monitor engine. On by default in debug builds, compiled
/// out entirely (zero cost, no branches) in NDEBUG builds. Sanitizer
/// presets force it on via SPRINGDTW_FORCE_INVARIANT_CHECKS so the asan /
/// ubsan / tsan legs also verify the algorithmic invariants.
#ifndef SPRINGDTW_ENABLE_INVARIANT_CHECKS
#if defined(SPRINGDTW_FORCE_INVARIANT_CHECKS) || !defined(NDEBUG)
#define SPRINGDTW_ENABLE_INVARIANT_CHECKS 1
#else
#define SPRINGDTW_ENABLE_INVARIANT_CHECKS 0
#endif
#endif

namespace springdtw {
namespace core {

class SpringMatcher;
class VectorSpringMatcher;

namespace invariants {

/// One STWM column (the paper's d(t, i) / s(t, i) for a fixed t) plus the
/// previous column, as the matcher holds them right after the DP update of
/// tick `t` and before the end-of-tick row swap. Index 0 is the
/// star-padding row.
struct StwmColumn {
  std::span<const double> d;
  std::span<const int64_t> s;
  std::span<const double> d_prev;
  std::span<const int64_t> s_prev;
  int64_t t = 0;
};

/// Every checker returns an empty string when the invariant holds and a
/// human-readable description of the first violation otherwise. They are
/// always compiled (so tests can exercise them in any build mode); only the
/// call sites inside the matchers are gated on
/// SPRINGDTW_ENABLE_INVARIANT_CHECKS.

/// Per-tick structural properties of the freshly computed column:
///  * star-padding row is identically zero: d(t, 0) = 0, s(t, 0) = t;
///  * every cell distance is non-negative (+inf for killed/pruned cells,
///    never NaN);
///  * every finite cell's starting position lies in [0, t];
///  * every finite cell inherited its starting position from one of its
///    three STWM predecessors (Equation 8): s(t, i) is one of
///    s(t, i-1), s(t-1, i), s(t-1, i-1).
std::string CheckColumn(const StwmColumn& col);

/// ε-frontier soundness of a column update that computed rows 1..computed
/// and stored `frontier` (docs/ALGORITHM.md §6), on a column view that
/// shows dead and uncomputed cells as +∞ (the kernel's CheckedColumn):
///  * no skipped row i > computed has a predecessor d(t, i-1),
///    d(t-1, i) or d(t-1, i-1) at or below `bound`, so skipping it
///    cannot hide a live cell;
///  * the stored frontier lies within the computed rows and at or above
///    the highest computed row with d <= bound.
std::string CheckFrontier(const StwmColumn& col, double bound,
                          int64_t computed, int64_t frontier);

/// Properties of a captured-but-unreported candidate (the paper's d_min,
/// t_s, t_e): 0 <= d_min <= epsilon, 0 <= t_s <= t_e <= t, and the
/// candidate lies inside its group's extent.
std::string CheckCandidate(const StwmColumn& col, double dmin, int64_t ts,
                           int64_t te, int64_t group_start, int64_t group_end,
                           double epsilon);

/// Properties that must hold at the moment a disjoint-query match is
/// reported (checked against the column *before* the post-report kill):
///  * the match qualifies: 0 <= distance <= epsilon, start <= end,
///    end < report tick;
///  * report-as-early-as-possible: for every cell i,
///    d(t, i) >= d_min OR s(t, i) > t_e — no in-flight warping path could
///    still undercut the candidate within its group;
///  * disjointness: the match starts strictly after the previously
///    reported match ended (`last_report_end`, -1 when none).
std::string CheckReport(const StwmColumn& col, const Match& match,
                        double epsilon, int64_t last_report_end);

/// Best-match (Problem 1) sanity: distance >= 0 and never increasing
/// relative to `prev_distance` (+inf when there was no previous best),
/// 0 <= start <= end <= report_time.
std::string CheckBest(const Match& best, double prev_distance);

/// Checkpoint round-trip equivalence: SerializeState -> DeserializeState ->
/// SerializeState must reproduce the exact same bytes. Re-entrant calls
/// (from the serialize path under the debug gate) short-circuit to OK.
std::string CheckSnapshotRoundTrip(const SpringMatcher& matcher);
std::string CheckSnapshotRoundTrip(const VectorSpringMatcher& matcher);

}  // namespace invariants
}  // namespace core
}  // namespace springdtw

#endif  // SPRINGDTW_CORE_INVARIANTS_H_
