#ifndef SPRINGDTW_CORE_SPRING_H_
#define SPRINGDTW_CORE_SPRING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/match.h"
#include "core/spring_kernel.h"
#include "util/memory.h"
#include "util/status.h"

namespace springdtw {
namespace core {

/// SPRING: streaming subsequence matching under the DTW distance
/// (Sakurai, Faloutsos, Yamamuro, ICDE 2007).
///
/// Feed the stream one value per tick with Update(); the matcher maintains
/// the star-padded subsequence time warping matrix (STWM) in O(m) space and
/// O(m) time per tick (m = query length), and
///  * reports disjoint-query matches (Problem 2) exactly per the paper's
///    Figure 4 algorithm: every group of overlapping qualifying subsequences
///    yields its local-minimum subsequence, reported as early as the
///    optimality can be guaranteed, with no false dismissals;
///  * tracks the running best-match (Problem 1) at no extra cost.
///
/// A subtlety of the published algorithm that callers should know: after a
/// report, the STWM cells of the reported group are killed, so a *later*
/// match whose isolated-optimal alignment would have routed through the
/// killed group reports a distance that can slightly exceed the DTW distance
/// of its interval computed in isolation (never undercut it, and never
/// above epsilon). Positions and the no-false-dismissal guarantees are
/// unaffected.
///
/// The hot path performs no heap allocation and never throws. This class is
/// a one-query façade over the shared kernel (core/spring_kernel.h); the
/// batch pool (core/spring_batch.h) runs the same kernel over many queries.
///
/// Example:
///   SpringMatcher matcher(query, {.epsilon = 100.0});
///   Match match;
///   for (double x : stream) {
///     if (matcher.Update(x, &match)) Report(match);
///   }
///   if (matcher.Flush(&match)) Report(match);  // Finite streams only.
class SpringMatcher {
 public:
  /// `query` is Y = (y_1 .. y_m), m >= 1 (the star-padding y_0 is implicit).
  /// `query` and `options` must pass ValidateSpringQuery (CHECK-enforced).
  SpringMatcher(std::vector<double> query, SpringOptions options);

  SpringMatcher(const SpringMatcher&) = default;
  SpringMatcher& operator=(const SpringMatcher&) = default;
  SpringMatcher(SpringMatcher&&) = default;
  SpringMatcher& operator=(SpringMatcher&&) = default;

  /// Processes the next stream value. Returns true if a disjoint-query match
  /// is reported at this tick, filling `*match` (match may be null if the
  /// caller only wants best-match tracking). O(m), allocation-free.
  bool Update(double x, Match* match);

  /// If a qualifying candidate is still pending (its group never closed
  /// because the stream ended), reports it. Only meaningful for finite
  /// streams; a semi-infinite stream never calls this.
  bool Flush(Match* match);

  /// Number of ticks consumed so far.
  int64_t ticks_processed() const { return state_.t; }

  /// Best-match tracking (Problem 1): true once any subsequence exists.
  bool has_best() const { return state_.has_best; }
  /// The minimum-distance subsequence seen so far. Requires has_best().
  Match best() const { return state_.best; }

  /// True if a qualifying candidate is currently captured but not reported.
  bool has_pending_candidate() const { return state_.has_candidate; }

  /// Current best distance; meaningless before has_best().
  double best_distance() const { return state_.best.distance; }
  /// Pending candidate's d_min / t_s / t_e; meaningless before
  /// has_pending_candidate().
  double candidate_distance() const { return state_.dmin; }
  int64_t candidate_start() const { return state_.ts; }
  int64_t candidate_end() const { return state_.te; }
  /// Pending candidate's warping-group extent (the span all overlapping
  /// qualifying subsequences cover); meaningless before
  /// has_pending_candidate().
  int64_t candidate_group_start() const { return state_.group_start; }
  int64_t candidate_group_end() const { return state_.group_end; }
  /// STWM cells pruned by the max_match_length constraint since
  /// construction or Reset(). Diagnostic only: not serialized, so a
  /// restored matcher restarts at 0.
  int64_t cells_pruned_total() const { return state_.cells_pruned; }
  /// STWM cells computed since construction or Reset() — exactly m per
  /// Update(), the paper's O(m)-per-tick cost made countable for per-query
  /// accounting. Diagnostic only: not serialized, so a restored matcher
  /// restarts at 0.
  int64_t cells_computed_total() const { return state_.cells_computed; }

  /// Query length m.
  int64_t query_length() const {
    return static_cast<int64_t>(query_.size());
  }
  const std::vector<double>& query() const { return query_; }
  const SpringOptions& options() const { return state_.options; }

  /// Discards all stream state (keeps the query); the next Update() is
  /// tick 0 again.
  void Reset();

  /// Working-set bytes (the quantity of the paper's Figure 8).
  util::MemoryFootprint Footprint() const;

  /// Serializes the matcher's complete state — query, options, DP rows,
  /// pending candidate, best-match — into a versioned byte snapshot, so a
  /// monitoring process can checkpoint and resume a stream after a restart
  /// without replaying history. O(m) bytes.
  std::vector<uint8_t> SerializeState() const;

  /// Reconstructs a matcher from SerializeState() output. Feeding the
  /// restored matcher the remainder of the stream yields byte-for-byte the
  /// same reports the original would have produced. Fails on truncated,
  /// corrupt, or version-mismatched input.
  static util::StatusOr<SpringMatcher> DeserializeState(
      std::span<const uint8_t> bytes);

  /// Diagnostics / testing: the STWM row produced by the last Update() —
  /// index i in [0, m] holds d(t, i) / s(t, i) of the star-padded matrix
  /// (i = 0 is the star row: d = 0, s = t). Valid until the next Update().
  std::span<const double> LastRowDistances() const;
  std::span<const int64_t> LastRowStarts() const;

 private:
  std::vector<double> query_;
  SpringState state_;

  // STWM rows, index 0 being the star-padding row (d = 0, s = t). After
  // Update() returns, the freshly computed row lives in the prev_ buffers
  // (rows are swapped at the end of each tick so the next tick reads them
  // as "previous").
  std::vector<double> d_;
  std::vector<double> d_prev_;
  std::vector<int64_t> s_;
  std::vector<int64_t> s_prev_;
};

}  // namespace core
}  // namespace springdtw

#endif  // SPRINGDTW_CORE_SPRING_H_
