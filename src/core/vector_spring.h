#ifndef SPRINGDTW_CORE_VECTOR_SPRING_H_
#define SPRINGDTW_CORE_VECTOR_SPRING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/match.h"
#include "core/spring.h"
#include "ts/vector_series.h"
#include "util/memory.h"
#include "util/status.h"

namespace springdtw {
namespace core {

/// SPRING over "vector streams" (paper Section 5.3): every tick carries k
/// numbers and the query is a k-dimensional sequence of m ticks. The local
/// distance is summed over channels (squared L2 by default), which leaves
/// the STWM recurrences — and all of SPRING's guarantees — unchanged.
///
/// Per the paper's motion-capture modification, the reported Match also
/// carries the start/end of the whole range of overlapping qualifying
/// subsequences (group_start / group_end), which is what the mocap
/// experiment displays per motion.
///
/// Complexity: O(k*m) time per tick, O(m) extra space beyond the query. A
/// one-query façade over the shared kernel (core/spring_kernel.h) with the
/// k-dim row distance policy.
class VectorSpringMatcher {
 public:
  /// `query` has m >= 1 ticks of k >= 1 channels each; its values and
  /// `options` must pass ValidateSpringQuery (CHECK-enforced).
  VectorSpringMatcher(ts::VectorSeries query, SpringOptions options);

  /// Processes the next tick, a span of exactly dims() values. Returns true
  /// when a disjoint-query match is reported into `*match`.
  bool Update(std::span<const double> row, Match* match);

  /// Reports a still-pending candidate at stream end.
  bool Flush(Match* match);

  bool has_best() const { return state_.has_best; }
  Match best() const { return state_.best; }
  int64_t ticks_processed() const { return state_.t; }
  bool has_pending_candidate() const { return state_.has_candidate; }

  /// Observability accessors — see SpringMatcher for semantics.
  double best_distance() const { return state_.best.distance; }
  double candidate_distance() const { return state_.dmin; }
  int64_t candidate_start() const { return state_.ts; }
  int64_t candidate_end() const { return state_.te; }
  int64_t cells_pruned_total() const { return state_.cells_pruned; }

  int64_t dims() const { return query_.dims(); }
  int64_t query_length() const { return query_.size(); }
  const SpringOptions& options() const { return state_.options; }

  /// Discards all stream state (keeps the query).
  void Reset();

  util::MemoryFootprint Footprint() const;

  /// Serializes the complete state into a versioned byte snapshot (see
  /// SpringMatcher::SerializeState). O(k*m) bytes.
  std::vector<uint8_t> SerializeState() const;

  /// Reconstructs a matcher from SerializeState() output; the restored
  /// matcher continues the stream identically.
  static util::StatusOr<VectorSpringMatcher> DeserializeState(
      std::span<const uint8_t> bytes);

 private:
  ts::VectorSeries query_;
  SpringState state_;
  // STWM rows with the star-padding row at index 0, as in SpringMatcher;
  // the live row is in the prev_ buffers between ticks.
  std::vector<double> d_;
  std::vector<double> d_prev_;
  std::vector<int64_t> s_;
  std::vector<int64_t> s_prev_;
};

}  // namespace core
}  // namespace springdtw

#endif  // SPRINGDTW_CORE_VECTOR_SPRING_H_
