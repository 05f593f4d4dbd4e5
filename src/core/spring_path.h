#ifndef SPRINGDTW_CORE_SPRING_PATH_H_
#define SPRINGDTW_CORE_SPRING_PATH_H_

#include <cstdint>
#include <vector>

#include "core/match.h"
#include "core/spring.h"
#include "dtw/dtw.h"
#include "util/memory.h"

namespace springdtw {
namespace core {

/// A disjoint-query match together with the optimal warping path that
/// produced it: pairs of (stream tick, query index), both 0-based, in
/// increasing order from the match's start to its end.
struct PathMatch {
  Match match;
  std::vector<dtw::PathStep> path;
};

/// SPRING with warping-path tracking — the "SPRING(path)" variant of the
/// paper's Figure 8. Besides the O(m) STWM rows, every live cell keeps a
/// node in a reference-counted path arena; dead branches are reclaimed as
/// rows advance, so memory grows only with the warping paths that are still
/// reachable ("the space requirement ... depends on the captured data"),
/// far below the naive method's O(n*m).
///
/// The reported matches (positions, distances, report times) are identical
/// to SpringMatcher's, length options included: each tick is the shared
/// kernel's SpringStep over full columns (core/spring_kernel.h), whose
/// cell hook adds only the path-node bookkeeping. Per-tick cost is still O(m),
/// allocation-free once the arena has warmed up (freed nodes are recycled
/// through a free list).
class SpringPathMatcher {
 public:
  SpringPathMatcher(std::vector<double> query, SpringOptions options);

  // The arena holds raw indices; moves are fine, copies are not meaningful.
  SpringPathMatcher(const SpringPathMatcher&) = delete;
  SpringPathMatcher& operator=(const SpringPathMatcher&) = delete;
  SpringPathMatcher(SpringPathMatcher&&) = default;
  SpringPathMatcher& operator=(SpringPathMatcher&&) = default;

  /// Processes one value; fills `*match` (with path) when a disjoint-query
  /// match is reported. `match` may be null.
  bool Update(double x, PathMatch* match);

  /// Reports a still-pending candidate at stream end.
  bool Flush(PathMatch* match);

  bool has_best() const { return state_.has_best; }
  Match best() const { return state_.best; }
  int64_t ticks_processed() const { return state_.t; }
  int64_t query_length() const {
    return static_cast<int64_t>(query_.size());
  }

  /// Number of path-arena nodes currently alive (reachable from live cells
  /// or the pending candidate).
  int64_t live_nodes() const { return live_nodes_; }

  /// Working-set bytes including the path arena (Figure 8's middle curve).
  util::MemoryFootprint Footprint() const;

 private:
  struct PathNode {
    int64_t t = 0;       // Stream tick of this cell.
    int32_t i = 0;       // Query row of this cell (1-based, as in the STWM).
    int32_t refcount = 0;
    int64_t parent = -1; // Predecessor node; reused as free-list link.
  };

  int64_t NewNode(int64_t parent, int64_t t, int32_t i);
  void Ref(int64_t node);
  void Unref(int64_t node);
  /// Fills `*out` (may be null) with `match` and the pending candidate's
  /// path, then releases the candidate's pin.
  void EmitCandidate(const Match& match, PathMatch* out);

  std::vector<double> query_;
  SpringState state_;

  std::vector<double> d_;
  std::vector<double> d_prev_;
  std::vector<int64_t> s_;
  std::vector<int64_t> s_prev_;
  std::vector<int64_t> node_;       // Arena index per cell; -1 for the star row.
  std::vector<int64_t> node_prev_;

  std::vector<PathNode> nodes_;
  int64_t free_head_ = -1;
  int64_t live_nodes_ = 0;

  int64_t candidate_node_ = -1;  // Pinned path of the pending candidate.
};

}  // namespace core
}  // namespace springdtw

#endif  // SPRINGDTW_CORE_SPRING_PATH_H_
