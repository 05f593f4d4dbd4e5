#include "core/spring_path.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace springdtw {
namespace core {

SpringPathMatcher::SpringPathMatcher(std::vector<double> query,
                                     SpringOptions options)
    : query_(std::move(query)) {
  const util::Status admitted = ValidateSpringQuery(query_, options);
  SPRINGDTW_CHECK(admitted.ok()) << admitted.ToString();
  state_.m = static_cast<int64_t>(query_.size());
  state_.options = options;
  const size_t rows = query_.size() + 1;
  d_.assign(rows, kSpringInf);
  d_prev_.assign(rows, kSpringInf);
  s_.assign(rows, 0);
  s_prev_.assign(rows, 0);
  node_.assign(rows, -1);
  node_prev_.assign(rows, -1);
  d_[0] = 0.0;
  d_prev_[0] = 0.0;
}

int64_t SpringPathMatcher::NewNode(int64_t parent, int64_t t, int32_t i) {
  int64_t idx;
  if (free_head_ >= 0) {
    idx = free_head_;
    free_head_ = nodes_[static_cast<size_t>(idx)].parent;
  } else {
    idx = static_cast<int64_t>(nodes_.size());
    nodes_.emplace_back();
  }
  PathNode& node = nodes_[static_cast<size_t>(idx)];
  node.t = t;
  node.i = i;
  node.refcount = 1;  // The owning row slot.
  node.parent = parent;
  if (parent >= 0) ++nodes_[static_cast<size_t>(parent)].refcount;
  ++live_nodes_;
  return idx;
}

void SpringPathMatcher::Ref(int64_t node) {
  if (node >= 0) ++nodes_[static_cast<size_t>(node)].refcount;
}

void SpringPathMatcher::Unref(int64_t node) {
  while (node >= 0) {
    PathNode& n = nodes_[static_cast<size_t>(node)];
    if (--n.refcount > 0) break;
    const int64_t parent = n.parent;
    n.parent = free_head_;  // Reuse the parent field as the free-list link.
    free_head_ = node;
    --live_nodes_;
    node = parent;
  }
}

bool SpringPathMatcher::Update(double x, PathMatch* match) {
  const int64_t t = state_.t;
  // The kernel's column update, plus one path node per cell recording
  // which predecessor its path came through.
  const auto record_path = [this, t](int64_t i, int predecessor) {
    const size_t row = static_cast<size_t>(i) + 1;
    const int64_t parent = predecessor == 0   ? node_[row - 1]
                           : predecessor == 1 ? node_prev_[row]
                                              : node_prev_[row - 1];
    // The slot still holds the node of the row from two ticks ago; release
    // it before installing this cell's node.
    Unref(node_[row]);
    node_[row] = NewNode(parent, t, static_cast<int32_t>(row));
  };
  Match reported;
  const unsigned events = WithLocalDistance(
      state_.options.local_distance, [&](auto dist) {
        using Dist = decltype(dist);
        return SpringStep(state_, ScalarDistance<Dist>(&x, query_.data(), 1),
                          d_prev_.data() + 1, s_prev_.data() + 1,
                          d_.data() + 1, s_.data() + 1, &reported,
                          record_path);
      });
  if ((events & kSpringReported) != 0) EmitCandidate(reported, match);
  if ((events & kSpringCandidateCaptured) != 0) {
    // Pin the candidate's path so row churn cannot reclaim it.
    Unref(candidate_node_);
    candidate_node_ = node_[static_cast<size_t>(state_.m)];
    Ref(candidate_node_);
  }

  std::swap(d_, d_prev_);
  std::swap(s_, s_prev_);
  std::swap(node_, node_prev_);
  return (events & kSpringReported) != 0;
}

bool SpringPathMatcher::Flush(PathMatch* match) {
  Match flushed;
  if (!SpringFlush(state_, d_prev_.data() + 1, s_prev_.data() + 1,
                   &flushed)) {
    return false;
  }
  EmitCandidate(flushed, match);
  return true;
}

void SpringPathMatcher::EmitCandidate(const Match& match, PathMatch* out) {
  if (out != nullptr) {
    out->match = match;
    out->path.clear();
    for (int64_t node = candidate_node_; node >= 0;) {
      const PathNode& n = nodes_[static_cast<size_t>(node)];
      // Convert the STWM's 1-based query row to a 0-based query index.
      out->path.emplace_back(n.t, static_cast<int64_t>(n.i) - 1);
      node = n.parent;
    }
    std::reverse(out->path.begin(), out->path.end());
  }
  Unref(candidate_node_);
  candidate_node_ = -1;
}

util::MemoryFootprint SpringPathMatcher::Footprint() const {
  util::MemoryFootprint fp;
  fp.Add("query", util::VectorBytes(query_));
  fp.Add("stwm_distances",
         util::VectorBytes(d_) + util::VectorBytes(d_prev_));
  fp.Add("stwm_starts", util::VectorBytes(s_) + util::VectorBytes(s_prev_));
  fp.Add("cell_nodes",
         util::VectorBytes(node_) + util::VectorBytes(node_prev_));
  fp.Add("path_arena", util::VectorBytes(nodes_));
  return fp;
}

}  // namespace core
}  // namespace springdtw
