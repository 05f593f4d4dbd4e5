#include "core/invariants.h"

#include <cmath>
#include <limits>
#include <vector>

#include "core/spring.h"
#include "core/vector_spring.h"
#include "util/string_util.h"

namespace springdtw {
namespace core {
namespace invariants {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Serialize-path checks re-enter SerializeState; this guard keeps the
/// nested call from recursing into another round-trip check.
thread_local bool g_in_round_trip = false;

class RoundTripGuard {
 public:
  RoundTripGuard() { g_in_round_trip = true; }
  ~RoundTripGuard() { g_in_round_trip = false; }
};

std::string Violation(const char* invariant, int64_t t, int64_t i,
                      const std::string& detail) {
  return util::StrFormat("STWM invariant '%s' violated at t=%lld i=%lld: %s",
                         invariant, static_cast<long long>(t),
                         static_cast<long long>(i), detail.c_str());
}

template <typename Matcher>
std::string RoundTripImpl(const Matcher& matcher, const char* type_name) {
  if (g_in_round_trip) return "";
  RoundTripGuard guard;
  const std::vector<uint8_t> bytes = matcher.SerializeState();
  auto restored = Matcher::DeserializeState(bytes);
  if (!restored.ok()) {
    return util::StrFormat(
        "%s snapshot does not restore: %s", type_name,
        restored.status().ToString().c_str());
  }
  const std::vector<uint8_t> bytes2 = restored->SerializeState();
  if (bytes != bytes2) {
    return util::StrFormat(
        "%s snapshot round-trip not byte-identical (%zu vs %zu bytes)",
        type_name, bytes.size(), bytes2.size());
  }
  return "";
}

}  // namespace

std::string CheckColumn(const StwmColumn& col) {
  const int64_t t = col.t;
  if (col.d.size() != col.s.size() || col.d.size() != col.d_prev.size() ||
      col.d.size() != col.s_prev.size() || col.d.size() < 2) {
    return Violation("row-shape", t, -1,
                     util::StrFormat("inconsistent row sizes %zu/%zu/%zu/%zu",
                                     col.d.size(), col.s.size(),
                                     col.d_prev.size(), col.s_prev.size()));
  }
  if (col.d[0] != 0.0 || col.s[0] != t) {
    return Violation(
        "star-row", t, 0,
        util::StrFormat("expected d=0 s=t, got d=%g s=%lld", col.d[0],
                        static_cast<long long>(col.s[0])));
  }
  for (size_t i = 1; i < col.d.size(); ++i) {
    const double d = col.d[i];
    const int64_t s = col.s[i];
    if (std::isnan(d) || d < 0.0) {
      return Violation("distance-non-negative", t,
                       static_cast<int64_t>(i), util::StrFormat("d=%g", d));
    }
    if (d == kInf) continue;  // Killed or pruned cell; s is stale.
    if (s < 0 || s > t) {
      return Violation(
          "start-in-range", t, static_cast<int64_t>(i),
          util::StrFormat("s=%lld not in [0, %lld]",
                          static_cast<long long>(s),
                          static_cast<long long>(t)));
    }
    if (s != col.s[i - 1] && s != col.s_prev[i] && s != col.s_prev[i - 1]) {
      return Violation(
          "start-inheritance", t, static_cast<int64_t>(i),
          util::StrFormat(
              "s=%lld matches none of its predecessors %lld/%lld/%lld",
              static_cast<long long>(s),
              static_cast<long long>(col.s[i - 1]),
              static_cast<long long>(col.s_prev[i]),
              static_cast<long long>(col.s_prev[i - 1])));
    }
  }
  return "";
}

std::string CheckFrontier(const StwmColumn& col, double bound,
                          int64_t computed, int64_t frontier) {
  const int64_t t = col.t;
  const int64_t rows = static_cast<int64_t>(col.d.size());
  for (int64_t i = computed + 1; i < rows; ++i) {
    const size_t r = static_cast<size_t>(i);
    if (col.d[r - 1] <= bound || col.d_prev[r] <= bound ||
        col.d_prev[r - 1] <= bound) {
      return Violation(
          "frontier-sound", t, i,
          util::StrFormat("skipped row has a live predecessor (%g/%g/%g, "
                          "bound %g)",
                          col.d[r - 1], col.d_prev[r], col.d_prev[r - 1],
                          bound));
    }
  }
  if (frontier < 0 || frontier > computed) {
    return Violation(
        "frontier-sound", t, frontier,
        util::StrFormat("frontier outside the %lld computed rows",
                        static_cast<long long>(computed)));
  }
  for (int64_t i = frontier + 1; i <= computed && i < rows; ++i) {
    if (col.d[static_cast<size_t>(i)] <= bound) {
      return Violation(
          "frontier-sound", t, i,
          util::StrFormat("live cell d=%g above the frontier %lld",
                          col.d[static_cast<size_t>(i)],
                          static_cast<long long>(frontier)));
    }
  }
  return "";
}

std::string CheckCandidate(const StwmColumn& col, double dmin, int64_t ts,
                           int64_t te, int64_t group_start,
                           int64_t group_end, double epsilon) {
  const int64_t t = col.t;
  if (std::isnan(dmin) || dmin < 0.0 || dmin > epsilon) {
    return Violation(
        "candidate-qualifies", t, -1,
        util::StrFormat("d_min=%g not in [0, epsilon=%g]", dmin, epsilon));
  }
  if (ts < 0 || ts > te || te > t) {
    return Violation(
        "candidate-extent", t, -1,
        util::StrFormat("t_s=%lld t_e=%lld not ordered within [0, %lld]",
                        static_cast<long long>(ts),
                        static_cast<long long>(te),
                        static_cast<long long>(t)));
  }
  if (group_start > ts || group_end < te) {
    return Violation(
        "candidate-in-group", t, -1,
        util::StrFormat("candidate [%lld, %lld] outside group [%lld, %lld]",
                        static_cast<long long>(ts),
                        static_cast<long long>(te),
                        static_cast<long long>(group_start),
                        static_cast<long long>(group_end)));
  }
  return "";
}

std::string CheckReport(const StwmColumn& col, const Match& match,
                        double epsilon, int64_t last_report_end) {
  const int64_t t = col.t;
  if (std::isnan(match.distance) || match.distance < 0.0 ||
      match.distance > epsilon) {
    return Violation(
        "report-qualifies", t, -1,
        util::StrFormat("distance=%g not in [0, epsilon=%g]", match.distance,
                        epsilon));
  }
  if (match.start < 0 || match.start > match.end ||
      match.end >= match.report_time) {
    return Violation(
        "report-extent", t, -1,
        util::StrFormat("start=%lld end=%lld report_time=%lld",
                        static_cast<long long>(match.start),
                        static_cast<long long>(match.end),
                        static_cast<long long>(match.report_time)));
  }
  if (match.start <= last_report_end) {
    return Violation(
        "reports-disjoint", t, -1,
        util::StrFormat("start=%lld overlaps previous report ending at %lld",
                        static_cast<long long>(match.start),
                        static_cast<long long>(last_report_end)));
  }
  // Report-as-early-as-possible (Figure 4): no surviving warping path may
  // still undercut the candidate inside its group.
  for (size_t i = 1; i < col.d.size(); ++i) {
    if (col.d[i] < match.distance && col.s[i] <= match.end) {
      return Violation(
          "report-earliest", t, static_cast<int64_t>(i),
          util::StrFormat("cell d=%g s=%lld could still undercut d_min=%g",
                          col.d[i], static_cast<long long>(col.s[i]),
                          match.distance));
    }
  }
  return "";
}

std::string CheckBest(const Match& best, double prev_distance) {
  if (std::isnan(best.distance) || best.distance < 0.0) {
    return Violation("best-non-negative", best.report_time, -1,
                     util::StrFormat("distance=%g", best.distance));
  }
  if (best.distance > prev_distance) {
    return Violation(
        "best-monotone", best.report_time, -1,
        util::StrFormat("distance=%g exceeds previous best %g",
                        best.distance, prev_distance));
  }
  if (best.start < 0 || best.start > best.end ||
      best.end > best.report_time) {
    return Violation(
        "best-extent", best.report_time, -1,
        util::StrFormat("start=%lld end=%lld report_time=%lld",
                        static_cast<long long>(best.start),
                        static_cast<long long>(best.end),
                        static_cast<long long>(best.report_time)));
  }
  return "";
}

std::string CheckSnapshotRoundTrip(const SpringMatcher& matcher) {
  return RoundTripImpl(matcher, "SpringMatcher");
}

std::string CheckSnapshotRoundTrip(const VectorSpringMatcher& matcher) {
  return RoundTripImpl(matcher, "VectorSpringMatcher");
}

}  // namespace invariants
}  // namespace core
}  // namespace springdtw
