#ifndef SPRINGDTW_OBS_TRACE_H_
#define SPRINGDTW_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/ring.h"

namespace springdtw {
namespace obs {

/// Match-lifecycle trace events, in the order a SPRING candidate typically
/// moves through them.
enum class TraceEventKind : uint8_t {
  /// A qualifying candidate (d_m <= epsilon) was captured where none was
  /// pending.
  kCandidateOpened,
  /// The matcher's running best-match (Problem 1) improved.
  kBestImproved,
  /// A disjoint-query match was reported from the streaming path;
  /// report_delay carries the paper's output time t_report - t_e.
  kMatchReported,
  /// A still-pending candidate was emitted by an end-of-stream flush.
  kCandidateFlushed,
  /// The engine serialized a checkpoint.
  kCheckpointSave,
  /// The engine restored from a checkpoint.
  kCheckpointRestore,
  /// An alert rule changed state (obs::AlertEngine); query_id carries the
  /// rule index, start/end the old/new obs::AlertState, distance the
  /// observed value at the transition.
  kAlertTransition,
};

/// Stable lowercase name, e.g. "match_reported".
std::string_view TraceEventKindName(TraceEventKind kind);

struct TraceEvent;

/// Renders one event as a single JSON object (no trailing newline), e.g.
///   {"event":"match_reported","space":"scalar","tick":42,"stream":0,
///    "query":1,"start":10,"end":20,"distance":1.5,"report_delay":2}
/// Shared by TraceRing::DumpJsonl (one such line per event, oldest first)
/// and the introspection server's /tracez.
std::string TraceEventJson(const TraceEvent& event);

/// Which id space stream_id/query_id refer to.
enum class TraceSpace : uint8_t { kScalar, kVector };

/// One structured trace record. Fixed-size POD so the ring buffer never
/// allocates after construction; names are resolved via the metrics side.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kCandidateOpened;
  TraceSpace space = TraceSpace::kScalar;
  /// Stream tick at which the event happened (the query's local clock).
  int64_t tick = 0;
  int64_t stream_id = -1;
  int64_t query_id = -1;
  /// Subsequence extent, where meaningful (candidate/best/match events).
  int64_t start = 0;
  int64_t end = 0;
  double distance = 0.0;
  /// kMatchReported / kCandidateFlushed only: t_report - t_e.
  int64_t report_delay = 0;
};

/// Bounded ring of TraceEvents (capacity 0 = tracing disabled).
using TraceRing = Ring<TraceEvent, TraceEventJson>;

}  // namespace obs
}  // namespace springdtw

#endif  // SPRINGDTW_OBS_TRACE_H_
