#include "obs/trace.h"

#include "util/string_util.h"

namespace springdtw {
namespace obs {

std::string_view TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kCandidateOpened:
      return "candidate_opened";
    case TraceEventKind::kBestImproved:
      return "best_improved";
    case TraceEventKind::kMatchReported:
      return "match_reported";
    case TraceEventKind::kCandidateFlushed:
      return "candidate_flushed";
    case TraceEventKind::kCheckpointSave:
      return "checkpoint_save";
    case TraceEventKind::kCheckpointRestore:
      return "checkpoint_restore";
    case TraceEventKind::kAlertTransition:
      return "alert_transition";
  }
  return "unknown";
}

std::string TraceEventJson(const TraceEvent& e) {
  return util::StrFormat(
      "{\"event\":\"%s\",\"space\":\"%s\",\"tick\":%lld,"
      "\"stream\":%lld,\"query\":%lld,\"start\":%lld,\"end\":%lld,"
      "\"distance\":%.17g,\"report_delay\":%lld}",
      std::string(TraceEventKindName(e.kind)).c_str(),
      e.space == TraceSpace::kScalar ? "scalar" : "vector",
      static_cast<long long>(e.tick), static_cast<long long>(e.stream_id),
      static_cast<long long>(e.query_id), static_cast<long long>(e.start),
      static_cast<long long>(e.end), e.distance,
      static_cast<long long>(e.report_delay));
}

}  // namespace obs
}  // namespace springdtw
