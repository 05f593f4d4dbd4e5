#ifndef SPRINGDTW_OBS_SPAN_H_
#define SPRINGDTW_OBS_SPAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/ring.h"

namespace springdtw {
namespace obs {

/// One end-to-end tick span: the monotonic timestamps a sampled tick
/// collected while moving through the ingest pipeline, from the client's
/// send stamp (TICK_BATCH `send_nanos`) to the subscriber fan-out write.
/// Fixed-size POD so the ring buffer never allocates after construction.
///
/// Timestamps are util::Stopwatch::NowNanos() readings. A stage that did
/// not happen for this tick is 0: client_send_nanos is 0 for ticks pushed
/// in-process (no wire stamp), subscriber_write_nanos is 0 when no
/// network server fanned the delivery out. All nonzero stages are monotone
/// in pipeline order — every stamp is taken on the same monotonic clock,
/// each stage strictly after the previous one (client stamps come from the
/// same clock only for in-process/loopback clients; a remote client's
/// stamp is comparable only as far as its clock is).
struct TickSpan {
  /// Global ingest sequence number of the sampled tick.
  uint64_t seq = 0;
  int64_t stream_id = -1;
  /// Client's send stamp from the TICK_BATCH frame; 0 when unstamped.
  uint64_t client_send_nanos = 0;
  /// Router accepted the tick (ingest edge).
  uint64_t server_recv_nanos = 0;
  /// Router finished pushing the carrying message into the worker ring.
  uint64_t router_enqueue_nanos = 0;
  /// Worker popped the carrying message.
  uint64_t worker_pop_nanos = 0;
  /// Worker finished the matcher pass over the carrying message.
  uint64_t worker_done_nanos = 0;
  /// Router delivered the message's matches to sinks at a drain barrier.
  uint64_t delivered_nanos = 0;
  /// Network server finished appending the fan-out frames; 0 off-wire.
  uint64_t subscriber_write_nanos = 0;
  /// Matches reported at exactly this tick's sequence number.
  int64_t matches = 0;
};

/// Renders one span as a single JSON object (no trailing newline). Shared
/// by SpanRing::DumpJsonl and the introspection server's /spanz.
std::string TickSpanJson(const TickSpan& span);

/// Bounded ring of TickSpans (capacity 0 = span collection disabled).
using SpanRing = Ring<TickSpan, TickSpanJson>;

/// Payload for /spanz: recent completed tick spans plus how many were lost
/// to ring wrap-around.
struct SpanzReport {
  std::vector<TickSpan> spans;
  int64_t dropped = 0;
};

std::string RenderSpanzJson(const SpanzReport& report);

}  // namespace obs
}  // namespace springdtw

#endif  // SPRINGDTW_OBS_SPAN_H_
