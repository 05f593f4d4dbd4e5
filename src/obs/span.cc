#include "obs/span.h"

#include "util/string_util.h"

namespace springdtw {
namespace obs {

std::string TickSpanJson(const TickSpan& s) {
  return util::StrFormat(
      "{\"seq\":%llu,\"stream\":%lld,\"client_send\":%llu,"
      "\"server_recv\":%llu,\"router_enqueue\":%llu,\"worker_pop\":%llu,"
      "\"worker_done\":%llu,\"delivered\":%llu,\"subscriber_write\":%llu,"
      "\"matches\":%lld}",
      static_cast<unsigned long long>(s.seq),
      static_cast<long long>(s.stream_id),
      static_cast<unsigned long long>(s.client_send_nanos),
      static_cast<unsigned long long>(s.server_recv_nanos),
      static_cast<unsigned long long>(s.router_enqueue_nanos),
      static_cast<unsigned long long>(s.worker_pop_nanos),
      static_cast<unsigned long long>(s.worker_done_nanos),
      static_cast<unsigned long long>(s.delivered_nanos),
      static_cast<unsigned long long>(s.subscriber_write_nanos),
      static_cast<long long>(s.matches));
}

std::string RenderSpanzJson(const SpanzReport& report) {
  std::string out = util::StrFormat(
      "{\"dropped\":%lld,\"spans\":[",
      static_cast<long long>(report.dropped));
  for (size_t i = 0; i < report.spans.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(TickSpanJson(report.spans[i]));
  }
  out.append("]}");
  return out;
}

}  // namespace obs
}  // namespace springdtw
