#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

#include "util/logging.h"
#include "util/string_util.h"

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Percentile::Describe(double wanted) const {
  const std::string head = util::StrFormat("p%g=%.1f (n=%lld", q * 100.0,
                                           value, static_cast<long long>(samples));
  if (degenerate) return head + ", too few samples for any tail)";
  if (q < wanted) {
    return head + util::StrFormat(", p%g needs %.0f)", wanted * 100.0,
                                  std::ceil(10.0 / (1.0 - wanted)));
  }
  return head + ")";
}

Percentile TailPercentile(std::vector<double> samples, double wanted) {
  Percentile result;
  const int64_t n = static_cast<int64_t>(samples.size());
  result.samples = n;
  if (n < 11) {
    result.degenerate = true;
    if (n > 0) result.value = *std::min_element(samples.begin(), samples.end());
    return result;
  }
  // Nearest rank r (1-based) leaves n - r samples above it; at most n - 10.
  const int64_t wanted_rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(wanted * static_cast<double>(n) - 1e-9)));
  const int64_t rank = std::min(wanted_rank, n - 10);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  result.value = samples[static_cast<size_t>(rank - 1)];
  result.q = rank == wanted_rank
                 ? wanted
                 : static_cast<double>(rank) / static_cast<double>(n);
  return result;
}

int32_t Tracer::Begin(const char* name) {
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back(
      SpanRecord{name, NowNanos(), 0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  SPRINGDTW_CHECK(!open_.empty() && open_.back() == id);
  spans_[static_cast<size_t>(id)].end_ns = NowNanos();
  open_.pop_back();
}

std::map<std::string, SpanTotals> Tracer::Totals(int32_t root) const {
  // Parents precede their children, so one forward pass finds every span's
  // top-level ancestor and its children's covered time.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  std::vector<int32_t> top(spans_.size(), -1);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
      top[i] = top[static_cast<size_t>(span.parent)];
    } else {
      top[i] = static_cast<int32_t>(i);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (root >= 0 && top[i] != root) continue;
    const int64_t duration = span.end_ns - span.start_ns;
    SpanTotals& t = totals[span.name];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
    t.durations_ns.push_back(static_cast<double>(duration));
  }
  return totals;
}

util::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return util::IoError("cannot write " + path);
  for (const SpanRecord& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << "}\n";
  }
  out.flush();
  if (!out) return util::IoError("write failed: " + path);
  return util::Status::Ok();
}

OpenLoopSchedule::OpenLoopSchedule(double rate_ticks_per_s, double period_ms,
                                   int64_t num_streams)
    : ticks_per_batch_(std::max<int64_t>(
          1, std::llround(rate_ticks_per_s * period_ms / 1000.0))),
      period_ns_(std::llround(period_ms * 1e6)),
      num_streams_(num_streams) {
  SPRINGDTW_CHECK_GT(period_ns_, 0);
  SPRINGDTW_CHECK_GT(num_streams_, 0);
}

int64_t OpenLoopSchedule::TicksDueBy(int64_t t_ns) const {
  if (t_ns < 0) return 0;
  return (t_ns / period_ns_ + 1) * ticks_per_batch_;
}

void OpenLoopSchedule::StreamRange(int64_t batch, int64_t stream,
                                   int64_t* begin, int64_t* end) const {
  // Positions p with p * S + stream in [batch * T, (batch + 1) * T).
  const auto first_pos = [&](int64_t g) {
    const int64_t shifted = g - stream;
    return shifted <= 0 ? 0 : (shifted + num_streams_ - 1) / num_streams_;
  };
  *begin = first_pos(batch * ticks_per_batch_);
  *end = first_pos((batch + 1) * ticks_per_batch_);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
