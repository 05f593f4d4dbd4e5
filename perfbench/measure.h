#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

namespace util = springdtw::util;

/// Monotonic clock in nanoseconds (steady_clock; the same domain as
/// util::Stopwatch::NowNanos).
int64_t NowNanos();

/// A reported percentile: the requested one when the sample leaves at least
/// ten samples beyond it, otherwise the highest percentile that does.
struct Percentile {
  double value = 0.0;
  /// The percentile actually reported, in [0, 1].
  double q = 0.0;
  int64_t samples = 0;
  /// Fewer than 11 samples: no percentile has ten beyond it, so `value` is
  /// the minimum and the figure is not a valid tail estimate.
  bool degenerate = false;

  /// "p99=123.4 (n=5000)" or "p98.1=... (n=530, p99 needs 1000)".
  std::string Describe(double wanted) const;
};

/// Nearest-rank percentile of `samples` at `wanted`, lowered until at least
/// ten samples lie above the reported rank.
Percentile TailPercentile(std::vector<double> samples, double wanted);

/// One recorded span: a named interval with the span that enclosed it.
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span, -1 at top level.
  int32_t parent = -1;
};

/// Per-name aggregate over recorded spans.
struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  /// total_ns minus the time covered by direct child spans.
  int64_t self_ns = 0;
  /// Individual durations, for latency percentiles.
  std::vector<double> durations_ns;
};

/// In-memory span recorder for one thread. Spans nest by call order: a span
/// begun while another is open is its child. Names must be string literals
/// (they are stored by pointer). A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int32_t Begin(const char* name);
  void End(int32_t id);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Aggregates by name the spans inside top-level span `root` (all spans
  /// when root is -1).
  std::map<std::string, SpanTotals> Totals(int32_t root = -1) const;
  /// Writes one JSON object per line: name, start_ns, end_ns, parent.
  util::Status WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

/// RAII span on a tracer (a no-op on a null or disabled tracer).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer),
        id_(tracer != nullptr && tracer->enabled() ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Open-loop send schedule: ticks are offered at a fixed rate, round-robin
/// over streams (global tick g is position g / S of stream g % S), in
/// batches of one send period. Every tick of batch b is due at
/// b * period_ns after the start; times are relative to the start.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double rate_ticks_per_s, double period_ms,
                   int64_t num_streams);

  int64_t ticks_per_batch() const { return ticks_per_batch_; }
  int64_t period_ns() const { return period_ns_; }

  int64_t BatchDueNanos(int64_t batch) const { return batch * period_ns_; }
  /// The batch carrying position `pos` of stream `stream`.
  int64_t BatchOf(int64_t stream, int64_t pos) const {
    return (pos * num_streams_ + stream) / ticks_per_batch_;
  }
  int64_t TickDueNanos(int64_t stream, int64_t pos) const {
    return BatchDueNanos(BatchOf(stream, pos));
  }
  /// Ticks offered by relative time t: every tick of every batch due at or
  /// before t.
  int64_t TicksDueBy(int64_t t_ns) const;
  /// Positions of stream `stream` carried by batch b: [*begin, *end).
  void StreamRange(int64_t batch, int64_t stream, int64_t* begin,
                   int64_t* end) const;

 private:
  int64_t ticks_per_batch_;
  int64_t period_ns_;
  int64_t num_streams_;
};

/// Median of `values` (0 for an empty list).
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
