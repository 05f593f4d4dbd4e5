#ifndef SPRINGDTW_BENCH_BENCH_COMMON_H_
#define SPRINGDTW_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/match.h"
#include "gen/planted.h"
#include "obs/metrics.h"
#include "ts/series.h"

namespace springdtw {
namespace bench {

/// Prints a horizontal rule and a centered section title.
void PrintHeader(const std::string& title);

/// Converts planted events to (first, last) regions with a margin, clamped
/// to the stream bounds — input for core::CalibrateEpsilon.
std::vector<std::pair<int64_t, int64_t>> EventRegions(
    const std::vector<gen::PlantedEvent>& events, int64_t stream_size,
    int64_t margin);

/// Prints one Table-2-style row block: the threshold, query length, and the
/// matches with starting position / length / distance / output time.
void PrintTable2Block(const std::string& dataset, double epsilon,
                      int64_t query_length,
                      const std::vector<core::Match>& matches);

/// How many of `events` overlap at least one match (detection score).
int64_t CountDetected(const std::vector<gen::PlantedEvent>& events,
                      const std::vector<core::Match>& matches);

/// Collects bench measurements in an obs::MetricsRegistry and emits them as
/// one machine-readable stdout line:
///
///   BENCH_METRICS_JSON {"metrics":[...]}
///
/// Every series recorded through this emitter carries a {"bench": <name>}
/// label, so blobs from several benches can be concatenated in one log and
/// still told apart. Benches that drive a MonitorEngine can pass the
/// engine's registry snapshot to Emit() to splice its families into the
/// same blob.
class MetricsEmitter {
 public:
  explicit MetricsEmitter(std::string bench_name);

  const std::string& bench_name() const { return bench_name_; }
  obs::MetricsRegistry& registry() { return registry_; }

  /// Sets gauge `name{bench=<bench_name>, extra...}` to `value`.
  void SetGauge(const std::string& name, const std::string& help,
                double value, obs::Labels extra = {});

  /// Prints the BENCH_METRICS_JSON line to stdout. When `engine_snapshot`
  /// is non-null its families are appended after this emitter's own.
  void Emit(const obs::MetricsSnapshot* engine_snapshot = nullptr) const;

  /// Writes the same JSON blob Emit() prints (without the line prefix) to
  /// `path`, so CI can validate it with springdtw_metrics_check. Returns
  /// false if the file cannot be written.
  bool WriteJsonFile(const std::string& path,
                     const obs::MetricsSnapshot* engine_snapshot =
                         nullptr) const;

 private:
  obs::MetricsSnapshot MergedSnapshot(
      const obs::MetricsSnapshot* engine_snapshot) const;
  obs::Labels WithBenchLabel(obs::Labels extra) const;

  std::string bench_name_;
  obs::MetricsRegistry registry_;
};

}  // namespace bench
}  // namespace springdtw

#endif  // SPRINGDTW_BENCH_BENCH_COMMON_H_
