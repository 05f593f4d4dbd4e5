#ifndef SPRINGDTW_OBS_METRICS_H_
#define SPRINGDTW_OBS_METRICS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace springdtw {
namespace obs {

/// One key=value metric label. A series within a family is identified by
/// its full label list; callers should pass labels in a consistent key
/// order (the registry matches them positionally, it does not sort).
struct Label {
  std::string key;
  std::string value;
  bool operator==(const Label&) const = default;
};
using Labels = std::vector<Label>;

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

/// "counter" / "gauge" / "histogram".
std::string_view MetricKindName(MetricKind kind);

/// Monotonically increasing integer metric. Handles returned by the
/// registry are plain pointers with stable addresses; incrementing is a
/// single add — cheap enough for per-tick ingest paths.
class Counter {
 public:
  void Increment(int64_t n = 1) { value_ += n; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// Point-in-time double metric.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Distribution metric: one util::LogHistogram (exact count, sum, min and
/// max; quantiles within 1/32 from fixed log-linear buckets). The first
/// Observe allocates the bucket table; later ones never allocate.
class Histogram {
 public:
  void Observe(double v) { value_.Add(v); }
  const util::LogHistogram& value() const { return value_; }

 private:
  util::LogHistogram value_;
};

/// Point-in-time copy of one histogram series. Snapshots merge bucket by
/// bucket, so merged quantiles are quantiles of the merged data.
using HistogramSnapshot = util::LogHistogram;

/// Point-in-time copy of one series. Which value field is meaningful
/// depends on the owning family's kind.
struct SeriesSnapshot {
  Labels labels;
  int64_t counter_value = 0;
  double gauge_value = 0.0;
  HistogramSnapshot histogram;
};

struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<SeriesSnapshot> series;
};

/// Consistent point-in-time copy of a whole registry. Plain data — safe to
/// hand to a renderer or another thread while ingest continues.
struct MetricsSnapshot {
  std::vector<FamilySnapshot> families;

  /// Family by name; nullptr when absent.
  const FamilySnapshot* Find(std::string_view name) const;
};

/// Merges per-shard registry snapshots into one fleet-wide view (e.g. the
/// N worker registries of a monitor::ShardedMonitor). Families and series
/// are unioned by (name, labels), keeping first-seen order. Counters and
/// gauges sum — every engine gauge (memory bytes, stream/query counts,
/// pending candidates) is an extensive quantity, so summation is the
/// correct fleet aggregate. Histograms add bucket by bucket, so the merged
/// series is exactly the histogram of every shard's observations.
MetricsSnapshot MergeSnapshots(const std::vector<MetricsSnapshot>& shards);

/// Named metric families (counter / gauge / histogram), each with any
/// number of labeled series. Designed for the engine's single-threaded
/// ingest path: Get* resolves (or creates) a series once at registration
/// time and returns a stable pointer, so the hot path touches no maps, no
/// locks, and no strings — just the instrument itself. Readers take a
/// Snapshot() copy and render that.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  // Instrument pointers escape; the registry must stay put.
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter series `name{labels}`, creating the family and/or
  /// series on first use. `help` is recorded on first use and ignored
  /// afterwards. Requesting an existing name with a different kind is a
  /// programming error (CHECK-fails).
  Counter* GetCounter(std::string_view name, std::string_view help,
                      Labels labels = {});
  Gauge* GetGauge(std::string_view name, std::string_view help,
                  Labels labels = {});
  Histogram* GetHistogram(std::string_view name, std::string_view help,
                          Labels labels = {});

  MetricsSnapshot Snapshot() const;

  int64_t num_families() const {
    return static_cast<int64_t>(families_.size());
  }

 private:
  struct Series {
    Labels labels;
    // Exactly one is non-null, matching the family kind. unique_ptr keeps
    // the instrument's address stable across vector growth.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::vector<Series> series;
  };

  Family* FindOrCreateFamily(std::string_view name, std::string_view help,
                             MetricKind kind);
  Series* FindOrCreateSeries(Family* family, Labels labels);

  std::vector<Family> families_;  // In registration order.
};

}  // namespace obs
}  // namespace springdtw

#endif  // SPRINGDTW_OBS_METRICS_H_
