#include "obs/metrics.h"

#include "util/logging.h"

namespace springdtw {
namespace obs {

std::string_view MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

const FamilySnapshot* MetricsSnapshot::Find(std::string_view name) const {
  for (const FamilySnapshot& family : families) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

MetricsSnapshot MergeSnapshots(const std::vector<MetricsSnapshot>& shards) {
  MetricsSnapshot merged;
  for (const MetricsSnapshot& shard : shards) {
    for (const FamilySnapshot& family : shard.families) {
      FamilySnapshot* target = nullptr;
      for (FamilySnapshot& existing : merged.families) {
        if (existing.name == family.name) {
          target = &existing;
          break;
        }
      }
      if (target == nullptr) {
        FamilySnapshot fresh;
        fresh.name = family.name;
        fresh.help = family.help;
        fresh.kind = family.kind;
        merged.families.push_back(std::move(fresh));
        target = &merged.families.back();
      } else {
        SPRINGDTW_CHECK(target->kind == family.kind)
            << "metric family '" << family.name
            << "' has conflicting kinds across shards";
      }
      for (const SeriesSnapshot& series : family.series) {
        SeriesSnapshot* slot = nullptr;
        for (SeriesSnapshot& existing : target->series) {
          if (existing.labels == series.labels) {
            slot = &existing;
            break;
          }
        }
        if (slot == nullptr) {
          SeriesSnapshot fresh;
          fresh.labels = series.labels;
          target->series.push_back(std::move(fresh));
          slot = &target->series.back();
        }
        switch (family.kind) {
          case MetricKind::kCounter:
            slot->counter_value += series.counter_value;
            break;
          case MetricKind::kGauge:
            slot->gauge_value += series.gauge_value;
            break;
          case MetricKind::kHistogram:
            slot->histogram.Merge(series.histogram);
            break;
        }
      }
    }
  }
  return merged;
}

MetricsRegistry::Family* MetricsRegistry::FindOrCreateFamily(
    std::string_view name, std::string_view help, MetricKind kind) {
  for (Family& family : families_) {
    if (family.name == name) {
      SPRINGDTW_CHECK(family.kind == kind)
          << "metric family '" << family.name << "' registered as "
          << std::string(MetricKindName(family.kind)) << ", requested as "
          << std::string(MetricKindName(kind));
      return &family;
    }
  }
  Family family;
  family.name = std::string(name);
  family.help = std::string(help);
  family.kind = kind;
  families_.push_back(std::move(family));
  return &families_.back();
}

MetricsRegistry::Series* MetricsRegistry::FindOrCreateSeries(Family* family,
                                                             Labels labels) {
  for (Series& series : family->series) {
    if (series.labels == labels) return &series;
  }
  Series series;
  series.labels = std::move(labels);
  switch (family->kind) {
    case MetricKind::kCounter:
      series.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      series.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      series.histogram = std::make_unique<Histogram>();
      break;
  }
  family->series.push_back(std::move(series));
  return &family->series.back();
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help, Labels labels) {
  Family* family = FindOrCreateFamily(name, help, MetricKind::kCounter);
  return FindOrCreateSeries(family, std::move(labels))->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view help,
                                 Labels labels) {
  Family* family = FindOrCreateFamily(name, help, MetricKind::kGauge);
  return FindOrCreateSeries(family, std::move(labels))->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view help,
                                         Labels labels) {
  Family* family = FindOrCreateFamily(name, help, MetricKind::kHistogram);
  return FindOrCreateSeries(family, std::move(labels))->histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.families.reserve(families_.size());
  for (const Family& family : families_) {
    FamilySnapshot fs;
    fs.name = family.name;
    fs.help = family.help;
    fs.kind = family.kind;
    fs.series.reserve(family.series.size());
    for (const Series& series : family.series) {
      SeriesSnapshot ss;
      ss.labels = series.labels;
      switch (family.kind) {
        case MetricKind::kCounter:
          ss.counter_value = series.counter->value();
          break;
        case MetricKind::kGauge:
          ss.gauge_value = series.gauge->value();
          break;
        case MetricKind::kHistogram:
          ss.histogram = series.histogram->value();
          break;
      }
      fs.series.push_back(std::move(ss));
    }
    snapshot.families.push_back(std::move(fs));
  }
  return snapshot;
}

}  // namespace obs
}  // namespace springdtw
