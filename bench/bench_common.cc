#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/exposition.h"

namespace springdtw {
namespace bench {

void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

std::vector<std::pair<int64_t, int64_t>> EventRegions(
    const std::vector<gen::PlantedEvent>& events, int64_t stream_size,
    int64_t margin) {
  std::vector<std::pair<int64_t, int64_t>> regions;
  regions.reserve(events.size());
  for (const gen::PlantedEvent& e : events) {
    regions.emplace_back(std::max<int64_t>(0, e.start - margin),
                         std::min<int64_t>(stream_size - 1, e.end() + margin));
  }
  return regions;
}

void PrintTable2Block(const std::string& dataset, double epsilon,
                      int64_t query_length,
                      const std::vector<core::Match>& matches) {
  std::printf("%-13s query_len=%-6lld epsilon=%-10.4g\n", dataset.c_str(),
              static_cast<long long>(query_length), epsilon);
  std::printf("  %-12s %-9s %-12s %-11s\n", "start_pos", "length",
              "distance", "output_time");
  for (const core::Match& m : matches) {
    std::printf("  %-12lld %-9lld %-12.6g %-11lld\n",
                static_cast<long long>(m.start),
                static_cast<long long>(m.length()), m.distance,
                static_cast<long long>(m.report_time));
  }
  if (matches.empty()) std::printf("  (no matches)\n");
}

int64_t CountDetected(const std::vector<gen::PlantedEvent>& events,
                      const std::vector<core::Match>& matches) {
  int64_t detected = 0;
  for (const gen::PlantedEvent& e : events) {
    for (const core::Match& m : matches) {
      if (gen::IntervalsOverlap(e.start, e.end(), m.start, m.end)) {
        ++detected;
        break;
      }
    }
  }
  return detected;
}

MetricsEmitter::MetricsEmitter(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

obs::Labels MetricsEmitter::WithBenchLabel(obs::Labels extra) const {
  obs::Labels labels;
  labels.reserve(extra.size() + 1);
  labels.push_back(obs::Label{"bench", bench_name_});
  for (obs::Label& label : extra) labels.push_back(std::move(label));
  return labels;
}

void MetricsEmitter::SetGauge(const std::string& name,
                              const std::string& help, double value,
                              obs::Labels extra) {
  registry_.GetGauge(name, help, WithBenchLabel(std::move(extra)))
      ->Set(value);
}

obs::MetricsSnapshot MetricsEmitter::MergedSnapshot(
    const obs::MetricsSnapshot* engine_snapshot) const {
  obs::MetricsSnapshot merged = registry_.Snapshot();
  if (engine_snapshot != nullptr) {
    merged.families.insert(merged.families.end(),
                           engine_snapshot->families.begin(),
                           engine_snapshot->families.end());
  }
  return merged;
}

void MetricsEmitter::Emit(const obs::MetricsSnapshot* engine_snapshot) const {
  // One line so log scrapers can grep the prefix and json-parse the rest.
  std::printf("BENCH_METRICS_JSON %s\n",
              obs::RenderJson(MergedSnapshot(engine_snapshot)).c_str());
}

bool MetricsEmitter::WriteJsonFile(
    const std::string& path,
    const obs::MetricsSnapshot* engine_snapshot) const {
  std::ofstream out(path);
  if (!out) return false;
  out << obs::RenderJson(MergedSnapshot(engine_snapshot)) << '\n';
  return out.good();
}

}  // namespace bench
}  // namespace springdtw
