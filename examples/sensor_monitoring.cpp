// Sensor monitoring: a temperature stream with sensor dropouts (missing
// readings) monitored by the MonitorEngine with two simultaneous pattern
// queries — the paper's Section 5.1 Temperature case study as an
// operational pipeline.
//
//   ./sensor_monitoring [--length=30000] [--seed=2] [--latency]

#include <cstdio>

#include "core/subsequence_scan.h"
#include "gen/temperature.h"
#include "monitor/engine.h"
#include "monitor/sink.h"
#include "monitor/stream_source.h"
#include "obs/observability.h"
#include "ts/repair.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace springdtw;

  util::FlagParser flags(argc, argv);
  gen::TemperatureOptions data_options;
  data_options.length = flags.GetInt64("length", 30000);
  data_options.seed = static_cast<uint64_t>(flags.GetInt64("seed", 2));
  const gen::TemperatureData data = GenerateTemperature(data_options);

  std::printf("temperature stream: %lld readings, %lld missing (%.1f%%)\n",
              static_cast<long long>(data.stream.size()),
              static_cast<long long>(data.stream.CountMissing()),
              100.0 * static_cast<double>(data.stream.CountMissing()) /
                  static_cast<double>(data.stream.size()));

  // Calibrate the threshold from the known warm-up regions (in practice an
  // operator picks epsilon from historical data, as the paper does per
  // dataset in Table 2).
  const ts::Series repaired =
      RepairMissing(data.stream, ts::RepairPolicy::kHoldLast);
  std::vector<std::pair<int64_t, int64_t>> regions;
  for (const gen::PlantedEvent& e : data.events) {
    regions.emplace_back(e.start, e.end());
  }
  const double epsilon =
      core::CalibrateEpsilon(repaired, data.query, regions, 1.2);
  std::printf("calibrated epsilon: %.1f\n\n", epsilon);

  // --latency attaches an observability bundle, whose
  // spring_push_latency_nanos histogram times every Push.
  const bool latency = flags.GetBool("latency", false);
  obs::Observability observability;
  monitor::MonitorEngine engine;
  if (latency) engine.AttachObservability(&observability);
  monitor::CollectSink collected;
  engine.AddSink(&collected);

  const int64_t stream_id =
      engine.AddStream("critter-temp", /*repair_missing=*/true);

  core::SpringOptions warmup_options;
  warmup_options.epsilon = epsilon;
  const auto warmup_query = engine.AddQuery(
      stream_id, "warmup-episode", data.query.values(), warmup_options);
  if (!warmup_query.ok()) {
    std::fprintf(stderr, "AddQuery: %s\n",
                 warmup_query.status().ToString().c_str());
    return 1;
  }

  // A second query: one clean diurnal cycle (daily rhythm detector). Its
  // threshold is deliberately loose; it fires on most days.
  ts::Series day = data.query.Slice(0, data_options.day_length);
  core::SpringOptions day_options;
  day_options.epsilon = 4.0 * epsilon;
  const auto day_query =
      engine.AddQuery(stream_id, "daily-cycle", day.values(), day_options);
  if (!day_query.ok()) {
    std::fprintf(stderr, "AddQuery: %s\n",
                 day_query.status().ToString().c_str());
    return 1;
  }

  // Replay the raw stream (NaN included: the engine repairs online).
  for (int64_t t = 0; t < data.stream.size(); ++t) {
    const auto pushed = engine.Push(stream_id, data.stream[t]);
    if (!pushed.ok()) {
      std::fprintf(stderr, "Push: %s\n", pushed.status().ToString().c_str());
      return 1;
    }
  }
  engine.FlushAll();

  std::printf("matches:\n");
  for (const auto& entry : collected.entries()) {
    std::printf("  [%s] %s\n", entry.origin.query_name.c_str(),
                entry.match.ToString().c_str());
  }

  const monitor::QueryStats& stats = engine.stats(*warmup_query);
  std::printf(
      "\nwarmup query: %lld ticks, %lld matches, mean output delay %.1f "
      "ticks\n",
      static_cast<long long>(stats.ticks),
      static_cast<long long>(stats.matches), stats.output_delay.mean());
  std::printf("engine working set: %s\n",
              engine.Footprint().ToString().c_str());
  if (latency) {
    const obs::MetricsSnapshot snapshot = observability.registry().Snapshot();
    const obs::HistogramSnapshot& h =
        snapshot.Find("spring_push_latency_nanos")->series[0].histogram;
    std::printf("push latency (ns): count=%lld p50=%.0f p90=%.0f p99=%.0f "
                "max=%.0f\n",
                static_cast<long long>(h.count()), h.Quantile(0.5),
                h.Quantile(0.9), h.Quantile(0.99), h.max());
  }
  return 0;
}
