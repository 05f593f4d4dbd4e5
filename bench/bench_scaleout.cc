// Scale-out throughput for the monitoring layer: ticks/sec of one scalar
// core::SpringMatcher per query vs the engine's SoA pools (by ingest chunk
// size), and of the ShardedMonitor shell at 1, 2, and 4 workers.
//
//   ./bench_scaleout [--streams=8] [--queries_per_stream=8] [--m=64]
//       [--ticks_per_stream=40000] [--chunk=256] [--repeats=3] [--smoke]
//       [--json_out=FILE]
//
// Two very different claims are measured, and they gate differently:
//
//   * The engine's batched single-thread path must not lose to scalar
//     matchers fed value by value — that is a pure software property, so
//     --smoke (a small workload run by scripts/check.sh) FAILS the process
//     when batched ticks/sec drops below 0.9x scalar.
//   * Worker scaling (the ISSUE's >= 3x at 4 workers) is a hardware
//     property: on a single-core container every extra worker is pure
//     overhead. The bench reports the measured ratio and the core count
//     honestly and never gates on it.
//
// All measurements are emitted as a BENCH_METRICS_JSON line.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/spring.h"
#include "monitor/engine.h"
#include "monitor/sharded_monitor.h"
#include "monitor/sink.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace springdtw {
namespace {

struct Workload {
  std::vector<std::vector<double>> streams;
  std::vector<std::vector<double>> queries;  // queries_per_stream each.
  int64_t queries_per_stream = 0;
  core::SpringOptions options;
};

Workload MakeWorkload(int64_t num_streams, int64_t queries_per_stream,
                      int64_t m, int64_t ticks_per_stream) {
  Workload w;
  w.queries_per_stream = queries_per_stream;
  w.options.epsilon = 0.25;  // Random walks rarely match: measures the DP.
  util::Rng rng(20070415);
  for (int64_t s = 0; s < num_streams; ++s) {
    std::vector<double> stream(static_cast<size_t>(ticks_per_stream));
    double x = 0.0;
    for (double& v : stream) {
      x += rng.Gaussian(0.0, 0.2);
      v = x;
    }
    w.streams.push_back(std::move(stream));
    for (int64_t q = 0; q < queries_per_stream; ++q) {
      std::vector<double> query(static_cast<size_t>(m));
      double y = 0.0;
      for (double& v : query) {
        y += rng.Gaussian(0.0, 0.2);
        v = y;
      }
      w.queries.push_back(std::move(query));
    }
  }
  return w;
}

int64_t TotalTicks(const Workload& w) {
  int64_t total = 0;
  for (const auto& stream : w.streams) {
    total += static_cast<int64_t>(stream.size());
  }
  return total;
}

/// Ticks/sec of one scalar SpringMatcher per query, fed round-robin across
/// streams one value at a time — the baseline the pooled engine must beat.
double MeasureMatchers(const Workload& w) {
  std::vector<core::SpringMatcher> matchers;
  for (const std::vector<double>& query : w.queries) {
    matchers.emplace_back(query, w.options);
  }
  const size_t ticks_per_stream = w.streams[0].size();
  const size_t per_stream = static_cast<size_t>(w.queries_per_stream);
  core::Match match;
  util::Stopwatch stopwatch;
  for (size_t at = 0; at < ticks_per_stream; ++at) {
    for (size_t s = 0; s < w.streams.size(); ++s) {
      const double x = w.streams[s][at];
      for (size_t q = s * per_stream; q < (s + 1) * per_stream; ++q) {
        matchers[q].Update(x, &match);
      }
    }
  }
  const double seconds = stopwatch.ElapsedSeconds();
  return seconds > 0.0 ? static_cast<double>(TotalTicks(w)) / seconds : 0.0;
}

/// Ticks/sec of a single MonitorEngine fed round-robin across streams in
/// `chunk`-value runs (chunk 1 = per-value Push).
double MeasureEngine(const Workload& w, int64_t chunk) {
  monitor::MonitorEngine engine;
  monitor::CollectSink sink;
  engine.AddSink(&sink);
  for (size_t s = 0; s < w.streams.size(); ++s) {
    const int64_t stream_id =
        engine.AddStream("s" + std::to_string(s), /*repair_missing=*/false);
    for (int64_t q = 0; q < w.queries_per_stream; ++q) {
      engine
          .AddQuery(stream_id, "q",
                    w.queries[static_cast<size_t>(
                        static_cast<int64_t>(s) * w.queries_per_stream + q)],
                    w.options)
          .ok();
    }
  }
  const int64_t ticks_per_stream =
      static_cast<int64_t>(w.streams[0].size());
  util::Stopwatch stopwatch;
  for (int64_t at = 0; at < ticks_per_stream; at += chunk) {
    const int64_t n = std::min(chunk, ticks_per_stream - at);
    for (size_t s = 0; s < w.streams.size(); ++s) {
      if (chunk == 1) {
        engine.Push(static_cast<int64_t>(s),
                    w.streams[s][static_cast<size_t>(at)])
            .ok();
      } else {
        engine
            .PushBatch(static_cast<int64_t>(s),
                       std::span<const double>(
                           w.streams[s].data() + at,
                           static_cast<size_t>(n)))
            .ok();
      }
    }
  }
  const double seconds = stopwatch.ElapsedSeconds();
  return seconds > 0.0 ? static_cast<double>(TotalTicks(w)) / seconds : 0.0;
}

/// Ticks/sec of the ShardedMonitor at `num_workers`, same feed shape.
double MeasureSharded(const Workload& w, int64_t num_workers,
                      int64_t chunk) {
  monitor::ShardedMonitorOptions options;
  options.num_workers = num_workers;
  monitor::ShardedMonitor monitor(options);
  monitor::CollectSink sink;
  monitor.AddSink(&sink);
  for (size_t s = 0; s < w.streams.size(); ++s) {
    const int64_t stream_id =
        monitor.AddStream("s" + std::to_string(s), /*repair_missing=*/false);
    for (int64_t q = 0; q < w.queries_per_stream; ++q) {
      monitor
          .AddQuery(stream_id, "q",
                    w.queries[static_cast<size_t>(
                        static_cast<int64_t>(s) * w.queries_per_stream + q)],
                    w.options)
          .ok();
    }
  }
  monitor.Start();
  const int64_t ticks_per_stream =
      static_cast<int64_t>(w.streams[0].size());
  util::Stopwatch stopwatch;
  for (int64_t at = 0; at < ticks_per_stream; at += chunk) {
    const int64_t n = std::min(chunk, ticks_per_stream - at);
    for (size_t s = 0; s < w.streams.size(); ++s) {
      monitor
          .PushBatch(static_cast<int64_t>(s),
                     std::span<const double>(w.streams[s].data() + at,
                                             static_cast<size_t>(n)))
          .ok();
    }
  }
  monitor.Drain();
  const double seconds = stopwatch.ElapsedSeconds();
  monitor.Stop();
  return seconds > 0.0 ? static_cast<double>(TotalTicks(w)) / seconds : 0.0;
}

/// Best of `repeats` runs — throughput benches want the least-disturbed
/// run, not the mean.
template <typename Fn>
double BestOf(int64_t repeats, Fn measure) {
  double best = 0.0;
  for (int64_t r = 0; r < repeats; ++r) {
    best = std::max(best, measure());
  }
  return best;
}

}  // namespace
}  // namespace springdtw

int main(int argc, char** argv) {
  using namespace springdtw;

  util::FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const int64_t num_streams = flags.GetInt64("streams", smoke ? 4 : 8);
  const int64_t queries_per_stream =
      flags.GetInt64("queries_per_stream", 8);
  const int64_t m = flags.GetInt64("m", smoke ? 32 : 64);
  const int64_t ticks_per_stream =
      flags.GetInt64("ticks_per_stream", smoke ? 6000 : 40000);
  const int64_t chunk = std::max<int64_t>(1, flags.GetInt64("chunk", 256));
  const int64_t repeats = std::max<int64_t>(1, flags.GetInt64("repeats", 3));

  const Workload w =
      MakeWorkload(num_streams, queries_per_stream, m, ticks_per_stream);
  const unsigned cores = std::thread::hardware_concurrency();

  bench::PrintHeader(
      "Scale-out throughput — scalar vs batched vs sharded (" +
      std::to_string(num_streams) + " streams x " +
      std::to_string(queries_per_stream) + " queries, m = " +
      std::to_string(m) + ", " + std::to_string(cores) +
      " hardware threads)");

  bench::MetricsEmitter emitter("scaleout");

  const double scalar = BestOf(repeats, [&] { return MeasureMatchers(w); });
  std::printf("%-28s %12.0f ticks/sec\n", "SpringMatcher per query", scalar);
  emitter.SetGauge("bench_scaleout_ticks_per_sec",
                   "monitoring ingest throughput",
                   scalar, {obs::Label{"path", "scalar"}});

  double batched_best = 0.0;
  for (const int64_t c : {int64_t{1}, int64_t{16}, chunk}) {
    const double batched = BestOf(
        repeats, [&] { return MeasureEngine(w, c); });
    batched_best = std::max(batched_best, batched);
    std::printf("%-28s %12.0f ticks/sec\n",
                ("engine batched (chunk " + std::to_string(c) + ")").c_str(),
                batched);
    emitter.SetGauge("bench_scaleout_ticks_per_sec",
                     "monitoring ingest throughput", batched,
                     {obs::Label{"path", "batch"},
                      obs::Label{"chunk", std::to_string(c)}});
  }

  double sharded_1 = 0.0;
  for (const int64_t workers : {int64_t{1}, int64_t{2}, int64_t{4}}) {
    // Worker-scaling rows are only meaningful when the extra workers run
    // on real hardware threads: on a 1-thread container a "4 workers" row
    // measures context-switch overhead, and publishing it as a scaling
    // result misleads anyone diffing BENCH_scaleout.json across machines.
    if (workers > 1 && cores <= 1) {
      std::printf("%-28s      skipped  (1 hardware thread)\n",
                  ("sharded " + std::to_string(workers) + " workers")
                      .c_str());
      continue;
    }
    // Feeder thread + `workers` shard threads actually scheduled.
    const int64_t threads_used = workers + 1;
    const char* placement =
        threads_used <= static_cast<int64_t>(cores) ? "dedicated"
                                                    : "oversubscribed";
    const double sharded =
        BestOf(repeats, [&] { return MeasureSharded(w, workers, chunk); });
    if (workers == 1) sharded_1 = sharded;
    std::printf("%-28s %12.0f ticks/sec  (%.2fx vs 1 worker, %s)\n",
                ("sharded " + std::to_string(workers) + " workers").c_str(),
                sharded, sharded_1 > 0.0 ? sharded / sharded_1 : 0.0,
                placement);
    emitter.SetGauge("bench_scaleout_ticks_per_sec",
                     "monitoring ingest throughput", sharded,
                     {obs::Label{"path", "sharded"},
                      obs::Label{"workers", std::to_string(workers)},
                      obs::Label{"threads_used",
                                 std::to_string(threads_used)},
                      obs::Label{"placement", placement}});
  }

  emitter.SetGauge("bench_scaleout_hardware_threads",
                   "std::thread::hardware_concurrency at bench time",
                   static_cast<double>(cores));
  emitter.SetGauge("bench_scaleout_batch_speedup",
                   "best batched ticks/sec over scalar ticks/sec",
                   scalar > 0.0 ? batched_best / scalar : 0.0);
  emitter.Emit();
  const std::string json_out = flags.GetString("json_out", "");
  if (!json_out.empty() && !emitter.WriteJsonFile(json_out)) {
    std::printf("cannot write --json_out=%s\n", json_out.c_str());
    return 1;
  }

  std::printf(
      "\nnote: worker scaling is hardware-gated (%u hardware threads "
      "here);\nthe batched-vs-scalar ratio is the software property this "
      "bench gates on.\n",
      cores);

  if (smoke) {
    // check.sh bench-smoke leg: the pooled engine losing >10%% to scalar
    // matchers is a regression in the SoA pool, not noise.
    const double floor = 0.9 * scalar;
    if (batched_best < floor) {
      std::printf(
          "SMOKE FAIL: batched best %.0f ticks/sec < 0.9x scalar "
          "(%.0f)\n",
          batched_best, floor);
      return 1;
    }
    std::printf("SMOKE PASS: batched best %.0f >= 0.9x scalar (%.0f)\n",
                batched_best, floor);
  }
  return 0;
}
