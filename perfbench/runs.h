#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

struct RunOptions {
  double seconds = 10.0;
  /// springdtw_serve binary.
  std::string serve_binary;
  /// Working directory for daemon logs and WAL directories; the run creates
  /// what it needs below it and removes it again.
  std::string work_dir;
  /// Traced run: where the recorded spans are written (JSON lines).
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result.
  std::vector<std::string> lines;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

/// The end-to-end run: springdtw_serve as a child process driven over
/// loopback, tracing off. Reports ticks_per_s, match_latency_p50_us,
/// match_latency_p99_us, server_cpu_us_per_tick, server_rss_mib, setup_s.
RunResult RunEndToEnd(const Inputs& inputs, const RunOptions& options);

/// The traced run: replays the inputs in-process through the cumulative
/// layer ladder and reports the per-layer metrics.
RunResult RunLadder(const Inputs& inputs, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_RUNS_H_
