// perfbench_load: the load generator and in-process layer ladder behind
// perfbench/run.py. Usage:
//
//   perfbench_load --workload=NAME --seed=N --seconds=S --trace=0|1
//                  --serve=PATH/springdtw_serve --work_dir=DIR
//                  [--spans_out=FILE]
//
// Prints human-readable lines, then one JSON result object as the last line
// of stdout. Exits non-zero, printing no result, when the run cannot be
// carried out at all.

#include <cmath>
#include <cstdio>
#include <string>

#include "inputs.h"
#include "runs.h"
#include "util/flags.h"

namespace {

using namespace perfbench;

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int Run(int argc, char** argv) {
  springdtw::util::FlagParser flags(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  const auto spec = FindWorkload(workload);
  if (!spec.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  RunOptions options;
  options.seconds = flags.GetDouble("seconds", 10.0);
  options.serve_binary = flags.GetString("serve", "");
  options.work_dir = flags.GetString("work_dir", "");
  options.spans_out = flags.GetString("spans_out", "");
  const bool trace = flags.GetInt64("trace", 0) != 0;
  const auto seed = static_cast<uint64_t>(flags.GetInt64("seed", 1));
  if (options.serve_binary.empty() || options.work_dir.empty() ||
      options.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --serve, --work_dir and --seconds > 0 are required\n");
    return 2;
  }

  const Inputs inputs = MakeInputs(*spec, seed);
  const RunResult result =
      trace ? RunLadder(inputs, options) : RunEndToEnd(inputs, options);

  for (const std::string& line : result.lines) std::printf("%s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
