#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

namespace util = springdtw::util;

/// Shape of one benchmark workload. The values are fixed per workload; only
/// the generated data depends on the seed.
struct WorkloadSpec {
  std::string name;
  int64_t num_streams = 0;
  int64_t queries_per_stream = 0;
  /// Query length m.
  int64_t m = 0;
  /// Ticks in each stream's cyclic tape.
  int64_t tape_length = 0;
  /// Feeder connections (the open-loop workload adds one subscriber).
  int connections = 1;
  /// Closed loop: ticks per TICK_BATCH frame and batches each stream sends
  /// before the window's DRAIN barrier.
  int64_t batch_ticks = 256;
  int64_t batches_per_window = 1;
  /// Open loop: offered rate and send period (0 rate = closed loop).
  double rate_ticks_per_s = 0.0;
  double batch_period_ms = 0.0;
  /// Daemon configuration.
  bool wal = false;
  bool observability = false;
  /// Queries per stream the output check recomputes (-1 = every query).
  int64_t checked_queries_per_stream = -1;
  /// Planted instances must all be detected (no false dismissals).
  bool check_planted = false;

  bool open_loop() const { return rate_ticks_per_s > 0.0; }
  int64_t num_queries() const { return num_streams * queries_per_stream; }
};

/// The three registered workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
util::StatusOr<WorkloadSpec> FindWorkload(const std::string& name);

/// An episode the generator planted in a stream tape: `query` (a global
/// query index) should match ticks [start, start + length).
struct Planted {
  int64_t start = 0;
  int64_t length = 0;
  int64_t query = 0;
};

struct StreamInput {
  std::string name;
  /// Cyclic tape: stream position p carries tape[p % tape.size()].
  std::vector<double> tape;
  /// Planted episodes within one tape cycle, ordered by start.
  std::vector<Planted> planted;
};

struct QueryInput {
  int64_t stream = 0;
  std::string name;
  std::vector<double> values;
  double epsilon = 0.0;
};

/// Every input of one run, generated from the workload seed. The daemon
/// receives only these ticks and queries.
struct Inputs {
  WorkloadSpec spec;
  uint64_t seed = 0;
  std::vector<StreamInput> streams;
  /// Global query index q belongs to stream q / queries_per_stream.
  std::vector<QueryInput> queries;

  /// Copies stream positions [pos, pos + out.size()) of stream `s`.
  void Fill(int64_t s, int64_t pos, std::span<double> out) const;
};

/// Generates the inputs. Stream names are chosen so both workers of a
/// 2-worker ShardedMonitor own the same number of streams (checked with
/// ShardedMonitor::worker_of_stream).
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// Canonical byte image of the inputs (names, tapes, queries, thresholds,
/// planted episodes), for the same-seed determinism check.
std::vector<uint8_t> SerializeInputs(const Inputs& inputs);

/// Worker count of the daemon and of the sharded rungs.
inline constexpr int64_t kWorkers = 2;

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
