#ifndef PERFBENCH_DRIVE_H_
#define PERFBENCH_DRIVE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "measure.h"
#include "net/client.h"
#include "reference.h"
#include "util/status.h"

namespace perfbench {

namespace util = springdtw::util;

/// Feeder connections to a serving endpoint with the workload's streams
/// opened and queries registered (over the wire, through client 0).
struct Feeders {
  std::vector<std::unique_ptr<springdtw::net::StreamClient>> clients;
  /// Server ids by input index, and the inverse maps.
  std::vector<int64_t> stream_ids;
  std::vector<int64_t> query_ids;
  std::vector<int64_t> stream_index_of_id;
  std::vector<int64_t> query_index_of_id;
  /// Client calls made and failed so far.
  int64_t calls = 0;
  int64_t call_errors = 0;

  int64_t StreamIndex(int64_t server_id) const;
  int64_t QueryIndex(int64_t server_id) const;
};

/// Connects every feeder of the workload to 127.0.0.1:`port` and registers
/// its streams and queries.
util::Status ConnectAndRegister(const Inputs& inputs, int port,
                                Feeders* feeders);

/// What one timed drive observed.
struct DriveResult {
  std::vector<int64_t> ticks_sent;  // per stream
  int64_t total_ticks_sent = 0;
  int64_t batches_sent = 0;
  /// DRAIN_ACK tick count of the final barrier (server lifetime total).
  int64_t ticks_applied = 0;
  int64_t first_send_ns = 0;
  int64_t final_ack_ns = 0;
  std::vector<DeliveredMatch> delivered;
  /// Due-to-decode latency of each delivered match, in microseconds.
  std::vector<double> latency_us;
  /// Open loop: how late each batch went out; closed loop: the generator's
  /// own time between a window's DRAIN_ACK and its next send.
  std::vector<double> lag_us;
  /// Closed loop: each round's time from its first send to its last
  /// DRAIN_ACK, by which every match the round caused has been delivered.
  std::vector<double> round_us;
  /// Open loop only: whether offered minus applied ticks grew over the last
  /// quarter of the run, with the figures behind the verdict.
  bool backlog_grew = false;
  std::string backlog_note;
  bool subscriber_disconnected = false;
  int64_t calls = 0;
  int64_t call_errors = 0;

  double TicksPerSecond() const {
    return static_cast<double>(ticks_applied) /
           (static_cast<double>(final_ack_ns - first_send_ns) / 1e9);
  }
};

/// The workload's unit of sending. Closed-loop workloads send a window of
/// `batches_per_window` batches of `batch_ticks` per stream, round-robin over
/// streams; the open-loop workload sends one schedule batch (one send
/// period's ticks, split per stream).
class Rounds {
 public:
  struct Chunk {
    int64_t stream = 0;
    int64_t begin = 0;  // First stream position.
    int64_t end = 0;    // One past the last.
  };

  explicit Rounds(const Inputs& inputs);

  /// Chunks of round r, in send order (valid until the next call).
  const std::vector<Chunk>& Get(int64_t r);
  /// The round that carries position `pos` of stream `stream`.
  int64_t RoundOf(int64_t stream, int64_t pos) const;
  /// Open loop: the round's due time after the start.
  int64_t DueNanos(int64_t r) const { return schedule_.BatchDueNanos(r); }
  const OpenLoopSchedule& schedule() const { return schedule_; }

 private:
  const WorkloadSpec& spec_;
  OpenLoopSchedule schedule_;
  std::vector<Chunk> chunks_;
};

struct DriveOptions {
  double seconds = 10.0;
  /// Client calls and input copies are recorded as spans here (may be null).
  Tracer* tracer = nullptr;
  /// Open-loop workloads: send on the schedule. When false they run closed
  /// loop over their own rounds, like the closed-loop workloads.
  bool paced = true;
};

/// Sends the workload for `seconds`, then drains. Closed loop: each round is
/// sent round-robin over the feeders, flushed, and closed by a DRAIN on every
/// feeder; matches arrive on feeder 0, which is subscribed. Open loop: rounds
/// go out through feeder 0 at their due times while a second thread reads
/// MATCH_EVENT frames from a separate subscriber connection.
util::StatusOr<DriveResult> Drive(const Inputs& inputs, int port,
                                  Feeders* feeders, const DriveOptions& options);

/// The open-loop validity limit on the generator's p99 lateness: 25 send
/// periods. Latency is timed from the due time, so lateness already counts
/// against it; the limit only rejects a generator too late to be offering
/// the schedule at all. Stalls of 10-30 ms that hold every thread, the
/// generator's included, occur a few times a minute on a shared 4-thread
/// host, and a tighter limit would reject those runs.
inline constexpr double kMaxLagP99Us = 25000.0;

}  // namespace perfbench

#endif  // PERFBENCH_DRIVE_H_
