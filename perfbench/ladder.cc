// Traced run: replays the workload's inputs in-process through a cumulative
// ladder of each layer's public entry points, recording a span around every
// call the benchmark makes.
//
//   core        core::SpringBatchPool::PushBatch, one pool per stream
//   engine      monitor::MonitorEngine::PushBatch (and again with an
//               observability bundle attached as the shards attach it)
//   sharded     monitor::ShardedMonitor PushBatch + Drain, 1 and 2 workers
//   loopback    in-process net::StreamServer over the 2-worker monitor,
//               driven by net::StreamClient feeders exactly like the daemon
//   wal         + wal::WalWriter (fsync=os)
//   traced      + introspection, 1-in-64 spans and cost sampling
//   timeline    + metrics timeline and the SLO alert rule
//
// Work the benchmark's own thread does inside a call is read from the spans;
// work on worker or server threads is the difference between adjacent rungs.
// The rungs run in three interleaved passes (forward, reverse, forward) and
// each figure is the median over the passes, so a slow stretch of the host
// does not land on one rung alone.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>

#include "core/spring_batch.h"
#include "daemon.h"
#include "drive.h"
#include "measure.h"
#include "monitor/engine.h"
#include "monitor/sharded_monitor.h"
#include "monitor/sink.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/observability.h"
#include "reference.h"
#include "runs.h"
#include "util/string_util.h"
#include "wal/env.h"
#include "wal/wal.h"

namespace perfbench {

using namespace springdtw;
using util::StrFormat;

namespace {

constexpr int kPasses = 3;

/// One pass of one rung.
struct Rung {
  /// Units of work (ticks; frames for the decode rung) and their wall time.
  int64_t ticks = 0;
  int64_t wall_ns = 0;
  /// Per-event durations in microseconds: match delivery latency, or the
  /// time of each PollTimeline call.
  std::vector<double> samples_us;
  /// Generator think time (closed loop) or lateness (open loop).
  std::vector<double> lag_us;
  /// Closed loop: each round's time from its first push to the end of its
  /// barrier, by which every match it caused has been delivered.
  std::vector<double> round_us;
  /// A count the rung measures: cells computed (core), bytes per tick
  /// logged (wal_append) or put on the wire (decode).
  double count = 0.0;
  /// Loopback rungs: what was sent and delivered, for the output check.
  std::vector<int64_t> ticks_sent;
  std::vector<DeliveredMatch> delivered;
  /// Span totals inside this pass of the rung.
  std::map<std::string, SpanTotals> spans;

  double ns_per_tick() const {
    return static_cast<double>(wall_ns) / static_cast<double>(std::max<int64_t>(1, ticks));
  }
  double ticks_per_s() const { return 1e9 / ns_per_tick(); }
  /// Self time of the spans called `name` in this pass.
  double SpanNs(const char* name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  }
  double SpanNsPerTick(const char* name) const {
    return SpanNs(name) / static_cast<double>(std::max<int64_t>(1, ticks));
  }
};

core::SpringOptions OptionsOf(const QueryInput& query) {
  core::SpringOptions options;
  options.epsilon = query.epsilon;
  return options;
}

/// Runs the workload's rounds in-process until `seconds` have passed:
/// `push(chunk, values)` per chunk, then `barrier()` per round. When `paced`
/// (open-loop workloads), round r is sent at its due time and latencies are
/// measured from it; otherwise from the round's start.
class RoundLoop {
 public:
  RoundLoop(const Inputs& inputs, Tracer* tracer, bool paced)
      : inputs_(inputs), tracer_(tracer), rounds_(inputs),
        paced_(paced && inputs.spec.open_loop()) {}

  template <typename Push, typename Barrier>
  Rung Run(double seconds, Push&& push, Barrier&& barrier) {
    Rung rung;
    std::vector<double> values;
    const int64_t t0 = NowNanos();
    const int64_t duration_ns = static_cast<int64_t>(seconds * 1e9);
    round_start_ns_.clear();
    for (int64_t r = 0;; ++r) {
      int64_t start = NowNanos();
      if (paced_) {
        const int64_t due = t0 + rounds_.DueNanos(r);
        if (due - t0 >= duration_ns) break;
        timespec ts{static_cast<time_t>(due / 1000000000),
                    static_cast<long>(due % 1000000000)};
        while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
        }
        rung.lag_us.push_back(static_cast<double>(NowNanos() - due) / 1e3);
        start = due;
      }
      round_start_ns_.push_back(start);
      for (const Rounds::Chunk& chunk : rounds_.Get(r)) {
        values.resize(static_cast<size_t>(chunk.end - chunk.begin));
        {
          ScopedSpan fill(tracer_, "loadgen.Fill");
          inputs_.Fill(chunk.stream, chunk.begin, values);
        }
        push(chunk, std::span<const double>(values));
        rung.ticks += chunk.end - chunk.begin;
      }
      barrier();
      if (paced_) continue;
      const int64_t done = NowNanos();
      rung.round_us.push_back(static_cast<double>(done - start) / 1e3);
      if (done - t0 >= duration_ns) break;
    }
    rung.wall_ns = NowNanos() - t0;
    return rung;
  }

  /// Latency of a match delivered now, measured from its round's start.
  void RecordLatency(std::vector<double>* samples_us, int64_t stream,
                     const core::Match& match) const {
    const size_t r = static_cast<size_t>(rounds_.RoundOf(stream, match.report_time));
    if (r < round_start_ns_.size()) {
      samples_us->push_back(static_cast<double>(NowNanos() - round_start_ns_[r]) / 1e3);
    }
  }

 private:
  const Inputs& inputs_;
  Tracer* tracer_;
  Rounds rounds_;
  bool paced_;
  std::vector<int64_t> round_start_ns_;
};

Rung CoreRung(const Inputs& inputs, double seconds, Tracer* tracer) {
  std::vector<core::SpringBatchPool> pools(inputs.streams.size());
  for (const QueryInput& q : inputs.queries) {
    pools[static_cast<size_t>(q.stream)].AddQuery(q.values, OptionsOf(q));
  }
  std::vector<core::SpringBatchPool::Report> reports;
  RoundLoop loop(inputs, tracer, /*paced=*/false);
  Rung rung = loop.Run(
      seconds,
      [&](const Rounds::Chunk& chunk, std::span<const double> values) {
        ScopedSpan span(tracer, "core.PushBatch");
        pools[static_cast<size_t>(chunk.stream)].PushBatch(values, &reports);
        reports.clear();
      },
      [] {});
  for (const core::SpringBatchPool& pool : pools) {
    for (int64_t i = 0; i < pool.num_queries(); ++i) {
      rung.count += static_cast<double>(pool.cells_computed_total(i));
    }
  }
  return rung;
}

Rung EngineRung(const Inputs& inputs, double seconds, Tracer* tracer,
                bool observed) {
  // The configuration ShardedMonitor gives its shard engines.
  monitor::EngineOptions options;
  options.batch_queries = true;
  options.batch_with_obs = true;
  if (observed) options.cost_sample_every = 64;
  monitor::MonitorEngine engine(options);
  obs::ObservabilityOptions obs_options;
  obs_options.trace_capacity = 1024;
  obs::Observability bundle(obs_options);
  if (observed) engine.AttachObservability(&bundle);
  monitor::CollectSink sink;
  engine.AddSink(&sink);
  for (const StreamInput& s : inputs.streams) {
    engine.AddStream(s.name, /*repair_missing=*/false);
  }
  for (const QueryInput& q : inputs.queries) {
    (void)engine.AddQuery(q.stream, q.name, q.values, OptionsOf(q));
  }
  const char* span_name = observed ? "engine_obs.PushBatch" : "engine.PushBatch";
  RoundLoop loop(inputs, tracer, /*paced=*/false);
  return loop.Run(
      seconds,
      [&](const Rounds::Chunk& chunk, std::span<const double> values) {
        ScopedSpan span(tracer, span_name);
        (void)engine.PushBatch(chunk.stream, values);
      },
      [&] { sink.Clear(); });
}

Rung ShardedRung(const Inputs& inputs, double seconds, Tracer* tracer,
                 int64_t workers, bool paced) {
  monitor::ShardedMonitorOptions options;
  options.num_workers = workers;
  monitor::ShardedMonitor monitor(options);
  RoundLoop loop(inputs, tracer, paced);
  std::vector<double> latency_us;
  monitor::CallbackSink sink(
      [&](const monitor::MatchOrigin& origin, const core::Match& match) {
        loop.RecordLatency(&latency_us, origin.stream_id, match);
      });
  monitor.AddSink(&sink);
  for (const StreamInput& s : inputs.streams) monitor.AddStream(s.name);
  for (const QueryInput& q : inputs.queries) {
    (void)monitor.AddQuery(q.stream, q.name, q.values, OptionsOf(q));
  }
  monitor.Start();
  Rung rung = loop.Run(
      seconds,
      [&](const Rounds::Chunk& chunk, std::span<const double> values) {
        ScopedSpan span(tracer, "sharded.PushBatch");
        (void)monitor.PushBatch(chunk.stream, values);
      },
      [&] {
        ScopedSpan span(tracer, "sharded.Drain");
        monitor.Drain();
      });
  monitor.Stop();
  rung.samples_us = std::move(latency_us);
  return rung;
}

/// The serving stack of springdtw_serve, in-process: a 2-worker monitor, an
/// optional WAL with checkpoints, and the stream server.
class Stack {
 public:
  struct Config {
    bool wal = false;
    bool traced = false;
    bool timeline = false;
  };

  Stack(const Config& config, const std::string& dir) : config_(config), dir_(dir) {}
  ~Stack() {
    if (server_ != nullptr) server_->Stop();
    if (monitor_ != nullptr) monitor_->Stop();
    if (config_.wal) RemoveTree(dir_);
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  util::Status Start() {
    monitor::ShardedMonitorOptions options;
    options.num_workers = kWorkers;
    if (config_.traced) options.introspect_port = 0;
    if (config_.timeline) {
      options.enable_timeline = true;
      options.slo_p99_ms = 50.0;
    }
    monitor_ = std::make_unique<monitor::ShardedMonitor>(options);
    if (config_.wal) {
      SPRINGDTW_RETURN_IF_ERROR(FreshDirectory(dir_));
      wal::WalOptions wal_options;
      wal_options.dir = dir_;
      wal_options.num_shards = kWorkers;
      wal_options.fsync = wal::FsyncPolicy::kOs;
      auto opened = wal::WalWriter::Open(wal_options);
      if (!opened.ok()) return opened.status();
      wal_ = std::move(*opened);
    }
    monitor_->Start();
    server_ = std::make_unique<net::StreamServer>(monitor_.get(), net::StreamServerOptions());
    if (config_.wal) {
      const std::string path = dir_ + "/checkpoint.ckpt";
      monitor::ShardedMonitor* monitor = monitor_.get();
      server_->SetCheckpointFn([monitor, path]() -> util::StatusOr<uint64_t> {
        const std::vector<uint8_t> bytes = monitor->SerializeState();
        SPRINGDTW_RETURN_IF_ERROR(wal::AtomicWriteFile(wal::Env::Default(), path, bytes));
        return static_cast<uint64_t>(bytes.size());
      });
      server_->SetWal(wal_.get());
    }
    return server_->Start();
  }

  int port() const { return server_->port(); }

 private:
  Config config_;
  std::string dir_;
  std::unique_ptr<monitor::ShardedMonitor> monitor_;
  std::unique_ptr<wal::WalWriter> wal_;
  std::unique_ptr<net::StreamServer> server_;
};

/// A loopback rung: the in-process stack driven like the daemon.
util::StatusOr<Rung> LoopbackRung(const Inputs& inputs, double seconds,
                                  Tracer* tracer, const Stack::Config& config,
                                  const std::string& dir, bool paced) {
  Stack stack(config, dir);
  SPRINGDTW_RETURN_IF_ERROR(stack.Start());
  Feeders feeders;
  SPRINGDTW_RETURN_IF_ERROR(ConnectAndRegister(inputs, stack.port(), &feeders));
  DriveOptions options;
  options.seconds = seconds;
  options.tracer = tracer;
  options.paced = paced;
  auto driven = Drive(inputs, stack.port(), &feeders, options);
  if (!driven.ok()) return driven.status();
  if (driven->call_errors > 0 || driven->ticks_applied != driven->total_ticks_sent) {
    return util::InternalError("loopback rung lost ticks or calls failed");
  }
  Rung rung;
  rung.ticks = driven->ticks_applied;
  rung.wall_ns = driven->final_ack_ns - driven->first_send_ns;
  rung.samples_us = std::move(driven->latency_us);
  rung.lag_us = std::move(driven->lag_us);
  rung.round_us = std::move(driven->round_us);
  rung.delivered = std::move(driven->delivered);
  rung.ticks_sent = std::move(driven->ticks_sent);
  return rung;
}

/// WalWriter::AppendTicks on the workload's batches; `count` is the bytes
/// logged per tick.
Rung WalAppendRung(const Inputs& inputs, double seconds, Tracer* tracer,
                   const std::string& dir) {
  wal::WalOptions options;
  options.dir = dir;
  options.num_shards = kWorkers;
  options.fsync = wal::FsyncPolicy::kOs;
  auto opened = FreshDirectory(dir).ok() ? wal::WalWriter::Open(options)
                                         : util::IoError("cannot create " + dir);
  if (!opened.ok()) return Rung();
  std::unique_ptr<wal::WalWriter> writer = std::move(*opened);
  uint64_t seq = 0;
  RoundLoop loop(inputs, tracer, /*paced=*/false);
  Rung rung = loop.Run(
      seconds,
      [&](const Rounds::Chunk& chunk, std::span<const double> values) {
        ScopedSpan span(tracer, "wal.AppendTicks");
        // Streams alternate between the two workers (BalancedStreamNames).
        (void)writer->AppendTicks(chunk.stream % kWorkers, seq, chunk.stream, values);
        seq += values.size();
      },
      [] {});
  writer.reset();
  uintmax_t bytes = 0;
  std::error_code error;
  for (const auto& entry : std::filesystem::directory_iterator(dir, error)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  rung.count = static_cast<double>(bytes) / static_cast<double>(std::max<int64_t>(1, rung.ticks));
  RemoveTree(dir);
  return rung;
}

/// CutFrame + DecodePayload over the workload's TICK_BATCH frames as the
/// client encodes them (with the send-time trailer). `ticks` counts frames
/// decoded; `count` is the wire bytes per tick.
Rung DecodeRung(const Inputs& inputs, double seconds, Tracer* tracer) {
  Rounds rounds(inputs);
  std::vector<uint8_t> wire;
  int64_t ticks = 0;
  int64_t frames = 0;
  for (int64_t r = 0; frames < 4096; ++r) {
    for (const Rounds::Chunk& chunk : rounds.Get(r)) {
      net::TickBatchPayload payload;
      payload.stream_id = chunk.stream;
      payload.values.resize(static_cast<size_t>(chunk.end - chunk.begin));
      inputs.Fill(chunk.stream, chunk.begin, payload.values);
      payload.send_nanos = static_cast<uint64_t>(NowNanos());
      net::AppendPayloadFrame(net::FrameType::kTickBatch, payload, &wire);
      ticks += chunk.end - chunk.begin;
      ++frames;
    }
  }
  Rung rung;
  rung.count = static_cast<double>(wire.size()) / static_cast<double>(ticks);
  const int64_t t0 = NowNanos();
  net::Frame frame;
  net::TickBatchPayload payload;
  while (NowNanos() - t0 < static_cast<int64_t>(seconds * 1e9)) {
    ScopedSpan span(tracer, "net.DecodeFrames");
    const int64_t start = NowNanos();
    for (size_t offset = 0; offset < wire.size();) {
      size_t consumed = 0;
      if (!net::CutFrame(std::span<const uint8_t>(wire).subspan(offset),
                         net::kDefaultMaxFrameBytes, &frame, &consumed)
               .ok() ||
          consumed == 0 || !net::DecodePayload(frame.payload, &payload).ok()) {
        return Rung();
      }
      offset += consumed;
      ++rung.ticks;
    }
    rung.wall_ns += NowNanos() - start;
  }
  return rung;
}

/// ShardedMonitor::PollTimeline(true) on a timeline-enabled 2-worker monitor
/// that has ingested part of the workload; `samples_us` holds each call.
Rung TimelinePollRung(const Inputs& inputs, double seconds, Tracer* tracer) {
  monitor::ShardedMonitorOptions options;
  options.num_workers = kWorkers;
  options.enable_timeline = true;
  options.slo_p99_ms = 50.0;
  monitor::ShardedMonitor monitor(options);
  for (const StreamInput& s : inputs.streams) monitor.AddStream(s.name);
  for (const QueryInput& q : inputs.queries) {
    (void)monitor.AddQuery(q.stream, q.name, q.values, OptionsOf(q));
  }
  monitor.Start();
  RoundLoop loop(inputs, nullptr, /*paced=*/false);
  loop.Run(
      seconds / 2,
      [&](const Rounds::Chunk& chunk, std::span<const double> values) {
        (void)monitor.PushBatch(chunk.stream, values);
      },
      [&] { monitor.Drain(); });
  Rung rung;
  const int64_t t0 = NowNanos();
  while (NowNanos() - t0 < static_cast<int64_t>(seconds / 2 * 1e9)) {
    ScopedSpan span(tracer, "obs.PollTimeline");
    const int64_t start = NowNanos();
    monitor.PollTimeline(/*force=*/true);
    rung.samples_us.push_back(static_cast<double>(NowNanos() - start) / 1e3);
  }
  monitor.Stop();
  return rung;
}

/// Median over the passes of f(pass).
template <typename F>
double MedianOver(const std::vector<Rung>& passes, F f) {
  std::vector<double> values;
  for (const Rung& pass : passes) values.push_back(f(pass));
  return Median(values);
}

/// Every pass's samples of `field`, pooled.
std::vector<double> Pooled(const std::vector<Rung>& passes,
                           std::vector<double> Rung::*field) {
  std::vector<double> all;
  for (const Rung& pass : passes) {
    all.insert(all.end(), (pass.*field).begin(), (pass.*field).end());
  }
  return all;
}

}  // namespace

RunResult RunLadder(const Inputs& inputs, const RunOptions& options) {
  const WorkloadSpec& spec = inputs.spec;
  const bool open = spec.open_loop();
  Tracer tracer;
  Tracer untraced(/*enabled=*/false);
  const auto loopback = [&](const char* name, Stack::Config config, bool paced,
                            bool traced = true) {
    return [&inputs, &options, &tracer, &untraced, name, config, paced,
            traced](double slice) {
      auto rung = LoopbackRung(inputs, slice, traced ? &tracer : &untraced, config,
                               options.work_dir + "/" + name, paced);
      if (!rung.ok()) {
        std::fprintf(stderr, "perfbench: %s: %s\n", name, rung.status().ToString().c_str());
        std::exit(1);
      }
      return *std::move(rung);
    };
  };
  // The stack configuration the end-to-end run gives the daemon; its rung
  // runs once more without spans to measure the benchmark's own tracing.
  const Stack::Config e2e{.wal = spec.wal, .traced = spec.observability,
                          .timeline = spec.observability};
  std::vector<std::pair<const char*, std::function<Rung(double)>>> ladder = {
      {"rung.core", [&](double s) { return CoreRung(inputs, s, &tracer); }},
      {"rung.engine", [&](double s) { return EngineRung(inputs, s, &tracer, false); }},
      {"rung.engine_obs", [&](double s) { return EngineRung(inputs, s, &tracer, true); }},
      {"rung.sharded_1w", [&](double s) { return ShardedRung(inputs, s, &tracer, 1, false); }},
      {"rung.sharded_2w",
       [&](double s) { return ShardedRung(inputs, s, &tracer, kWorkers, false); }},
      {"rung.loopback", loopback("loopback", {}, false)},
      {"rung.wal", loopback("wal", {.wal = true}, false)},
      {"rung.traced", loopback("traced", {.wal = true, .traced = true}, false)},
      {"rung.timeline",
       loopback("timeline", {.wal = true, .traced = true, .timeline = true}, false)},
      {"rung.untraced", loopback("untraced", e2e, false, /*traced=*/false)},
      {"rung.wal_append",
       [&](double s) { return WalAppendRung(inputs, s, &tracer, options.work_dir + "/append"); }},
      {"rung.decode", [&](double s) { return DecodeRung(inputs, s, &tracer); }},
      {"rung.timeline_poll", [&](double s) { return TimelinePollRung(inputs, s, &tracer); }},
  };
  if (open) {
    // Delivery latency of the open-loop workload is measured on its schedule.
    ladder.push_back({"rung.sharded_2w_paced",
                      [&](double s) { return ShardedRung(inputs, s, &tracer, kWorkers, true); }});
    ladder.push_back({"rung.loopback_paced", loopback("loopback_paced", {}, true)});
  }

  const double slice = options.seconds / static_cast<double>(ladder.size() * kPasses);
  std::map<std::string, std::vector<Rung>> runs;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t i = 0; i < ladder.size(); ++i) {
      const auto& [name, run] = ladder[pass % 2 == 0 ? i : ladder.size() - 1 - i];
      const int32_t root = tracer.Begin(name);
      Rung rung = run(slice);
      tracer.End(root);
      rung.spans = tracer.Totals(root);
      runs[name].push_back(std::move(rung));
    }
  }

  // Output check on every pass of the loopback rung.
  RunResult out;
  CheckReport check;
  for (const Rung& pass : runs["rung.loopback"]) {
    const CheckReport r = CheckOutputs(inputs, pass.ticks_sent, pass.delivered);
    check.expected_matches += r.expected_matches;
    check.missing += r.missing;
    check.extra += r.extra;
    check.planted_checked += r.planted_checked;
    check.planted_missed += r.planted_missed;
    check.problems.insert(check.problems.end(), r.problems.begin(), r.problems.end());
  }
  out.attempted = check.expected_matches + check.planted_checked + 1;
  out.failed = check.failures();
  out.correct = out.failed == 0;

  const auto& core = runs["rung.core"];
  const auto& sharded2 = runs["rung.sharded_2w"];
  const auto& net = runs["rung.loopback"];
  const auto wall = [](const Rung& r) { return r.ns_per_tick(); };
  const auto tps = [](const Rung& r) { return r.ticks_per_s(); };
  const double core_ns = MedianOver(core, [](const Rung& r) { return r.SpanNsPerTick("core.PushBatch"); });
  const double engine_ns = MedianOver(runs["rung.engine"], [](const Rung& r) {
    return r.SpanNsPerTick("engine.PushBatch");
  });
  const double engine_obs_ns = MedianOver(runs["rung.engine_obs"], [](const Rung& r) {
    return r.SpanNsPerTick("engine_obs.PushBatch");
  });
  const double sharded1_ns = MedianOver(runs["rung.sharded_1w"], wall);
  const double sharded2_ns = MedianOver(sharded2, wall);
  const double net_ns = MedianOver(net, wall);
  const double wal_ns = MedianOver(runs["rung.wal"], wall);
  const double traced_ns = MedianOver(runs["rung.traced"], wall);
  const double timeline_ns = MedianOver(runs["rung.timeline"], wall);

  std::vector<double> drain_us;
  for (const Rung& pass : sharded2) {
    const auto it = pass.spans.find("sharded.Drain");
    if (it == pass.spans.end()) continue;
    for (double ns : it->second.durations_ns) drain_us.push_back(ns / 1e3);
  }
  const Percentile drain_p50 = TailPercentile(drain_us, 0.50);
  const Percentile drain_p99 = TailPercentile(drain_us, 0.99);
  // Delivery: open loop, match latency from the due time; closed loop, the
  // round's completion, which bounds the latency of every match it caused
  // and exists even for rounds without matches.
  const auto& delivery_sharded = runs[open ? "rung.sharded_2w_paced" : "rung.sharded_2w"];
  const auto& delivery_net = runs[open ? "rung.loopback_paced" : "rung.loopback"];
  const auto delivery_field = open ? &Rung::samples_us : &Rung::round_us;
  const Percentile net_latency = TailPercentile(Pooled(delivery_net, delivery_field), 0.50);
  const Percentile sharded_latency =
      TailPercentile(Pooled(delivery_sharded, delivery_field), 0.50);
  const Percentile lag = TailPercentile(Pooled(delivery_net, &Rung::lag_us), 0.99);

  const double engine_self = engine_ns - core_ns;
  const double sharded_self = sharded1_ns - engine_ns;
  const double net_self = net_ns - sharded2_ns;
  const double wal_self = wal_ns - net_ns;
  const double trace_self = traced_ns - wal_ns;
  const double timeline_self = timeline_ns - traced_ns;
  const double residual_pct =
      100.0 *
      (timeline_ns - (core_ns + engine_self + sharded_self + net_self + wal_self +
                      trace_self + timeline_self)) /
      timeline_ns;
  const double untraced_tps = MedianOver(runs["rung.untraced"], tps);
  const double traced_tps = MedianOver(runs[spec.observability ? "rung.timeline" : "rung.loopback"], tps);

  out.Add("core.ns_per_cell",
          MedianOver(core, [](const Rung& r) { return r.SpanNs("core.PushBatch") / r.count; }),
          "ns/cell");
  out.Add("core.ns_per_tick", core_ns, "ns/tick");
  out.Add("core.cells_per_tick",
          MedianOver(core, [](const Rung& r) { return r.count / static_cast<double>(r.ticks); }),
          "cells/tick");
  out.Add("engine.self_ns_per_tick", engine_self, "ns/tick");
  out.Add("engine.observed_self_ns_per_tick", engine_obs_ns - core_ns, "ns/tick");
  out.Add("sharded.router_ns_per_tick",
          MedianOver(sharded2, [](const Rung& r) { return r.SpanNsPerTick("sharded.PushBatch"); }),
          "ns/tick");
  out.Add("sharded.self_ns_per_tick", sharded_self, "ns/tick");
  out.Add("sharded.drain_us_p50", drain_p50.value, "us");
  out.Add("sharded.drain_us_p99", drain_p99.value, "us");
  out.Add("sharded.scaling_2w", MedianOver(sharded2, tps) / MedianOver(runs["rung.sharded_1w"], tps),
          "x");
  out.Add("net.client_ns_per_tick", MedianOver(net, [](const Rung& r) {
            return r.SpanNsPerTick("client.TickBatch") + r.SpanNsPerTick("client.Flush");
          }),
          "ns/tick");
  out.Add("net.decode_ns_per_frame", MedianOver(runs["rung.decode"], wall), "ns/frame");
  out.Add("net.wire_bytes_per_tick",
          MedianOver(runs["rung.decode"], [](const Rung& r) { return r.count; }), "B/tick");
  out.Add("net.server_self_ns_per_tick", net_self, "ns/tick");
  out.Add("net.delivery_self_us_p50", net_latency.value - sharded_latency.value, "us");
  out.Add("wal.append_ns_per_tick", MedianOver(runs["rung.wal_append"], [](const Rung& r) {
            return r.SpanNsPerTick("wal.AppendTicks");
          }),
          "ns/tick");
  out.Add("wal.bytes_per_tick",
          MedianOver(runs["rung.wal_append"], [](const Rung& r) { return r.count; }), "B/tick");
  out.Add("wal.self_ns_per_tick", wal_self, "ns/tick");
  out.Add("obs.trace_self_ns_per_tick", trace_self, "ns/tick");
  out.Add("obs.timeline_self_ns_per_tick", timeline_self, "ns/tick");
  out.Add("obs.timeline_poll_us", Median(Pooled(runs["rung.timeline_poll"], &Rung::samples_us)),
          "us");
  out.Add("loadgen.ns_per_tick",
          MedianOver(net, [](const Rung& r) { return r.SpanNsPerTick("loadgen.Fill"); }),
          "ns/tick");
  out.Add("loadgen.lag_p99_us", lag.value, "us");
  out.Add("bench.ladder_residual_pct", residual_pct, "%");
  out.Add("bench.trace_overhead_pct", 100.0 * (untraced_tps - traced_tps) / untraced_tps, "%");

  out.lines.push_back(StrFormat(
      "ladder %s (median of %d interleaved passes), ns/tick: core %.1f | engine %.1f | "
      "engine+obs %.1f | sharded 1w %.1f | sharded 2w %.1f | loopback %.1f | +wal %.1f | "
      "+traced %.1f | +timeline %.1f",
      spec.name.c_str(), kPasses, core_ns, engine_ns, engine_obs_ns, sharded1_ns, sharded2_ns,
      net_ns, wal_ns, traced_ns, timeline_ns));
  out.lines.push_back("sharded 2w drain " + drain_p50.Describe(0.50) + " us, " +
                      drain_p99.Describe(0.99) + " us");
  out.lines.push_back(StrFormat("delivery %s: loopback %s us, sharded %s us",
                                open ? "(paced match latency)" : "(closed-loop round completion)",
                                net_latency.Describe(0.50).c_str(),
                                sharded_latency.Describe(0.50).c_str()));
  out.lines.push_back("generator " + std::string(open ? "lateness " : "think time ") +
                      lag.Describe(0.99) + " us");
  out.lines.push_back(StrFormat(
      "output check (loopback rung, %d passes): %lld reference matches, missing %lld, extra "
      "%lld, planted checked %lld, missed %lld",
      kPasses, static_cast<long long>(check.expected_matches),
      static_cast<long long>(check.missing), static_cast<long long>(check.extra),
      static_cast<long long>(check.planted_checked),
      static_cast<long long>(check.planted_missed)));
  for (const std::string& problem : check.problems) out.lines.push_back("  " + problem);
  if (!options.spans_out.empty()) {
    const util::Status written = tracer.WriteJsonLines(options.spans_out);
    out.lines.push_back(written.ok() ? "spans written to " + options.spans_out
                                     : "spans not written: " + written.ToString());
  }
  for (const Metric& m : out.metrics) {
    out.lines.push_back(StrFormat("LAYER %-34s %14.4f %s", m.name.c_str(), m.value, m.unit.c_str()));
  }
  return out;
}

}  // namespace perfbench
