// springdtw_serve: run a ShardedMonitor as a long-lived TCP daemon.
//
//   springdtw_serve [--port=0] [--workers=2]
//       [--checkpoint=FILE] [--checkpoint_period_ms=0]
//       [--wal_dir=DIR] [--fsync=os|interval|every_record]
//       [--fsync_interval_ms=50] [--wal_segment_bytes=4194304]
//       [--introspect_port=-1] [--staleness_ms=1000]
//       [--max_connections=64] [--max_frame_bytes=1048576]
//       [--idle_timeout_ms=0]
//       [--alert_rules=FILE] [--slo_p99_ms=0] [--timeline]
//
// Speaks the net/protocol.h wire format (docs/SERVING.md): clients open
// streams, register/remove queries, push ticks, subscribe to match
// fan-out, and request drains/checkpoints. The bound port is printed as
// "SERVE_PORT=<port>" once the server is up (port 0 picks an ephemeral
// port), so scripts can discover it. An unknown flag or a malformed value
// exits 2 with the flag named, before anything starts.
//
// --checkpoint=FILE makes the daemon durable: if FILE exists at startup
// the monitor restores from it (resuming mid-stream, pending candidates
// intact), CHECKPOINT frames and the periodic checkpointer write to it
// (atomically: temp file + fsync + rename + directory fsync), and on
// SIGTERM/SIGINT the daemon drains, writes a final checkpoint, and exits
// 0. The final checkpoint deliberately does NOT flush pending candidates —
// a restore continues the stream byte-identically, as if the process had
// never died.
//
// --wal_dir=DIR additionally logs every accepted tick to a per-shard
// write-ahead log before it is acked, making ingest durable between
// checkpoints (docs/DURABILITY.md). Startup restores the newest checkpoint
// (defaulting --checkpoint to DIR/checkpoint.ckpt), replays the WAL tail
// through the monitor, and re-delivers any matches past the logged
// delivery watermark to the first subscribers; an unclean shutdown is
// detected and reported on stderr as a "WAL_RECOVERY ..." line carrying
// the replayed-record count. --fsync picks the durability/throughput
// trade-off per docs/DURABILITY.md.
//
// --introspect_port=N serves the monitor's telemetry over HTTP: /metrics,
// /healthz, /statusz, /tracez, /spanz, /queryz, /streamz, /timez, /alertz
// (N=0 ephemeral; printed as "INTROSPECT_PORT=<port>"). /metrics carries
// the serving layer's spring_net_* and the WAL's spring_wal_* families too.
// Telemetry samples 1-in-64 ticks for end-to-end spans and 1-in-64 runs for
// per-query CPU cost.
//
// --timeline records every published snapshot into the fixed-memory
// metrics timeline served as /timez. --alert_rules=FILE loads alert rules
// (syntax: docs/OBSERVABILITY.md) evaluated on the publish cadence and
// served as /alertz; a firing page-severity rule flips /healthz to 503.
// --slo_p99_ms=N adds the conventional two-window burn-rate page rule over
// the p99 end-to-end latency budget of N ms. Each of these turns telemetry
// on; none needs --introspect_port.

#include <csignal>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "monitor/sharded_monitor.h"
#include "monitor/sink.h"
#include "net/server.h"
#include "util/flags.h"
#include "util/status.h"
#include "util/string_util.h"
#include "wal/env.h"
#include "wal/wal.h"

namespace {

using namespace springdtw;

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int /*signum*/) { g_shutdown = 1; }

util::StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::IoError("cannot open " + path);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (in.bad()) return util::IoError("read failed: " + path);
  return bytes;
}

int Run(int argc, char** argv) {
  // Every accepted flag is read here, before anything starts, so a typo or
  // a retired flag fails loudly instead of being ignored.
  util::FlagParser flags(argc, argv);
  const int64_t port = flags.GetInt64("port", 0);
  const int64_t workers = flags.GetInt64("workers", 2);
  const std::string wal_dir = flags.GetString("wal_dir", "");
  std::string checkpoint_path = flags.GetString("checkpoint", "");
  if (checkpoint_path.empty() && !wal_dir.empty()) {
    checkpoint_path = wal_dir + "/checkpoint.ckpt";
  }
  const std::string fsync = flags.GetString("fsync", "os");
  const std::string alert_rules_path = flags.GetString("alert_rules", "");

  monitor::ShardedMonitorOptions monitor_options;
  monitor_options.num_workers = workers > 0 ? workers : 1;
  monitor_options.introspect_port = flags.GetInt64("introspect_port", -1);
  monitor_options.staleness_budget_ms =
      flags.GetDouble("staleness_ms", 1000.0);
  monitor_options.enable_timeline = flags.GetBool("timeline", false);
  monitor_options.slo_p99_ms = flags.GetDouble("slo_p99_ms", 0.0);

  wal::WalOptions wal_options;
  wal_options.dir = wal_dir;
  wal_options.num_shards = monitor_options.num_workers;
  wal_options.fsync_interval_ms = flags.GetInt64("fsync_interval_ms", 50);
  wal_options.segment_bytes = flags.GetInt64("wal_segment_bytes", 4 << 20);

  net::StreamServerOptions server_options;
  server_options.port = static_cast<int>(port);
  server_options.max_connections = flags.GetInt64("max_connections", 64);
  server_options.max_frame_bytes = static_cast<uint64_t>(flags.GetInt64(
      "max_frame_bytes", static_cast<int64_t>(net::kDefaultMaxFrameBytes)));
  server_options.idle_timeout_ms = flags.GetDouble("idle_timeout_ms", 0.0);
  server_options.checkpoint_period_ms =
      flags.GetDouble("checkpoint_period_ms", 0.0);

  const std::vector<std::string> flag_errors = flags.Errors();
  for (const std::string& error : flag_errors) {
    std::fprintf(stderr, "springdtw_serve: %s\n", error.c_str());
  }
  if (!flag_errors.empty()) return 2;

  if (!alert_rules_path.empty()) {
    std::ifstream rules_in(alert_rules_path);
    if (!rules_in) {
      std::fprintf(stderr, "cannot open --alert_rules=%s\n",
                   alert_rules_path.c_str());
      return 1;
    }
    std::string rules_text((std::istreambuf_iterator<char>(rules_in)),
                           std::istreambuf_iterator<char>());
    auto rules = obs::ParseAlertRules(rules_text);
    if (!rules.ok()) {
      std::fprintf(stderr, "--alert_rules=%s: %s\n", alert_rules_path.c_str(),
                   rules.status().ToString().c_str());
      return 1;
    }
    monitor_options.alert_rules = *std::move(rules);
    std::fprintf(stderr, "loaded %zu alert rules from %s\n",
                 monitor_options.alert_rules.size(),
                 alert_rules_path.c_str());
  }

  // Registered with the monitor only for WAL replay, but sinks are
  // never unregistered, so it must outlive the monitor: declared first,
  // gated by `replay_active` so live serving does not accumulate here.
  bool replay_active = false;
  std::vector<monitor::CollectSink::Entry> replay_entries;
  monitor::CallbackSink replay_sink(
      [&replay_active, &replay_entries](const monitor::MatchOrigin& origin,
                                        const core::Match& match) {
        if (replay_active) {
          replay_entries.push_back(monitor::CollectSink::Entry{origin, match});
        }
      });

  monitor::ShardedMonitor monitor(monitor_options);

  if (!checkpoint_path.empty()) {
    std::ifstream probe(checkpoint_path, std::ios::binary);
    if (probe.good()) {
      auto bytes = ReadFileBytes(checkpoint_path);
      if (!bytes.ok()) {
        std::fprintf(stderr, "checkpoint read: %s\n",
                     bytes.status().ToString().c_str());
        return 1;
      }
      const util::Status restored = monitor.RestoreState(*bytes);
      if (!restored.ok()) {
        std::fprintf(stderr, "checkpoint restore: %s\n",
                     restored.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "restored %zu streams, %zu checkpoint bytes\n",
                   static_cast<size_t>(monitor.num_streams()),
                   bytes->size());
    }
  }

  // Scan the WAL tail before the writer opens fresh segments, so the scan
  // sees exactly what the previous incarnation left behind.
  wal::Env* const wal_env = wal::Env::Default();
  std::unique_ptr<wal::WalWriter> wal;
  wal::RecoveredWal recovered;
  if (!wal_dir.empty()) {
    auto scanned = wal::RecoverWal(wal_env, wal_dir, monitor.next_seq());
    if (!scanned.ok()) {
      std::fprintf(stderr, "WAL recovery: %s\n",
                   scanned.status().ToString().c_str());
      return 1;
    }
    recovered = std::move(*scanned);

    auto policy = wal::ParseFsyncPolicy(fsync);
    if (!policy.ok()) {
      std::fprintf(stderr, "--fsync: %s\n",
                   policy.status().ToString().c_str());
      return 1;
    }
    wal_options.fsync = *policy;
    auto opened = wal::WalWriter::Open(wal_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "WAL open: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    wal = std::move(*opened);
    wal->RecordReplayedRecords(recovered.records_replayed);
  }

  monitor.Start();

  // Replay the recovered tail through the monitor exactly as the original
  // ingest ran it, capturing the matches it (re)produces; everything at or
  // below the delivery watermark already reached every subscriber before
  // the crash and is filtered out, the rest is buffered for re-delivery to
  // the first post-restart subscribers. Not checkpointed or truncated
  // here: the tail stays on disk until a natural checkpoint, so repeated
  // crashes replay the same tail from the same checkpoint.
  std::vector<net::RecoveredMatch> recovered_matches;
  if (!recovered.chunks.empty() || recovered.torn_tail) {
    monitor.AddSink(&replay_sink);
    replay_active = true;
    for (const auto& chunk : recovered.chunks) {
      if (monitor.next_seq() != chunk.seq0) {
        std::fprintf(stderr,
                     "WAL replay: sequence skew (log %llu, monitor %llu)\n",
                     static_cast<unsigned long long>(chunk.seq0),
                     static_cast<unsigned long long>(monitor.next_seq()));
        monitor.Stop();
        return 1;
      }
      const util::Status pushed =
          monitor.PushBatch(chunk.stream_id, chunk.values);
      if (!pushed.ok()) {
        std::fprintf(stderr, "WAL replay: %s\n", pushed.ToString().c_str());
        monitor.Stop();
        return 1;
      }
    }
    const util::StatusOr<int64_t> drained = monitor.Drain();
    if (!drained.ok()) {
      std::fprintf(stderr, "WAL replay drain: %s\n",
                   drained.status().ToString().c_str());
      monitor.Stop();
      return 1;
    }
    replay_active = false;
    for (const auto& entry : replay_entries) {
      if (entry.origin.global_seq < 0) continue;
      if (recovered.has_watermark) {
        const auto key = std::make_pair(
            static_cast<uint64_t>(entry.origin.global_seq),
            entry.origin.query_id);
        const auto mark = std::make_pair(recovered.watermark_seq,
                                         recovered.watermark_query_id);
        if (key <= mark) continue;
      }
      recovered_matches.push_back(
          net::RecoveredMatch{entry.origin, entry.match});
    }
    std::fprintf(
        stderr,
        "WAL_RECOVERY dir=%s replayed_records=%lld replayed_values=%lld "
        "segments=%lld torn_tail=%d recovered_matches=%zu\n",
        wal_dir.c_str(), static_cast<long long>(recovered.records_replayed),
        static_cast<long long>(recovered.values),
        static_cast<long long>(recovered.segments),
        recovered.torn_tail ? 1 : 0, recovered_matches.size());
  }

  net::StreamServer server(&monitor, server_options);

  if (!checkpoint_path.empty()) {
    // Runs on the server's event-loop thread, which holds the router role.
    server.SetCheckpointFn(
        [&monitor, wal_env, checkpoint_path]() -> util::StatusOr<uint64_t> {
          const std::vector<uint8_t> bytes = monitor.SerializeState();
          SPRINGDTW_RETURN_IF_ERROR(
              wal::AtomicWriteFile(wal_env, checkpoint_path, bytes));
          return static_cast<uint64_t>(bytes.size());
        });
  }
  if (wal != nullptr) {
    server.SetWal(wal.get());
    server.SetRecoveredMatches(std::move(recovered_matches));
  }

  const util::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start: %s\n", started.ToString().c_str());
    monitor.Stop();
    return 1;
  }

  std::printf("SERVE_PORT=%d\n", server.port());
  if (monitor.introspection_port() >= 0) {
    std::printf("INTROSPECT_PORT=%d\n", monitor.introspection_port());
  }
  std::fflush(stdout);

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  while (g_shutdown == 0) {
    timespec ts{0, 50 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }

  // Graceful shutdown: stop serving (joins the loop thread, handing the
  // router role back to this thread), apply everything routed, write a
  // final checkpoint preserving pending candidates, and — with that
  // checkpoint durably covering every logged tick — truncate the WAL so
  // the next start is clean.
  server.Stop();
  (void)monitor.Drain();
  if (!checkpoint_path.empty()) {
    const std::vector<uint8_t> bytes = monitor.SerializeState();
    const util::Status written =
        wal::AtomicWriteFile(wal_env, checkpoint_path, bytes);
    if (!written.ok()) {
      std::fprintf(stderr, "final checkpoint: %s\n",
                   written.ToString().c_str());
      monitor.Stop();
      return 1;
    }
    std::fprintf(stderr, "final checkpoint: %zu bytes\n", bytes.size());
    if (wal != nullptr) {
      const util::Status truncated = wal->Truncate();
      if (!truncated.ok()) {
        std::fprintf(stderr, "WAL truncate: %s\n",
                     truncated.ToString().c_str());
        monitor.Stop();
        return 1;
      }
    }
  }
  monitor.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
