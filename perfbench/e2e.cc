// End-to-end run: springdtw_serve as a child process, driven over loopback
// by this process, tracing off.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "daemon.h"
#include "drive.h"
#include "measure.h"
#include "reference.h"
#include "runs.h"
#include "util/string_util.h"

namespace perfbench {

using springdtw::util::StrFormat;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;

std::vector<std::string> DaemonArgs(const WorkloadSpec& spec,
                                    const std::string& session_dir) {
  std::vector<std::string> args = {
      "--port=0", StrFormat("--workers=%lld", static_cast<long long>(kWorkers))};
  if (spec.wal) {
    args.push_back("--wal_dir=" + session_dir + "/wal");
    args.push_back("--fsync=os");
  }
  if (spec.observability) {
    args.push_back("--introspect_port=0");
    args.push_back("--timeline");
    args.push_back("--slo_p99_ms=50");
  }
  return args;
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

}  // namespace

RunResult RunEndToEnd(const Inputs& inputs, const RunOptions& options) {
  const WorkloadSpec& spec = inputs.spec;
  Daemon daemon;
  Feeders feeders;
  std::string session_dir;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    session_dir = StrFormat("%s/session-%d", options.work_dir.c_str(), i);
    if (auto st = FreshDirectory(session_dir); !st.ok()) Fail(st.ToString());
    // Under the WAL every admin op fsyncs a checkpoint; start each set-up
    // with no earlier write-back (of this run or the last) in the queue.
    FlushFilesystem(session_dir);
    const int64_t spawn_ns = NowNanos();
    if (auto st = daemon.Start(options.serve_binary, DaemonArgs(spec, session_dir),
                               session_dir + "/daemon.log", 60.0);
        !st.ok()) {
      Fail(st.ToString());
    }
    feeders = Feeders();
    if (auto st = ConnectAndRegister(inputs, daemon.port(), &feeders); !st.ok()) {
      Fail("set-up: " + st.ToString());
    }
    setup_s.push_back(static_cast<double>(NowNanos() - spawn_ns) / 1e9);
    if (i + 1 < kSetups) {
      feeders = Feeders();
      (void)daemon.Stop(/*graceful=*/false);
      RemoveTree(session_dir);
    }
  }

  const auto cpu_before = daemon.CpuSeconds();
  DriveOptions drive_options;
  drive_options.seconds = options.seconds;
  auto driven = Drive(inputs, daemon.port(), &feeders, drive_options);
  if (!driven.ok()) Fail("drive: " + driven.status().ToString());
  const DriveResult& d = *driven;
  const auto cpu_after = daemon.CpuSeconds();
  const auto rss = daemon.PeakRssMib();
  if (!cpu_before.ok() || !cpu_after.ok() || !rss.ok()) Fail("cannot read /proc");
  const int64_t setup_calls = feeders.calls - d.calls;
  const int64_t setup_errors = feeders.call_errors - d.call_errors;
  feeders = Feeders();
  const auto stopped = daemon.Stop(/*graceful=*/true);
  RemoveTree(session_dir);

  // Output check, outside the timed window.
  const CheckReport check = CheckOutputs(inputs, d.ticks_sent, d.delivered);

  RunResult out;
  const int64_t unaccounted =
      d.ticks_applied == d.total_ticks_sent
          ? 0
          : std::max<int64_t>(1, std::llabs(d.total_ticks_sent - d.ticks_applied) /
                                     spec.batch_ticks);
  out.attempted = d.batches_sent + setup_calls + d.calls + check.expected_matches +
                  check.planted_checked + 2;
  out.failed = unaccounted + setup_errors + d.call_errors +
               (d.subscriber_disconnected ? 1 : 0) + check.failures() +
               (stopped.ok() ? 0 : 1);
  out.correct = out.failed == 0;

  const Percentile p50 = TailPercentile(d.latency_us, 0.50);
  const Percentile p99 = TailPercentile(d.latency_us, 0.99);
  const Percentile lag = TailPercentile(d.lag_us, 0.99);
  const double ticks_per_s = d.TicksPerSecond();
  const double cpu_us_per_tick = (*cpu_after - *cpu_before) * 1e6 /
                                 static_cast<double>(std::max<int64_t>(1, d.ticks_applied));
  const double ops_failed_frac =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);

  out.lines.push_back(StrFormat(
      "output check: %lld queries recomputed, %lld reference matches, %lld "
      "delivered in all, missing %lld, extra %lld; planted episodes checked "
      "%lld, missed %lld; ticks sent %lld, final drain acked %lld; subscriber "
      "%s; daemon stop %s",
      static_cast<long long>(check.checked_queries),
      static_cast<long long>(check.expected_matches),
      static_cast<long long>(d.delivered.size()), static_cast<long long>(check.missing),
      static_cast<long long>(check.extra), static_cast<long long>(check.planted_checked),
      static_cast<long long>(check.planted_missed),
      static_cast<long long>(d.total_ticks_sent), static_cast<long long>(d.ticks_applied),
      d.subscriber_disconnected ? "DISCONNECTED" : "connected throughout",
      stopped.ok() ? "clean" : stopped.ToString().c_str()));
  for (const std::string& problem : check.problems) out.lines.push_back("  " + problem);
  out.lines.push_back(StrFormat(
      "set-up (%d daemons): min %.4f s, median %.4f s, max %.4f s", kSetups,
      *std::min_element(setup_s.begin(), setup_s.end()), Median(setup_s),
      *std::max_element(setup_s.begin(), setup_s.end())));
  out.lines.push_back("match latency " + p50.Describe(0.50) + " us, " +
                      p99.Describe(0.99) + " us");
  out.lines.push_back(StrFormat("generator %s: %s us", spec.open_loop() ? "lateness" : "think time",
                                lag.Describe(0.99).c_str()));
  if (spec.open_loop()) {
    const bool late = lag.value > kMaxLagP99Us;
    out.lines.push_back(StrFormat(
        "open loop at %.0f ticks/s: %s; generator lateness p99 %.1f us (limit %.0f)",
        spec.rate_ticks_per_s, d.backlog_note.c_str(), lag.value, kMaxLagP99Us));
    if (late || d.backlog_grew) {
      out.correct = false;
      out.lines.push_back(std::string("RUN INVALID: ") +
                          (late ? "generator ran late" : "backlog grew"));
    }
  }
  out.lines.push_back(StrFormat(
      "ROW workload=%s ticks_per_s=%.1f ticks/s match_latency_p50_us=%.1f us "
      "match_latency_p99_us=%.1f us server_cpu_us_per_tick=%.4f us "
      "server_rss_mib=%.2f MiB setup_s=%.4f s ops_failed_frac=%.6f fraction",
      spec.name.c_str(), ticks_per_s, p50.value, p99.value, cpu_us_per_tick, *rss,
      Median(setup_s), ops_failed_frac));

  out.Add("ticks_per_s", ticks_per_s, "ticks/s");
  out.Add("match_latency_p50_us", p50.value, "us");
  out.Add("server_cpu_us_per_tick", cpu_us_per_tick, "us");
  out.Add("server_rss_mib", *rss, "MiB");
  out.Add("setup_s", Median(setup_s), "s");
  return out;
}

}  // namespace perfbench
