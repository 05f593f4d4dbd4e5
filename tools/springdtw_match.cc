// springdtw_match: run SPRING disjoint-query matching on stored files.
//
//   springdtw_match --stream=chirp_stream.csv --query=chirp_query.csv
//       --epsilon=100 [--distance=squared|absolute] [--max_length=0]
//       [--min_length=0] [--topk=0] [--paths]
//       [--batch=0] [--threads=0]
//       [--metrics=prom|json] [--metrics_out=FILE]
//       [--trace_out=FILE] [--trace_capacity=4096] [--report_every=0]
//
// Files may be CSV (one value per line, "nan" = missing, repaired
// hold-last) or the binary .sdtw format. With --topk=K the threshold is
// ignored and the K best disjoint matches are printed instead. With
// --paths each match's warping-path step counts are printed too.
//
// Scale-out (threshold mode only): --batch=CHUNK ingests through the
// engine's PushBatch in CHUNK-value runs, processed query-major, instead
// of one Push per value. --threads=N routes through the ShardedMonitor shell with N
// workers (matches still print in deterministic order; a single stream
// lives on one shard, so this exercises the pipeline rather than
// splitting the DP). Both produce byte-identical output to the scalar
// path — the differential oracle test holds them to that.
//
// Observability (threshold mode only): --metrics renders the engine's
// metrics registry after the run — Prometheus text or JSON — to stdout or
// --metrics_out; with --threads it is the fleet-wide merged snapshot.
// --trace_out dumps the match-lifecycle trace ring as JSONL (single-engine
// runs only). --report_every=N prints a one-line metrics summary to stderr
// every N ticks.
//
// Live introspection (threshold mode only): --introspect_port=N serves
// /metrics, /metrics.json, /healthz, /statusz, and /tracez over HTTP on
// 127.0.0.1 while the run ingests (N=0 picks an ephemeral port); the bound
// port is printed as "INTROSPECT_PORT=<port>" before ingest starts.
// --introspect_linger_ms keeps the process (and server) alive after the
// run so late scrapers still get the final state;
// --introspect_staleness_ms and --introspect_publish_ms tune the watchdog
// budget and snapshot publish cadence (docs/OBSERVABILITY.md).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>

#include "core/subsequence_scan.h"
#include "monitor/engine.h"
#include "monitor/sharded_monitor.h"
#include "monitor/sink.h"
#include "obs/exposition.h"
#include "obs/introspection_server.h"
#include "obs/observability.h"
#include "ts/binary_io.h"
#include "ts/csv.h"
#include "ts/repair.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace {

using namespace springdtw;

util::StatusOr<ts::Series> LoadSeries(const std::string& path) {
  if (path.size() > 5 && path.substr(path.size() - 5) == ".sdtw") {
    return ts::ReadSeriesBinary(path);
  }
  return ts::ReadSeriesCsv(path);
}

// Writes `text` to `path`, or to stdout when path is empty or "-".
bool WriteOutput(const std::string& path, const std::string& text) {
  if (path.empty() || path == "-") {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << text;
  return true;
}

// Renders a metrics snapshot in `format` (prom|json) to `path`/stdout.
bool WriteMetrics(const obs::MetricsSnapshot& snapshot,
                  const std::string& format, const std::string& path) {
  const std::string rendered = format == "prom"
                                   ? obs::RenderPrometheus(snapshot)
                                   : obs::RenderJson(snapshot) + "\n";
  return WriteOutput(path, rendered);
}

// Live-introspection knobs (--introspect_*); port < 0 disables.
struct IntrospectOptions {
  int64_t port = -1;
  int64_t linger_ms = 0;
  double staleness_ms = 1000.0;
  double publish_ms = 50.0;
};

void LingerForScrapers(const IntrospectOptions& introspect) {
  if (introspect.port >= 0 && introspect.linger_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(introspect.linger_ms));
  }
}

// Threshold-mode matching through the MonitorEngine with an observability
// bundle attached; renders metrics / trace afterwards. `batch_chunk` > 0
// ingests via PushBatch in chunk-value runs.
int RunObserved(const ts::Series& stream, const ts::Series& query,
                const core::SpringOptions& options, int64_t batch_chunk,
                const std::string& metrics_format,
                const std::string& metrics_out, const std::string& trace_out,
                int64_t trace_capacity, int64_t report_every,
                const IntrospectOptions& introspect) {
  obs::ObservabilityOptions obs_options;
  obs_options.trace_capacity = trace_capacity;
  obs_options.report_every_ticks = report_every;
  obs_options.report_out = &std::cerr;
  obs::Observability observability(obs_options);

  monitor::MonitorEngine engine;
  const bool want_obs = !metrics_format.empty() || !trace_out.empty() ||
                        report_every > 0 || introspect.port >= 0;
  if (want_obs) engine.AttachObservability(&observability);
  // The stream is already repaired here; keep engine-side repair off.
  const int64_t stream_id = engine.AddStream("stream", false);
  const auto query_id =
      engine.AddQuery(stream_id, "query", query.values(), options);
  if (!query_id.ok()) {
    std::fprintf(stderr, "%s\n", query_id.status().ToString().c_str());
    return 1;
  }
  int64_t count = 0;
  monitor::CallbackSink printer(
      [&count](const monitor::MatchOrigin&, const core::Match& match) {
        std::printf("%s\n", match.ToString().c_str());
        ++count;
      });
  engine.AddSink(&printer);

  // Single-threaded introspection: the ingest loop publishes snapshots
  // into a cache (throttled), the server thread serves the latest copy.
  obs::IntrospectionCache cache;
  std::unique_ptr<obs::IntrospectionServer> server;
  const uint64_t start_nanos =
      static_cast<uint64_t>(util::Stopwatch::NowNanos());
  const uint64_t publish_interval_nanos =
      static_cast<uint64_t>(std::max(introspect.publish_ms, 0.0) * 1e6);
  uint64_t last_publish_nanos = 0;
  const auto publish = [&](bool running, int64_t ticks, uint64_t now) {
    engine.RefreshObservabilityGauges();
    cache.PublishMetrics(observability.registry().Snapshot());
    obs::HealthReport health;
    health.state = running ? "ok" : "stopped";
    health.staleness_budget_ms = introspect.staleness_ms;
    obs::WorkerHealth worker;
    worker.state = health.state;
    worker.ms_since_progress = 0.0;
    health.workers.push_back(worker);
    cache.PublishHealth(std::move(health));
    obs::StatusReport status;
    status.role = "engine";
    status.started = running;
    status.uptime_seconds = static_cast<double>(now - start_nanos) / 1e9;
    status.num_workers = 1;
    status.num_streams = engine.num_streams();
    status.num_queries = engine.num_queries();
    status.ticks_ingested = ticks;
    status.matches_delivered = count;
    cache.PublishStatus(std::move(status));
    obs::TracezReport traces;
    traces.events = observability.trace().Events();
    traces.dropped = observability.trace().dropped();
    cache.PublishTraces(std::move(traces));
    last_publish_nanos = now;
  };
  if (introspect.port >= 0) {
    obs::IntrospectionServerOptions server_options;
    server_options.port = static_cast<int>(introspect.port);
    server = std::make_unique<obs::IntrospectionServer>(server_options,
                                                        cache.Handlers());
    const util::Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "introspection server: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    publish(true, 0, start_nanos);
    std::printf("INTROSPECT_PORT=%d\n", server->port());
    std::fflush(stdout);
  }

  const std::vector<double>& values = stream.values();
  const int64_t chunk = std::max<int64_t>(1, batch_chunk);
  for (int64_t at = 0; at < stream.size(); at += chunk) {
    const int64_t n = std::min(chunk, stream.size() - at);
    const util::StatusOr<int64_t> pushed =
        batch_chunk > 0
            ? engine.PushBatch(stream_id,
                               std::span<const double>(
                                   values.data() + at,
                                   static_cast<size_t>(n)))
            : engine.Push(stream_id, values[static_cast<size_t>(at)]);
    if (!pushed.ok()) {
      std::fprintf(stderr, "%s\n", pushed.status().ToString().c_str());
      return 1;
    }
    if (server != nullptr) {
      const uint64_t now =
          static_cast<uint64_t>(util::Stopwatch::NowNanos());
      if (now - last_publish_nanos >= publish_interval_nanos) {
        publish(true, at + n, now);
      }
    }
  }
  engine.FlushAll();
  std::printf("# %lld matches\n", static_cast<long long>(count));
  if (server != nullptr) {
    publish(false, stream.size(),
            static_cast<uint64_t>(util::Stopwatch::NowNanos()));
    LingerForScrapers(introspect);
  }

  if (want_obs) engine.RefreshObservabilityGauges();
  if (!metrics_format.empty()) {
    if (!WriteMetrics(observability.registry().Snapshot(), metrics_format,
                      metrics_out)) {
      return 1;
    }
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   trace_out.c_str());
      return 1;
    }
    observability.trace().DumpJsonl(out);
  }
  return 0;
}

// Threshold-mode matching through the ShardedMonitor shell (--threads=N).
// Matches are delivered deterministically at the FlushAll barrier; metrics,
// when requested, are the fleet-wide merged snapshot.
int RunSharded(const ts::Series& stream, const ts::Series& query,
               const core::SpringOptions& options, int64_t threads,
               int64_t batch_chunk, const std::string& metrics_format,
               const std::string& metrics_out,
               const IntrospectOptions& introspect) {
  monitor::ShardedMonitorOptions monitor_options;
  monitor_options.num_workers = threads;
  monitor_options.collect_metrics = !metrics_format.empty();
  monitor_options.introspect_port = introspect.port;
  monitor_options.staleness_budget_ms = introspect.staleness_ms;
  monitor_options.publish_interval_ms = introspect.publish_ms;
  monitor::ShardedMonitor monitor(monitor_options);
  if (introspect.port >= 0) {
    if (monitor.introspection_port() < 0) {
      std::fprintf(stderr, "introspection server failed to start\n");
      return 1;
    }
    std::printf("INTROSPECT_PORT=%d\n", monitor.introspection_port());
    std::fflush(stdout);
  }
  // The stream is already repaired here; keep router-side repair off.
  const int64_t stream_id = monitor.AddStream("stream", false);
  const auto query_id =
      monitor.AddQuery(stream_id, "query", query.values(), options);
  if (!query_id.ok()) {
    std::fprintf(stderr, "%s\n", query_id.status().ToString().c_str());
    return 1;
  }
  int64_t count = 0;
  monitor::CallbackSink printer(
      [&count](const monitor::MatchOrigin&, const core::Match& match) {
        std::printf("%s\n", match.ToString().c_str());
        ++count;
      });
  monitor.AddSink(&printer);

  monitor.Start();
  const std::vector<double>& values = stream.values();
  const int64_t chunk = std::max<int64_t>(1, batch_chunk);
  for (int64_t at = 0; at < stream.size(); at += chunk) {
    const int64_t n = std::min(chunk, stream.size() - at);
    const util::Status pushed = monitor.PushBatch(
        stream_id, std::span<const double>(values.data() + at,
                                           static_cast<size_t>(n)));
    if (!pushed.ok()) {
      std::fprintf(stderr, "%s\n", pushed.ToString().c_str());
      return 1;
    }
  }
  monitor.FlushAll();
  std::printf("# %lld matches\n", static_cast<long long>(count));
  std::fflush(stdout);
  // Linger with the workers still up so scrapers see live /healthz and
  // /statusz; pick a staleness budget longer than the linger window if the
  // post-run "stale" verdict is unwanted.
  LingerForScrapers(introspect);

  if (!metrics_format.empty()) {
    if (!WriteMetrics(monitor.MergedMetricsSnapshot(), metrics_format,
                      metrics_out)) {
      return 1;
    }
  }
  monitor.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  const std::string stream_path = flags.GetString("stream", "");
  const std::string query_path = flags.GetString("query", "");
  if (stream_path.empty() || query_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s --stream=FILE --query=FILE --epsilon=E "
                 "[--topk=K] [--distance=squared|absolute] "
                 "[--max_length=N] [--min_length=N] [--paths] "
                 "[--batch=CHUNK] [--threads=N]\n",
                 flags.program_name().c_str());
    return 2;
  }

  auto stream = LoadSeries(stream_path);
  if (!stream.ok()) {
    std::fprintf(stderr, "%s\n", stream.status().ToString().c_str());
    return 1;
  }
  auto query = LoadSeries(query_path);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  if (query->CountMissing() > 0) {
    std::fprintf(stderr, "query has missing values; repair it first\n");
    return 1;
  }
  const int64_t missing = stream->CountMissing();
  const ts::Series repaired =
      missing > 0 ? RepairMissing(*stream, ts::RepairPolicy::kHoldLast)
                  : std::move(*stream);
  if (missing > 0) {
    std::fprintf(stderr, "note: repaired %lld missing readings hold-last\n",
                 static_cast<long long>(missing));
  }

  const dtw::LocalDistance distance =
      flags.GetString("distance", "squared") == "absolute"
          ? dtw::LocalDistance::kAbsolute
          : dtw::LocalDistance::kSquared;
  const int64_t topk = flags.GetInt64("topk", 0);
  const int64_t threads = flags.GetInt64("threads", 0);
  const int64_t batch = flags.GetInt64("batch", 0);
  IntrospectOptions introspect;
  introspect.port = flags.GetInt64("introspect_port", -1);
  introspect.linger_ms = flags.GetInt64("introspect_linger_ms", 0);
  introspect.staleness_ms = flags.GetDouble("introspect_staleness_ms", 1000.0);
  introspect.publish_ms = flags.GetDouble("introspect_publish_ms", 50.0);

  if (topk > 0) {
    if (!flags.GetString("metrics", "").empty() ||
        !flags.GetString("trace_out", "").empty() || introspect.port >= 0) {
      std::fprintf(stderr, "--metrics/--trace_out/--introspect_port do not "
                           "combine with --topk\n");
      return 2;
    }
    if (threads > 0 || batch > 0) {
      std::fprintf(stderr, "--threads/--batch do not combine with "
                           "--topk\n");
      return 2;
    }
    const auto matches =
        core::TopKDisjointMatches(repaired, *query, topk, distance);
    for (const core::Match& m : matches) {
      std::printf("%s\n", m.ToString().c_str());
    }
    return 0;
  }

  const double epsilon = flags.GetDouble("epsilon", -1.0);
  if (epsilon < 0.0) {
    std::fprintf(stderr, "need --epsilon>=0 (or --topk=K)\n");
    return 2;
  }

  const std::string metrics_format = flags.GetString("metrics", "");
  const std::string trace_out = flags.GetString("trace_out", "");
  if (!metrics_format.empty() && metrics_format != "prom" &&
      metrics_format != "json") {
    std::fprintf(stderr, "--metrics must be 'prom' or 'json'\n");
    return 2;
  }
  if ((threads > 0 || batch > 0) && flags.GetBool("paths", false)) {
    std::fprintf(stderr, "--threads/--batch do not combine with --paths\n");
    return 2;
  }
  if (threads > 0 && !trace_out.empty()) {
    std::fprintf(stderr, "--trace_out needs a single engine; it does not "
                         "combine with --threads\n");
    return 2;
  }
  if (!metrics_format.empty() || !trace_out.empty() || threads > 0 ||
      batch > 0 || introspect.port >= 0) {
    if (flags.GetBool("paths", false)) {
      std::fprintf(stderr, "--metrics/--trace_out/--introspect_port do not "
                           "combine with --paths\n");
      return 2;
    }
    core::SpringOptions options;
    options.epsilon = epsilon;
    options.local_distance = distance;
    options.max_match_length = flags.GetInt64("max_length", 0);
    options.min_match_length = flags.GetInt64("min_length", 0);
    if (threads > 0) {
      return RunSharded(repaired, *query, options, threads, batch,
                        metrics_format, flags.GetString("metrics_out", ""),
                        introspect);
    }
    return RunObserved(repaired, *query, options, batch, metrics_format,
                       flags.GetString("metrics_out", ""), trace_out,
                       flags.GetInt64("trace_capacity", 4096),
                       flags.GetInt64("report_every", 0), introspect);
  }

  if (flags.GetBool("paths", false)) {
    const auto matches =
        core::DisjointPathMatches(repaired, *query, epsilon, distance);
    for (const core::PathMatch& m : matches) {
      std::printf("%s path_steps=%zu\n", m.match.ToString().c_str(),
                  m.path.size());
    }
    std::printf("# %zu matches\n", matches.size());
  } else {
    // The scan helpers do not take length constraints; run the matcher
    // directly so --max_length/--min_length work.
    core::SpringOptions options;
    options.epsilon = epsilon;
    options.local_distance = distance;
    options.max_match_length = flags.GetInt64("max_length", 0);
    options.min_match_length = flags.GetInt64("min_length", 0);
    core::SpringMatcher matcher(query->values(), options);
    core::Match match;
    int64_t count = 0;
    for (int64_t t = 0; t < repaired.size(); ++t) {
      if (matcher.Update(repaired[t], &match)) {
        std::printf("%s\n", match.ToString().c_str());
        ++count;
      }
    }
    if (matcher.Flush(&match)) {
      std::printf("%s (flushed)\n", match.ToString().c_str());
      ++count;
    }
    std::printf("# %lld matches\n", static_cast<long long>(count));
  }
  return 0;
}
