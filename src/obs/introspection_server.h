#ifndef SPRINGDTW_OBS_INTROSPECTION_SERVER_H_
#define SPRINGDTW_OBS_INTROSPECTION_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/status.h"

namespace springdtw {
namespace obs {

/// Health verdict for one pipeline worker, as reported by /healthz.
/// Staleness semantics (docs/OBSERVABILITY.md): a worker that has processed
/// traffic before but has not advanced for longer than the staleness budget
/// is "stale" — this covers both a stuck worker (backlog it cannot drain)
/// and a dead feed (silence beyond the budget on a stream that is expected
/// to tick continuously).
struct WorkerHealth {
  int64_t worker = 0;
  /// "idle" (never saw traffic), "ok", "stale", or "stopped".
  std::string state = "idle";
  bool healthy = true;
  /// Messages routed to this worker but not yet fully processed.
  uint64_t lag_messages = 0;
  /// Milliseconds since the worker last finished a message; < 0 = never.
  double ms_since_progress = -1.0;
};

struct HealthReport {
  bool healthy = true;
  /// "ok", "stale", "alerting", "stopped", or "disabled" (no telemetry).
  std::string state = "ok";
  double staleness_budget_ms = 0.0;
  std::vector<WorkerHealth> workers;
};

/// One worker's row in /statusz.
struct WorkerStatus {
  int64_t worker = 0;
  std::string state = "idle";
  uint64_t messages_produced = 0;
  uint64_t messages_consumed = 0;
  int64_t ticks = 0;
  int64_t streams = 0;
  int64_t queries = 0;
  /// Candidates currently pending (d_m <= epsilon, not yet reported), as of
  /// the worker's last published snapshot.
  int64_t pending_candidates = 0;
  uint64_t ring_occupancy = 0;
  uint64_t ring_capacity = 0;
  uint64_t ring_blocked_pushes = 0;
  uint64_t ring_producer_parks = 0;
  uint64_t ring_consumer_parks = 0;
};

struct StatusReport {
  /// "engine" (single MonitorEngine) or "sharded_monitor".
  std::string role = "engine";
  bool started = false;
  double uptime_seconds = 0.0;
  int64_t num_workers = 0;
  int64_t num_streams = 0;
  int64_t num_queries = 0;
  int64_t ticks_ingested = 0;
  int64_t matches_delivered = 0;
  /// Seconds since the last checkpoint was serialized; < 0 = never.
  double checkpoint_age_seconds = -1.0;
  std::vector<WorkerStatus> workers;
};

/// Payload for /tracez: recent match-lifecycle events plus how many were
/// lost to ring wrap-around.
struct TracezReport {
  std::vector<TraceEvent> events;
  int64_t dropped = 0;
};

std::string RenderHealthJson(const HealthReport& report);
std::string RenderStatusJson(const StatusReport& report);
std::string RenderTracezJson(const TracezReport& report);

/// Endpoint data sources. Every handler runs on the server thread and must
/// be thread-safe against the monitored pipeline; a null handler turns its
/// endpoint into a 404.
struct IntrospectionHandlers {
  std::function<MetricsSnapshot()> metrics;
  std::function<HealthReport()> health;
  std::function<StatusReport()> status;
  std::function<TracezReport()> traces;
  std::function<SpanzReport()> spans;
  /// Cost-accounting endpoints return pre-rendered JSON so the obs layer
  /// stays ignorant of the monitor's accounting types (the provider ranks
  /// and renders; see monitor/cost_accounting.h).
  std::function<std::string()> queryz_json;
  std::function<std::string()> streamz_json;
  /// /timez: metrics-timeline series, pre-rendered (see obs/timeline.h's
  /// RenderTimezJson). Receives the raw URL query string after '?'
  /// ("metric=...&window=...&field=..."), empty for the catalog document.
  std::function<std::string(const std::string& query)> timez_json;
  /// /alertz: alert rule states, pre-rendered (obs/alert.h).
  std::function<std::string()> alertz_json;
};

struct IntrospectionServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (see port()).
  int port = 0;
  /// Bind 127.0.0.1 only (the default); false binds all interfaces.
  bool loopback_only = true;
};

/// Dependency-free HTTP/1.1 introspection server: a blocking accept loop on
/// one dedicated thread, plain POSIX sockets, GET-only, one request per
/// connection (Connection: close). Endpoints (docs/OBSERVABILITY.md):
///
///   /metrics       Prometheus text exposition 0.0.4
///   /metrics.json  the same snapshot as JSON
///   /healthz       liveness + per-worker staleness verdict (503 when any
///                  worker is stale)
///   /statusz       pipeline snapshot: per-worker ticks, ring occupancy,
///                  pending candidates, checkpoint age, uptime
///   /tracez        recent match-lifecycle trace events
///   /spanz         recent end-to-end tick spans (sampled ingest tracing)
///   /queryz        per-query cost accounting, ranked top-K by cost
///   /streamz       per-stream cost accounting, ranked top-K by cost
///   /timez         metrics-timeline series (?metric=&window=&field=)
///   /alertz        alert rule states + transition counters
///
/// Requests are served serially; handlers produce small bounded payloads,
/// so a slow scraper can delay the next scrape but never the pipeline.
class IntrospectionServer {
 public:
  IntrospectionServer(const IntrospectionServerOptions& options,
                      IntrospectionHandlers handlers);
  ~IntrospectionServer();

  IntrospectionServer(const IntrospectionServer&) = delete;
  IntrospectionServer& operator=(const IntrospectionServer&) = delete;

  /// Binds, listens, and spawns the serving thread. Fails on bind/listen
  /// errors (e.g. port in use). Not restartable after Stop().
  util::Status Start();

  /// Stops the serving thread and closes the listening socket. Idempotent;
  /// also run by the destructor.
  void Stop();

  bool running() const {
    // order: relaxed — advisory flag; Start()/Stop() synchronize via the
    // serving thread's spawn/join, not this load.
    return running_.load(std::memory_order_relaxed);
  }
  /// The bound port (the actual one when options.port was 0), or -1 before
  /// a successful Start().
  int port() const { return port_; }
  /// Requests answered so far (any status code).
  int64_t requests_served() const {
    // order: relaxed — diagnostic counter; staleness is fine.
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  struct Response {
    int code = 200;
    std::string content_type;
    std::string body;
  };

  void ServeLoop();
  void HandleConnection(int client_fd);
  Response Dispatch(const std::string& path, const std::string& query) const;

  IntrospectionServerOptions options_;
  IntrospectionHandlers handlers_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> requests_served_{0};
  std::thread thread_;
};

}  // namespace obs
}  // namespace springdtw

#endif  // SPRINGDTW_OBS_INTROSPECTION_SERVER_H_
