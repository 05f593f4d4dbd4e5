// Tests for the introspection HTTP server: JSON renderers and real
// loopback GETs against a running server. The
// HTTP assertions use a raw POSIX socket client so the test exercises the
// exact byte protocol a scraper (curl, Prometheus) would see.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "gtest/gtest.h"
#include "obs/introspection_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace springdtw {
namespace obs {
namespace {

/// Minimal HTTP client: sends `request` verbatim to 127.0.0.1:`port` and
/// returns everything the server wrote before closing. Empty on failure.
std::string RawHttp(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char buffer[2048];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    reply.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

std::string HttpGet(int port, const std::string& path) {
  std::string request = "GET ";
  request += path;
  request += " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  return RawHttp(port, request);
}

TEST(IntrospectionRenderTest, HealthJsonCarriesWorkersAndVerdict) {
  HealthReport report;
  report.healthy = false;
  report.state = "stale";
  report.staleness_budget_ms = 250.0;
  WorkerHealth worker;
  worker.worker = 3;
  worker.state = "stale";
  worker.healthy = false;
  worker.lag_messages = 7;
  worker.ms_since_progress = 900.5;
  report.workers.push_back(worker);

  const std::string json = RenderHealthJson(report);
  EXPECT_NE(json.find("\"healthy\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"state\":\"stale\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"staleness_budget_ms\":250"), std::string::npos);
  EXPECT_NE(json.find("\"worker\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lag_messages\":7"), std::string::npos) << json;
}

TEST(IntrospectionRenderTest, StatusJsonCarriesPipelineCounters) {
  StatusReport report;
  report.role = "sharded_monitor";
  report.started = true;
  report.uptime_seconds = 12.5;
  report.num_workers = 2;
  report.ticks_ingested = 4000;
  report.matches_delivered = 17;
  WorkerStatus worker;
  worker.worker = 1;
  worker.state = "ok";
  worker.ticks = 2000;
  worker.ring_occupancy = 3;
  worker.ring_capacity = 64;
  worker.pending_candidates = 2;
  report.workers.push_back(worker);

  const std::string json = RenderStatusJson(report);
  EXPECT_NE(json.find("\"role\":\"sharded_monitor\""), std::string::npos);
  EXPECT_NE(json.find("\"ticks_ingested\":4000"), std::string::npos);
  EXPECT_NE(json.find("\"matches_delivered\":17"), std::string::npos);
  EXPECT_NE(json.find("\"ring_occupancy\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pending_candidates\":2"), std::string::npos);
  // Never-checkpointed renders as -1, not null.
  EXPECT_NE(json.find("\"checkpoint_age_seconds\":-1"), std::string::npos);
}

TEST(IntrospectionRenderTest, TracezJsonReusesTraceEventJson) {
  TracezReport report;
  report.dropped = 5;
  TraceEvent event;
  event.kind = TraceEventKind::kMatchReported;
  event.tick = 42;
  event.stream_id = 1;
  event.query_id = 2;
  event.start = 10;
  event.end = 20;
  event.distance = 1.5;
  event.report_delay = 3;
  report.events.push_back(event);

  const std::string json = RenderTracezJson(report);
  EXPECT_NE(json.find("\"dropped\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"event\":\"match_reported\""), std::string::npos);
  EXPECT_EQ(json, "{\"dropped\":5,\"events\":[" +
                      TraceEventJson(event) + "]}");
}

// Handlers serving fixed reports; `health` is read at scrape time, so a
// test may replace it before starting a server.
class IntrospectionServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    health_.healthy = true;
    health_.state = "ok";
    WorkerHealth worker;
    worker.state = "ok";
    health_.workers.push_back(worker);
  }

  IntrospectionHandlers Handlers() {
    IntrospectionHandlers handlers;
    handlers.metrics = [] {
      MetricsRegistry registry;
      registry.GetCounter("spring_ticks_total", "ticks", {})->Increment(11);
      return registry.Snapshot();
    };
    handlers.health = [this] { return health_; };
    handlers.status = [] {
      StatusReport status;
      status.role = "engine";
      status.started = true;
      return status;
    };
    handlers.traces = [] {
      TracezReport traces;
      TraceEvent event;
      event.kind = TraceEventKind::kCandidateOpened;
      traces.events.push_back(event);
      return traces;
    };
    return handlers;
  }

  HealthReport health_;
};

TEST_F(IntrospectionServerTest, ServesEveryEndpointOverLoopback) {
  IntrospectionServerOptions options;
  options.port = 0;  // ephemeral
  IntrospectionServer server(options, Handlers());
  ASSERT_EQ(server.port(), -1);
  const util::Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();
  ASSERT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("spring_ticks_total"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Length:"), std::string::npos);

  const std::string metrics_json = HttpGet(server.port(), "/metrics.json");
  EXPECT_NE(metrics_json.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics_json.find("application/json"), std::string::npos);
  EXPECT_NE(metrics_json.find("\"spring_ticks_total\""), std::string::npos);

  const std::string healthz = HttpGet(server.port(), "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.1 200 OK"), std::string::npos) << healthz;
  EXPECT_NE(healthz.find("\"healthy\":true"), std::string::npos);

  const std::string statusz = HttpGet(server.port(), "/statusz");
  EXPECT_NE(statusz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(statusz.find("\"role\":\"engine\""), std::string::npos);

  const std::string tracez = HttpGet(server.port(), "/tracez");
  EXPECT_NE(tracez.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(tracez.find("\"event\":\"candidate_opened\""),
            std::string::npos);

  EXPECT_GE(server.requests_served(), 5);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST_F(IntrospectionServerTest, UnhealthyReportReturns503) {
  health_.healthy = false;
  health_.state = "stale";

  IntrospectionServerOptions options;
  IntrospectionServer server(options, Handlers());
  ASSERT_TRUE(server.Start().ok());
  const std::string healthz = HttpGet(server.port(), "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.1 503 Service Unavailable"),
            std::string::npos)
      << healthz;
  EXPECT_NE(healthz.find("\"state\":\"stale\""), std::string::npos);
}

TEST_F(IntrospectionServerTest, UnknownPathIs404AndPostIs405) {
  IntrospectionServerOptions options;
  IntrospectionServer server(options, Handlers());
  ASSERT_TRUE(server.Start().ok());

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404 Not Found"), std::string::npos);

  const std::string post = RawHttp(
      server.port(),
      "POST /metrics HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n"
      "Connection: close\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405 Method Not Allowed"), std::string::npos)
      << post;
}

TEST_F(IntrospectionServerTest, QueryStringsAreStripped) {
  IntrospectionServerOptions options;
  IntrospectionServer server(options, Handlers());
  ASSERT_TRUE(server.Start().ok());
  const std::string reply = HttpGet(server.port(), "/healthz?verbose=1");
  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos) << reply;
}

TEST_F(IntrospectionServerTest, NullHandlerTurnsEndpointInto404) {
  IntrospectionHandlers handlers = Handlers();
  handlers.traces = nullptr;
  IntrospectionServerOptions options;
  IntrospectionServer server(options, std::move(handlers));
  ASSERT_TRUE(server.Start().ok());
  const std::string reply = HttpGet(server.port(), "/tracez");
  EXPECT_NE(reply.find("HTTP/1.1 404 Not Found"), std::string::npos);
}

TEST_F(IntrospectionServerTest, StopIsIdempotentAndBlocksRestart) {
  IntrospectionServerOptions options;
  IntrospectionServer server(options, Handlers());
  ASSERT_TRUE(server.Start().ok());
  server.Stop();
  server.Stop();  // second Stop is a no-op
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(server.Start().ok());  // not restartable by design
}

TEST(IntrospectionServerStandaloneTest, PortCollisionFailsCleanly) {
  IntrospectionServerOptions options;
  IntrospectionServer first(options, IntrospectionHandlers{});
  ASSERT_TRUE(first.Start().ok());

  IntrospectionServerOptions clash;
  clash.port = first.port();
  IntrospectionServer second(clash, IntrospectionHandlers{});
  const util::Status status = second.Start();
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(second.running());
}

}  // namespace
}  // namespace obs
}  // namespace springdtw
