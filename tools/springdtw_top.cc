// springdtw_top: live terminal dashboard for a running springdtw_serve.
//
//   springdtw_top --port=N [--host=127.0.0.1] [--interval_ms=1000]
//       [--frames=0] [--plain]
//
// Polls the daemon's introspection port (springdtw_serve
// --introspect_port=N) and renders an ANSI dashboard: ingest rate with a
// sparkline, per-stage p99 latency sparklines, per-worker ring occupancy
// bars, the top-K most expensive queries from /queryz, and the alert rule
// table from /alertz. Timeline panels need the daemon started with
// --timeline (or alert rules); without it the dashboard degrades to the
// /statusz + /queryz sections and says so.
//
// --frames=N exits after N refreshes (0 = run until SIGINT), and --plain
// suppresses ANSI escapes — together they make the dashboard scriptable:
//
//   springdtw_top --port=$INTROSPECT_PORT --frames=1 --plain
//
// prints one frame of plain text and exits 0, which is how the serve-smoke
// check leg asserts the dashboard renders against a live daemon.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "util/flags.h"
#include "util/json.h"
#include "util/status.h"
#include "util/string_util.h"

namespace {

using namespace springdtw;

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int /*signum*/) { g_stop = 1; }

// One-shot HTTP/1.1 GET against the introspection server (Connection:
// close, so the body is simply everything after the header terminator).
util::StatusOr<std::string> HttpGet(const std::string& host, int port,
                                    const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return util::IoError("socket() failed");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::InvalidArgumentError("bad host: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return util::IoError(util::StrFormat("connect to %s:%d failed: %s",
                                         host.c_str(), port,
                                         std::strerror(errno)));
  }
  const std::string request = util::StrFormat(
      "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n",
      path.c_str(), host.c_str());
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             0);
    if (n <= 0) {
      ::close(fd);
      return util::IoError("send failed");
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      ::close(fd);
      return util::IoError("recv failed");
    }
    if (n == 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return util::IoError("malformed HTTP response");
  }
  const size_t status_end = response.find("\r\n");
  const std::string status_line = response.substr(0, status_end);
  // "HTTP/1.1 200 OK" — the dashboard tolerates 503 (alerting /healthz)
  // because the body is still the JSON payload it wants.
  if (status_line.find(" 200 ") == std::string::npos &&
      status_line.find(" 503 ") == std::string::npos) {
    return util::IoError("HTTP error: " + status_line);
  }
  return response.substr(header_end + 4);
}

util::StatusOr<util::JsonValue> FetchJson(const std::string& host, int port,
                                          const std::string& path) {
  auto body = HttpGet(host, port, path);
  if (!body.ok()) return body.status();
  return util::ParseJson(*body);
}

// --- rendering helpers ----------------------------------------------------

constexpr const char* kBlocks[] = {" ", "▁", "▂", "▃", "▄", "▅", "▆", "▇",
                                   "█"};

std::string Sparkline(const std::vector<double>& values, size_t width) {
  std::string out;
  if (values.empty()) return out;
  const size_t start = values.size() > width ? values.size() - width : 0;
  double hi = 0.0;
  for (size_t i = start; i < values.size(); ++i) {
    hi = std::max(hi, values[i]);
  }
  for (size_t i = start; i < values.size(); ++i) {
    const double v = std::max(0.0, values[i]);
    int level = hi > 0.0 ? static_cast<int>(std::lround(v / hi * 8.0)) : 0;
    if (v > 0.0 && level == 0) level = 1;  // nonzero stays visible
    out += kBlocks[std::clamp(level, 0, 8)];
  }
  return out;
}

std::string Bar(double fraction, size_t width) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const size_t filled =
      static_cast<size_t>(std::lround(fraction * static_cast<double>(width)));
  std::string out;
  for (size_t i = 0; i < width; ++i) out += i < filled ? "█" : "·";
  return out;
}

std::string HumanCount(double v) {
  if (v >= 1e9) return util::StrFormat("%.2fG", v / 1e9);
  if (v >= 1e6) return util::StrFormat("%.2fM", v / 1e6);
  if (v >= 1e3) return util::StrFormat("%.1fk", v / 1e3);
  return util::StrFormat("%.0f", v);
}

std::string HumanNanos(double nanos) {
  if (nanos >= 1e9) return util::StrFormat("%.2fs", nanos / 1e9);
  if (nanos >= 1e6) return util::StrFormat("%.2fms", nanos / 1e6);
  if (nanos >= 1e3) return util::StrFormat("%.1fus", nanos / 1e3);
  return util::StrFormat("%.0fns", nanos);
}

struct Palette {
  const char* reset = "";
  const char* bold = "";
  const char* dim = "";
  const char* red = "";
  const char* yellow = "";
  const char* green = "";
  const char* cyan = "";
};

Palette AnsiPalette() {
  Palette p;
  p.reset = "\x1b[0m";
  p.bold = "\x1b[1m";
  p.dim = "\x1b[2m";
  p.red = "\x1b[31m";
  p.yellow = "\x1b[33m";
  p.green = "\x1b[32m";
  p.cyan = "\x1b[36m";
  return p;
}

// Extracts one numeric series (one point list) from a /timez?metric=...
// document. `use_rate` reads the per-second rate instead of the bucket
// value (the natural reading for counter deltas). When the document has
// several labeled series (e.g. per-stage histograms) the caller iterates
// them via TimezSeries().
std::vector<double> PointValues(const util::JsonValue& series, bool use_rate) {
  std::vector<double> out;
  const util::JsonValue* points = series.Find("points");
  if (points == nullptr || !points->is_array()) return out;
  for (const util::JsonValue& point : points->array()) {
    out.push_back(point.NumberOr(use_rate ? "rate" : "value", 0.0));
  }
  return out;
}

const std::vector<util::JsonValue>* TimezSeries(const util::JsonValue& doc) {
  const util::JsonValue* series = doc.Find("series");
  if (series == nullptr || !series->is_array()) return nullptr;
  return &series->array();
}

std::string SeriesLabel(const util::JsonValue& series) {
  const util::JsonValue* labels = series.Find("labels");
  if (labels == nullptr || !labels->is_object() || labels->size() == 0) {
    return "";
  }
  std::string out;
  for (const auto& member : labels->members()) {
    if (!out.empty()) out += ',';
    out += member.second.is_string() ? member.second.string_value() : "?";
  }
  return out;
}

struct Frame {
  std::string text;

  void Line(const std::string& line) {
    text += line;
    text += '\n';
  }
};

void RenderHeader(const util::JsonValue& statusz, const util::JsonValue& healthz,
                  const Palette& p, Frame* frame) {
  const std::string health_state = healthz.StringOr("state", "unknown");
  const bool healthy = healthz.BoolOr("healthy", false);
  const char* health_color =
      healthy ? p.green : (health_state == "alerting" ? p.red : p.yellow);
  frame->Line(util::StrFormat(
      "%sspringdtw_top%s  role=%s workers=%lld streams=%lld queries=%lld  "
      "uptime=%.0fs  health=%s%s%s",
      p.bold, p.reset, statusz.StringOr("role", "?").c_str(),
      static_cast<long long>(statusz.IntOr("num_workers", 0)),
      static_cast<long long>(statusz.IntOr("num_streams", 0)),
      static_cast<long long>(statusz.IntOr("num_queries", 0)),
      statusz.NumberOr("uptime_seconds", 0.0), health_color,
      health_state.c_str(), p.reset));
  frame->Line(util::StrFormat(
      "ticks_ingested=%s  matches_delivered=%s  checkpoint_age=%.0fs",
      HumanCount(
          static_cast<double>(statusz.IntOr("ticks_ingested", 0)))
          .c_str(),
      HumanCount(
          static_cast<double>(statusz.IntOr("matches_delivered", 0)))
          .c_str(),
      statusz.NumberOr("checkpoint_age_seconds", -1.0)));
}

void RenderIngestRate(const util::JsonValue& timez, const Palette& p,
                      Frame* frame) {
  const std::vector<util::JsonValue>* series = TimezSeries(timez);
  if (series == nullptr || series->empty()) {
    frame->Line(util::StrFormat(
        "%singest%s   (no timeline — start serve with --timeline)", p.bold,
        p.reset));
    return;
  }
  // Ticks counters are per-shard; sum the labeled series point-wise.
  std::vector<double> rates;
  for (const util::JsonValue& s : *series) {
    const std::vector<double> values = PointValues(s, /*use_rate=*/true);
    if (values.size() > rates.size()) rates.resize(values.size(), 0.0);
    for (size_t i = 0; i < values.size(); ++i) {
      rates[rates.size() - values.size() + i] += values[i];
    }
  }
  const double now_rate = rates.empty() ? 0.0 : rates.back();
  frame->Line(util::StrFormat("%singest%s   %s/s %s%s%s", p.bold, p.reset,
                              HumanCount(now_rate).c_str(), p.cyan,
                              Sparkline(rates, 60).c_str(), p.reset));
}

void RenderStageLatency(const util::JsonValue& timez, const Palette& p,
                        Frame* frame) {
  const std::vector<util::JsonValue>* series = TimezSeries(timez);
  if (series == nullptr || series->empty()) return;
  frame->Line(util::StrFormat("%sstage p99%s", p.bold, p.reset));
  for (const util::JsonValue& s : *series) {
    const std::vector<double> values = PointValues(s, /*use_rate=*/false);
    double latest = 0.0;
    for (auto it = values.rbegin(); it != values.rend(); ++it) {
      if (*it > 0.0) {
        latest = *it;
        break;
      }
    }
    frame->Line(util::StrFormat(
        "  %-16s %9s %s%s%s", SeriesLabel(s).c_str(),
        HumanNanos(latest).c_str(), p.cyan, Sparkline(values, 48).c_str(),
        p.reset));
  }
}

void RenderRings(const util::JsonValue& statusz, const Palette& p,
                 Frame* frame) {
  const util::JsonValue* workers = statusz.Find("workers");
  if (workers == nullptr || !workers->is_array() || workers->size() == 0) {
    return;
  }
  frame->Line(util::StrFormat("%srings%s", p.bold, p.reset));
  for (const util::JsonValue& worker : workers->array()) {
    const double occupancy =
        static_cast<double>(worker.IntOr("ring_occupancy", 0));
    const double capacity =
        static_cast<double>(worker.IntOr("ring_capacity", 0));
    const double fraction = capacity > 0.0 ? occupancy / capacity : 0.0;
    const char* color =
        fraction > 0.9 ? p.red : (fraction > 0.6 ? p.yellow : p.green);
    frame->Line(util::StrFormat(
        "  w%lld %-7s %s%s%s %4.0f%%  ticks=%s blocked=%lld",
        static_cast<long long>(worker.IntOr("worker", 0)),
        worker.StringOr("state", "?").c_str(), color,
        Bar(fraction, 24).c_str(), p.reset, fraction * 100.0,
        HumanCount(static_cast<double>(worker.IntOr("ticks", 0))).c_str(),
        static_cast<long long>(worker.IntOr("ring_blocked_pushes", 0))));
  }
}

void RenderTopQueries(const util::JsonValue& queryz, const Palette& p,
                      Frame* frame) {
  const util::JsonValue* queries = queryz.Find("queries");
  frame->Line(util::StrFormat(
      "%stop queries%s (of %lld, by est cpu)", p.bold, p.reset,
      static_cast<long long>(queryz.IntOr("total", 0))));
  if (queries == nullptr || !queries->is_array() || queries->size() == 0) {
    frame->Line("  (no cost samples yet)");
    return;
  }
  size_t shown = 0;
  for (const util::JsonValue& row : queries->array()) {
    if (++shown > 5) break;
    frame->Line(util::StrFormat(
        "  #%-4lld %-16s %-12s cpu=%8s cells=%s matches=%lld",
        static_cast<long long>(row.IntOr("id", -1)),
        row.StringOr("name", "?").c_str(),
        row.StringOr("stream", "?").c_str(),
        HumanNanos(static_cast<double>(row.IntOr("est_cpu_nanos", 0)))
            .c_str(),
        HumanCount(static_cast<double>(row.IntOr("cells", 0))).c_str(),
        static_cast<long long>(row.IntOr("matches", 0))));
  }
}

void RenderAlerts(const util::JsonValue& alertz, const Palette& p,
                  Frame* frame) {
  const util::JsonValue* rules = alertz.Find("rules");
  const long long firing =
      static_cast<long long>(alertz.IntOr("firing", 0));
  frame->Line(util::StrFormat("%salerts%s (%lld firing)", p.bold, p.reset,
                              firing));
  if (rules == nullptr || !rules->is_array() || rules->size() == 0) {
    frame->Line("  (no rules loaded — start serve with --alert_rules)");
    return;
  }
  for (const util::JsonValue& rule : rules->array()) {
    const std::string state = rule.StringOr("state", "?");
    const char* color = state == "firing"
                            ? p.red
                            : (state == "pending"
                                   ? p.yellow
                                   : (state == "resolved" ? p.green : p.dim));
    frame->Line(util::StrFormat(
        "  %s%-8s%s %-5s %-24s %s  value=%.3g fired=%lld",
        color, state.c_str(), p.reset,
        rule.StringOr("severity", "?").c_str(),
        rule.StringOr("name", "?").c_str(),
        rule.StringOr("expr", "").c_str(), rule.NumberOr("value", 0.0),
        static_cast<long long>(rule.IntOr("firing_count", 0))));
  }
}

int Run(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  const int port = static_cast<int>(flags.GetInt64("port", -1));
  const std::string host = flags.GetString("host", "127.0.0.1");
  const int64_t interval_ms = flags.GetInt64("interval_ms", 1000);
  const int64_t max_frames = flags.GetInt64("frames", 0);
  const bool plain = flags.GetBool("plain", false);
  if (port <= 0) {
    std::fprintf(stderr,
                 "usage: springdtw_top --port=N [--host=127.0.0.1] "
                 "[--interval_ms=1000] [--frames=0] [--plain]\n");
    return 2;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  const Palette palette = plain ? Palette{} : AnsiPalette();
  int64_t frames = 0;
  int consecutive_failures = 0;
  while (g_stop == 0) {
    auto statusz = FetchJson(host, port, "/statusz");
    if (!statusz.ok()) {
      if (++consecutive_failures >= 3) {
        std::fprintf(stderr, "springdtw_top: %s\n",
                     statusz.status().ToString().c_str());
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      continue;
    }
    consecutive_failures = 0;
    auto healthz = FetchJson(host, port, "/healthz");
    auto queryz = FetchJson(host, port, "/queryz");
    auto alertz = FetchJson(host, port, "/alertz");
    auto ticks = FetchJson(host, port,
                           "/timez?metric=spring_ticks_total&window=60");
    auto stages = FetchJson(
        host, port,
        "/timez?metric=spring_e2e_latency_nanos&field=p99&window=60");

    Frame frame;
    RenderHeader(*statusz,
                 healthz.ok() ? *healthz : util::JsonValue(), palette,
                 &frame);
    frame.Line("");
    RenderIngestRate(ticks.ok() ? *ticks : util::JsonValue(), palette,
                     &frame);
    if (stages.ok()) RenderStageLatency(*stages, palette, &frame);
    frame.Line("");
    RenderRings(*statusz, palette, &frame);
    frame.Line("");
    RenderTopQueries(queryz.ok() ? *queryz : util::JsonValue(), palette,
                     &frame);
    frame.Line("");
    RenderAlerts(alertz.ok() ? *alertz : util::JsonValue(), palette, &frame);

    if (!plain) std::fputs("\x1b[H\x1b[2J", stdout);  // home + clear
    std::fputs(frame.text.c_str(), stdout);
    std::fflush(stdout);

    if (max_frames > 0 && ++frames >= max_frames) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
