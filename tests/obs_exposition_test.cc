#include "obs/exposition.h"

#include <cctype>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace springdtw {
namespace obs {
namespace {

// A small registry covering all three kinds, with and without labels.
MetricsRegistry& GoldenRegistry() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    r->GetCounter("spring_ticks_total", "Query-ticks processed.",
                  {Label{"stream", "s0"}, Label{"query", "q0"}})
        ->Increment(100);
    r->GetGauge("spring_memory_bytes", "Working-set bytes.")->Set(4096);
    Histogram* h = r->GetHistogram("spring_report_delay_ticks",
                                   "Report delay in ticks.",
                                   {Label{"stream", "s0"}});
    for (int i = 1; i <= 10; ++i) h->Observe(static_cast<double>(i));
    return r;
  }();
  return *registry;
}

TEST(RenderPrometheusTest, GoldenOutput) {
  const std::string got = RenderPrometheus(GoldenRegistry().Snapshot());
  const std::string want =
      "# HELP spring_ticks_total Query-ticks processed.\n"
      "# TYPE spring_ticks_total counter\n"
      "spring_ticks_total{stream=\"s0\",query=\"q0\"} 100\n"
      "# HELP spring_memory_bytes Working-set bytes.\n"
      "# TYPE spring_memory_bytes gauge\n"
      "spring_memory_bytes 4096\n"
      "# HELP spring_report_delay_ticks Report delay in ticks.\n"
      "# TYPE spring_report_delay_ticks summary\n"
      "spring_report_delay_ticks{stream=\"s0\",quantile=\"0.5\"} 6.125\n"
      "spring_report_delay_ticks{stream=\"s0\",quantile=\"0.9\"} 9.25\n"
      "spring_report_delay_ticks{stream=\"s0\",quantile=\"0.99\"} 10\n"
      "spring_report_delay_ticks_sum{stream=\"s0\"} 55\n"
      "spring_report_delay_ticks_count{stream=\"s0\"} 10\n";
  EXPECT_EQ(got, want);
}

// Structural validity per the Prometheus text format 0.0.4: every
// non-comment line is `name{labels} value` with a parseable value, and
// every # line is a well-formed HELP/TYPE comment.
TEST(RenderPrometheusTest, EveryLineIsWellFormed) {
  const std::string text = RenderPrometheus(GoldenRegistry().Snapshot());
  int sample_lines = 0;
  for (const std::string& line : util::Split(text, '\n')) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(util::StartsWith(line, "# HELP ") ||
                  util::StartsWith(line, "# TYPE "))
          << line;
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name_part = line.substr(0, space);
    const std::string value_part = line.substr(space + 1);
    double value = 0.0;
    EXPECT_TRUE(util::ParseDouble(value_part, &value)) << line;
    // Metric name starts with a letter; braces balance.
    ASSERT_FALSE(name_part.empty());
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(name_part[0])))
        << line;
    const size_t open = name_part.find('{');
    if (open != std::string::npos) {
      EXPECT_EQ(name_part.back(), '}') << line;
    }
    ++sample_lines;
  }
  // counter + gauge + 3 quantiles + sum + count.
  EXPECT_EQ(sample_lines, 7);
}

TEST(RenderPrometheusTest, EscapesLabelValues) {
  MetricsRegistry registry;
  registry.GetCounter("c", "", {Label{"name", "a\"b\\c\nd"}})->Increment();
  const std::string text = RenderPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("c{name=\"a\\\"b\\\\c\\nd\"} 1"), std::string::npos)
      << text;
}

TEST(RenderJsonTest, GoldenOutput) {
  const std::string got = RenderJson(GoldenRegistry().Snapshot());
  const std::string want =
      "{\"metrics\":["
      "{\"name\":\"spring_ticks_total\",\"type\":\"counter\","
      "\"help\":\"Query-ticks processed.\",\"series\":["
      "{\"labels\":{\"stream\":\"s0\",\"query\":\"q0\"},\"value\":100}]},"
      "{\"name\":\"spring_memory_bytes\",\"type\":\"gauge\","
      "\"help\":\"Working-set bytes.\",\"series\":["
      "{\"labels\":{},\"value\":4096}]},"
      "{\"name\":\"spring_report_delay_ticks\",\"type\":\"histogram\","
      "\"help\":\"Report delay in ticks.\",\"series\":["
      "{\"labels\":{\"stream\":\"s0\"},\"count\":10,\"sum\":55,\"min\":1,"
      "\"max\":10,\"mean\":5.5,\"p50\":6.125,\"p90\":9.25,\"p99\":10}]}"
      "]}";
  EXPECT_EQ(got, want);
}

TEST(RenderJsonTest, NonFiniteValuesRenderAsNull) {
  MetricsRegistry registry;
  registry.GetGauge("g", "")->Set(
      std::numeric_limits<double>::quiet_NaN());
  const std::string text = RenderJson(registry.Snapshot());
  EXPECT_NE(text.find("\"value\":null"), std::string::npos) << text;
}

TEST(RenderJsonTest, EscapesStrings) {
  MetricsRegistry registry;
  registry.GetCounter("c", "say \"hi\"\tnow",
                      {Label{"k", "line\nbreak"}})
      ->Increment();
  const std::string text = RenderJson(registry.Snapshot());
  EXPECT_NE(text.find("\"help\":\"say \\\"hi\\\"\\tnow\""),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"k\":\"line\\nbreak\""), std::string::npos) << text;
}

TEST(RenderSummaryLineTest, MentionsEachFamily) {
  const std::string line = RenderSummaryLine(GoldenRegistry().Snapshot());
  EXPECT_TRUE(util::StartsWith(line, "[obs]")) << line;
  EXPECT_NE(line.find("spring_ticks_total=100"), std::string::npos) << line;
  EXPECT_NE(line.find("spring_memory_bytes=4096"), std::string::npos)
      << line;
  EXPECT_NE(line.find("spring_report_delay_ticks{p50=6.125,p99=10,n=10}"),
            std::string::npos)
      << line;
}

TEST(RenderSummaryLineTest, MergesEverySeriesOfAFamily) {
  // Two queries whose report delays differ: the family's line describes
  // both, not just the first series.
  MetricsRegistry registry;
  Histogram* fast = registry.GetHistogram("spring_report_delay_ticks", "",
                                          {Label{"query", "fast"}});
  Histogram* slow = registry.GetHistogram("spring_report_delay_ticks", "",
                                          {Label{"query", "slow"}});
  for (int i = 0; i < 2; ++i) fast->Observe(1.0);
  for (int i = 0; i < 3; ++i) slow->Observe(100.0);
  const std::string line = RenderSummaryLine(registry.Snapshot());
  EXPECT_NE(line.find("spring_report_delay_ticks{p50=100,p99=100,n=5}"),
            std::string::npos)
      << line;
}

TEST(EscapeTest, PrometheusLabel) {
  EXPECT_EQ(EscapePrometheusLabel("plain"), "plain");
  EXPECT_EQ(EscapePrometheusLabel("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST(EscapeTest, JsonControlCharacters) {
  EXPECT_EQ(EscapeJson("tab\there"), "tab\\there");
  EXPECT_EQ(EscapeJson(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
}  // namespace obs
}  // namespace springdtw
