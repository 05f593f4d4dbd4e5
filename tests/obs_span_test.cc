// SpanRing: the bounded end-to-end tick-span buffer behind /spanz —
// disabled-by-default, wrap-around overwrite with drop accounting, and the
// JSON renderings shared with the introspection server.
#include "obs/span.h"

#include <sstream>
#include <string>

#include "gtest/gtest.h"

namespace springdtw {
namespace obs {
namespace {

TickSpan MakeSpan(uint64_t seq) {
  TickSpan span;
  span.seq = seq;
  span.stream_id = 3;
  span.server_recv_nanos = 100 + seq;
  span.router_enqueue_nanos = 200 + seq;
  span.worker_pop_nanos = 300 + seq;
  span.worker_done_nanos = 400 + seq;
  span.delivered_nanos = 500 + seq;
  span.matches = static_cast<int64_t>(seq % 2);
  return span;
}

TEST(SpanRingTest, DefaultConstructedIsDisabled) {
  SpanRing ring;
  EXPECT_FALSE(ring.enabled());
  EXPECT_EQ(ring.capacity(), 0);
  // Recording into a disabled ring is a silent no-op, not a drop.
  ring.Record(MakeSpan(1));
  EXPECT_EQ(ring.size(), 0);
  EXPECT_EQ(ring.total_recorded(), 0);
  EXPECT_EQ(ring.dropped(), 0);
  EXPECT_TRUE(ring.Items().empty());
}

TEST(SpanRingTest, FillsWithoutDropsBelowCapacity) {
  SpanRing ring(4);
  EXPECT_TRUE(ring.enabled());
  for (uint64_t s = 0; s < 3; ++s) ring.Record(MakeSpan(s));
  EXPECT_EQ(ring.size(), 3);
  EXPECT_EQ(ring.total_recorded(), 3);
  EXPECT_EQ(ring.dropped(), 0);
  const std::vector<TickSpan> spans = ring.Items();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].seq, 0u);
  EXPECT_EQ(spans[2].seq, 2u);
}

TEST(SpanRingTest, WrapAroundOverwritesOldestAndCountsDrops) {
  SpanRing ring(4);
  for (uint64_t s = 0; s < 10; ++s) ring.Record(MakeSpan(s));
  EXPECT_EQ(ring.size(), 4);
  EXPECT_EQ(ring.total_recorded(), 10);
  EXPECT_EQ(ring.dropped(), 6);
  const std::vector<TickSpan> spans = ring.Items();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first: the survivors are the last four recorded.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].seq, 6 + i);
  }
}

TEST(SpanRingTest, ClearResetsEverything) {
  SpanRing ring(2);
  ring.Record(MakeSpan(0));
  ring.Record(MakeSpan(1));
  ring.Record(MakeSpan(2));
  ring.Clear();
  EXPECT_TRUE(ring.enabled()) << "Clear drops contents, not capacity";
  EXPECT_EQ(ring.size(), 0);
  EXPECT_EQ(ring.total_recorded(), 0);
  EXPECT_EQ(ring.dropped(), 0);
  ring.Record(MakeSpan(9));
  ASSERT_EQ(ring.Items().size(), 1u);
  EXPECT_EQ(ring.Items()[0].seq, 9u);
}

TEST(SpanRingTest, TickSpanJsonCarriesEveryStage) {
  TickSpan span = MakeSpan(42);
  span.client_send_nanos = 50;
  span.subscriber_write_nanos = 600;
  const std::string json = TickSpanJson(span);
  EXPECT_NE(json.find("\"seq\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stream\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"client_send\":50"), std::string::npos) << json;
  EXPECT_NE(json.find("\"server_recv\":142"), std::string::npos) << json;
  EXPECT_NE(json.find("\"router_enqueue\":242"), std::string::npos) << json;
  EXPECT_NE(json.find("\"worker_pop\":342"), std::string::npos) << json;
  EXPECT_NE(json.find("\"worker_done\":442"), std::string::npos) << json;
  EXPECT_NE(json.find("\"delivered\":542"), std::string::npos) << json;
  EXPECT_NE(json.find("\"subscriber_write\":600"), std::string::npos) << json;
  EXPECT_NE(json.find("\"matches\":0"), std::string::npos) << json;
}

TEST(SpanRingTest, DumpJsonlOneLinePerSpanOldestFirst) {
  SpanRing ring(3);
  for (uint64_t s = 0; s < 5; ++s) ring.Record(MakeSpan(s));
  std::ostringstream out;
  ring.DumpJsonl(out);
  const std::string text = out.str();
  int lines = 0;
  for (const char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3);
  EXPECT_LT(text.find("\"seq\":2"), text.find("\"seq\":3"));
  EXPECT_LT(text.find("\"seq\":3"), text.find("\"seq\":4"));
}

TEST(SpanRingTest, RenderSpanzJsonShape) {
  SpanzReport report;
  report.spans.push_back(MakeSpan(7));
  report.dropped = 5;
  const std::string json = RenderSpanzJson(report);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"dropped\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"spans\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"seq\":7"), std::string::npos) << json;

  // Empty report still renders a complete document.
  const std::string empty = RenderSpanzJson(SpanzReport{});
  EXPECT_NE(empty.find("\"spans\":[]"), std::string::npos) << empty;
  EXPECT_NE(empty.find("\"dropped\":0"), std::string::npos) << empty;
}

}  // namespace
}  // namespace obs
}  // namespace springdtw
