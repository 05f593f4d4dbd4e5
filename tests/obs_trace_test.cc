#include "obs/trace.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/string_util.h"

namespace springdtw {
namespace obs {
namespace {

TraceEvent Event(TraceEventKind kind, int64_t tick) {
  TraceEvent e;
  e.kind = kind;
  e.tick = tick;
  e.stream_id = 0;
  e.query_id = 1;
  e.start = tick - 3;
  e.end = tick;
  e.distance = 1.25;
  e.report_delay = 2;
  return e;
}

TEST(TraceRingTest, ZeroCapacityIsDisabled) {
  TraceRing ring(0);
  EXPECT_FALSE(ring.enabled());
  ring.Record(Event(TraceEventKind::kMatchReported, 1));
  EXPECT_EQ(ring.size(), 0);
  EXPECT_EQ(ring.total_recorded(), 0);
  EXPECT_TRUE(ring.Items().empty());
}

TEST(TraceRingTest, HoldsEventsInOrderBelowCapacity) {
  TraceRing ring(8);
  for (int64_t t = 0; t < 5; ++t) {
    ring.Record(Event(TraceEventKind::kBestImproved, t));
  }
  EXPECT_EQ(ring.size(), 5);
  EXPECT_EQ(ring.dropped(), 0);
  const std::vector<TraceEvent> events = ring.Items();
  ASSERT_EQ(events.size(), 5u);
  for (int64_t t = 0; t < 5; ++t) EXPECT_EQ(events[t].tick, t);
}

TEST(TraceRingTest, WrapAroundKeepsNewestAndCountsDropped) {
  TraceRing ring(4);
  for (int64_t t = 0; t < 10; ++t) {
    ring.Record(Event(TraceEventKind::kBestImproved, t));
  }
  EXPECT_EQ(ring.size(), 4);
  EXPECT_EQ(ring.total_recorded(), 10);
  EXPECT_EQ(ring.dropped(), 6);
  const std::vector<TraceEvent> events = ring.Items();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: ticks 6,7,8,9.
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].tick, 6 + i);
}

TEST(TraceRingTest, ClearEmptiesButKeepsCapacity) {
  TraceRing ring(4);
  ring.Record(Event(TraceEventKind::kCandidateOpened, 1));
  ring.Clear();
  EXPECT_EQ(ring.size(), 0);
  EXPECT_EQ(ring.total_recorded(), 0);
  EXPECT_TRUE(ring.enabled());
  ring.Record(Event(TraceEventKind::kCandidateOpened, 2));
  EXPECT_EQ(ring.size(), 1);
}

TEST(TraceRingTest, DumpJsonlOneObjectPerLine) {
  TraceRing ring(4);
  ring.Record(Event(TraceEventKind::kCandidateOpened, 7));
  TraceEvent vec = Event(TraceEventKind::kMatchReported, 9);
  vec.space = TraceSpace::kVector;
  ring.Record(vec);

  std::ostringstream out;
  ring.DumpJsonl(out);
  const std::vector<std::string> lines = util::Split(out.str(), '\n');
  // Trailing newline yields one empty final field.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(lines[2].empty());
  EXPECT_EQ(lines[0],
            "{\"event\":\"candidate_opened\",\"space\":\"scalar\","
            "\"tick\":7,\"stream\":0,\"query\":1,\"start\":4,\"end\":7,"
            "\"distance\":1.25,\"report_delay\":2}");
  EXPECT_EQ(lines[1],
            "{\"event\":\"match_reported\",\"space\":\"vector\","
            "\"tick\":9,\"stream\":0,\"query\":1,\"start\":6,\"end\":9,"
            "\"distance\":1.25,\"report_delay\":2}");
}

TEST(TraceRingTest, DumpAfterWrapStartsAtOldestHeld) {
  TraceRing ring(2);
  for (int64_t t = 0; t < 5; ++t) {
    ring.Record(Event(TraceEventKind::kBestImproved, t));
  }
  std::ostringstream out;
  ring.DumpJsonl(out);
  const std::string text = out.str();
  EXPECT_EQ(text.find("\"tick\":2"), std::string::npos);
  EXPECT_NE(text.find("\"tick\":3"), std::string::npos);
  EXPECT_NE(text.find("\"tick\":4"), std::string::npos);
  EXPECT_LT(text.find("\"tick\":3"), text.find("\"tick\":4"));
}

TEST(TraceEventKindTest, Names) {
  EXPECT_EQ(TraceEventKindName(TraceEventKind::kCandidateOpened),
            "candidate_opened");
  EXPECT_EQ(TraceEventKindName(TraceEventKind::kBestImproved),
            "best_improved");
  EXPECT_EQ(TraceEventKindName(TraceEventKind::kMatchReported),
            "match_reported");
  EXPECT_EQ(TraceEventKindName(TraceEventKind::kCandidateFlushed),
            "candidate_flushed");
  EXPECT_EQ(TraceEventKindName(TraceEventKind::kCheckpointSave),
            "checkpoint_save");
  EXPECT_EQ(TraceEventKindName(TraceEventKind::kCheckpointRestore),
            "checkpoint_restore");
}

}  // namespace
}  // namespace obs
}  // namespace springdtw
