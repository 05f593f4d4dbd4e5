#include "obs/alert.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "util/json.h"

namespace springdtw {
namespace obs {
namespace {

uint64_t Seconds(double t) { return static_cast<uint64_t>(t * 1e9); }

/// Drives one engine + timeline pair off a live registry with a synthetic
/// clock: every step publishes a snapshot, folds it into the timeline, and
/// runs an evaluation pass — exactly the ShardedMonitor's PollTimeline
/// sequence, minus the threads.
struct Harness {
  MetricsRegistry registry;
  MetricsTimeline timeline;
  TraceRing trace{64};

  void Step(AlertEngine* engine, double t) {
    const MetricsSnapshot snapshot = registry.Snapshot();
    timeline.Record(Seconds(t), snapshot);
    engine->Evaluate(Seconds(t), snapshot, timeline, &trace);
  }
};

AlertRule MustParse(std::string_view line) {
  auto rule = ParseAlertRule(line);
  EXPECT_TRUE(rule.ok()) << rule.status().ToString();
  return *rule;
}

TEST(AlertParseTest, AllExpressionKinds) {
  AlertRule value = MustParse("alert hot warn value(depth) >= 10 for 5s");
  EXPECT_EQ(value.name, "hot");
  EXPECT_EQ(value.severity, AlertSeverity::kWarn);
  EXPECT_EQ(value.kind, AlertExprKind::kValue);
  EXPECT_EQ(value.cmp, AlertCmp::kGe);
  EXPECT_EQ(value.threshold, 10.0);
  EXPECT_EQ(value.for_seconds, 5.0);
  EXPECT_EQ(value.metric, "depth");

  AlertRule ratio = MustParse(
      "alert full page ratio(spring_ring_occupancy, spring_ring_capacity) "
      "> 0.9");
  EXPECT_EQ(ratio.kind, AlertExprKind::kRatio);
  EXPECT_EQ(ratio.severity, AlertSeverity::kPage);
  EXPECT_EQ(ratio.metric_b, "spring_ring_capacity");
  EXPECT_EQ(ratio.for_seconds, 0.0);

  AlertRule rate = MustParse("alert quiet warn rate(ticks_total) < 1 for 3s");
  EXPECT_EQ(rate.kind, AlertExprKind::kRate);
  EXPECT_EQ(rate.cmp, AlertCmp::kLt);

  AlertRule absent = MustParse("alert dead page absent(heartbeat) for 30s");
  EXPECT_EQ(absent.kind, AlertExprKind::kAbsent);
  EXPECT_EQ(absent.for_seconds, 30.0);

  AlertRule burn =
      MustParse("alert slo page burn(lat{stage=total}:p99, 5e7, 60s, 300s) "
                "> 0.5");
  EXPECT_EQ(burn.kind, AlertExprKind::kBurnRate);
  EXPECT_EQ(burn.metric, "lat");
  EXPECT_EQ(burn.field, "p99");
  EXPECT_EQ(burn.label_key, "stage");
  EXPECT_EQ(burn.label_value, "total");
  EXPECT_EQ(burn.budget, 5e7);
  EXPECT_EQ(burn.fast_window_seconds, 60.0);
  EXPECT_EQ(burn.slow_window_seconds, 300.0);
}

TEST(AlertParseTest, MalformedRulesAreRejected) {
  // Each line violates one rule of the grammar.
  const char* bad[] = {
      "value(x) > 1",                           // No `alert` keyword.
      "alert x critical value(m) > 1",          // Unknown severity.
      "alert x warn frobnicate(m) > 1",         // Unknown expression.
      "alert x warn value(m) 1",                // Missing comparison.
      "alert x warn value(m) > banana",         // Non-numeric threshold.
      "alert x warn value() > 1",               // Empty metric.
      "alert x warn absent(m)",                 // absent() needs `for`.
      "alert x warn absent(m) > 1 for 5s",      // absent() + comparison.
      "alert x warn ratio(a) > 1",              // ratio() needs two metrics.
      "alert x warn burn(m:p99, 1, 60s) > .5",  // burn() needs four args.
      "alert x warn burn(m:p99, 1, 300s, 60s) > .5",  // fast > slow.
      "alert x warn value(m{stage) > 1",        // Unterminated filter.
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseAlertRule(line).ok()) << line;
  }
}

TEST(AlertParseTest, RulesFileSkipsCommentsAndNamesBadLine) {
  auto rules = ParseAlertRules(
      "# fleet health\n"
      "\n"
      "alert a warn value(m) > 1\n"
      "alert b page absent(m) for 5s  # staleness\n");
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->size(), 2u);

  auto bad = ParseAlertRules("alert a warn value(m) > 1\n\nnot a rule\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 3"), std::string::npos)
      << bad.status().ToString();
}

TEST(AlertParseTest, SloP99RuleMatchesConvention) {
  const AlertRule rule = MakeSloP99Rule(50.0);
  EXPECT_EQ(rule.kind, AlertExprKind::kBurnRate);
  EXPECT_EQ(rule.severity, AlertSeverity::kPage);
  EXPECT_EQ(rule.metric, "spring_e2e_latency_nanos");
  EXPECT_EQ(rule.field, "p99");
  EXPECT_EQ(rule.label_value, "total");
  EXPECT_EQ(rule.budget, 50.0 * 1e6);  // ms -> nanos.
  EXPECT_EQ(rule.threshold, 0.5);
}

TEST(AlertEngineTest, ValueRuleWalksFullLifecycle) {
  Harness h;
  Gauge* g = h.registry.GetGauge("depth", "");
  AlertEngine engine({MustParse("alert hot warn value(depth) > 5 for 2s")});

  g->Set(1.0);
  h.Step(&engine, 0.0);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kInactive);

  g->Set(10.0);
  h.Step(&engine, 1.0);  // Condition true: hold starts.
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kPending);
  h.Step(&engine, 2.0);  // Held 1s of 2s: still pending.
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kPending);
  EXPECT_FALSE(engine.AnyFiringPage());
  h.Step(&engine, 3.5);  // Held 2.5s: fires (warn never pages).
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kFiring);
  EXPECT_FALSE(engine.AnyFiringPage());

  g->Set(0.0);
  h.Step(&engine, 4.0);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kResolved);

  // Resolved re-arms like inactive; a cleared pending never fires.
  g->Set(10.0);
  h.Step(&engine, 5.0);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kPending);
  g->Set(0.0);
  h.Step(&engine, 5.5);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kInactive);

  const AlertStatus status = engine.Statuses()[0];
  EXPECT_EQ(status.pending_count, 2);
  EXPECT_EQ(status.firing_count, 1);
  EXPECT_EQ(status.resolved_count, 1);
  EXPECT_EQ(status.value, 0.0);  // Last observation.

  // Every transition left a trace record: pending, firing, resolved,
  // pending, inactive.
  int64_t transitions = 0;
  for (const TraceEvent& event : h.trace.Items()) {
    if (event.kind == TraceEventKind::kAlertTransition) ++transitions;
  }
  EXPECT_EQ(transitions, 5);
}

TEST(AlertEngineTest, ZeroHoldPageFiresImmediatelyAndGatesHealth) {
  Harness h;
  Gauge* g = h.registry.GetGauge("depth", "");
  AlertEngine engine({MustParse("alert hot page value(depth) > 5")});
  g->Set(10.0);
  h.Step(&engine, 0.0);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kFiring);
  EXPECT_TRUE(engine.AnyFiringPage());
  EXPECT_EQ(engine.Statuses()[0].pending_count, 0);  // Skipped the hold.
  g->Set(0.0);
  h.Step(&engine, 1.0);
  EXPECT_FALSE(engine.AnyFiringPage());
}

TEST(AlertEngineTest, MissingMetricIsNotACondition) {
  Harness h;
  AlertEngine engine({MustParse("alert hot warn value(never) > 5")});
  h.Step(&engine, 0.0);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kInactive);
  EXPECT_TRUE(std::isnan(engine.Statuses()[0].value));
}

TEST(AlertEngineTest, RateRuleReadsTimeline) {
  Harness h;
  Counter* c = h.registry.GetCounter("ticks_total", "");
  AlertEngine engine(
      {MustParse("alert fast warn rate(ticks_total) > 50 for 2s")});
  h.Step(&engine, 0.0);  // Baseline record: no delta yet.
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kInactive);
  for (int t = 1; t <= 4; ++t) {
    c->Increment(100);  // 100 ticks/sec, over the 50/s threshold.
    h.Step(&engine, static_cast<double>(t));
  }
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kFiring);
  EXPECT_NEAR(engine.Statuses()[0].value, 100.0, 1e-9);
  // Flat counter: rate drops to zero and the alert resolves.
  h.Step(&engine, 5.0);
  h.Step(&engine, 6.0);
  h.Step(&engine, 7.0);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kResolved);
}

TEST(AlertEngineTest, AbsentRuleFiresUntilMetricAppears) {
  Harness h;
  AlertEngine engine(
      {MustParse("alert dead page absent(heartbeat) for 2s")});
  h.Step(&engine, 0.0);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kPending);
  h.Step(&engine, 3.0);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kFiring);
  EXPECT_TRUE(engine.AnyFiringPage());

  h.registry.GetGauge("heartbeat", "")->Set(1.0);
  h.Step(&engine, 4.0);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kResolved);
  EXPECT_FALSE(engine.AnyFiringPage());
}

TEST(AlertEngineTest, BurnRuleNeedsBothWindowsBad) {
  Harness h;
  Gauge* lat = h.registry.GetGauge("lat", "");
  AlertEngine engine(
      {MustParse("alert slo page burn(lat, 100, 2s, 6s) > 0.5")});

  // Below budget: healthy buckets in both windows.
  for (int t = 0; t < 6; ++t) {
    lat->Set(50.0);
    h.Step(&engine, static_cast<double>(t));
  }
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kInactive);

  // Blow the budget: the 2s fast window trips immediately, but the 6s slow
  // window still remembers healthy buckets — both must agree to fire.
  lat->Set(500.0);
  h.Step(&engine, 6.0);
  h.Step(&engine, 7.0);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kInactive);
  for (int t = 8; t < 12; ++t) {
    lat->Set(500.0);
    h.Step(&engine, static_cast<double>(t));
  }
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kFiring);
}

TEST(AlertEngineTest, RenderAlertzJsonShapeAndFiringCounts) {
  Harness h;
  Gauge* g = h.registry.GetGauge("depth", "");
  AlertEngine engine({MustParse("alert hot page value(depth) > 5"),
                      MustParse("alert cold warn value(depth) < -5")});
  g->Set(10.0);
  h.Step(&engine, 1.0);

  auto doc = util::ParseJson(RenderAlertzJson(engine.Statuses(), Seconds(2)));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->NumberOr("firing", -1), 1.0);
  EXPECT_EQ(doc->NumberOr("firing_page", -1), 1.0);
  const auto& rules = doc->Find("rules")->array();
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].StringOr("name", ""), "hot");
  EXPECT_EQ(rules[0].StringOr("state", ""), "firing");
  EXPECT_EQ(rules[0].StringOr("expr", ""), "value(depth) > 5");
  EXPECT_EQ(rules[1].StringOr("state", ""), "inactive");
  // Never-moved rules report since_seconds_ago = -1, moved ones >= 0.
  EXPECT_GE(rules[0].NumberOr("since_seconds_ago", -2), 0.0);
  EXPECT_EQ(rules[1].NumberOr("since_seconds_ago", -2), -1.0);
}

}  // namespace
}  // namespace obs
}  // namespace springdtw
