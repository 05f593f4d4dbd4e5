#include "obs/metrics.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/memory.h"
#include "util/random.h"

namespace springdtw {
namespace obs {
namespace {

TEST(MetricsRegistryTest, CounterIncrementsAndSnapshots) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("requests_total", "total requests");
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42);

  const MetricsSnapshot snapshot = registry.Snapshot();
  const FamilySnapshot* family = snapshot.Find("requests_total");
  ASSERT_NE(family, nullptr);
  EXPECT_EQ(family->kind, MetricKind::kCounter);
  EXPECT_EQ(family->help, "total requests");
  ASSERT_EQ(family->series.size(), 1u);
  EXPECT_EQ(family->series[0].counter_value, 42);
}

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSameInstrument) {
  MetricsRegistry registry;
  const Labels labels = {Label{"stream", "s0"}, Label{"query", "q0"}};
  Counter* a = registry.GetCounter("ticks_total", "ticks", labels);
  Counter* b = registry.GetCounter("ticks_total", "ignored later", labels);
  EXPECT_EQ(a, b);

  // Different labels -> a different series in the same family.
  Counter* c = registry.GetCounter("ticks_total", "ticks",
                                   {Label{"stream", "s1"}});
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.num_families(), 1);
  EXPECT_EQ(registry.Snapshot().Find("ticks_total")->series.size(), 2u);
}

TEST(MetricsRegistryTest, HelpIsRecordedOnFirstUseOnly) {
  MetricsRegistry registry;
  registry.GetGauge("depth", "first help");
  registry.GetGauge("depth", "second help");
  EXPECT_EQ(registry.Snapshot().Find("depth")->help, "first help");
}

TEST(MetricsRegistryTest, InstrumentPointersStableAcrossGrowth) {
  MetricsRegistry registry;
  std::vector<Counter*> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(registry.GetCounter(
        "c", "", {Label{"i", std::to_string(i)}}));
  }
  // Adding 100 series forced vector growth; earlier handles must still
  // point at live instruments.
  for (int i = 0; i < 100; ++i) handles[i]->Increment(i);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const FamilySnapshot* family = snapshot.Find("c");
  ASSERT_NE(family, nullptr);
  ASSERT_EQ(family->series.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(family->series[i].counter_value, i);
  }
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("temperature", "");
  g->Set(20.5);
  g->Add(-0.5);
  EXPECT_DOUBLE_EQ(g->value(), 20.0);
  EXPECT_DOUBLE_EQ(registry.Snapshot().Find("temperature")
                       ->series[0].gauge_value,
                   20.0);
}

TEST(MetricsRegistryTest, HistogramExactQuantilesWhileSmall) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("latency", "");
  for (int i = 1; i <= 100; ++i) h->Observe(static_cast<double>(i));
  EXPECT_EQ(h->value().count(), 100);
  EXPECT_DOUBLE_EQ(h->value().sum(), 5050.0);

  const HistogramSnapshot snap =
      registry.Snapshot().Find("latency")->series[0].histogram;
  EXPECT_EQ(snap.count(), 100);
  EXPECT_DOUBLE_EQ(snap.min(), 1.0);
  EXPECT_DOUBLE_EQ(snap.max(), 100.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 50.5);
  // Nearest-rank values are 51 and 99; buckets answer within 1/32.
  EXPECT_NEAR(snap.Quantile(0.5), 51.0, 51.0 / 32.0);
  EXPECT_NEAR(snap.Quantile(0.99), 99.0, 99.0 / 32.0);
}

TEST(MetricsRegistryTest, HistogramObserveDoesNotAllocate) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("latency", "");
  h->Observe(1.0);  // Allocates the bucket table, once.
  util::Rng rng(3);
  std::vector<double> values(1 << 16);
  for (double& v : values) v = std::exp(rng.Gaussian(9.9, 2.0));
  util::ScopedAllocationCheck check;
  for (const double v : values) h->Observe(v);
  EXPECT_EQ(check.Allocations(), 0);
  EXPECT_EQ(check.Bytes(), 0);
}

TEST(MetricsRegistryTest, SnapshotIsAPointInTimeCopy) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("n", "");
  c->Increment(7);
  const MetricsSnapshot before = registry.Snapshot();
  c->Increment(100);
  // The earlier snapshot must not see later increments.
  EXPECT_EQ(before.Find("n")->series[0].counter_value, 7);
  EXPECT_EQ(registry.Snapshot().Find("n")->series[0].counter_value, 107);
}

TEST(MetricsRegistryTest, FamiliesKeepRegistrationOrder) {
  MetricsRegistry registry;
  registry.GetCounter("zebra", "");
  registry.GetGauge("alpha", "");
  registry.GetHistogram("mid", "");
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.families.size(), 3u);
  EXPECT_EQ(snapshot.families[0].name, "zebra");
  EXPECT_EQ(snapshot.families[1].name, "alpha");
  EXPECT_EQ(snapshot.families[2].name, "mid");
}

TEST(MetricsSnapshotTest, FindReturnsNullForUnknownName) {
  MetricsRegistry registry;
  registry.GetCounter("known", "");
  EXPECT_EQ(registry.Snapshot().Find("unknown"), nullptr);
}

TEST(MergeSnapshotsTest, EmptyInputsProduceEmptyMerge) {
  EXPECT_TRUE(MergeSnapshots({}).families.empty());
  // A vector of empty snapshots is just as empty.
  std::vector<MetricsSnapshot> shards(3);
  EXPECT_TRUE(MergeSnapshots(shards).families.empty());
  // Empty shards mixed with a real one contribute nothing.
  MetricsRegistry registry;
  registry.GetCounter("n", "")->Increment(7);
  shards[1] = registry.Snapshot();
  const MetricsSnapshot merged = MergeSnapshots(shards);
  ASSERT_EQ(merged.families.size(), 1u);
  EXPECT_EQ(merged.Find("n")->series[0].counter_value, 7);
}

TEST(MergeSnapshotsTest, DisjointLabelSetsUnionWithoutCrossTalk) {
  MetricsRegistry a;
  a.GetCounter("ticks", "", {Label{"worker", "0"}})->Increment(10);
  a.GetCounter("ticks", "", {Label{"worker", "1"}})->Increment(20);
  MetricsRegistry b;
  b.GetCounter("ticks", "", {Label{"worker", "2"}})->Increment(30);
  // Same key, different value — and a series with extra label cardinality.
  b.GetCounter("ticks", "", {Label{"worker", "0"}, Label{"shard", "x"}})
      ->Increment(40);

  const MetricsSnapshot merged = MergeSnapshots({a.Snapshot(), b.Snapshot()});
  const FamilySnapshot* family = merged.Find("ticks");
  ASSERT_NE(family, nullptr);
  ASSERT_EQ(family->series.size(), 4u) << "disjoint label sets must not fold";
  int64_t total = 0;
  for (const auto& series : family->series) total += series.counter_value;
  EXPECT_EQ(total, 100);
}

TEST(MergeSnapshotsTest, SharedSeriesSumCountersAndGauges) {
  MetricsRegistry a;
  a.GetCounter("c", "", {Label{"k", "v"}})->Increment(1);
  a.GetGauge("g", "")->Set(2.5);
  MetricsRegistry b;
  b.GetCounter("c", "", {Label{"k", "v"}})->Increment(2);
  b.GetGauge("g", "")->Set(0.5);
  const MetricsSnapshot merged = MergeSnapshots({a.Snapshot(), b.Snapshot()});
  EXPECT_EQ(merged.Find("c")->series[0].counter_value, 3);
  EXPECT_DOUBLE_EQ(merged.Find("g")->series[0].gauge_value, 3.0);
}

TEST(MergeSnapshotsTest, HistogramMergeWithMismatchedLayouts) {
  // A small shard and one past 2^20 observations merge into one series
  // with the true extremes, totals and quantiles of the union.
  MetricsRegistry a;
  Histogram* ha = a.GetHistogram("lat", "");
  for (int i = 1; i <= 10; ++i) ha->Observe(static_cast<double>(i));
  MetricsRegistry b;
  Histogram* hb = b.GetHistogram("lat", "");
  const int64_t n = (int64_t{1} << 20) + 10;
  for (int64_t i = 0; i < n; ++i) hb->Observe(1000.0);

  const MetricsSnapshot merged = MergeSnapshots({a.Snapshot(), b.Snapshot()});
  const HistogramSnapshot& h = merged.Find("lat")->series[0].histogram;
  EXPECT_EQ(h.count(), n + 10);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.sum(), 55.0 + static_cast<double>(n) * 1000.0);
  EXPECT_NEAR(h.Quantile(0.0), 1.0, 1.0 / 32.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1000.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 1000.0);
}

TEST(MergeSnapshotsTest, HistogramMergeEqualsUnionFeed) {
  MetricsRegistry a;
  MetricsRegistry b;
  MetricsRegistry all;
  util::Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    // Integer nanoseconds, so every sum is exact in any order.
    const double v = std::round(std::exp(rng.Gaussian(9.9, 1.5)));
    (i % 3 == 0 ? a : b).GetHistogram("lat", "")->Observe(v);
    all.GetHistogram("lat", "")->Observe(v);
  }
  const MetricsSnapshot union_snapshot = all.Snapshot();
  const MetricsSnapshot merged_snapshot =
      MergeSnapshots({a.Snapshot(), b.Snapshot()});
  const HistogramSnapshot& want =
      union_snapshot.Find("lat")->series[0].histogram;
  const HistogramSnapshot& merged =
      merged_snapshot.Find("lat")->series[0].histogram;
  EXPECT_EQ(merged.count(), want.count());
  EXPECT_EQ(merged.sum(), want.sum());
  EXPECT_EQ(merged.min(), want.min());
  EXPECT_EQ(merged.max(), want.max());
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(merged.Quantile(q), want.Quantile(q)) << "q=" << q;
  }
}

TEST(MergeSnapshotsTest, ZeroCountHistogramShardIsANoOp) {
  MetricsRegistry a;
  a.GetHistogram("lat", "")->Observe(5.0);
  MetricsRegistry b;
  b.GetHistogram("lat", "");  // registered, never observed
  for (const MetricsSnapshot& merged :
       {MergeSnapshots({a.Snapshot(), b.Snapshot()}),
        MergeSnapshots({b.Snapshot(), a.Snapshot()})}) {
    const HistogramSnapshot& h = merged.Find("lat")->series[0].histogram;
    EXPECT_EQ(h.count(), 1);
    EXPECT_DOUBLE_EQ(h.sum(), 5.0);
    EXPECT_DOUBLE_EQ(h.min(), 5.0);
    EXPECT_DOUBLE_EQ(h.max(), 5.0);
    EXPECT_DOUBLE_EQ(h.Quantile(0.5), 5.0);
  }
}

TEST(MetricKindTest, Names) {
  EXPECT_EQ(MetricKindName(MetricKind::kCounter), "counter");
  EXPECT_EQ(MetricKindName(MetricKind::kGauge), "gauge");
  EXPECT_EQ(MetricKindName(MetricKind::kHistogram), "histogram");
}

}  // namespace
}  // namespace obs
}  // namespace springdtw
