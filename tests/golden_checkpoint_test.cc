// Golden checkpoint fixtures: a deterministic MonitorEngine and a 2-worker
// ShardedMonitor are driven through a seeded workload, and their
// SerializeState() bytes must equal the committed fixtures under
// tests/testdata/ byte for byte. The fixtures pin the SPRE v3 / SPRM / SPR1
// / SPV2 layouts and the matcher state they carry across refactors of the
// kernel and the engine, which same-build comparisons cannot do.
// golden_engine_v2.spre is the same engine written as SPRE v2; it is frozen
// (never regenerated) and must restore to the v3 fixture's bytes.
// golden_engine_full_rows.spre and golden_sharded_full_rows.sprm are the
// same checkpoints as written before the pools pruned to the ε-frontier,
// with full STWM rows; they are frozen too, must restore to the canonical
// fixtures' bytes, and must resume with the same matches.
//
// The workload covers NaN repair, scalar and vector queries, an epsilon = 0
// query, length-bounded queries, a query attached mid-stream, a removed
// query and a pending candidate at checkpoint time.
//
// To regenerate (only when a format change is intended), run this binary
// with SPRINGDTW_GOLDEN_OUT=<dir>; it writes golden_engine.spre and
// golden_sharded.sprm there.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/spring.h"
#include "gtest/gtest.h"
#include "monitor/engine.h"
#include "monitor/sharded_monitor.h"
#include "monitor/sink.h"
#include "ts/vector_series.h"
#include "util/random.h"

namespace springdtw {
namespace monitor {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr char kEngineFixture[] = "golden_engine.spre";
constexpr char kEngineV2Fixture[] = "golden_engine_v2.spre";
constexpr char kShardedFixture[] = "golden_sharded.sprm";
constexpr char kEngineFullRowsFixture[] = "golden_engine_full_rows.spre";
constexpr char kShardedFullRowsFixture[] = "golden_sharded_full_rows.sprm";

core::SpringOptions Options(double epsilon, int64_t max_len = 0,
                            int64_t min_len = 0,
                            dtw::LocalDistance local =
                                dtw::LocalDistance::kSquared) {
  core::SpringOptions options;
  options.epsilon = epsilon;
  options.max_match_length = max_len;
  options.min_match_length = min_len;
  options.local_distance = local;
  return options;
}

/// Seeded small-alphabet values with ~5% NaN when `with_nan`, ending in an
/// exact 1, 2, 3 so the "ramp" queries hold a pending candidate at the end.
std::vector<double> Stream(uint64_t seed, size_t n, bool with_nan) {
  util::Rng rng(seed);
  std::vector<double> values(n);
  for (double& x : values) {
    x = static_cast<double>(rng.UniformInt(0, 4));
    if (with_nan && rng.Bernoulli(0.05)) x = kNaN;
  }
  values.insert(values.end(), {9.0, 1.0, 2.0, 3.0});
  return values;
}

ts::VectorSeries VectorQuery(std::vector<std::vector<double>> rows) {
  ts::VectorSeries query(static_cast<int64_t>(rows[0].size()), "vq");
  for (const std::vector<double>& row : rows) query.AppendRow(row);
  return query;
}

std::vector<uint8_t> GoldenEngineBytes() {
  MonitorEngine engine;
  const int64_t hot = engine.AddStream("hot");
  const int64_t cold = engine.AddStream("cold", /*repair_missing=*/false);
  EXPECT_TRUE(engine.AddQuery(hot, "ramp", {1.0, 2.0, 3.0}, Options(0.5)).ok());
  EXPECT_TRUE(engine.AddQuery(hot, "exact", {2.0, 2.0}, Options(0.0)).ok());
  EXPECT_TRUE(engine
                  .AddQuery(hot, "bounded", {1.0, 2.0, 3.0, 2.0, 1.0},
                            Options(6.0, /*max_len=*/8, /*min_len=*/3))
                  .ok());
  const int64_t doomed =
      *engine.AddQuery(hot, "doomed", {0.0, 4.0}, Options(3.0));
  EXPECT_TRUE(engine
                  .AddQuery(cold, "abs", {3.0, 1.0},
                            Options(1.0, 0, 0, dtw::LocalDistance::kAbsolute))
                  .ok());
  EXPECT_TRUE(engine.AddQuery(cold, "ramp", {1.0, 2.0, 3.0}, Options(0.5)).ok());

  const int64_t vec = engine.AddVectorStream("vec", 2);
  EXPECT_TRUE(engine
                  .AddVectorQuery(vec, "diag",
                                  VectorQuery({{1.0, 1.0}, {2.0, 2.0},
                                               {3.0, 3.0}}),
                                  Options(1.0))
                  .ok());
  EXPECT_TRUE(engine
                  .AddVectorQuery(vec, "bounded",
                                  VectorQuery({{0.0, 4.0}, {4.0, 0.0}}),
                                  Options(8.0, /*max_len=*/5))
                  .ok());

  const std::vector<double> hot_values = Stream(101, 300, /*with_nan=*/true);
  const std::vector<double> cold_values = Stream(202, 300, false);
  const std::vector<double> vec_values = Stream(303, 600, false);
  for (size_t t = 0; t < hot_values.size(); ++t) {
    if (t == 120) EXPECT_TRUE(engine.RemoveQuery(doomed).ok());
    if (t == 150) {
      EXPECT_TRUE(
          engine.AddQuery(hot, "late", {2.0, 3.0}, Options(1.0, 4)).ok());
    }
    EXPECT_TRUE(engine.Push(hot, hot_values[t]).ok());
    EXPECT_TRUE(engine.Push(cold, cold_values[t]).ok());
  }
  for (size_t t = 0; t + 1 < vec_values.size(); t += 2) {
    const double row[2] = {vec_values[t], vec_values[t + 1]};
    EXPECT_TRUE(engine.PushRow(vec, row).ok());
  }
  const double tail[][2] = {{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  for (const auto& row : tail) EXPECT_TRUE(engine.PushRow(vec, row).ok());
  return engine.SerializeState();
}

std::vector<uint8_t> GoldenShardedBytes() {
  ShardedMonitorOptions options;
  options.num_workers = 2;
  ShardedMonitor monitor(options);
  const int64_t alpha = monitor.AddStream("alpha");
  const int64_t beta = monitor.AddStream("beta");
  const int64_t gamma = monitor.AddStream("gamma");
  EXPECT_TRUE(
      monitor.AddQuery(alpha, "ramp", {1.0, 2.0, 3.0}, Options(0.5)).ok());
  EXPECT_TRUE(monitor.AddQuery(alpha, "exact", {2.0, 2.0}, Options(0.0)).ok());
  const int64_t doomed =
      *monitor.AddQuery(beta, "doomed", {0.0, 4.0}, Options(3.0));
  EXPECT_TRUE(monitor
                  .AddQuery(beta, "bounded", {1.0, 2.0, 3.0, 2.0, 1.0},
                            Options(6.0, /*max_len=*/8, /*min_len=*/3))
                  .ok());
  EXPECT_TRUE(
      monitor.AddQuery(gamma, "ramp", {1.0, 2.0, 3.0}, Options(0.5)).ok());
  EXPECT_TRUE(monitor
                  .AddQuery(gamma, "abs", {3.0, 1.0},
                            Options(1.0, 0, 0, dtw::LocalDistance::kAbsolute))
                  .ok());
  monitor.Start();

  const std::vector<double> a = Stream(11, 400, /*with_nan=*/true);
  const std::vector<double> b = Stream(22, 400, /*with_nan=*/true);
  const std::vector<double> g = Stream(33, 400, false);
  for (size_t t = 0; t < a.size(); ++t) {
    if (t == 200) EXPECT_TRUE(monitor.RemoveQuery(doomed).ok());
    EXPECT_TRUE(monitor.Push(alpha, a[t]).ok());
    EXPECT_TRUE(monitor.Push(beta, b[t]).ok());
  }
  constexpr size_t kChunk = 23;
  for (size_t offset = 0; offset < g.size(); offset += kChunk) {
    const size_t count = std::min(kChunk, g.size() - offset);
    EXPECT_TRUE(monitor
                    .PushBatch(gamma, std::span<const double>(
                                          g.data() + offset, count))
                    .ok());
  }
  monitor.Drain();
  std::vector<uint8_t> bytes = monitor.SerializeState();
  monitor.Stop();
  return bytes;
}

std::string FixturePath(const char* name) {
  return std::string(SPRINGDTW_TESTDATA_DIR) + "/" + name;
}

std::vector<uint8_t> ReadFixture(const char* name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << FixturePath(name);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

/// With SPRINGDTW_GOLDEN_OUT set, writes `bytes` there and returns true.
bool MaybeWriteFixture(const char* name, const std::vector<uint8_t>& bytes) {
  const char* dir = std::getenv("SPRINGDTW_GOLDEN_OUT");
  if (dir == nullptr) return false;
  std::ofstream out(std::string(dir) + "/" + name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return true;
}

TEST(GoldenCheckpointTest, EngineBytesMatchFixture) {
  const std::vector<uint8_t> bytes = GoldenEngineBytes();
  if (MaybeWriteFixture(kEngineFixture, bytes)) GTEST_SKIP();
  EXPECT_EQ(bytes, ReadFixture(kEngineFixture));
}

TEST(GoldenCheckpointTest, ShardedBytesMatchFixture) {
  const std::vector<uint8_t> bytes = GoldenShardedBytes();
  if (MaybeWriteFixture(kShardedFixture, bytes)) GTEST_SKIP();
  EXPECT_EQ(bytes, ReadFixture(kShardedFixture));
}

TEST(GoldenCheckpointTest, FixturesRestoreAndReserializeIdentically) {
  const std::vector<uint8_t> engine_bytes = ReadFixture(kEngineFixture);
  MonitorEngine engine;
  ASSERT_TRUE(engine.RestoreState(engine_bytes).ok());
  EXPECT_EQ(engine.SerializeState(), engine_bytes);

  const std::vector<uint8_t> sharded_bytes = ReadFixture(kShardedFixture);
  ShardedMonitorOptions options;
  options.num_workers = 2;
  ShardedMonitor monitor(options);
  ASSERT_TRUE(monitor.RestoreState(sharded_bytes).ok());
  EXPECT_EQ(monitor.SerializeState(), sharded_bytes);
}

/// Restores `fixture` into a fresh engine, feeds every stream the same
/// continuation and flushes; returns the matches delivered.
std::vector<CollectSink::Entry> ResumeEngine(const char* fixture) {
  MonitorEngine engine;
  CollectSink sink;
  engine.AddSink(&sink);
  EXPECT_TRUE(engine.RestoreState(ReadFixture(fixture)).ok());
  const std::vector<double> tail = Stream(404, 300, /*with_nan=*/true);
  for (const double x : tail) {
    for (int64_t stream = 0; stream < engine.num_streams(); ++stream) {
      EXPECT_TRUE(engine.Push(stream, x).ok() || std::isnan(x));
    }
  }
  const std::vector<double> rows = Stream(505, 300, /*with_nan=*/false);
  for (size_t t = 0; t + 1 < rows.size(); t += 2) {
    const double row[2] = {rows[t], rows[t + 1]};
    for (int64_t stream = 0; stream < engine.num_vector_streams(); ++stream) {
      EXPECT_TRUE(engine.PushRow(stream, row).ok());
    }
  }
  engine.FlushAll();
  return sink.entries();
}

/// The same for a 2-worker sharded monitor.
std::vector<CollectSink::Entry> ResumeSharded(const char* fixture) {
  ShardedMonitorOptions options;
  options.num_workers = 2;
  ShardedMonitor monitor(options);
  CollectSink sink;
  monitor.AddSink(&sink);
  EXPECT_TRUE(monitor.RestoreState(ReadFixture(fixture)).ok());
  monitor.Start();
  const std::vector<double> tail = Stream(606, 300, /*with_nan=*/false);
  for (const double x : tail) {
    for (int64_t stream = 0; stream < 3; ++stream) {
      EXPECT_TRUE(monitor.Push(stream, x).ok());
    }
  }
  monitor.FlushAll();
  monitor.Stop();
  return sink.entries();
}

void ExpectSameMatches(const std::vector<CollectSink::Entry>& got,
                       const std::vector<CollectSink::Entry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].origin.query_name, want[i].origin.query_name);
    EXPECT_EQ(got[i].match.start, want[i].match.start);
    EXPECT_EQ(got[i].match.end, want[i].match.end);
    EXPECT_EQ(got[i].match.distance, want[i].match.distance);
    EXPECT_EQ(got[i].match.report_time, want[i].match.report_time);
  }
}

TEST(GoldenCheckpointTest, FullRowFixturesRestoreToCanonicalBytes) {
  MonitorEngine engine;
  ASSERT_TRUE(engine.RestoreState(ReadFixture(kEngineFullRowsFixture)).ok());
  EXPECT_NE(ReadFixture(kEngineFullRowsFixture), ReadFixture(kEngineFixture));
  EXPECT_EQ(engine.SerializeState(), ReadFixture(kEngineFixture));

  ShardedMonitorOptions options;
  options.num_workers = 2;
  ShardedMonitor monitor(options);
  ASSERT_TRUE(
      monitor.RestoreState(ReadFixture(kShardedFullRowsFixture)).ok());
  EXPECT_NE(ReadFixture(kShardedFullRowsFixture),
            ReadFixture(kShardedFixture));
  EXPECT_EQ(monitor.SerializeState(), ReadFixture(kShardedFixture));
}

TEST(GoldenCheckpointTest, FullRowFixturesResumeWithTheSameMatches) {
  const std::vector<CollectSink::Entry> engine_matches =
      ResumeEngine(kEngineFixture);
  EXPECT_FALSE(engine_matches.empty());
  ExpectSameMatches(ResumeEngine(kEngineFullRowsFixture), engine_matches);

  const std::vector<CollectSink::Entry> sharded_matches =
      ResumeSharded(kShardedFixture);
  EXPECT_FALSE(sharded_matches.empty());
  ExpectSameMatches(ResumeSharded(kShardedFullRowsFixture), sharded_matches);
}

TEST(GoldenCheckpointTest, EngineV2FixtureRestoresToV3Bytes) {
  MonitorEngine engine;
  ASSERT_TRUE(engine.RestoreState(ReadFixture(kEngineV2Fixture)).ok());
  EXPECT_EQ(engine.SerializeState(), ReadFixture(kEngineFixture));
}

}  // namespace
}  // namespace monitor
}  // namespace springdtw
