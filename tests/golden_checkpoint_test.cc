// Golden checkpoint fixtures: a deterministic MonitorEngine and a 2-worker
// ShardedMonitor are driven through a seeded workload, and their
// SerializeState() bytes must equal the committed fixtures under
// tests/testdata/ byte for byte. The fixtures pin the SPRE v2 / SPRM / SPR1
// / SPV2 layouts and the matcher state they carry across refactors of the
// kernel and the engine, which same-build comparisons cannot do.
//
// The workload covers NaN repair, scalar and vector queries, an epsilon = 0
// query, length-bounded queries, a query attached mid-stream, a removed
// query and a pending candidate at checkpoint time.
//
// To regenerate (only when a format change is intended), run this binary
// with SPRINGDTW_GOLDEN_OUT=<dir>; it writes the two fixtures there.
#include <algorithm>
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
constexpr char kShardedFixture[] = "golden_sharded.sprm";

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

}  // namespace
}  // namespace monitor
}  // namespace springdtw
