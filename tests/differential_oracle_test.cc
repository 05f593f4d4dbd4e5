// Differential oracle harness: every execution path that claims SPRING
// semantics — SpringMatcher, the SoA SpringBatchPool, the MonitorEngine
// (PushBatch), and the ShardedMonitor scale-out shell — is run over the
// same randomized workloads and compared.
//
// Two tiers of agreement are enforced per trial:
//   * the O(n*m)-per-tick NaiveMatcher baseline (an independent
//     implementation of the time-warping matrix) must agree with
//     SpringMatcher on every match's positions and report time, with
//     distances within 1e-9 (it sums the same terms in a different order);
//   * the fast paths must agree with SpringMatcher *bitwise* — identical
//     doubles, identical report order — because they advertise bit-for-bit
//     equivalence, not approximation.
// Trials include NaN-repaired streams (leading and interior gaps), the
// exact-match regime epsilon = 0, loose epsilons, and max_match_length.
//
// Tie handling: when several start positions achieve *exactly* the same
// distance, the paper does not pin down which tied optimum is reported —
// the naive baseline's per-row reduction keeps the earliest tied start
// while SPRING's recurrence inherits the start of its predecessor
// tie-break, and both are correct. Ties are routine over a small alphabet,
// and hold-last NaN repair manufactures them even in continuous streams (a
// repeated value lets a warping path shift its start across the repeat for
// free). The oracle tier therefore runs on gap-free continuous workloads,
// where ties have measure zero; the tie-heavy and NaN-repaired workloads
// exercise the bitwise family, which shares one DP and must agree exactly
// even on ties.
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/match.h"
#include "core/naive.h"
#include "core/spring.h"
#include "core/spring_batch.h"
#include "gtest/gtest.h"
#include "monitor/engine.h"
#include "monitor/sharded_monitor.h"
#include "monitor/sink.h"
#include "ts/repair.h"
#include "util/random.h"

namespace springdtw {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct Trial {
  /// Raw stream, possibly with NaNs (repaired before matcher-level runs;
  /// fed raw to the engine/monitor, whose repair must match).
  std::vector<double> raw;
  std::vector<std::vector<double>> queries;
  std::vector<core::SpringOptions> options;
};

/// Mirrors MonitorEngine's stream repair: hold-last, seeded at the first
/// finite value, 0.0 before one arrives.
std::vector<double> Repair(const std::vector<double>& raw) {
  std::vector<double> repaired;
  repaired.reserve(raw.size());
  ts::StreamingRepairer repairer;
  bool seeded = false;
  for (const double x : raw) {
    if (!seeded && !ts::IsMissing(x)) {
      repairer = ts::StreamingRepairer(x);
      seeded = true;
    }
    repaired.push_back(repairer.Next(x));
  }
  return repaired;
}

enum class ValueStyle {
  /// Gap-free continuous values: exact DP ties have measure zero, so the
  /// naive oracle's tied-optimum choice never diverges — oracle comparable.
  kContinuous,
  /// 5-letter integer alphabet plus NaN gaps: DP ties are routine —
  /// exercises the bitwise family's shared tie-break and the repair path;
  /// oracle skipped (see file comment).
  kTieHeavy,
};

Trial MakeTrial(util::Rng& rng, ValueStyle style, bool exact_regime) {
  Trial trial;
  const int64_t n = rng.UniformInt(80, 260);
  trial.raw.reserve(static_cast<size_t>(n));
  for (int64_t t = 0; t < n; ++t) {
    if (style == ValueStyle::kTieHeavy && rng.Bernoulli(0.06)) {
      trial.raw.push_back(kNaN);
    } else if (style == ValueStyle::kTieHeavy) {
      trial.raw.push_back(static_cast<double>(rng.UniformInt(0, 4)));
    } else {
      trial.raw.push_back(rng.Uniform(-2.0, 2.0));
    }
  }
  // A leading gap in some trials: repair must substitute 0.0 until the
  // first finite value.
  if (style == ValueStyle::kTieHeavy && rng.Bernoulli(0.2)) {
    trial.raw[0] = kNaN;
    if (n > 1) trial.raw[1] = kNaN;
  }

  const int64_t num_queries = rng.UniformInt(1, 4);
  for (int64_t q = 0; q < num_queries; ++q) {
    const int64_t m = rng.UniformInt(2, 8);
    std::vector<double> query(static_cast<size_t>(m));
    for (double& y : query) {
      y = (style == ValueStyle::kTieHeavy)
              ? static_cast<double>(rng.UniformInt(0, 4))
              : rng.Uniform(-2.0, 2.0);
    }
    core::SpringOptions options;
    if (exact_regime) {
      options.epsilon = 0.0;
      // Plant one exact occurrence so epsilon = 0 trials still produce
      // matches to disagree about.
      const int64_t at = rng.UniformInt(0, n - m);
      for (int64_t i = 0; i < m; ++i) {
        trial.raw[static_cast<size_t>(at + i)] =
            query[static_cast<size_t>(i)];
      }
    } else {
      options.epsilon = rng.Bernoulli(0.3) ? rng.Uniform(4.0, 30.0)
                                           : rng.Uniform(0.5, 4.0);
      if (rng.Bernoulli(0.25)) {
        options.max_match_length = rng.UniformInt(m, 3 * m);
      }
    }
    trial.queries.push_back(std::move(query));
    trial.options.push_back(options);
  }
  return trial;
}

/// (query, match) pairs in report order — the comparable unit of output.
struct Outcome {
  int64_t query = 0;
  core::Match match;
};

template <typename Matcher>
std::vector<Outcome> RunPerTickMatchers(const Trial& trial,
                                        const std::vector<double>& stream) {
  std::vector<Matcher> matchers;
  for (size_t q = 0; q < trial.queries.size(); ++q) {
    matchers.emplace_back(trial.queries[q], trial.options[q]);
  }
  std::vector<Outcome> out;
  core::Match match;
  for (const double x : stream) {
    for (size_t q = 0; q < matchers.size(); ++q) {
      if (matchers[q].Update(x, &match)) {
        out.push_back({static_cast<int64_t>(q), match});
      }
    }
  }
  for (size_t q = 0; q < matchers.size(); ++q) {
    if (matchers[q].Flush(&match)) {
      out.push_back({static_cast<int64_t>(q), match});
    }
  }
  return out;
}

std::vector<Outcome> RunBatchPool(const Trial& trial,
                                  const std::vector<double>& stream) {
  core::SpringBatchPool pool;
  for (size_t q = 0; q < trial.queries.size(); ++q) {
    pool.AddQuery(trial.queries[q], trial.options[q]);
  }
  std::vector<core::SpringBatchPool::Report> reports;
  pool.PushBatch(stream, &reports);
  pool.Flush(&reports);
  std::vector<Outcome> out;
  out.reserve(reports.size());
  for (const auto& report : reports) {
    out.push_back({report.query_index, report.match});
  }
  return out;
}

std::vector<Outcome> RunEngine(const Trial& trial,
                               const std::vector<double>& raw) {
  monitor::MonitorEngine engine;
  monitor::CollectSink sink;
  engine.AddSink(&sink);
  const int64_t stream_id = engine.AddStream("s", /*repair_missing=*/true);
  for (size_t q = 0; q < trial.queries.size(); ++q) {
    EXPECT_TRUE(engine
                    .AddQuery(stream_id, "q" + std::to_string(q),
                              trial.queries[q], trial.options[q])
                    .ok());
  }
  EXPECT_TRUE(engine.PushBatch(stream_id, raw).ok());
  engine.FlushAll();
  std::vector<Outcome> out;
  for (const auto& entry : sink.entries()) {
    out.push_back({entry.origin.query_id, entry.match});
  }
  return out;
}

std::vector<Outcome> RunShardedMonitor(const Trial& trial,
                                       const std::vector<double>& raw,
                                       int64_t num_workers) {
  monitor::ShardedMonitorOptions options;
  options.num_workers = num_workers;
  monitor::ShardedMonitor monitor(options);
  monitor::CollectSink sink;
  monitor.AddSink(&sink);
  const int64_t stream_id = monitor.AddStream("s", /*repair_missing=*/true);
  for (size_t q = 0; q < trial.queries.size(); ++q) {
    EXPECT_TRUE(monitor
                    .AddQuery(stream_id, "q" + std::to_string(q),
                              trial.queries[q], trial.options[q])
                    .ok());
  }
  monitor.Start();
  for (const double x : raw) {
    EXPECT_TRUE(monitor.Push(stream_id, x).ok());
  }
  monitor.FlushAll();
  monitor.Stop();
  std::vector<Outcome> out;
  for (const auto& entry : sink.entries()) {
    out.push_back({entry.origin.query_id, entry.match});
  }
  return out;
}

/// Bitwise agreement: same order, same positions, same doubles.
void ExpectBitwiseEqual(const std::vector<Outcome>& got,
                        const std::vector<Outcome>& expected,
                        const char* label, uint64_t seed) {
  ASSERT_EQ(got.size(), expected.size()) << label << " seed " << seed;
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(std::string(label) + " seed " + std::to_string(seed) +
                 " match " + std::to_string(i));
    EXPECT_EQ(got[i].query, expected[i].query);
    EXPECT_EQ(got[i].match.start, expected[i].match.start);
    EXPECT_EQ(got[i].match.end, expected[i].match.end);
    EXPECT_EQ(got[i].match.report_time, expected[i].match.report_time);
    // Bitwise: EQ on doubles, not NEAR.
    EXPECT_EQ(got[i].match.distance, expected[i].match.distance);
  }
}

/// Oracle agreement: the naive baseline sums identical local distances in a
/// different order, so positions/report times must be exact and distances
/// within 1e-9.
void ExpectOracleAgreement(const std::vector<Outcome>& fast,
                           const std::vector<Outcome>& oracle,
                           uint64_t seed) {
  ASSERT_EQ(fast.size(), oracle.size()) << "oracle seed " << seed;
  for (size_t i = 0; i < oracle.size(); ++i) {
    SCOPED_TRACE("oracle seed " + std::to_string(seed) + " match " +
                 std::to_string(i));
    EXPECT_EQ(fast[i].query, oracle[i].query);
    EXPECT_EQ(fast[i].match.start, oracle[i].match.start);
    EXPECT_EQ(fast[i].match.end, oracle[i].match.end);
    EXPECT_EQ(fast[i].match.report_time, oracle[i].match.report_time);
    EXPECT_NEAR(fast[i].match.distance, oracle[i].match.distance, 1e-9);
  }
}

/// Runs one full differential trial; returns the reference match count.
int64_t RunTrial(uint64_t seed, ValueStyle style, bool exact_regime) {
  util::Rng rng(seed);
  const Trial trial = MakeTrial(rng, style, exact_regime);
  const std::vector<double> repaired = Repair(trial.raw);

  const std::vector<Outcome> reference =
      RunPerTickMatchers<core::SpringMatcher>(trial, repaired);
  if (style == ValueStyle::kContinuous) {
    const std::vector<Outcome> oracle =
        RunPerTickMatchers<core::NaiveMatcher>(trial, repaired);
    ExpectOracleAgreement(reference, oracle, seed);
  }

  ExpectBitwiseEqual(RunBatchPool(trial, repaired), reference, "pool", seed);
  ExpectBitwiseEqual(RunEngine(trial, trial.raw), reference, "engine", seed);
  ExpectBitwiseEqual(RunShardedMonitor(trial, trial.raw, /*num_workers=*/3),
                     reference, "sharded", seed);
  return static_cast<int64_t>(reference.size());
}

TEST(DifferentialOracleTest, ContinuousTrialsAgreeWithOracleAndEachOther) {
  int64_t total_matches = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    total_matches += RunTrial(seed, ValueStyle::kContinuous,
                              /*exact_regime=*/false);
    if (HasFatalFailure()) return;
  }
  // The harness is vacuous if the workloads rarely match; make sure they
  // don't.
  EXPECT_GT(total_matches, 100);
}

TEST(DifferentialOracleTest, TieHeavyNaNRepairedTrialsAgreeBitwise) {
  int64_t total_matches = 0;
  for (uint64_t seed = 500; seed < 650; ++seed) {
    total_matches += RunTrial(seed, ValueStyle::kTieHeavy,
                              /*exact_regime=*/false);
    if (HasFatalFailure()) return;
  }
  // Loose epsilons over a 5-letter alphabet match constantly.
  EXPECT_GT(total_matches, 100);
}

TEST(DifferentialOracleTest, ExactMatchRegimeEpsilonZero) {
  int64_t total_matches = 0;
  for (uint64_t seed = 1000; seed < 1100; ++seed) {
    total_matches += RunTrial(seed, ValueStyle::kContinuous,
                              /*exact_regime=*/true);
    if (HasFatalFailure()) return;
  }
  // Every exact-regime trial plants one exact occurrence per query.
  EXPECT_GT(total_matches, 100);
}

TEST(DifferentialOracleTest, AllMissingPrefixRepairsToZero) {
  // A stream that *starts* missing exercises the unseeded repairer on
  // every path at once. The repaired zero-run is tie-heavy by construction
  // (see file comment), so this is a bitwise-family case.
  Trial trial;
  trial.raw = {kNaN, kNaN, kNaN, 1.0, 2.0, 3.0, kNaN, 9.0};
  trial.queries = {{0.0, 0.0, 1.0}, {1.0, 2.0, 3.0, 3.0}};
  core::SpringOptions options;
  options.epsilon = 0.5;
  trial.options = {options, options};

  const std::vector<double> repaired = Repair(trial.raw);
  EXPECT_EQ(repaired[0], 0.0);
  EXPECT_EQ(repaired[2], 0.0);
  EXPECT_EQ(repaired[6], 3.0);

  const std::vector<Outcome> reference =
      RunPerTickMatchers<core::SpringMatcher>(trial, repaired);
  EXPECT_FALSE(reference.empty());
  ExpectBitwiseEqual(RunBatchPool(trial, repaired), reference, "pool", 0);
  ExpectBitwiseEqual(RunEngine(trial, trial.raw), reference, "engine", 0);
  ExpectBitwiseEqual(RunShardedMonitor(trial, trial.raw, /*num_workers=*/2),
                     reference, "sharded", 0);
}

}  // namespace
}  // namespace springdtw
