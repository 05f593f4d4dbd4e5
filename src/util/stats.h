#ifndef SPRINGDTW_UTIL_STATS_H_
#define SPRINGDTW_UTIL_STATS_H_

#include <cstdint>
#include <vector>

#include "util/codec.h"

namespace springdtw {
namespace util {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
/// O(1) memory; numerically stable.
class RunningStats {
 public:
  RunningStats() = default;

  /// Accounts one observation.
  void Add(double x);

  /// Merges another accumulator into this one.
  void Merge(const RunningStats& other);

  /// Resets to the empty state.
  void Reset();

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than 2 observations.
  double variance() const;
  /// Population standard deviation.
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

  /// Appends the accumulator state to `writer` (for checkpoints).
  void SerializeTo(ByteWriter* writer) const;
  /// Restores state written by SerializeTo; false on truncation.
  bool DeserializeFrom(ByteReader* reader);

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Log-linear histogram with an exact count, sum, min and max: the
/// accumulator behind every obs::Histogram. Each power of two in
/// [2^kMinExponent, 2^kMaxExponent) is split into kSubBuckets equal-width
/// sub-buckets; values below 2^kMinExponent (zero and negatives included)
/// share one zero bucket, and values at or above 2^kMaxExponent share the
/// top bucket.
/// The range covers sub-microsecond values in milliseconds as well as
/// nanosecond latencies of days.
///
/// Quantile(q) answers the midpoint of the nearest-rank bucket, clamped to
/// [min, max]: within 1/(2 * kSubBuckets) = 1/32 of the exact nearest-rank
/// value for observations inside the range. Merge adds bucket by bucket, so
/// a merged histogram's quantiles are those of the union of its inputs.
///
/// An empty histogram holds no bucket table. The first Add reserves all
/// kNumBuckets int64 counts, so later Adds never allocate; the table's size
/// only reaches the highest occupied bucket, so copies (snapshots) carry
/// just that prefix.
class LogHistogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kMinExponent = -16;
  static constexpr int kMaxExponent = 48;
  static constexpr int kNumBuckets =
      1 + (kMaxExponent - kMinExponent) * kSubBuckets;

  /// Accounts one observation.
  void Add(double value);

  /// Merges another histogram into this one, bucket by bucket.
  void Merge(const LogHistogram& other);

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Smallest / largest observation; 0 when empty.
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Nearest-rank q-quantile (0 <= q <= 1), to the bucket accuracy above.
  /// Returns 0 when empty.
  double Quantile(double q) const;

 private:
  static int BucketIndex(double value);
  static double BucketMidpoint(int index);

  /// Counts up to the highest occupied bucket; empty while count_ == 0.
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace util
}  // namespace springdtw

#endif  // SPRINGDTW_UTIL_STATS_H_
