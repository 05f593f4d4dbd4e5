#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace springdtw {
namespace util {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const int64_t total = count_ + other.count_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) /
                         static_cast<double>(total);
  mean_ += delta * static_cast<double>(other.count_) /
           static_cast<double>(total);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ = total;
}

void RunningStats::Reset() { *this = RunningStats(); }

void RunningStats::SerializeTo(ByteWriter* writer) const {
  writer->WriteI64(count_);
  writer->WriteDouble(mean_);
  writer->WriteDouble(m2_);
  writer->WriteDouble(min_);
  writer->WriteDouble(max_);
}

bool RunningStats::DeserializeFrom(ByteReader* reader) {
  return reader->ReadI64(&count_) && reader->ReadDouble(&mean_) &&
         reader->ReadDouble(&m2_) && reader->ReadDouble(&min_) &&
         reader->ReadDouble(&max_) && count_ >= 0;
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

int LogHistogram::BucketIndex(double value) {
  if (!(value > 0.0)) return 0;
  // A positive double is 2^exponent * 1.m; the top kSubBucketBits bits of
  // the mantissa pick the linear sub-bucket within the octave.
  const auto bits = std::bit_cast<uint64_t>(value);
  const int exponent = static_cast<int>(bits >> 52) - 1023;
  if (exponent < kMinExponent) return 0;
  if (exponent >= kMaxExponent) return kNumBuckets - 1;
  const auto sub =
      static_cast<int>((bits >> (52 - kSubBucketBits)) & (kSubBuckets - 1));
  return 1 + (exponent - kMinExponent) * kSubBuckets + sub;
}

double LogHistogram::BucketMidpoint(int index) {
  if (index == 0) return 0.0;
  const int exponent = kMinExponent + (index - 1) / kSubBuckets;
  const int sub = (index - 1) % kSubBuckets;
  return std::ldexp(1.0 + (sub + 0.5) / kSubBuckets, exponent);
}

void LogHistogram::Add(double value) {
  if (count_ == 0) {
    buckets_.reserve(kNumBuckets);
    min_ = max_ = value;
  }
  const auto b = static_cast<size_t>(BucketIndex(value));
  if (b >= buckets_.size()) buckets_.resize(b + 1);
  ++buckets_[b];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void LogHistogram::Merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size());
  }
  for (size_t b = 0; b < other.buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank =
      static_cast<int64_t>(q * static_cast<double>(count_ - 1) + 0.5);
  // Buckets below min's are empty.
  int64_t seen = 0;
  const int64_t* counts = buckets_.data();
  const int size = static_cast<int>(buckets_.size());
  for (int b = BucketIndex(min_); b < size; ++b) {
    seen += counts[b];
    if (seen > rank) return std::clamp(BucketMidpoint(b), min_, max_);
  }
  return max_;
}

}  // namespace util
}  // namespace springdtw
