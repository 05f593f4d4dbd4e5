#include "core/spring.h"

#include <utility>

#include "core/invariants.h"
#include "util/codec.h"
#include "util/logging.h"

namespace springdtw {
namespace core {

SpringMatcher::SpringMatcher(std::vector<double> query, SpringOptions options)
    : query_(std::move(query)) {
  const util::Status admitted = ValidateSpringQuery(query_, options);
  SPRINGDTW_CHECK(admitted.ok()) << admitted.ToString();
  state_.m = static_cast<int64_t>(query_.size());
  state_.options = options;
  Reset();
}

void SpringMatcher::Reset() {
  SpringState fresh;
  fresh.m = state_.m;
  fresh.options = state_.options;
  state_ = fresh;
  const size_t rows = query_.size() + 1;  // +1 for the star-padding row.
  d_.assign(rows, kSpringInf);
  d_prev_.assign(rows, kSpringInf);
  s_.assign(rows, 0);
  s_prev_.assign(rows, 0);
  // Star-padding row: d(t, 0) = 0 for every t, including the virtual t = -1
  // column the first tick reads as "previous".
  d_[0] = 0.0;
  d_prev_[0] = 0.0;
}

bool SpringMatcher::Update(double x, Match* match) {
  const unsigned events = WithLocalDistance(
      state_.options.local_distance, [&](auto dist) {
        using Dist = decltype(dist);
        return SpringStep(state_, ScalarDistance<Dist>(&x, query_.data(), 1),
                          d_prev_.data() + 1, s_prev_.data() + 1,
                          d_.data() + 1, s_.data() + 1, match);
      });
  s_[0] = state_.t - 1;  // s(t, 0) = t for the tick just consumed.
  std::swap(d_, d_prev_);
  std::swap(s_, s_prev_);
  return (events & kSpringReported) != 0;
}

bool SpringMatcher::Flush(Match* match) {
  return SpringFlush(state_, d_prev_.data() + 1, s_prev_.data() + 1, match);
}

std::vector<uint8_t> SpringMatcher::SerializeState() const {
  util::ByteWriter writer;
  // Only the "previous" rows carry live state between ticks; the working
  // rows are scratch.
  WriteSpringSnapshot(&writer, kScalarSnapshotMagic, state_, query_,
                      /*dims=*/1, /*name=*/"", d_prev_.data() + 1,
                      s_prev_.data() + 1);
#if SPRINGDTW_ENABLE_INVARIANT_CHECKS
  {
    // Round-trip equivalence: the bytes we just produced must restore to a
    // matcher that serializes identically. Re-entrant serialize calls made
    // by the check itself short-circuit inside CheckSnapshotRoundTrip.
    const std::string violation = invariants::CheckSnapshotRoundTrip(*this);
    SPRINGDTW_CHECK(violation.empty()) << violation;
  }
#endif
  return writer.Take();
}

util::StatusOr<SpringMatcher> SpringMatcher::DeserializeState(
    std::span<const uint8_t> bytes) {
  util::ByteReader reader(bytes);
  SpringTemplate tmpl;
  SPRINGDTW_RETURN_IF_ERROR(
      ReadSpringTemplate(&reader, kScalarSnapshotMagic, &tmpl));
  SpringMatcher matcher(std::move(tmpl.values), tmpl.options);
  SPRINGDTW_RETURN_IF_ERROR(ReadSpringBody(&reader, &matcher.state_,
                                           matcher.d_prev_.data() + 1,
                                           matcher.s_prev_.data() + 1));
  matcher.s_prev_[0] = matcher.state_.t > 0 ? matcher.state_.t - 1 : 0;
  return matcher;
}

util::MemoryFootprint SpringMatcher::Footprint() const {
  util::MemoryFootprint fp;
  fp.Add("query", util::VectorBytes(query_));
  fp.Add("stwm_distances",
         util::VectorBytes(d_) + util::VectorBytes(d_prev_));
  fp.Add("stwm_starts", util::VectorBytes(s_) + util::VectorBytes(s_prev_));
  return fp;
}

std::span<const double> SpringMatcher::LastRowDistances() const {
  // Rows were swapped at the end of Update(); the latest row is in prev_.
  return std::span<const double>(d_prev_.data(), d_prev_.size());
}

std::span<const int64_t> SpringMatcher::LastRowStarts() const {
  return std::span<const int64_t>(s_prev_.data(), s_prev_.size());
}

}  // namespace core
}  // namespace springdtw
