#include "core/vector_spring.h"

#include <utility>

#include "core/invariants.h"
#include "util/codec.h"
#include "util/logging.h"

namespace springdtw {
namespace core {

VectorSpringMatcher::VectorSpringMatcher(ts::VectorSeries query,
                                         SpringOptions options)
    : query_(std::move(query)) {
  const util::Status admitted = ValidateSpringQuery(query_.data(), options);
  SPRINGDTW_CHECK(admitted.ok()) << admitted.ToString();
  state_.m = query_.size();
  state_.options = options;
  Reset();
}

void VectorSpringMatcher::Reset() {
  SpringState fresh;
  fresh.m = state_.m;
  fresh.options = state_.options;
  state_ = fresh;
  const size_t rows = static_cast<size_t>(state_.m) + 1;
  d_.assign(rows, kSpringInf);
  d_prev_.assign(rows, kSpringInf);
  s_.assign(rows, 0);
  s_prev_.assign(rows, 0);
  d_[0] = 0.0;
  d_prev_[0] = 0.0;
}

bool VectorSpringMatcher::Update(std::span<const double> row, Match* match) {
  SPRINGDTW_DCHECK(static_cast<int64_t>(row.size()) == dims());
  const unsigned events = WithLocalDistance(
      state_.options.local_distance, [&](auto dist) {
        using Dist = decltype(dist);
        return SpringStep(
            state_, RowDistance<Dist>(row.data(), query_.data().data(), dims()),
            d_prev_.data() + 1, s_prev_.data() + 1, d_.data() + 1,
            s_.data() + 1, match);
      });
  s_[0] = state_.t - 1;
  std::swap(d_, d_prev_);
  std::swap(s_, s_prev_);
  return (events & kSpringReported) != 0;
}

bool VectorSpringMatcher::Flush(Match* match) {
  return SpringFlush(state_, d_prev_.data() + 1, s_prev_.data() + 1, match);
}

std::vector<uint8_t> VectorSpringMatcher::SerializeState() const {
  util::ByteWriter writer;
  WriteSpringSnapshot(&writer, kVectorSnapshotMagic, state_, query_.data(),
                      query_.dims(), query_.name(), d_prev_.data() + 1,
                      s_prev_.data() + 1);
#if SPRINGDTW_ENABLE_INVARIANT_CHECKS
  {
    const std::string violation = invariants::CheckSnapshotRoundTrip(*this);
    SPRINGDTW_CHECK(violation.empty()) << violation;
  }
#endif
  return writer.Take();
}

util::StatusOr<VectorSpringMatcher> VectorSpringMatcher::DeserializeState(
    std::span<const uint8_t> bytes) {
  util::ByteReader reader(bytes);
  SpringTemplate tmpl;
  SPRINGDTW_RETURN_IF_ERROR(
      ReadSpringTemplate(&reader, kVectorSnapshotMagic, &tmpl));
  ts::VectorSeries query(tmpl.dims, std::move(tmpl.name));
  for (int64_t i = 0; i < tmpl.length(); ++i) {
    query.AppendRow(std::span<const double>(
        tmpl.values.data() + i * tmpl.dims, static_cast<size_t>(tmpl.dims)));
  }
  VectorSpringMatcher matcher(std::move(query), tmpl.options);
  SPRINGDTW_RETURN_IF_ERROR(ReadSpringBody(&reader, &matcher.state_,
                                           matcher.d_prev_.data() + 1,
                                           matcher.s_prev_.data() + 1));
  matcher.s_prev_[0] = matcher.state_.t > 0 ? matcher.state_.t - 1 : 0;
  return matcher;
}

util::MemoryFootprint VectorSpringMatcher::Footprint() const {
  util::MemoryFootprint fp;
  fp.Add("query", util::VectorBytes(query_.data()));
  fp.Add("stwm_distances",
         util::VectorBytes(d_) + util::VectorBytes(d_prev_));
  fp.Add("stwm_starts", util::VectorBytes(s_) + util::VectorBytes(s_prev_));
  return fp;
}

}  // namespace core
}  // namespace springdtw
