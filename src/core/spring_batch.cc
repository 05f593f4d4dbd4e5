#include "core/spring_batch.h"

#include "util/codec.h"
#include "util/logging.h"

namespace springdtw {
namespace core {

template <typename Policy>
const typename BasicSpringPool<Policy>::Slot& BasicSpringPool<Policy>::at(
    int64_t index) const {
  SPRINGDTW_CHECK(index >= 0 && index < num_queries());
  return queries_[static_cast<size_t>(index)];
}

template <typename Policy>
int64_t BasicSpringPool<Policy>::AppendSlot(std::span<const double> values,
                                            const SpringOptions& options,
                                            std::string name) {
  Slot slot;
  slot.query_offset = static_cast<int64_t>(query_values_.size());
  slot.row_offset = static_cast<int64_t>(d_rows_[0].size());
  slot.state.m = static_cast<int64_t>(values.size()) / dims_;
  slot.state.options = options;
  query_values_.insert(query_values_.end(), values.begin(), values.end());
  const size_t m = static_cast<size_t>(slot.state.m);
  for (int buf = 0; buf < 2; ++buf) {
    d_rows_[buf].insert(d_rows_[buf].end(), m, kSpringInf);
    s_rows_[buf].insert(s_rows_[buf].end(), m, int64_t{0});
  }
  queries_.push_back(slot);
  names_.push_back(std::move(name));
  return num_queries() - 1;
}

template <typename Policy>
int64_t BasicSpringPool<Policy>::AddQuery(Query query,
                                          const SpringOptions& options) {
  SPRINGDTW_CHECK_EQ(Policy::Dims(query), dims_);
  const std::span<const double> values = Policy::Values(query);
  const util::Status admitted = ValidateSpringQuery(values, options);
  SPRINGDTW_CHECK(admitted.ok()) << admitted.ToString();
  return AppendSlot(values, options, Policy::Name(query));
}

template <typename Policy>
util::StatusOr<int64_t> BasicSpringPool<Policy>::AddQueryFromSnapshot(
    std::span<const uint8_t> bytes) {
  util::ByteReader reader(bytes);
  SpringTemplate tmpl;
  SPRINGDTW_RETURN_IF_ERROR(
      ReadSpringTemplate(&reader, Policy::kSnapshotMagic, &tmpl));
  if (tmpl.dims != dims_) {
    return util::InvalidArgumentError("snapshot dims mismatch");
  }
  const int64_t index =
      AppendSlot(tmpl.values, tmpl.options, std::move(tmpl.name));
  Slot& slot = queries_[static_cast<size_t>(index)];
  const util::Status body =
      ReadSpringBody(&reader, &slot.state,
                     d_rows_[parity_].data() + slot.row_offset,
                     s_rows_[parity_].data() + slot.row_offset);
  if (!body.ok()) {
    RemoveQuery(index, nullptr);
    return body;
  }
  return index;
}

template <typename Policy>
std::vector<uint8_t> BasicSpringPool<Policy>::SerializeQuery(
    int64_t index) const {
  const Slot& slot = at(index);
  util::ByteWriter writer;
  WriteSpringSnapshot(
      &writer, Policy::kSnapshotMagic, slot.state,
      std::span<const double>(query_values_.data() + slot.query_offset,
                              static_cast<size_t>(slot.state.m * dims_)),
      dims_, names_[static_cast<size_t>(index)],
      d_rows_[parity_].data() + slot.row_offset,
      s_rows_[parity_].data() + slot.row_offset);
  return writer.Take();
}

template <typename Policy>
int64_t BasicSpringPool<Policy>::Flush(std::vector<Report>* reports) {
  int64_t appended = 0;
  for (int64_t index = 0; index < num_queries(); ++index) {
    Slot& slot = queries_[static_cast<size_t>(index)];
    Match match;
    if (SpringFlush(slot.state, d_rows_[parity_].data() + slot.row_offset,
                    s_rows_[parity_].data() + slot.row_offset, &match)) {
      if (reports != nullptr) reports->push_back(Report{index, match, 0});
      ++appended;
    }
  }
  return appended;
}

template <typename Policy>
bool BasicSpringPool<Policy>::RemoveQuery(int64_t index, Match* match) {
  const Slot& slot = at(index);
  const SpringState& q = slot.state;
  // The report-eligibility scan a tick would run, on the live rows.
  const bool flushed =
      SpringCanReport(q, d_rows_[parity_].data() + slot.row_offset,
                      s_rows_[parity_].data() + slot.row_offset);
  if (flushed && match != nullptr) *match = SpringCandidate(q, q.t);

  // Compact: slots were appended in index order, so every query past
  // `index` sits further along in each array.
  const int64_t values = q.m * dims_;
  const int64_t rows = q.m;
  const auto values_first = query_values_.begin() + slot.query_offset;
  query_values_.erase(values_first, values_first + values);
  for (int buf = 0; buf < 2; ++buf) {
    const auto d_first = d_rows_[buf].begin() + slot.row_offset;
    d_rows_[buf].erase(d_first, d_first + rows);
    const auto s_first = s_rows_[buf].begin() + slot.row_offset;
    s_rows_[buf].erase(s_first, s_first + rows);
  }
  queries_.erase(queries_.begin() + index);
  names_.erase(names_.begin() + index);
  for (size_t j = static_cast<size_t>(index); j < queries_.size(); ++j) {
    queries_[j].query_offset -= values;
    queries_[j].row_offset -= rows;
  }
  return flushed;
}

template <typename Policy>
util::MemoryFootprint BasicSpringPool<Policy>::Footprint() const {
  util::MemoryFootprint fp;
  fp.Add("query", util::VectorBytes(query_values_));
  fp.Add("stwm_distances",
         util::VectorBytes(d_rows_[0]) + util::VectorBytes(d_rows_[1]));
  fp.Add("stwm_starts",
         util::VectorBytes(s_rows_[0]) + util::VectorBytes(s_rows_[1]));
  fp.Add("pool_state",
         static_cast<int64_t>(queries_.capacity() * sizeof(Slot)));
  return fp;
}

template class BasicSpringPool<ScalarPoolPolicy>;
template class BasicSpringPool<RowPoolPolicy>;

}  // namespace core
}  // namespace springdtw
