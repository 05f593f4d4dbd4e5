#include "core/spring_kernel.h"

#include <cmath>
#include <vector>

#include "util/logging.h"

namespace springdtw {
namespace core {
namespace {

constexpr uint32_t kSnapshotVersion = 1;

}  // namespace

util::Status ValidateSpringQuery(std::span<const double> values,
                                 const SpringOptions& options) {
  if (values.empty()) return util::InvalidArgumentError("empty query");
  for (const double v : values) {
    if (!std::isfinite(v)) {
      return util::InvalidArgumentError("query has a non-finite value");
    }
  }
  if (std::isnan(options.epsilon)) {
    return util::InvalidArgumentError("epsilon is NaN");
  }
  if (options.max_match_length < 0 || options.min_match_length < 0) {
    return util::InvalidArgumentError("match length bounds must be >= 0");
  }
  if (options.local_distance != dtw::LocalDistance::kSquared &&
      options.local_distance != dtw::LocalDistance::kAbsolute) {
    return util::InvalidArgumentError("unknown local distance");
  }
  return util::Status::Ok();
}

namespace internal {

invariants::StwmColumn CheckedColumn(const SpringState& q,
                                     const double* d_prev,
                                     const int64_t* s_prev, const double* d,
                                     const int64_t* s) {
  thread_local std::vector<double> col_d, col_d_prev;
  thread_local std::vector<int64_t> col_s, col_s_prev;
  const size_t rows = static_cast<size_t>(q.m) + 1;
  col_d.assign(rows, 0.0);
  col_d_prev.assign(rows, 0.0);
  col_s.assign(rows, q.t);
  col_s_prev.assign(rows, q.t > 0 ? q.t - 1 : 0);
  for (size_t i = 1; i < rows; ++i) {
    col_d[i] = d[i - 1];
    col_s[i] = s[i - 1];
    col_d_prev[i] = d_prev[i - 1];
    col_s_prev[i] = s_prev[i - 1];
  }
  return invariants::StwmColumn{col_d, col_s, col_d_prev, col_s_prev, q.t};
}

void Require(const std::string& violation) {
  SPRINGDTW_CHECK(violation.empty()) << violation;
}

}  // namespace internal

bool SpringFlush(SpringState& q, double* d, const int64_t* s, Match* match) {
  if (!q.has_candidate || q.dmin > q.options.epsilon) return false;
  if (match != nullptr) *match = SpringCandidate(q, q.t);
#if SPRINGDTW_ENABLE_INVARIANT_CHECKS
  SPRINGDTW_CHECK(q.ts > q.last_report_end)
      << "STWM invariant 'reports-disjoint' violated at flush: start "
      << q.ts << " overlaps previous report ending at " << q.last_report_end;
#endif
  SpringKill(q, d, s);
  return true;
}

void WriteSpringSnapshot(util::ByteWriter* writer, uint32_t magic,
                         const SpringState& q, std::span<const double> values,
                         int64_t dims, const std::string& name,
                         const double* d, const int64_t* s) {
  writer->WriteU32(magic);
  writer->WriteU32(kSnapshotVersion);
  writer->WriteDouble(q.options.epsilon);
  writer->WriteU8(static_cast<uint8_t>(q.options.local_distance));
  writer->WriteI64(q.options.max_match_length);
  writer->WriteI64(q.options.min_match_length);
  if (magic == kVectorSnapshotMagic) {
    writer->WriteI64(dims);
    writer->WriteString(name);
  }
  writer->WriteU64(values.size());
  for (const double v : values) writer->WriteDouble(v);
  // The live rows, star row first: d = 0 and s = the last tick (0 before
  // the first).
  const size_t rows = static_cast<size_t>(q.m) + 1;
  writer->WriteU64(rows);
  writer->WriteDouble(0.0);
  for (int64_t i = 0; i < q.m; ++i) writer->WriteDouble(d[i]);
  writer->WriteU64(rows);
  writer->WriteI64(q.t > 0 ? q.t - 1 : 0);
  for (int64_t i = 0; i < q.m; ++i) writer->WriteI64(s[i]);
  writer->WriteI64(q.t);
  writer->WriteBool(q.has_candidate);
  writer->WriteDouble(q.dmin);
  writer->WriteI64(q.ts);
  writer->WriteI64(q.te);
  writer->WriteI64(q.group_start);
  writer->WriteI64(q.group_end);
  writer->WriteBool(q.has_best);
  writer->WriteI64(q.best.start);
  writer->WriteI64(q.best.end);
  writer->WriteDouble(q.best.distance);
  writer->WriteI64(q.best.report_time);
  writer->WriteI64(q.best.group_start);
  writer->WriteI64(q.best.group_end);
}

util::Status ReadSpringTemplate(util::ByteReader* reader, uint32_t magic,
                                SpringTemplate* tmpl) {
  uint32_t got_magic = 0;
  uint32_t version = 0;
  reader->ReadU32(&got_magic);
  reader->ReadU32(&version);
  if (!reader->ok() || got_magic != magic) {
    return util::InvalidArgumentError(
        magic == kScalarSnapshotMagic ? "not a SpringMatcher snapshot"
                                      : "not a VectorSpringMatcher snapshot");
  }
  if (version != kSnapshotVersion) {
    return util::InvalidArgumentError("unsupported snapshot version");
  }
  uint8_t distance = 0;
  reader->ReadDouble(&tmpl->options.epsilon);
  reader->ReadU8(&distance);
  reader->ReadI64(&tmpl->options.max_match_length);
  reader->ReadI64(&tmpl->options.min_match_length);
  tmpl->options.local_distance = static_cast<dtw::LocalDistance>(distance);
  if (magic == kVectorSnapshotMagic) {
    reader->ReadI64(&tmpl->dims);
    reader->ReadString(&tmpl->name);
  }
  if (!reader->ReadDoubleVector(&tmpl->values) || tmpl->dims < 1 ||
      tmpl->values.size() % static_cast<uint64_t>(tmpl->dims) != 0) {
    return util::InvalidArgumentError("snapshot query corrupt");
  }
  return ValidateSpringQuery(tmpl->values, tmpl->options);
}

util::Status ReadSpringBody(util::ByteReader* reader, SpringState* q,
                            double* d, int64_t* s) {
  const uint64_t rows = static_cast<uint64_t>(q->m) + 1;
  uint64_t d_rows = 0;
  double star_d = 0.0;
  reader->ReadU64(&d_rows);
  if (!reader->ok() || d_rows != rows) {
    return util::InvalidArgumentError("snapshot row size mismatch");
  }
  reader->ReadDouble(&star_d);
  for (int64_t i = 0; i < q->m; ++i) reader->ReadDouble(&d[i]);
  uint64_t s_rows = 0;
  int64_t star_s = 0;
  reader->ReadU64(&s_rows);
  if (!reader->ok() || s_rows != rows) {
    return util::InvalidArgumentError("snapshot row size mismatch");
  }
  reader->ReadI64(&star_s);
  for (int64_t i = 0; i < q->m; ++i) reader->ReadI64(&s[i]);
  reader->ReadI64(&q->t);
  reader->ReadBool(&q->has_candidate);
  reader->ReadDouble(&q->dmin);
  reader->ReadI64(&q->ts);
  reader->ReadI64(&q->te);
  reader->ReadI64(&q->group_start);
  reader->ReadI64(&q->group_end);
  reader->ReadBool(&q->has_best);
  reader->ReadI64(&q->best.start);
  reader->ReadI64(&q->best.end);
  reader->ReadDouble(&q->best.distance);
  reader->ReadI64(&q->best.report_time);
  reader->ReadI64(&q->best.group_start);
  reader->ReadI64(&q->best.group_end);
  if (!reader->ok()) return util::InvalidArgumentError("snapshot truncated");
  if (!reader->AtEnd()) {
    return util::InvalidArgumentError("snapshot has trailing bytes");
  }
  if (q->t < 0) {
    return util::InvalidArgumentError("snapshot has negative tick counter");
  }

  // Semantic validation: the structural checks above guarantee shapes;
  // these guarantee the state is one a real matcher could have been in
  // (docs/CORRECTNESS.md). Crafted or corrupt snapshots that parse but
  // encode impossible state are rejected here rather than poisoning the
  // matcher.
  const int64_t last_tick = q->t > 0 ? q->t - 1 : 0;
  if (star_d != 0.0 || star_s != last_tick) {
    return util::InvalidArgumentError("snapshot star row corrupt");
  }
  for (int64_t i = 0; i < q->m; ++i) {
    if (std::isnan(d[i]) || d[i] < 0.0 || s[i] < 0 || s[i] > last_tick) {
      return util::InvalidArgumentError("snapshot STWM row corrupt");
    }
  }
  if (q->has_candidate) {
    if (q->t == 0 || std::isnan(q->dmin) || q->dmin < 0.0 ||
        q->dmin > q->options.epsilon || q->ts < 0 || q->ts > q->te ||
        q->te > last_tick || q->group_start < 0 ||
        q->group_start > q->ts || q->group_end < q->te ||
        q->group_end > last_tick) {
      return util::InvalidArgumentError("snapshot candidate corrupt");
    }
  }
  if (q->has_best) {
    if (q->t == 0 || std::isnan(q->best.distance) ||
        q->best.distance < 0.0 || q->best.start < 0 ||
        q->best.start > q->best.end || q->best.end > last_tick ||
        q->best.report_time < q->best.end ||
        q->best.report_time > last_tick) {
      return util::InvalidArgumentError("snapshot best-match corrupt");
    }
  }
  return util::Status::Ok();
}

}  // namespace core
}  // namespace springdtw
