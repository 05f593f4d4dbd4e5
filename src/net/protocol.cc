#include "net/protocol.h"

#include <cmath>
#include <cstring>

#include "dtw/local_distance.h"
#include "util/string_util.h"

namespace springdtw {
namespace net {

namespace {

// Shared tail of every DecodeFrom: all fields parsed?
util::Status CheckDecode(const util::ByteReader& reader, const char* what) {
  if (!reader.ok()) {
    return util::InvalidArgumentError(
        util::StrFormat("truncated %s payload", what));
  }
  return util::Status::Ok();
}

}  // namespace

bool KnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kError);
}

std::string_view FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kHelloAck: return "HELLO_ACK";
    case FrameType::kOpenStream: return "OPEN_STREAM";
    case FrameType::kStreamOpened: return "STREAM_OPENED";
    case FrameType::kAddQuery: return "ADD_QUERY";
    case FrameType::kQueryAdded: return "QUERY_ADDED";
    case FrameType::kRemoveQuery: return "REMOVE_QUERY";
    case FrameType::kQueryRemoved: return "QUERY_REMOVED";
    case FrameType::kListQueries: return "LIST_QUERIES";
    case FrameType::kQueryList: return "QUERY_LIST";
    case FrameType::kSubscribeMatches: return "SUBSCRIBE_MATCHES";
    case FrameType::kSubscribed: return "SUBSCRIBED";
    case FrameType::kMatchEvent: return "MATCH_EVENT";
    case FrameType::kTick: return "TICK";
    case FrameType::kTickBatch: return "TICK_BATCH";
    case FrameType::kCheckpoint: return "CHECKPOINT";
    case FrameType::kCheckpointed: return "CHECKPOINTED";
    case FrameType::kDrain: return "DRAIN";
    case FrameType::kDrainAck: return "DRAIN_ACK";
    case FrameType::kError: return "ERROR";
  }
  return "UNKNOWN";
}

void AppendFrame(FrameType type, std::span<const uint8_t> payload,
                 std::vector<uint8_t>* out) {
  const uint32_t length = static_cast<uint32_t>(payload.size() + 1);
  const size_t base = out->size();
  out->resize(base + kFrameHeaderBytes + payload.size());
  std::memcpy(out->data() + base, &length, sizeof(length));
  (*out)[base + 4] = static_cast<uint8_t>(type);
  if (!payload.empty()) {
    std::memcpy(out->data() + base + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
}

util::Status CutFrame(std::span<const uint8_t> buffer,
                      uint64_t max_frame_bytes, Frame* frame,
                      size_t* consumed) {
  *consumed = 0;
  if (buffer.size() < 4) return util::Status::Ok();
  uint32_t length = 0;
  std::memcpy(&length, buffer.data(), sizeof(length));
  if (length == 0) {
    return util::InvalidArgumentError("zero-length frame");
  }
  if (length > max_frame_bytes) {
    return util::InvalidArgumentError(util::StrFormat(
        "frame of %u bytes exceeds the %llu-byte cap", length,
        static_cast<unsigned long long>(max_frame_bytes)));
  }
  if (buffer.size() < size_t{4} + length) return util::Status::Ok();
  frame->type = static_cast<FrameType>(buffer[4]);
  frame->payload.assign(buffer.begin() + 5, buffer.begin() + 4 + length);
  *consumed = size_t{4} + length;
  return util::Status::Ok();
}

void HelloPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU32(version);
  writer->WriteString(peer_name);
}

util::Status HelloPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU32(&version);
  reader->ReadString(&peer_name);
  return CheckDecode(*reader, "HELLO");
}

void HelloAckPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU32(version);
  writer->WriteString(server_name);
}

util::Status HelloAckPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU32(&version);
  reader->ReadString(&server_name);
  return CheckDecode(*reader, "HELLO_ACK");
}

void OpenStreamPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU64(request_id);
  writer->WriteString(name);
}

util::Status OpenStreamPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU64(&request_id);
  reader->ReadString(&name);
  return CheckDecode(*reader, "OPEN_STREAM");
}

void StreamOpenedPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU64(request_id);
  writer->WriteI64(stream_id);
  // v3 trailer, omitted when unknown so the frame stays v1-identical.
  if (ticks >= 0) writer->WriteI64(ticks);
}

util::Status StreamOpenedPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU64(&request_id);
  reader->ReadI64(&stream_id);
  ticks = -1;
  if (reader->ok() && !reader->AtEnd()) reader->ReadI64(&ticks);
  return CheckDecode(*reader, "STREAM_OPENED");
}

void AddQueryPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU64(request_id);
  writer->WriteI64(stream_id);
  writer->WriteString(name);
  writer->WriteDoubleVector(values);
  writer->WriteDouble(epsilon);
  writer->WriteU8(local_distance);
  writer->WriteI64(max_match_length);
  writer->WriteI64(min_match_length);
}

util::Status AddQueryPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU64(&request_id);
  reader->ReadI64(&stream_id);
  reader->ReadString(&name);
  reader->ReadDoubleVector(&values);
  reader->ReadDouble(&epsilon);
  reader->ReadU8(&local_distance);
  reader->ReadI64(&max_match_length);
  reader->ReadI64(&min_match_length);
  return CheckDecode(*reader, "ADD_QUERY");
}

util::StatusOr<core::SpringOptions> AddQueryPayload::ToSpringOptions() const {
  // The wire narrows core's admission rule: epsilon must be >= 0 here
  // (core also admits a negative, best-match-only epsilon).
  if (std::isnan(epsilon) || epsilon < 0.0) {
    return util::InvalidArgumentError("epsilon must be >= 0");
  }
  core::SpringOptions options;
  options.epsilon = epsilon;
  options.local_distance = static_cast<dtw::LocalDistance>(local_distance);
  options.max_match_length = max_match_length;
  options.min_match_length = min_match_length;
  SPRINGDTW_RETURN_IF_ERROR(core::ValidateSpringQuery(values, options));
  return options;
}

void QueryAddedPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU64(request_id);
  writer->WriteI64(query_id);
}

util::Status QueryAddedPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU64(&request_id);
  reader->ReadI64(&query_id);
  return CheckDecode(*reader, "QUERY_ADDED");
}

void RemoveQueryPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU64(request_id);
  writer->WriteI64(query_id);
}

util::Status RemoveQueryPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU64(&request_id);
  reader->ReadI64(&query_id);
  return CheckDecode(*reader, "REMOVE_QUERY");
}

void QueryRemovedPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU64(request_id);
  writer->WriteI64(query_id);
  writer->WriteI64(flushed_matches);
}

util::Status QueryRemovedPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU64(&request_id);
  reader->ReadI64(&query_id);
  reader->ReadI64(&flushed_matches);
  return CheckDecode(*reader, "QUERY_REMOVED");
}

void ListQueriesPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU64(request_id);
  // v2 trailer, omitted when false so the frame stays v1-identical.
  if (want_stats) writer->WriteBool(want_stats);
}

util::Status ListQueriesPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU64(&request_id);
  want_stats = false;
  if (reader->ok() && !reader->AtEnd()) reader->ReadBool(&want_stats);
  return CheckDecode(*reader, "LIST_QUERIES");
}

void QueryListPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU64(request_id);
  writer->WriteU64(static_cast<uint64_t>(entries.size()));
  for (const Entry& entry : entries) {
    writer->WriteI64(entry.query_id);
    writer->WriteI64(entry.stream_id);
    writer->WriteString(entry.name);
    writer->WriteString(entry.stream_name);
    writer->WriteI64(entry.ticks);
    writer->WriteI64(entry.matches);
  }
  // v2 stats trailer: one row per entry, appended after all base rows so a
  // stats-free reply remains byte-identical to v1.
  if (has_stats) {
    for (const Entry& entry : entries) {
      writer->WriteI64(entry.cells);
      writer->WriteI64(entry.last_match_seq);
      writer->WriteI64(entry.est_cpu_nanos);
    }
  }
}

util::Status QueryListPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU64(&request_id);
  uint64_t count = 0;
  reader->ReadU64(&count);
  // No reserve: the count is hostile until proven by actual bytes. Each
  // entry is at least 48 bytes, so a bogus count fails fast on truncation.
  entries.clear();
  for (uint64_t i = 0; i < count && reader->ok(); ++i) {
    Entry entry;
    reader->ReadI64(&entry.query_id);
    reader->ReadI64(&entry.stream_id);
    reader->ReadString(&entry.name);
    reader->ReadString(&entry.stream_name);
    reader->ReadI64(&entry.ticks);
    reader->ReadI64(&entry.matches);
    if (reader->ok()) entries.push_back(std::move(entry));
  }
  has_stats = false;
  if (reader->ok() && !reader->AtEnd()) {
    has_stats = true;
    for (Entry& entry : entries) {
      reader->ReadI64(&entry.cells);
      reader->ReadI64(&entry.last_match_seq);
      reader->ReadI64(&entry.est_cpu_nanos);
      if (!reader->ok()) break;
    }
  }
  return CheckDecode(*reader, "QUERY_LIST");
}

void SubscribeMatchesPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU64(request_id);
}

util::Status SubscribeMatchesPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU64(&request_id);
  return CheckDecode(*reader, "SUBSCRIBE_MATCHES");
}

void SubscribedPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU64(request_id);
}

util::Status SubscribedPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU64(&request_id);
  return CheckDecode(*reader, "SUBSCRIBED");
}

void MatchEventPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU64(delivery_seq);
  writer->WriteI64(stream_id);
  writer->WriteI64(query_id);
  writer->WriteString(stream_name);
  writer->WriteString(query_name);
  writer->WriteI64(match.start);
  writer->WriteI64(match.end);
  writer->WriteDouble(match.distance);
  writer->WriteI64(match.report_time);
  writer->WriteI64(match.group_start);
  writer->WriteI64(match.group_end);
  // v3 trailer, omitted for seq-less matches so the frame stays
  // v1-identical.
  if (match_seq >= 0) writer->WriteI64(match_seq);
}

util::Status MatchEventPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU64(&delivery_seq);
  reader->ReadI64(&stream_id);
  reader->ReadI64(&query_id);
  reader->ReadString(&stream_name);
  reader->ReadString(&query_name);
  reader->ReadI64(&match.start);
  reader->ReadI64(&match.end);
  reader->ReadDouble(&match.distance);
  reader->ReadI64(&match.report_time);
  reader->ReadI64(&match.group_start);
  reader->ReadI64(&match.group_end);
  match_seq = -1;
  if (reader->ok() && !reader->AtEnd()) reader->ReadI64(&match_seq);
  return CheckDecode(*reader, "MATCH_EVENT");
}

void TickPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteI64(stream_id);
  writer->WriteDouble(value);
  // v2 trailer, omitted when unstamped so the frame stays v1-identical.
  if (send_nanos != 0) writer->WriteU64(send_nanos);
}

util::Status TickPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadI64(&stream_id);
  reader->ReadDouble(&value);
  send_nanos = 0;
  if (reader->ok() && !reader->AtEnd()) reader->ReadU64(&send_nanos);
  return CheckDecode(*reader, "TICK");
}

void TickBatchPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteI64(stream_id);
  writer->WriteDoubleVector(values);
  if (send_nanos != 0) writer->WriteU64(send_nanos);
}

util::Status TickBatchPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadI64(&stream_id);
  reader->ReadDoubleVector(&values);
  send_nanos = 0;
  if (reader->ok() && !reader->AtEnd()) reader->ReadU64(&send_nanos);
  return CheckDecode(*reader, "TICK_BATCH");
}

void CheckpointPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU64(request_id);
}

util::Status CheckpointPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU64(&request_id);
  return CheckDecode(*reader, "CHECKPOINT");
}

void CheckpointedPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU64(request_id);
  writer->WriteU64(state_bytes);
}

util::Status CheckpointedPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU64(&request_id);
  reader->ReadU64(&state_bytes);
  return CheckDecode(*reader, "CHECKPOINTED");
}

void DrainPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU64(request_id);
}

util::Status DrainPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU64(&request_id);
  return CheckDecode(*reader, "DRAIN");
}

void DrainAckPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU64(request_id);
  writer->WriteU64(ticks_applied);
}

util::Status DrainAckPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU64(&request_id);
  reader->ReadU64(&ticks_applied);
  return CheckDecode(*reader, "DRAIN_ACK");
}

void ErrorPayload::EncodeTo(util::ByteWriter* writer) const {
  writer->WriteU64(request_id);
  writer->WriteU8(code);
  writer->WriteString(message);
}

util::Status ErrorPayload::DecodeFrom(util::ByteReader* reader) {
  reader->ReadU64(&request_id);
  reader->ReadU8(&code);
  reader->ReadString(&message);
  return CheckDecode(*reader, "ERROR");
}

util::Status ErrorPayload::ToStatus() const {
  util::StatusCode status_code = util::StatusCode::kInternal;
  if (code >= static_cast<uint8_t>(util::StatusCode::kInvalidArgument) &&
      code <= static_cast<uint8_t>(util::StatusCode::kIoError)) {
    status_code = static_cast<util::StatusCode>(code);
  }
  return util::Status(status_code, message);
}

ErrorPayload MakeErrorPayload(uint64_t request_id,
                              const util::Status& status) {
  ErrorPayload payload;
  payload.request_id = request_id;
  payload.code = static_cast<uint8_t>(status.code());
  payload.message = status.message();
  return payload;
}

}  // namespace net
}  // namespace springdtw
