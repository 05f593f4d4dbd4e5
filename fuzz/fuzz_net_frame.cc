// Fuzz harness for the net/ wire protocol — the boundary where springdtw_serve
// reads bytes from untrusted TCP peers.
//
// Two phases per input:
//  1. Server-style cut loop: run CutFrame over the raw bytes exactly like
//     StreamServer::ReadAndProcess does, asserting the framing contract —
//     a cut either errors (session-fatal), parks for more data
//     (consumed == 0), or yields a frame whose payload length matches the
//     consumed byte count. Every complete frame of a known type is fed to
//     its typed decoder; a successful decode must re-encode to exactly the
//     input bytes (every field is always encoded, so each payload has one
//     encoding), and the option/status views (ToSpringOptions, ToStatus)
//     must not crash.
//  2. Frame round-trip: treat the input as an opaque payload, append it
//     as a frame of every known type, and assert CutFrame hands back the
//     same type and payload with nothing left over.
//
// Property violations abort (the fuzzer treats that as a crash); under the
// replay driver an abort fails the ctest smoke.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "net/protocol.h"
#include "util/codec.h"
#include "util/status.h"

namespace {

using namespace springdtw::net;

void Require(bool condition) {
  if (!condition) std::abort();
}

template <typename Payload>
std::vector<uint8_t> Encode(const Payload& payload) {
  springdtw::util::ByteWriter writer;
  payload.EncodeTo(&writer);
  return writer.buffer();
}

// Decode, and on success require identity: re-encoding the decoded value
// yields the input bytes.
template <typename Payload>
void CheckTypedDecode(std::span<const uint8_t> payload_bytes) {
  Payload payload;
  if (!DecodePayload(payload_bytes, &payload).ok()) return;
  const std::vector<uint8_t> encoded = Encode(payload);
  Require(std::equal(encoded.begin(), encoded.end(), payload_bytes.begin(),
                     payload_bytes.end()));
}

void DispatchDecode(const Frame& frame) {
  const std::span<const uint8_t> bytes(frame.payload);
  switch (frame.type) {
    case FrameType::kHello:
      CheckTypedDecode<HelloPayload>(bytes);
      break;
    case FrameType::kHelloAck:
      CheckTypedDecode<HelloAckPayload>(bytes);
      break;
    case FrameType::kOpenStream:
      CheckTypedDecode<OpenStreamPayload>(bytes);
      break;
    case FrameType::kStreamOpened:
      CheckTypedDecode<StreamOpenedPayload>(bytes);
      break;
    case FrameType::kAddQuery: {
      AddQueryPayload payload;
      if (DecodePayload(bytes, &payload).ok()) {
        CheckTypedDecode<AddQueryPayload>(bytes);
        // The option view validates hostile values; it must reject or
        // accept, never crash.
        (void)payload.ToSpringOptions();
      }
      break;
    }
    case FrameType::kQueryAdded:
      CheckTypedDecode<QueryAddedPayload>(bytes);
      break;
    case FrameType::kRemoveQuery:
      CheckTypedDecode<RemoveQueryPayload>(bytes);
      break;
    case FrameType::kQueryRemoved:
      CheckTypedDecode<QueryRemovedPayload>(bytes);
      break;
    case FrameType::kListQueries:
      CheckTypedDecode<ListQueriesPayload>(bytes);
      break;
    case FrameType::kQueryList:
      CheckTypedDecode<QueryListPayload>(bytes);
      break;
    case FrameType::kSubscribeMatches:
      CheckTypedDecode<SubscribeMatchesPayload>(bytes);
      break;
    case FrameType::kSubscribed:
      CheckTypedDecode<SubscribedPayload>(bytes);
      break;
    case FrameType::kMatchEvent:
      CheckTypedDecode<MatchEventPayload>(bytes);
      break;
    case FrameType::kTickBatch:
      CheckTypedDecode<TickBatchPayload>(bytes);
      break;
    case FrameType::kCheckpoint:
      CheckTypedDecode<CheckpointPayload>(bytes);
      break;
    case FrameType::kCheckpointed:
      CheckTypedDecode<CheckpointedPayload>(bytes);
      break;
    case FrameType::kDrain:
      CheckTypedDecode<DrainPayload>(bytes);
      break;
    case FrameType::kDrainAck:
      CheckTypedDecode<DrainAckPayload>(bytes);
      break;
    case FrameType::kError: {
      ErrorPayload payload;
      if (DecodePayload(bytes, &payload).ok()) {
        CheckTypedDecode<ErrorPayload>(bytes);
        // Whatever code the peer sent, the status view is never kOk.
        Require(!payload.ToStatus().ok());
      }
      break;
    }
  }
}

void CutLoopPhase(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> buffer(data, size);
  size_t offset = 0;
  while (offset < buffer.size()) {
    Frame frame;
    size_t consumed = 0;
    const springdtw::util::Status status =
        CutFrame(buffer.subspan(offset), kDefaultMaxFrameBytes, &frame,
                 &consumed);
    if (!status.ok()) break;  // Session-fatal framing error.
    if (consumed == 0) break;  // Incomplete frame: wait for more bytes.
    Require(consumed >= kFrameHeaderBytes);
    Require(consumed <= buffer.size() - offset);
    Require(frame.payload.size() == consumed - kFrameHeaderBytes);
    if (KnownFrameType(static_cast<uint8_t>(frame.type))) {
      DispatchDecode(frame);
    }
    offset += consumed;
  }
}

void FrameRoundTripPhase(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> payload(data, size);
  for (uint8_t type = static_cast<uint8_t>(FrameType::kHello);
       type <= static_cast<uint8_t>(FrameType::kError); ++type) {
    std::vector<uint8_t> wire;
    AppendFrame(static_cast<FrameType>(type), payload, &wire);
    Frame frame;
    size_t consumed = 0;
    // The cap must admit any frame AppendFrame can produce for this input.
    const uint64_t cap = wire.size();
    Require(CutFrame(wire, cap, &frame, &consumed).ok());
    Require(consumed == wire.size());
    Require(static_cast<uint8_t>(frame.type) == type);
    Require(std::span<const uint8_t>(frame.payload).size() == payload.size());
    Require(std::equal(frame.payload.begin(), frame.payload.end(),
                       payload.begin()));
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  CutLoopPhase(data, size);
  if (size <= kDefaultMaxFrameBytes / 2) FrameRoundTripPhase(data, size);
  return 0;
}
