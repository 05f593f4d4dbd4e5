// Fuzz harness for checkpoint/snapshot restore — the untrusted-binary
// input boundary. Arbitrary bytes are fed to SpringMatcher and
// VectorSpringMatcher::DeserializeState and MonitorEngine::RestoreState;
// every outcome must be either a clean non-OK Status or a fully usable
// object. When restore succeeds, the restored object is driven for a few
// ticks and re-serialized: in sanitizer builds this must not trip ASan/
// UBSan, and in forced-invariant builds the STWM invariant checks prove
// the restored state was semantically valid, not just parseable.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/match.h"
#include "core/spring.h"
#include "core/vector_spring.h"
#include "monitor/engine.h"

namespace {

using springdtw::core::Match;
using springdtw::core::SpringMatcher;
using springdtw::core::VectorSpringMatcher;
using springdtw::monitor::MonitorEngine;

// Deterministic, bounded stream values derived from the input bytes.
double TickValue(const uint8_t* data, size_t size, size_t i) {
  return (static_cast<double>(data[i % size]) - 128.0) / 16.0;
}

void DriveScalar(const uint8_t* data, size_t size) {
  auto matcher = SpringMatcher::DeserializeState({data, size});
  if (!matcher.ok()) return;
  Match match;
  for (size_t i = 0; i < 16; ++i) {
    matcher->Update(TickValue(data, size, i), &match);
  }
  matcher->Flush(&match);
  const std::vector<uint8_t> snapshot = matcher->SerializeState();
  // A snapshot of a live matcher must always restore.
  if (!SpringMatcher::DeserializeState(snapshot).ok()) std::abort();
}

void DriveVector(const uint8_t* data, size_t size) {
  auto matcher = VectorSpringMatcher::DeserializeState({data, size});
  if (!matcher.ok()) return;
  Match match;
  std::vector<double> row(static_cast<size_t>(matcher->dims()));
  for (size_t i = 0; i < 16; ++i) {
    for (size_t d = 0; d < row.size(); ++d) {
      row[d] = TickValue(data, size, i + d);
    }
    matcher->Update(row, &match);
  }
  matcher->Flush(&match);
  const std::vector<uint8_t> snapshot = matcher->SerializeState();
  if (!VectorSpringMatcher::DeserializeState(snapshot).ok()) std::abort();
}

void DriveEngine(const uint8_t* data, size_t size) {
  MonitorEngine engine;
  if (!engine.RestoreState({data, size}).ok()) return;
  for (int64_t stream = 0; stream < engine.num_streams(); ++stream) {
    for (size_t i = 0; i < 8; ++i) {
      const auto pushed =
          engine.Push(stream, TickValue(data, size, i));
      if (!pushed.ok()) std::abort();  // Restored streams must accept input.
    }
  }
  engine.FlushAll();
  // Re-checkpointing a restored engine must produce a restorable
  // checkpoint in canonical form: the resumed engine re-serializes to
  // exactly the bytes it was restored from.
  const std::vector<uint8_t> checkpoint = engine.SerializeState();
  MonitorEngine resumed;
  if (!resumed.RestoreState(checkpoint).ok()) std::abort();
  if (resumed.SerializeState() != checkpoint) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  DriveScalar(data, size);
  DriveVector(data, size);
  DriveEngine(data, size);
  return 0;
}
