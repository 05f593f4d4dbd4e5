#ifndef SPRINGDTW_OBS_RING_H_
#define SPRINGDTW_OBS_RING_H_

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace springdtw {
namespace obs {

/// Bounded-memory ring buffer of fixed-size records (obs::TraceRing,
/// obs::SpanRing). Capacity is fixed at construction (0 = disabled); once
/// full, new records overwrite the oldest and dropped() counts what was
/// lost. Record() is O(1) and allocation-free. `ToJson` renders one record
/// as a single JSON object for DumpJsonl.
template <typename T, std::string (*ToJson)(const T&)>
class Ring {
 public:
  explicit Ring(int64_t capacity = 0)
      : ring_(static_cast<size_t>(std::max<int64_t>(capacity, 0))) {}

  bool enabled() const { return capacity() > 0; }
  int64_t capacity() const { return static_cast<int64_t>(ring_.size()); }
  /// Records currently held (<= capacity).
  int64_t size() const { return std::min(total_, capacity()); }
  /// Records ever recorded, including overwritten ones.
  int64_t total_recorded() const { return total_; }
  /// Records lost to wrap-around.
  int64_t dropped() const { return total_ - size(); }

  void Record(const T& item) {
    if (ring_.empty()) return;
    ring_[static_cast<size_t>(total_ % capacity())] = item;
    ++total_;
  }
  void Clear() { total_ = 0; }

  /// Held records, oldest first.
  std::vector<T> Items() const {
    std::vector<T> items;
    items.reserve(static_cast<size_t>(size()));
    for (int64_t i = total_ - size(); i < total_; ++i) {
      items.push_back(ring_[static_cast<size_t>(i % capacity())]);
    }
    return items;
  }

  /// Writes one JSON object per line (JSONL), oldest first.
  void DumpJsonl(std::ostream& out) const {
    for (const T& item : Items()) out << ToJson(item) << '\n';
  }

 private:
  std::vector<T> ring_;
  int64_t total_ = 0;  // ring_[total_ % capacity()] is the next write slot.
};

}  // namespace obs
}  // namespace springdtw

#endif  // SPRINGDTW_OBS_RING_H_
