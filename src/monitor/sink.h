#ifndef SPRINGDTW_MONITOR_SINK_H_
#define SPRINGDTW_MONITOR_SINK_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/match.h"

namespace springdtw {
namespace monitor {

/// Identifies which (stream, query) pair produced a match.
struct MatchOrigin {
  int64_t stream_id = 0;
  int64_t query_id = 0;
  std::string stream_name;
  std::string query_name;
  /// Global sequence number of the tick that produced the match, when the
  /// producer assigns one (ShardedMonitor does; single-threaded engines
  /// leave it -1, as do end-of-stream flush matches, which have no
  /// producing tick). With query_id it forms the stable identity the
  /// durability layer dedups match delivery by (docs/DURABILITY.md).
  int64_t global_seq = -1;
  /// Index of the reporting tick within the Push/PushBatch run that
  /// produced the match; -1 for flushed candidates. ShardedMonitor adds it
  /// to the run's first global seq to get global_seq.
  int64_t batch_offset = -1;
};

/// Destination for reported matches. Implementations must not block for
/// long: OnMatch runs on the ingest path.
class MatchSink {
 public:
  virtual ~MatchSink() = default;
  virtual void OnMatch(const MatchOrigin& origin, const core::Match& match) = 0;
};

/// Buffers every match in memory; the simplest sink for tests and batch use.
class CollectSink : public MatchSink {
 public:
  struct Entry {
    MatchOrigin origin;
    core::Match match;
  };

  void OnMatch(const MatchOrigin& origin, const core::Match& match) override {
    entries_.push_back(Entry{origin, match});
  }

  const std::vector<Entry>& entries() const { return entries_; }
  void Clear() { entries_.clear(); }

 private:
  std::vector<Entry> entries_;
};

/// Writes one line per match to an ostream. The stream must outlive the
/// sink.
class OstreamSink : public MatchSink {
 public:
  explicit OstreamSink(std::ostream* out) : out_(out) {}
  void OnMatch(const MatchOrigin& origin, const core::Match& match) override;

 private:
  std::ostream* out_;
};

/// Invokes a user callback per match.
class CallbackSink : public MatchSink {
 public:
  using Callback =
      std::function<void(const MatchOrigin&, const core::Match&)>;
  explicit CallbackSink(Callback callback)
      : callback_(std::move(callback)) {}

  void OnMatch(const MatchOrigin& origin, const core::Match& match) override {
    callback_(origin, match);
  }

 private:
  Callback callback_;
};

}  // namespace monitor
}  // namespace springdtw

#endif  // SPRINGDTW_MONITOR_SINK_H_
