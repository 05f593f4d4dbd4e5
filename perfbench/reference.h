#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/match.h"
#include "inputs.h"

namespace perfbench {

/// A match as delivered to the benchmark, keyed by global query index.
struct DeliveredMatch {
  int64_t query = 0;
  springdtw::core::Match match;
};

/// Outcome of comparing delivered matches with the in-process reference.
struct CheckReport {
  int64_t checked_queries = 0;
  int64_t expected_matches = 0;
  /// Reference matches that were not delivered, and delivered matches the
  /// reference does not produce (compared on start, end, report time and
  /// the distance's exact bits).
  int64_t missing = 0;
  int64_t extra = 0;
  /// Planted episodes old enough to have been reported, and those no
  /// delivered match of their query overlaps.
  int64_t planted_checked = 0;
  int64_t planted_missed = 0;
  /// The first few problems, for the log.
  std::vector<std::string> problems;

  int64_t failures() const { return missing + extra + planted_missed; }
};

/// Global indices of the queries the check recomputes: every query, or a
/// fixed, evenly spread sample per stream (WorkloadSpec::
/// checked_queries_per_stream).
std::vector<int64_t> CheckedQueries(const Inputs& inputs);

/// Recomputes the checked queries with core::SpringMatcher over the
/// `ticks_sent[s]` ticks each stream received, using at most two threads,
/// and compares. Delivered matches of unchecked queries are ignored.
CheckReport CheckOutputs(const Inputs& inputs,
                         std::span<const int64_t> ticks_sent,
                         const std::vector<DeliveredMatch>& delivered);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
