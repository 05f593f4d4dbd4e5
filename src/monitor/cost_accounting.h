#ifndef SPRINGDTW_MONITOR_COST_ACCOUNTING_H_
#define SPRINGDTW_MONITOR_COST_ACCOUNTING_H_

#include <cstdint>
#include <string>
#include <vector>

namespace springdtw {
namespace monitor {

/// Rows served by /queryz: how many rows the ranked JSON renders.
inline constexpr int64_t kCostTopK = 100;

/// One query's row, the same for LIST_QUERIES (ShardedMonitor::ListQueries)
/// and /queryz: everything the monitor knows about what a query has cost
/// so far. `ticks`, `matches` and `cells` are the owning engine's exact
/// counters, in the query's own clock. `cells` is the exact STWM work: the
/// cells the kernel computed, up to each tick's ε-frontier (at most the
/// query length m per tick). The SPRING DP is the dominating cost, so cells
/// is the primary ranking key. `est_cpu_nanos` is the sampled wall
/// attribution (EngineOptions::cost_sample_every), split across a stream's
/// queries by the cells each computed in the sampled run; 0 when sampling
/// is off.
struct QueryCost {
  int64_t query_id = 0;
  int64_t stream_id = 0;
  std::string query_name;
  std::string stream_name;
  int64_t ticks = 0;
  int64_t cells = 0;
  int64_t matches = 0;
  /// Global ingest seq of the last delivered match; -1 before any match.
  int64_t last_match_seq = -1;
  int64_t est_cpu_nanos = 0;
};

/// One /streamz row: a stream's queries aggregated, plus which worker owns
/// the stream under the sharded monitor.
struct StreamCost {
  int64_t stream_id = 0;
  std::string name;
  int64_t worker = 0;
  int64_t queries = 0;
  int64_t ticks = 0;
  int64_t cells = 0;
  int64_t matches = 0;
  int64_t est_cpu_nanos = 0;
};

/// A consistent point-in-time cost view, built post-barrier by the router
/// and published under a mutex (the introspection server only ever reads
/// published snapshots, never live state).
struct CostSnapshot {
  std::vector<QueryCost> queries;
  std::vector<StreamCost> streams;
};

/// Deterministic cost ranking, in place: cells descending (exactly
/// countable DP work), id ascending as the tie-break.
void RankByCost(CostSnapshot* snapshot);

/// Renders the top-`top_k` ranked query rows as the /queryz JSON document:
/// {"queries":[{"id":..,"stream":..,"ticks":..,"cells":..,...}]}.
/// The snapshot must already be ranked (RankByCost).
std::string RenderQueryzJson(const CostSnapshot& snapshot, int64_t top_k);

/// Renders the top-`top_k` ranked stream rows as the /streamz JSON
/// document. The snapshot must already be ranked.
std::string RenderStreamzJson(const CostSnapshot& snapshot, int64_t top_k);

}  // namespace monitor
}  // namespace springdtw

#endif  // SPRINGDTW_MONITOR_COST_ACCOUNTING_H_
