// Human-readable renderings of the recovery tables, in the layout the thesis
// uses at each scenario's "algorithm's end" (PT / CT / OT columns).

#ifndef SRC_RECOVERY_DEBUG_H_
#define SRC_RECOVERY_DEBUG_H_

#include <string>

#include "src/recovery/recovery_system.h"

namespace argus {

std::string DumpParticipantTable(const ParticipantTable& pt);
std::string DumpCoordinatorTable(const CoordinatorTable& ct);
std::string DumpObjectTable(const ObjectTable& ot);

// All three tables plus the scan statistics.
std::string DumpRecoveryInfo(const RecoveryInfo& info);

// The log's force-side and read-side counters (group commit, read cache,
// batched reads) in the same fixed layout the benches export via --json.
std::string DumpLogStats(const LogStats& stats);

// Sharded-guardian variant: one "shard N" row group per log, followed by a
// rollup row summing the counters (the ratio fields are recomputed over the
// sums, not averaged). A single-element vector degenerates to DumpLogStats
// plus the rollup.
std::string DumpShardedLogStats(const std::vector<LogStats>& per_shard);

// Sums per-shard counters into one LogStats (the rollup DumpShardedLogStats
// prints; also what the benches feed the metrics registry).
LogStats AggregateLogStats(const std::vector<LogStats>& per_shard);

// Log-pointer overloads: snapshot each shard via StableLog::StatsSnapshot()
// — which folds the ReadCache's live hit/miss/readahead counters in — and
// roll those up. Passing `log.stats()` to the vector forms above silently
// reports zero cache traffic (the cache keeps its own counters until a
// snapshot merges them); these overloads exist so fault-path cache
// efficiency is visible in one authoritative place.
LogStats AggregateLogStats(const std::vector<StableLog*>& logs);
std::string DumpShardedLogStats(const std::vector<StableLog*>& logs);

}  // namespace argus

#endif  // SRC_RECOVERY_DEBUG_H_
