// The recovery algorithms: §3.4.4 (simple log, every entry examined) and
// §4.3.3 (hybrid log, backward outcome chain), including the committed_ss
// handling of §5.1.2 and the mutex latest-version rule of §4.4.
//
// Both algorithms reconstruct the guardian's stable state into a fresh heap
// and return the OT/PT/CT tables that the Argus system uses to resume
// participants and coordinators (§2.3 item 6).
//
// A hybrid guardian's stable state may be partitioned across N log shards
// (src/stable/shard_map.h); the one-log guardian is the N = 1 case of the same
// driver. Every entry for an object lives on that object's shard, so each
// shard's chain restores a disjoint uid subset, but an action's decision
// record lives only on its home shard while its prepare fragments sit on every
// shard it touched. The driver therefore runs:
//
//  1. Head find: one backward scan per shard for its newest outcome entry.
//  2. Decision pass (N > 1 only): walk every chain noting participant states
//     and restoring nothing, then merge the fragments decided-wins — the
//     two-phase commit force protocol (LogWriter) makes a decision record
//     durable only after every prepare fragment it decides, so a decided state
//     always dominates, and two conflicting decisions are corruption.
//  3. Walk: the one chain walk that restores versions (ApplyChainEntry), per
//     shard, seeded with the merged participant table when N > 1.
//  4. Finalize: the disjoint union of the shards' tables, then one uid-ref
//     resolution, AS traversal and MT rebuild.
//
// Each step runs per shard, inline or on worker threads; every schedule
// produces bit-identical results (the shard equivalence test pins this).

#ifndef SRC_RECOVERY_RECOVERY_ALGORITHMS_H_
#define SRC_RECOVERY_RECOVERY_ALGORITHMS_H_

#include <span>
#include <vector>

#include "src/log/stable_log.h"
#include "src/object/heap.h"
#include "src/recovery/tables.h"

namespace argus {

struct RecoveryResult {
  ObjectTable ot;
  ParticipantTable pt;
  CoordinatorTable ct;
  MutexTable mt;            // rebuilt per §5.2 (latest prepared mutex versions)
  AccessibilitySet as;      // rebuilt by traversal (§3.4.1 step 4)
  // One chain head per log, in shard order, for re-priming the writer's
  // chains; Null for an empty chain and for the simple log.
  std::vector<LogAddress> last_outcome;
  std::uint64_t entries_examined = 0;   // log entries touched
  std::uint64_t data_entries_read = 0;  // data entries dereferenced (hybrid)
};

// Chapter 3: reads the log backward one entry at a time, processing every
// data and outcome entry.
Result<RecoveryResult> RecoverSimpleLog(const StableLog& log, VolatileHeap& heap);

// Chapter 4 over a guardian's hybrid log shards, in shard-map order: walks
// only the backward chains of outcome entries, dereferencing
// <uid, log address> pairs just when a version must actually be copied. Each
// walk is a pointer chase through the log's block cache. `workers` >= 2 runs
// the per-shard steps on min(workers, shards) threads; fewer run them inline.
Result<RecoveryResult> RecoverHybridLog(std::span<const StableLog* const> logs,
                                        VolatileHeap& heap, std::size_t workers = 0);

// The one-log guardian: RecoverHybridLog over a single shard.
Result<RecoveryResult> RecoverHybridLog(const StableLog& log, VolatileHeap& heap);

}  // namespace argus

#endif  // SRC_RECOVERY_RECOVERY_ALGORITHMS_H_
