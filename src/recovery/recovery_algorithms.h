// The recovery algorithms: §3.4.4 (simple log, every entry examined) and
// §4.3.3 (hybrid log, backward outcome chain), including the committed_ss
// handling of §5.1.2 and the mutex latest-version rule of §4.4.
//
// Both algorithms reconstruct the guardian's stable state into a fresh heap
// and return the OT/PT/CT tables that the Argus system uses to resume
// participants and coordinators (§2.3 item 6).

#ifndef SRC_RECOVERY_RECOVERY_ALGORITHMS_H_
#define SRC_RECOVERY_RECOVERY_ALGORITHMS_H_

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
  LogAddress last_outcome = LogAddress::Null();  // chain head (hybrid)
  std::uint64_t entries_examined = 0;   // log entries touched
  std::uint64_t data_entries_read = 0;  // data entries dereferenced (hybrid)
};

// Chapter 3: reads the log backward one entry at a time, processing every
// data and outcome entry.
Result<RecoveryResult> RecoverSimpleLog(const StableLog& log, VolatileHeap& heap);

// Chapter 4: walks only the backward chain of outcome entries, dereferencing
// <uid, log address> pairs just when a version must actually be copied. The
// walk is a pointer chase — each outcome entry holds the `prev` pointer to
// the next (§4.3) — so it runs on the calling thread, one entry at a time,
// through the log's block cache.
Result<RecoveryResult> RecoverHybridLog(const StableLog& log, VolatileHeap& heap);

// ---- Sharded recovery (N hybrid logs per guardian) ----

struct ShardedRecoveryOptions {
  // Concurrent shard workers. 0 recovers the shards one after another on the
  // calling thread; W >= 1 runs min(W, shards) worker threads. Both schedules
  // produce bit-identical results (the shard equivalence test pins this).
  std::size_t workers = 0;
};

struct ShardedRecoveryResult {
  // The merged tables: OT is the disjoint union over shards (the shard map
  // routes each uid to exactly one shard), the PT is merged decided-wins, the
  // CT is the union (outcome records live only on an action's home shard).
  // `merged.last_outcome` is shard 0's chain head.
  RecoveryResult merged;
  // Each shard's chain head, for re-priming the writer's per-shard chains.
  std::vector<LogAddress> shard_last_outcomes;
};

// Recovers a guardian whose stable state is partitioned across `shards` logs
// (see src/stable/shard_map.h for the routing). Runs in two phases:
//
//  Phase A (per shard, parallelizable): walk the shard's backward outcome
//  chain, retaining the decoded entries and collecting the shard's PT/CT
//  fragment. No heap access.
//
//  Merge: combine the PT fragments decided-wins. A prepare fragment on shard
//  s says only "aid prepared"; the commit/abort record lives on the action's
//  home shard, and the two-phase commit force protocol (LogWriter) guarantees
//  the decision record is durable only if every shard's prepare fragment is —
//  so a decided state always dominates, and two *conflicting* decisions are
//  corruption.
//
//  Phase B (per shard, parallelizable): apply the retained chain entries in
//  chain order against a context seeded with the merged PT, restoring this
//  shard's objects. Uids are disjoint across shards, so workers share the
//  heap behind a narrow allocation mutex and never touch the same object.
//
// followed by a single global finalize (uid-ref resolution, AS traversal, MT
// rebuild) over the merged tables.
Result<ShardedRecoveryResult> RecoverShardedHybridLog(std::span<StableLog* const> shards,
                                                      VolatileHeap& heap,
                                                      const ShardedRecoveryOptions& options = {});

}  // namespace argus

#endif  // SRC_RECOVERY_RECOVERY_ALGORITHMS_H_
