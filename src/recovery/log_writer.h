// The writing algorithms of §3.3 (simple log), §4.2 (hybrid log), and §4.4
// (early prepare).
//
// One LogWriter serves one guardian's N log shards (N = 1 for the classic
// one-log guardian, and always for the simple log). It owns the writer-side
// volatile state: the accessibility set (AS), the prepared actions table
// (PAT), the mutex table (MT, §5.2), the backward outcome chain head (one per
// shard), and — for actions between early prepare and prepare — the
// accumulated <uid, log address> pairs destined for the prepared entry.
//
// In simple mode, data entries carry uid/aid and outcome entries are not
// chained; in hybrid mode, data entries are anonymous, prepared entries carry
// the map fragment, and every outcome entry links to the previous one.
//
// A ShardRouter partitions uids across the shards. Every entry for an object
// — data, base_committed, prepared_data, and its pair inside a prepared entry
// — lands on that object's shard, so each shard's backward chain is
// self-contained for its uid subset. An action that touched k shards stages k
// prepared entries (one shard-local pair fragment each); its *decision*
// records (committed/aborted, and the coordinator's committing/done) go only
// to the action's home shard. Cross-shard commit atomicity is a protocol
// obligation on the caller: every prepare mark OFF the home shard must be
// durable BEFORE StageCommitSharded is called, so a durable commit record
// implies every shard's prepare fragment is durable too. Marks on the home
// shard need no wait: they precede the commit record in that log, so forcing
// the commit forces them (§3.1). With one shard every mark is on the home
// shard. The blocking Prepare/Commit pair satisfies the protocol by
// construction; Guardian::CommitLocal keeps it, and the same obligation
// between actions (DESIGN.md D10). A commit record lost in a crash aborts
// the action by presumed abort, exactly as with one log.
//
// Concurrency: multiple actions may run Prepare/Commit/Abort in parallel on
// one guardian. Every operation splits into a *stage* step — serialized under
// one internal mutex, which keeps the AS/PAT/MT tables and the backward
// outcome chain consistent with the log's staging order (the §5.2 mutex-table
// discipline) — and a *force* step that waits for durability outside the
// mutex, so concurrent actions coalesce their forces through the attached
// FlushCoordinators (one per shard). The PAT/MT are updated at stage time,
// not at force time: concurrent writers must observe an action as prepared
// the moment its prepared entry enters the staging order (a crash discards
// the staged entry and the table update together, so recovery semantics are
// unchanged). Accessors returning references to the tables assume a quiescent
// writer (recovery, housekeeping, and post-join test inspection).

#ifndef SRC_RECOVERY_LOG_WRITER_H_
#define SRC_RECOVERY_LOG_WRITER_H_

#include <map>
#include <mutex>
#include <vector>

#include "src/log/flush_coordinator.h"
#include "src/log/stable_log.h"
#include "src/object/heap.h"
#include "src/recovery/tables.h"
#include "src/stable/shard_map.h"

namespace argus {

enum class LogMode {
  kSimple,  // chapter 3
  kHybrid,  // chapter 4
};

// One staged-but-not-yet-durable outcome entry. `epoch` is the shard
// coordinator's log generation at stage time (see WaitDurable).
struct StagedMark {
  std::uint32_t shard = 0;
  LogAddress address = LogAddress::Null();
  std::uint64_t epoch = 0;
};

// Everything one Stage* call staged; durable once WaitDurable(staged) is Ok.
// A prepare that touched k shards carries k marks; commit/abort carry at most
// one (the home shard's).
struct StagedOutcome {
  std::vector<StagedMark> marks;

  bool empty() const { return marks.empty(); }
};

class LogWriter {
 public:
  // One log per shard, in `router` order. Requires hybrid mode for more than
  // one shard.
  LogWriter(LogMode mode, std::vector<StableLog*> logs, VolatileHeap* heap, ShardRouter router);
  // A one-log writer with the default routing.
  LogWriter(LogMode mode, StableLog* log, VolatileHeap* heap);

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  // Routes force waits through one coordinator per shard (group commit)
  // instead of forcing the logs directly. The coordinators must outlive this
  // writer.
  void AttachCoordinators(std::vector<FlushCoordinator*> coordinators);

  // Writes the initial base version of the stable-variables root object.
  // Called once when a guardian is first created (§3.3.3.2: the root "is
  // created with its uid when the guardian itself is first created") — it
  // guarantees recovery always finds a committed root version, even if the
  // first action to touch the root is still undecided at the crash. The root
  // always routes to shard 0.
  Status LogGuardianCreation();

  // prepare(aid, MOS): writes data entries for the accessible objects in the
  // MOS (discovering newly accessible objects along the way, §3.3.3.2),
  // then forces the prepared outcome entries on every touched shard. Objects
  // already early-prepared for `aid` must not be in `mos` again unless
  // re-modified.
  Status Prepare(ActionId aid, const ModifiedObjectsSet& mos);

  // write_entry(aid, MOS) — early prepare (§4.4). Writes data entries for the
  // accessible objects (unforced) and returns the set of objects that were
  // NOT written because they are inaccessible (the caller's new MOS).
  Result<ModifiedObjectsSet> WriteEntry(ActionId aid, const ModifiedObjectsSet& mos);

  // commit(aid)/abort(aid): force the participant outcome entry.
  Status Commit(ActionId aid);
  Status Abort(ActionId aid);

  // committing(aid, gids)/done(aid): stage the coordinator outcome entries on
  // the action's home shard, and force neither. The caller makes its commit
  // point durable with WaitDurable on the returned mark, or on a later mark
  // of the same shard, which covers it (§3.1). Done rides whatever force
  // comes next: a crash that loses it only makes the restarted coordinator
  // re-send its verdict, which participants re-ack idempotently.
  StagedOutcome StageCommitting(ActionId aid, std::vector<GuardianId> participants);
  StagedOutcome StageDone(ActionId aid);

  // ---- Stage/force split (group commit) ----
  //
  // The Stage* calls do everything except wait for durability: they write
  // the entries, update the PAT/MT, and return the staged outcome marks. The
  // action is durable only after WaitDurable(staged) returns Ok.
  // Prepare()/Commit()/Abort() above are Stage* + WaitDurable.
  //
  // Callers MUST wait for the prepare marks off the action's home shard
  // before calling StageCommitSharded (see the class comment).

  Result<StagedOutcome> StagePrepareSharded(ActionId aid, const ModifiedObjectsSet& mos);
  StagedOutcome StageCommitSharded(ActionId aid);
  // Empty marks when nothing was staged (the action never prepared, §2.2.3).
  Result<StagedOutcome> StageAbortSharded(ActionId aid);

  // Blocks until every mark is durable — via its shard coordinator's
  // coalesced flush when one is attached, else a direct log force. Each mark
  // carries its coordinator's log generation from stage time: if an online
  // checkpoint swapped the log in between, the entry was staged on the
  // retired log — the swap barrier forced that log before retiring it, so the
  // wait returns Ok immediately.
  Status WaitDurable(const StagedOutcome& staged);

  // The home shard of `aid`: where its decision records go.
  std::uint32_t HomeShardOf(ActionId aid) const { return router_.HomeShardOf(aid); }

  // §3.3.3.2: trims the AS back to the objects genuinely reachable from the
  // stable variables (intersection semantics).
  void TrimAccessibilitySet();
  // AS := AS ∩ reachable (plus the root), under the writer mutex, so stagers
  // may keep running: the incremental trimmer's finishing step.
  void IntersectAccessibilitySet(const AccessibilitySet& reachable);

  const AccessibilitySet& accessibility_set() const { return as_; }
  const PreparedActionsTable& prepared_actions() const { return pat_; }
  const MutexTable& mutex_table() const { return mt_; }

  // Coordinators between their committing and done records. The snapshot
  // housekeeper re-emits these (the compactor finds them on the old chain).
  const std::map<ActionId, std::vector<GuardianId>>& open_coordinators() const {
    return open_coordinators_;
  }
  void RestoreOpenCoordinators(std::map<ActionId, std::vector<GuardianId>> open);

  // Re-binding after recovery or housekeeping: install externally
  // reconstructed state, with one chain head per shard.
  void RestoreState(AccessibilitySet as, PreparedActionsTable pat, MutexTable mt,
                    std::vector<LogAddress> chain_heads);
  void RebindLog(std::uint32_t shard, StableLog* log);

  // After a log swap, pending pairs point into the discarded old log.
  // Rewrites every pending action's data entries into the (new) bound log —
  // §5.1.1: "the recovery system ... restarts the writing of the data entries
  // for those actions to the new log when compaction is over."
  Status RewritePendingAfterLogSwap();

  // Shard 0's chain head.
  LogAddress last_outcome_address() const;

 private:
  struct ShardBinding {
    StableLog* log = nullptr;
    FlushCoordinator* coordinator = nullptr;
    LogAddress last_outcome = LogAddress::Null();
  };

  struct PendingAction {
    // uid → address of the latest data entry written for it (hybrid pairs).
    std::map<Uid, LogAddress> pairs;
    // uids of mutex objects among them (for the MT update at prepare).
    std::map<Uid, LogAddress> mutex_pairs;
    // shard → address of the latest chained entry (base_committed /
    // prepared_data) this action staged there. A shard that got only such
    // entries receives no prepared entry, but its staged tail must still be
    // forced before the action's decision record may become durable — a
    // committed action's newly accessible objects would otherwise be lost
    // with the crash-discarded tail. StagePrepareSharded turns each shard
    // not already covered by a prepared-entry mark into an extra force mark.
    std::map<std::uint32_t, LogAddress> chained_marks;
  };

  std::uint64_t EpochOf(std::uint32_t shard) const;

  // Writes data entries (and bc/pd entries for newly accessible objects) for
  // every accessible object in `mos`; returns the inaccessible remainder.
  // Caller holds mu_.
  Result<ModifiedObjectsSet> WriteObjectsForAction(ActionId aid, const ModifiedObjectsSet& mos);

  // Writes the data entry for one accessible object. Caller holds mu_.
  Status WriteAccessibleObject(ActionId aid, RecoverableObject* obj,
                               std::vector<RecoverableObject*>& naos);

  // Rematerializes an evicted object about to be flattened (a re-referenced
  // NAO, or a pending rewrite after a log swap, can reach the writer without
  // passing through a bound ActionContext). Caller holds mu_.
  Status EnsureResident(RecoverableObject* obj);

  // Processes one newly accessible object per §3.3.3.3 step 4. Caller holds mu_.
  Status WriteNewlyAccessibleObject(ActionId aid, RecoverableObject* obj,
                                    std::vector<RecoverableObject*>& naos);

  // Appends an outcome entry to `shard`, maintaining that shard's backward
  // chain in hybrid mode. Caller holds mu_.
  LogAddress WriteOutcome(LogEntry entry, std::uint32_t shard);

  // Caller holds mu_.
  LogAddress WriteDataEntryFor(ActionId aid, RecoverableObject* obj, std::vector<std::byte> flat);

  LogMode mode_;
  VolatileHeap* heap_;
  ShardRouter router_;
  // Guards every member below plus the staging order of log writes across
  // all shards.
  mutable std::mutex mu_;
  std::vector<ShardBinding> shards_;
  AccessibilitySet as_;
  PreparedActionsTable pat_;
  MutexTable mt_;
  std::map<ActionId, std::vector<GuardianId>> open_coordinators_;
  std::map<ActionId, PendingAction> pending_;
};

}  // namespace argus

#endif  // SRC_RECOVERY_LOG_WRITER_H_
