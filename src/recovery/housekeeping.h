// Housekeeping (chapter 5): checkpointing a guardian's stable state into a
// fresh, smaller log so recovery needs to look at a bounded amount of log.
//
// Both methods run in two stages around a housekeeping marker (§5.1.1):
//
//  Stage 1 builds the checkpoint from everything before the marker:
//   - compaction (§5.1): replays the OLD LOG backward exactly like recovery,
//     writing surviving versions to the new log;
//   - snapshot (§5.2): traverses the VOLATILE stable state from the stable
//     variables, writing data entries for each reachable object (mutex
//     versions are taken from the old log via the MT, because the volatile
//     mutex value may be newer than the last *prepared* version that recovery
//     is required to restore).
//  The checkpointed committed state is linked together by a committed_ss
//  entry (the CSSL). Prepared-but-undecided work survives as prepared /
//  prepared_data / committing entries chained AFTER the committed_ss entry,
//  so recovery sees tentative versions first and bases second, exactly as in
//  an ordinary log.
//
//  Stage 2 copies the outcome entries (and their data entries) written to the
//  old log after the marker. The caller may perform ordinary log activity
//  between the stages — that activity lands after the marker and is carried
//  over by stage 2.
//
// Data entries of actions that have not prepared by swap time are NOT copied;
// the recovery system rewrites them into the new log after the swap
// (LogWriter::RewritePendingAfterLogSwap).
//
// Online decomposition. The two-stage design is exposed as three phases so
// the expensive part can run off the commit path (§5.1.1 anticipates this:
// "the guardian may continue processing" between the stages):
//
//   1. CaptureCheckpoint       — under writer exclusion, brief: records the
//      marker and copies the writer tables; for the snapshot method it also
//      flattens the reachable stable state (a consistent copy of the heap).
//   2. CheckpointBuilder::BuildStageOne — concurrent with live staging and
//      forcing on the old log. Reads only the capture plus old-log entries at
//      addresses recorded before the marker (the log is append-only, so those
//      frames are immutable).
//   3. CheckpointBuilder::Finish — under writer exclusion again (the swap
//      barrier): copies post-marker activity and forces the new log. Its cost
//      is O(activity since capture), not O(live set) — that is the whole
//      point of the decomposition.
//
// RecoverySystem::Housekeep runs all three phases back to back (the
// stop-the-world form used by serial callers).

#ifndef SRC_RECOVERY_HOUSEKEEPING_H_
#define SRC_RECOVERY_HOUSEKEEPING_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/log/stable_log.h"
#include "src/object/heap.h"
#include "src/recovery/tables.h"

namespace argus {

enum class HousekeepingMethod {
  kCompaction,
  kSnapshot,
};

struct HousekeepingOutcome {
  // Counts under the old log's registry scope.
  std::unique_ptr<StableLog> new_log;
  MutexTable new_mt;
  LogAddress new_last_outcome = LogAddress::Null();
  // Snapshot only: the accessibility set discovered during traversal
  // (intersect with the writer's AS per §5.2). Compaction leaves the AS
  // untouched.
  std::optional<AccessibilitySet> new_as;
};

struct HousekeepingInputs {
  StableLog* old_log = nullptr;
  VolatileHeap* heap = nullptr;
  const PreparedActionsTable* pat = nullptr;
  const MutexTable* mt = nullptr;                   // old MT (snapshot)
  // Coordinators between committing and done (snapshot re-emits them).
  const std::map<ActionId, std::vector<GuardianId>>* open_coordinators = nullptr;
  LogAddress old_chain_head = LogAddress::Null();   // writer's last outcome
  std::function<std::unique_ptr<StableMedium>()> medium_factory;
};

// Phase-1 output: everything stage 1 needs, decoupled from the live heap and
// writer tables so they may keep changing while the checkpoint is built.
struct CheckpointCapture {
  HousekeepingMethod method = HousekeepingMethod::kSnapshot;
  std::uint64_t marker = 0;                         // old-log end offset
  LogAddress old_chain_head = LogAddress::Null();
  PreparedActionsTable pat;
  MutexTable mt;
  std::map<ActionId, std::vector<GuardianId>> open_coordinators;

  // Snapshot method only: a flattened copy of the reachable stable state.
  struct SnapshotObject {
    Uid uid;
    ObjectKind kind = ObjectKind::kAtomic;
    std::vector<std::byte> base;              // atomic: flattened base version
    std::optional<ActionId> prepared_locker;  // prepared, undecided writer
    std::vector<std::byte> prepared_current;  // its flattened tentative version
  };
  std::vector<SnapshotObject> objects;
  std::optional<AccessibilitySet> traversal_as;
};

// Phase 1. The caller must exclude heap mutation and log staging for the
// duration of the call (the capture pause). Cost: O(live set) copies for the
// snapshot method, O(tables) for compaction — no log writes, no forces.
CheckpointCapture CaptureCheckpoint(HousekeepingMethod method,
                                    const HousekeepingInputs& inputs);

namespace internal {
class Housekeeper;
}

// Phases 2 and 3 over a capture. Single-owner, single-thread use: one thread
// calls BuildStageOne then Finish; only the timing of other threads' log
// activity relative to those calls is concurrent.
class CheckpointBuilder {
 public:
  CheckpointBuilder(CheckpointCapture capture, const StableLog* old_log,
                    std::function<std::unique_ptr<StableMedium>()> medium_factory);
  ~CheckpointBuilder();

  CheckpointBuilder(const CheckpointBuilder&) = delete;
  CheckpointBuilder& operator=(const CheckpointBuilder&) = delete;

  // Phase 2 (stage 1 + the checkpoint tail). Safe to run while other threads
  // stage and force entries on the old log.
  Status BuildStageOne();

  // Optional phase 2.5: incremental stage-2 passes, also safe against live
  // old-log appends (staged entries are immutable; the read cursor locks
  // internally). Each pass copies and forces the suffix accumulated since the
  // previous one, so the barrier's final pass in Finish covers only the tail
  // staged since the last catch-up — this is what keeps the swap pause
  // proportional to recent activity rather than to build duration.
  Status CatchUp();

  // Phase 3 (stage 2 + force of the new log). The caller must exclude log
  // staging (the swap barrier) so the post-marker suffix is frozen.
  // `stage2_hook`, when set, is invoked before each stage-2 entry copy with
  // the running copy index; returning false abandons the checkpoint with an
  // error (crash-injection tests use this to stop mid-stage-2 — the old log
  // is untouched, so the "crash" lands in the pre-swap state).
  Result<HousekeepingOutcome> Finish(
      const std::function<bool(std::uint64_t)>& stage2_hook = {});

 private:
  std::unique_ptr<internal::Housekeeper> impl_;
};

}  // namespace argus

#endif  // SRC_RECOVERY_HOUSEKEEPING_H_
