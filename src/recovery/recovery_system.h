// The recovery system facade (§2.3): the interface between the Argus system
// (the guardian runtime) and stable storage.
//
// One RecoverySystem instance serves one guardian incarnation. Its operations
// are exactly those of §2.3:
//   prepare(aid, MOS) · commit(aid) · abort(aid) · committing(aid, gids) ·
//   done(aid) · recovery() · housekeeping()
// plus write_entry(aid, MOS), the early-prepare operation of §4.4. The
// coordinator's committing and done records are staged, not forced: the
// guardian forces its commit point itself and never forces done.
//
// Accounting: the instance counts into the metrics registry under its
// guardian's id. Each shard's log, read cache, flush coordinator and repair
// service count under obs::Scope{guardian, shard}; the residency manager, the
// online checkpointer and Recover()'s recovery.in_doubt_actions under
// obs::Scope{guardian}.
//
// Ownership across crashes: the StableLog(s) and the shard map survive; the
// heap and the RecoverySystem are volatile. A restart takes the surviving
// state (TakeSurvivingState() from the dead incarnation), builds a fresh
// heap, constructs a new RecoverySystem around both, and calls Recover().
//
// Shards: a hybrid guardian's stable state is partitioned across
// config.log_shards logs by a ShardRouter; the classic one-log guardian is the
// one-shard case of the same code. Each shard gets its own FlushCoordinator
// force queue when group commit is configured, and Recover() recovers the
// shards with one worker each (RecoverHybridLog). With more than one shard the
// routing is durable state (a shard map, src/stable/shard_map.h) recovered
// before any log is read; one shard needs no map, since every uid and action
// routes to shard 0. Housekeeping / checkpointing is not yet supported with
// more than one shard (it returns InvalidArgument) — the swap barrier would
// need to quiesce every shard epoch at once.

#ifndef SRC_RECOVERY_RECOVERY_SYSTEM_H_
#define SRC_RECOVERY_RECOVERY_SYSTEM_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/obs/metrics.h"
#include "src/recovery/housekeeping.h"
#include "src/recovery/log_writer.h"
#include "src/recovery/recovery_algorithms.h"
#include "src/residency/residency_manager.h"
#include "src/stable/replicated_store.h"
#include "src/stable/shard_map.h"

namespace argus {

struct RecoverySystemConfig {
  LogMode mode = LogMode::kHybrid;
  // Creates the stable medium for a fresh log (initial creation and each
  // housekeeping swap): once per shard, plus once for the shard map's own
  // medium when there is more than one shard.
  std::function<std::unique_ptr<StableMedium>()> medium_factory;
  // When set, a FlushCoordinator coalesces concurrent force requests into
  // shared physical flushes (group commit). Without it every Prepare/Commit/
  // Abort forces the log directly, as before. Each shard gets its own
  // coordinator — N independent force queues.
  std::optional<FlushCoordinatorConfig> group_commit;

  // ---- Sharding (more than one shard requires the hybrid log) ----
  // Number of log shards. 1 is the classic single-log guardian.
  std::uint32_t log_shards = 1;
  // Salt for the shard map's routing hash (fresh guardians only; restarts
  // recover the salt from the durable map).
  std::uint64_t shard_salt = 0;

  // ---- Replicated stable storage ----
  // When set, every log whose medium is a ReplicatedStableMedium gets a
  // ReplicaRepairService (background thread) scrubbing decayed/diverged
  // replica pages concurrently with commits. Services are per-incarnation:
  // started by the constructors, stopped before the logs are surrendered
  // (TakeLog/TakeSurvivingState, checkpoint swap, destruction).
  std::optional<ReplicaRepairConfig> repair;

  // ---- Beyond-RAM residency ----
  // mem_budget_bytes == 0 keeps the classic all-resident heap; > 0 builds a
  // ResidencyManager over the shard logs (see src/residency). The manager is
  // per-incarnation like the writer; callers drive eviction passes through a
  // ResidencyService or directly via residency()->RunEvictionPass().
  ResidencyConfig residency;
};

// What recovery() returns to the Argus system (§2.3 item 6): enough to resume
// participants (PT) and coordinators (CT), plus the object table.
struct RecoveryInfo {
  ObjectTable ot;
  ParticipantTable pt;
  CoordinatorTable ct;
  std::uint64_t entries_examined = 0;
  std::uint64_t data_entries_read = 0;
  // Participant entries recovered in the prepared-but-undecided state: the
  // actions whose outcome this guardian must learn from its coordinator
  // (query / presumed abort) after rejoining the world.
  std::size_t in_doubt_actions = 0;
};

class RecoverySystem {
 public:
  // The stable state that survives a crash: the log shards plus, with more
  // than one shard, the shard map store. For a one-log guardian `shard_map`
  // is null and `logs` has one element.
  struct SurvivingState {
    std::vector<std::unique_ptr<StableLog>> logs;
    std::unique_ptr<ShardMapStore> shard_map;
  };

  // Fresh guardian: creates empty log(s), and the shard map when there is more
  // than one shard. `guardian` labels what this instance counts.
  RecoverySystem(RecoverySystemConfig config, VolatileHeap* heap, GuardianId guardian = {});

  // Restart after a crash: adopts the surviving log of a one-log guardian.
  // Call Recover() next. An adopted log keeps the scope it was built with.
  RecoverySystem(RecoverySystemConfig config, VolatileHeap* heap,
                 std::unique_ptr<StableLog> log, GuardianId guardian = {});

  // Restart after a crash, any shard count: adopts the surviving state.
  RecoverySystem(RecoverySystemConfig config, VolatileHeap* heap, SurvivingState surviving,
                 GuardianId guardian = {});

  RecoverySystem(const RecoverySystem&) = delete;
  RecoverySystem& operator=(const RecoverySystem&) = delete;

  // ---- The §2.3 operations ----

  Status Prepare(ActionId aid, const ModifiedObjectsSet& mos) {
    return writer_->Prepare(aid, mos);
  }
  Result<ModifiedObjectsSet> WriteEntry(ActionId aid, const ModifiedObjectsSet& mos) {
    return writer_->WriteEntry(aid, mos);
  }
  Status Commit(ActionId aid) { return writer_->Commit(aid); }
  Status Abort(ActionId aid) { return writer_->Abort(aid); }
  // Staged only; see LogWriter::StageCommitting.
  StagedOutcome StageCommitting(ActionId aid, std::vector<GuardianId> participants) {
    return writer_->StageCommitting(aid, std::move(participants));
  }
  StagedOutcome StageDone(ActionId aid) { return writer_->StageDone(aid); }

  // ---- Stage/force split (group commit, see LogWriter) ----
  //
  // A prepare stages marks on every touched shard; the caller must
  // WaitDurable the marks off the action's home shard BEFORE
  // StageCommitSharded (the cross-shard commit atomicity protocol — see
  // LogWriter). Guardian::CommitLocal is the caller that does.
  Result<StagedOutcome> StagePrepareSharded(ActionId aid, const ModifiedObjectsSet& mos) {
    return writer_->StagePrepareSharded(aid, mos);
  }
  StagedOutcome StageCommitSharded(ActionId aid) { return writer_->StageCommitSharded(aid); }
  Status WaitDurable(const StagedOutcome& staged) { return writer_->WaitDurable(staged); }

  // One-log forms of the calls above: the address names a frame of the one
  // log. Read durability_epoch() in the same critical section as the Stage*
  // call and pass it to WaitDurable, which runs outside it: a log swap that
  // lands in between is then detected (see LogWriter::WaitDurable).
  Result<LogAddress> StagePrepare(ActionId aid, const ModifiedObjectsSet& mos);
  Result<LogAddress> StageCommit(ActionId aid);
  // nullopt when nothing was staged (the action never prepared, §2.2.3).
  Result<std::optional<LogAddress>> StageAbort(ActionId aid);
  Status WaitDurable(LogAddress address, std::uint64_t epoch);
  // Shard 0's coordinator log generation (0 without group commit).
  std::uint64_t durability_epoch() const {
    return coordinators_.empty() ? 0 : coordinators_[0]->log_epoch();
  }

  // Restores the guardian's stable state from the log(s) into the heap and
  // primes the writer (AS, PAT, MT, chain heads) to continue.
  Result<RecoveryInfo> Recover();

  // Reorganizes the log (§5), stop-the-world: all three checkpoint phases
  // run back to back. `between_stages` models guardian activity concurrent
  // with the checkpoint; it runs against the old log and is carried over by
  // stage 2. InvalidArgument with shards.
  Status Housekeep(HousekeepingMethod method,
                   const std::function<void()>& between_stages = {});

  // ---- Online housekeeping (three phases; see housekeeping.h) ----
  //
  // Phase 1 and phase 3 must run under an exclusion that blocks both heap
  // mutation and log staging (the same per-guardian lock the application's
  // action path takes); phase 2 runs concurrently with live traffic. Threads
  // that stage under that exclusion but wait for durability outside it must
  // use the epoch-checked WaitDurable so a swap between their stage and wait
  // resolves cleanly — which requires group commit to be configured.

  // Phase 1: records the marker and copies writer tables (+ a flattened heap
  // snapshot for the snapshot method). Brief — no log writes, no forces.
  Result<CheckpointCapture> CaptureCheckpoint(HousekeepingMethod method);

  // Phase 2: builds the new log's stage-1 prefix from the capture. The
  // commit path keeps staging and forcing on the old log meanwhile.
  Result<std::unique_ptr<CheckpointBuilder>> BuildCheckpoint(CheckpointCapture capture);

  // Phase 3, the swap barrier: drains the coordinator, carries over the
  // post-marker suffix (stage 2), forces the new log, swaps it in, and
  // rewrites pending early-prepared data entries. Bounded by activity since
  // the capture, not by the live set.
  Status CompleteCheckpointSwap(std::unique_ptr<CheckpointBuilder> builder);

  // Crash-injection hook for the checkpoint path. Called at named boundary
  // steps — "capture" (before CaptureCheckpoint does any work), "build"
  // (before stage 1 runs), then inside CompleteCheckpointSwap: "quiesced",
  // "stage2" (with the entry index), "forced", "swapped", "rewritten".
  // Returning false abandons the checkpoint at that point with an IoError,
  // leaving the pre-swap log installed for steps before "swapped" and the
  // post-swap log after. Used by the crash-matrix tests and by the concurrent
  // driver's CrashController, whose coherent world-crash needs a mid-flight
  // checkpoint to abandon itself at the next boundary instead of racing the
  // teardown.
  using SwapCrashHook = std::function<bool(const char* step, std::uint64_t index)>;
  void SetSwapCrashHook(SwapCrashHook hook) { swap_crash_hook_ = std::move(hook); }

  // ---- Plumbing ----

  StableLog& log() { return *logs_[0]; }
  const StableLog& log() const { return *logs_[0]; }
  std::uint32_t shard_count() const { return static_cast<std::uint32_t>(logs_.size()); }
  StableLog& shard_log(std::uint32_t shard) { return *logs_[shard]; }
  LogWriter& writer() { return *writer_; }
  GuardianId guardian() const { return guardian_; }
  // Shard 0's coordinator; null when group commit is not configured.
  FlushCoordinator* coordinator() { return coordinators_.empty() ? nullptr : coordinators_[0].get(); }
  // Coherent crash: fail every shard's force queue at once.
  void CrashCoordinators();
  // The background repair service scrubbing shard `shard`'s medium; null when
  // config.repair is unset or that shard's medium is not replicated.
  ReplicaRepairService* repair_service(std::uint32_t shard = 0) {
    return shard < repair_services_.size() ? repair_services_[shard].get() : nullptr;
  }
  // Null unless config.residency.mem_budget_bytes > 0.
  ResidencyManager* residency() { return residency_.get(); }

  // Crash support: extracts the (stable) log of a one-log guardian from this
  // incarnation; TakeSurvivingState() serves every shard count.
  std::unique_ptr<StableLog> TakeLog();
  SurvivingState TakeSurvivingState();

 private:
  void InitWriterAndCoordinators();
  // Builds the ResidencyManager over the current logs (no-op when the budget
  // is zero).
  void InitResidency();
  // Spawns one ReplicaRepairService per replicated log medium (no-op unless
  // config_.repair is set) / stops and discards them. Every path that
  // detaches a log from this incarnation must stop first.
  void StartRepairServices();
  void StopRepairServices();

  RecoverySystemConfig config_;
  GuardianId guardian_;
  obs::Counter* in_doubt_actions_;  // prepared, undecided actions Recover() found
  VolatileHeap* heap_;
  std::vector<std::unique_ptr<StableLog>> logs_;
  // The previous log, kept alive for one checkpoint generation: epoch-checked
  // waiters that lose the race with a swap never dereference it, but holding
  // it makes a latent stale access a visible bug instead of a use-after-free.
  std::unique_ptr<StableLog> retired_log_;
  // Null for a one-log guardian, whose router is the default routing.
  std::unique_ptr<ShardMapStore> shard_map_;
  ShardRouter router_;
  std::vector<std::unique_ptr<FlushCoordinator>> coordinators_;
  std::unique_ptr<LogWriter> writer_;
  // Holds raw pointers into logs_; reset before the logs are surrendered.
  std::unique_ptr<ResidencyManager> residency_;
  SwapCrashHook swap_crash_hook_;
  // Set when a restart failed to recover the shard map: the writer is
  // left unconstructed and Recover() reports this instead. The surviving
  // state can still be reclaimed with TakeSurvivingState() for a retry.
  Status deferred_error_ = Status::Ok();
  // Declared last: destroyed (and therefore stopped) before the logs whose
  // media the repair threads touch.
  std::vector<std::unique_ptr<ReplicaRepairService>> repair_services_;
};

}  // namespace argus

#endif  // SRC_RECOVERY_RECOVERY_SYSTEM_H_
