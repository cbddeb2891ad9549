// A guardian: the logical node of the Argus model (§2.1).
//
// Owns a volatile heap, per-action contexts, and a recovery system over a
// surviving stable log. Plays both two-phase-commit roles (§2.2): coordinator
// for the top-level actions it starts, participant for actions that did work
// here. Crash() destroys all volatile state (heap, contexts, coordinator
// jobs) but keeps the stable log; Restart() rebuilds the guardian from the
// log via the recovery system and resumes in-flight protocol work
// (re-sending commits for `committing` coordinator entries, querying
// coordinators for `prepared` participant entries).

#ifndef SRC_TPC_GUARDIAN_H_
#define SRC_TPC_GUARDIAN_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "src/object/action_context.h"
#include "src/recovery/checkpoint_policy.h"
#include "src/recovery/recovery_system.h"
#include "src/tpc/network.h"

namespace argus {

// Tick-based protocol timeouts, driven by the harness clock (SimWorld ticks
// once per OnTick round; see SimWorld::PumpWithTime). 0 disables a timeout.
struct GuardianTimeoutConfig {
  // A coordinator job still in the prepare phase after this many ticks gives
  // up and aborts unilaterally (§2.2.1: a participant is unreachable). The
  // absence of a committing record then IS the abort — the presumed-abort
  // verdict every late query will receive.
  std::uint64_t prepare_timeout = 0;
  // A prepared participant re-queries its coordinator every this many ticks
  // (the periodic retry of §2.2.2) until the outcome arrives.
  std::uint64_t query_retry_interval = 0;
};

class Guardian {
 public:
  Guardian(GuardianId gid, RecoverySystemConfig config, SimNetwork* network);

  Guardian(const Guardian&) = delete;
  Guardian& operator=(const Guardian&) = delete;

  GuardianId gid() const { return gid_; }
  bool crashed() const { return crashed_; }
  VolatileHeap& heap() { return *heap_; }
  RecoverySystem& recovery() { return *recovery_; }

  // ---- Action API (handler-side) ----

  // Starts a top-level action coordinated by this guardian.
  ActionId BeginTopAction();

  // The per-guardian context of an action (created on first use — "the
  // action ran here", making this guardian a participant).
  ActionContext& ContextFor(ActionId aid);
  bool HasContext(ActionId aid) const { return contexts_.find(aid) != contexts_.end(); }

  // Stable variables: named bindings in the root object (§3.3.3.2).
  Status SetStableVariable(ActionId aid, const std::string& name, RecoverableObject* obj);
  // Looks a stable variable up through the acting action's view.
  Result<RecoverableObject*> GetStableVariable(ActionId aid, const std::string& name);
  // The committed binding (no locks; for post-recovery inspection).
  RecoverableObject* CommittedStableVariable(const std::string& name) const;

  // Early prepare (§4.4): pushes the action's current MOS to the log ahead of
  // the prepare message; the inaccessible remainder returns to the MOS.
  Status EarlyPrepare(ActionId aid) { return EarlyPrepare(ContextFor(aid)); }
  Status EarlyPrepare(ActionContext& ctx);

  // The one exclusion over volatile state and log staging, taken by local
  // actions, the checkpoint and residency services and the crash executor.
  std::mutex& mutex() { return mu_; }

  // Commits a one-guardian action; `lock` holds mutex(). Stages the prepare
  // and, with `lock` released, waits for the marks off the action's home
  // shard that its commit depends on: its own prepare fragments (see
  // LogWriter) and the not yet durable commit marks that earlier local
  // commits left on the objects it touched (DESIGN.md D10). Then stages the
  // commit record, stamps the objects it wrote with that mark, commits
  // volatile and returns the mark, which the caller awaits outside the lock.
  // On error the action is at most prepared, which a restart presumes aborted.
  Result<StagedOutcome> CommitLocal(ActionContext& ctx, std::unique_lock<std::mutex>& lock);

  // ---- Two-phase commit ----

  // Registers `participant` as having done work for `aid` (a handler call
  // spread the action there). The coordinator includes itself automatically
  // when it has local work.
  void EnlistParticipant(ActionId aid, GuardianId participant);

  // Coordinator: start two-phase commit for `aid`. Drive with SimWorld pumps.
  // The coordinator prepares its own share in place, waiting only for the
  // marks off the action's home shard. When it is the only participant the
  // action commits here through CommitLocal, with one force and no message
  // (one-phase commit); otherwise its own committed record rides the force of
  // its commit point. Calling it again while preparing re-sends the prepare
  // to whoever has not answered.
  Status RequestCommit(ActionId aid);

  // Coordinator: unilateral abort (e.g. a participant is unreachable,
  // §2.2.1). A no-op once the committing record is written — past the commit
  // point the coordinator MUST commit (§2.2.3).
  void AbortTopAction(ActionId aid);

  // Re-sends outcome queries for every locally prepared, undecided action
  // (the periodic retry a participant performs while waiting for its
  // coordinator, §2.2.2).
  void RequeryOutstanding();

  // ---- Timeouts ----

  void ConfigureTimeouts(const GuardianTimeoutConfig& config) { timeouts_ = config; }

  // Advances this guardian's protocol clock to `now` and fires due timeouts:
  // stuck coordinator jobs abort (presumed abort for everyone who prepared),
  // prepared participants re-query. Driven by SimWorld::PumpWithTime.
  void OnTick(std::uint64_t now);

  // True while a configured timeout still has undecided work to watch — the
  // reason PumpWithTime keeps ticking an otherwise idle network.
  bool HasTimeoutWork() const;

  void HandleMessage(const Message& message);

  enum class ActionFate { kUnknown, kInProgress, kCommitted, kAborted };
  ActionFate FateOf(ActionId aid) const;
  // True once the coordinator has staged its done record (or committed in
  // one phase, which writes none).
  bool TwoPhaseDone(ActionId aid) const;

  // ---- Crash / restart ----

  void Crash();
  Result<RecoveryInfo> Restart();

  // Housekeeping passthrough.
  Status Housekeep(HousekeepingMethod method,
                   const std::function<void()>& between_stages = {}) {
    return recovery_->Housekeep(method, between_stages);
  }

  // Attaches an automatic checkpoint policy (§2.3 item 7: the Argus system
  // decides when "enough old information has accumulated"), armed against
  // the log as it stands. Restart re-arms it against the new incarnation.
  void ConfigureMaintenance(const CheckpointPolicyConfig& config);

  // Runs due maintenance; returns true if a checkpoint was taken. Call it
  // from the application's idle loop (the serial workload driver does so
  // after every action).
  Result<bool> MaintenanceTick();

  // The attached policy (nullptr without one), for a caller that runs the
  // checkpoints itself: the concurrent workload driver hands it to a
  // CheckpointService.
  CheckpointPolicy* maintenance() { return maintenance_ ? &*maintenance_ : nullptr; }

  // Messages dropped because this guardian was down.
  std::uint64_t messages_dropped_while_crashed() const { return dropped_while_crashed_; }

 private:
  struct CoordinatorJob {
    enum class Phase { kPreparing, kCommitting, kDone, kAborted };
    Phase phase = Phase::kPreparing;
    std::vector<GuardianId> participants;
    std::set<GuardianId> awaiting;
    std::uint64_t started_at = 0;  // clock tick of RequestCommit
  };

  void Send(GuardianId to, MessageType type, ActionId aid, bool positive = false);

  // CommitLocal's prepare and wait, also the coordinator's own share's.
  Status PrepareLocal(ActionContext& ctx, std::unique_lock<std::mutex>& lock);
  // The coordinator's own share, handled in place rather than by messages to
  // itself: it commits volatile and forgets its context once the share's
  // committed record is durable.
  void CommitOwnShare(ActionId aid);
  // A participant (or the coordinator's own share) voted no.
  void AbortOnNoVote(ActionId aid);

  // Participant-side handlers.
  void OnPrepare(const Message& m);
  void OnCommitDecision(ActionId aid, GuardianId coordinator);
  void OnAbortDecision(ActionId aid);

  // Coordinator-side handlers.
  void OnPrepareAck(const Message& m);
  void OnCommitAck(const Message& m);
  void OnQuery(const Message& m);

  GuardianId gid_;
  RecoverySystemConfig config_;
  SimNetwork* network_;
  bool crashed_ = false;
  std::mutex mu_;
  obs::Counter* dependency_waits_;  // tpc.local.dependency_waits{guardian}

  std::unique_ptr<VolatileHeap> heap_;
  std::unique_ptr<RecoverySystem> recovery_;
  RecoverySystem::SurvivingState surviving_;  // held only while crashed

  std::map<ActionId, ActionContext> contexts_;
  // Under mu_: the commit mark of the last local commit that wrote each object.
  std::map<Uid, StagedMark> commit_marks_;
  std::map<ActionId, CoordinatorJob> jobs_;
  std::map<ActionId, std::set<GuardianId>> enlisted_;
  std::map<ActionId, ParticipantState> local_outcomes_;
  // Tick of the last outcome query per locally prepared, undecided action;
  // entries appear at prepare (or recovery) and leave with the decision.
  std::map<ActionId, std::uint64_t> prepared_at_;
  GuardianTimeoutConfig timeouts_;
  std::uint64_t clock_ = 0;  // last tick observed; survives Crash()
  std::optional<CheckpointPolicy> maintenance_;
  std::uint64_t next_action_sequence_ = 1;
  std::uint64_t dropped_while_crashed_ = 0;
};

}  // namespace argus

#endif  // SRC_TPC_GUARDIAN_H_
