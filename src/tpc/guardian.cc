#include "src/tpc/guardian.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace argus {

namespace {

struct GuardianObs {
  obs::Counter* commit_points;  // committing records forced (the 2PC commit
                                // point; a one-phase commit writes none)
  obs::Counter* aborts;         // coordinator-side abort verdicts
  obs::Counter* crashes;
  obs::Counter* restarts;
  obs::Counter* timeouts;         // coordinator gave up preparing (tick timeout)
  obs::Counter* presumed_aborts;  // abort verdicts derived from a missing
                                  // committing record (§2.2.3), not an
                                  // explicit decision
  obs::Counter* query_retries;    // periodic participant re-queries (§2.2.2)

  static const GuardianObs& Get() {
    static const GuardianObs m{
        obs::GetCounter("tpc.commit_points"),
        obs::GetCounter("tpc.aborts"),
        obs::GetCounter("tpc.crashes"),
        obs::GetCounter("tpc.restarts"),
        obs::GetCounter("tpc.timeouts"),
        obs::GetCounter("tpc.presumed_aborts"),
        obs::GetCounter("tpc.query_retries"),
    };
    return m;
  }
};

}  // namespace

Guardian::Guardian(GuardianId gid, RecoverySystemConfig config, SimNetwork* network)
    : gid_(gid), config_(std::move(config)), network_(network) {
  ARGUS_CHECK(network_ != nullptr);
  dependency_waits_ = obs::Scope{.guardian = gid.value}.GetCounter("tpc.local.dependency_waits");
  heap_ = std::make_unique<VolatileHeap>();
  recovery_ = std::make_unique<RecoverySystem>(config_, heap_.get(), gid_);
}

ActionId Guardian::BeginTopAction() {
  ARGUS_CHECK(!crashed_);
  ActionId aid{gid_, next_action_sequence_++};
  enlisted_[aid];  // participants accumulate as the action spreads
  return aid;
}

ActionContext& Guardian::ContextFor(ActionId aid) {
  ARGUS_CHECK(!crashed_);
  auto it = contexts_.find(aid);
  if (it == contexts_.end()) {
    it = contexts_.emplace(aid, ActionContext(aid)).first;
    it->second.BindResidency(recovery_->residency());
  }
  return it->second;
}

Status Guardian::SetStableVariable(ActionId aid, const std::string& name,
                                   RecoverableObject* obj) {
  ActionContext& ctx = ContextFor(aid);
  return ctx.UpdateObject(heap_->root(), [&](Value& record) {
    record.as_record()[name] = Value::Ref(obj);
  });
}

Result<RecoverableObject*> Guardian::GetStableVariable(ActionId aid, const std::string& name) {
  ActionContext& ctx = ContextFor(aid);
  Result<const Value*> root = ctx.ReadObject(heap_->root());
  if (!root.ok()) {
    return root.status();
  }
  const Value::Record& record = root.value()->as_record();
  auto it = record.find(name);
  if (it == record.end() || !it->second.is_ref()) {
    return Status::NotFound("no stable variable " + name);
  }
  return it->second.as_ref();
}

RecoverableObject* Guardian::CommittedStableVariable(const std::string& name) const {
  if (crashed_) {
    return nullptr;
  }
  const Value& root = heap_->root()->base_version();
  if (!root.is_record()) {
    return nullptr;
  }
  auto it = root.as_record().find(name);
  if (it == root.as_record().end() || !it->second.is_ref()) {
    return nullptr;
  }
  return it->second.as_ref();
}

Status Guardian::EarlyPrepare(ActionContext& ctx) {
  Result<ModifiedObjectsSet> leftover = recovery_->WriteEntry(ctx.aid(), ctx.TakeMos());
  if (!leftover.ok()) {
    return leftover.status();
  }
  // Objects that were inaccessible stay in the MOS; they may become
  // accessible later or be (not) written at prepare time (§4.4).
  ctx.AddToMos(leftover.value());
  return Status::Ok();
}

void Guardian::EnlistParticipant(ActionId aid, GuardianId participant) {
  enlisted_[aid].insert(participant);
}

void Guardian::Send(GuardianId to, MessageType type, ActionId aid, bool positive) {
  network_->Send(Message{gid_, to, type, aid, positive});
}

Status Guardian::RequestCommit(ActionId aid) {
  ARGUS_CHECK(!crashed_);
  ARGUS_CHECK_MSG(aid.coordinator == gid_, "RequestCommit at a non-coordinator");
  if (auto it = jobs_.find(aid); it != jobs_.end()) {
    // A retry (a prepare or its ack may have been lost): ask again whoever has
    // not answered. A decided action keeps its verdict.
    if (it->second.phase == CoordinatorJob::Phase::kPreparing) {
      for (GuardianId p : it->second.awaiting) {
        Send(p, MessageType::kPrepare, aid);
      }
    }
    return Status::Ok();
  }
  std::set<GuardianId> participants = enlisted_[aid];
  if (HasContext(aid)) {
    participants.insert(gid_);  // the coordinator is also a participant
  }

  CoordinatorJob job;
  job.participants.assign(participants.begin(), participants.end());

  if (participants.empty()) {
    // Nothing was modified anywhere; the action commits vacuously with no
    // stable writes.
    job.phase = CoordinatorJob::Phase::kDone;
    local_outcomes_[aid] = ParticipantState::kCommitted;
    jobs_[aid] = std::move(job);
    return Status::Ok();
  }

  // The coordinator's own share is prepared here, not by a message to itself.
  const bool own_share = participants.erase(gid_) > 0;
  job.awaiting = participants;
  job.started_at = clock_;
  jobs_[aid] = std::move(job);
  obs::EmitBegin("tpc.2pc", aid.sequence, jobs_[aid].participants.size(), gid_.value);
  std::unique_lock<std::mutex> lock(mu_);
  if (own_share && participants.empty()) {
    // One-phase commit (R*): the coordinator is the only participant, so its
    // committed record is the decision. It follows the prepared entry in the
    // home log, and one force makes both durable (§3.1). No committing or
    // done record and no message: a crash before the force leaves at most a
    // prepared entry, which the restart presumes aborted (§2.2.3).
    Result<StagedOutcome> committed = CommitLocal(ContextFor(aid), lock);
    if (!committed.ok()) {
      AbortOnNoVote(aid);
      return Status::Ok();
    }
    lock.unlock();
    Status s = recovery_->WaitDurable(committed.value());
    ARGUS_CHECK_MSG(s.ok(), "commit log write failed");
    CommitOwnShare(aid);
    jobs_[aid].phase = CoordinatorJob::Phase::kDone;
    obs::EmitEnd("tpc.2pc", aid.sequence, 1, gid_.value);
    return Status::Ok();
  }
  if (own_share && !PrepareLocal(ContextFor(aid), lock).ok()) {
    AbortOnNoVote(aid);
    return Status::Ok();
  }
  for (GuardianId p : participants) {
    Send(p, MessageType::kPrepare, aid);
  }
  return Status::Ok();
}

Status Guardian::PrepareLocal(ActionContext& ctx, std::unique_lock<std::mutex>& lock) {
  Result<StagedOutcome> prepared = recovery_->StagePrepareSharded(ctx.aid(), ctx.TakeMos());
  if (!prepared.ok()) {
    return prepared.status();
  }
  const std::uint32_t home = recovery_->writer().HomeShardOf(ctx.aid());
  StagedOutcome off_home = std::move(prepared).value();
  std::erase_if(off_home.marks, [home](const StagedMark& m) { return m.shard == home; });
  const std::size_t own_marks = off_home.marks.size();
  for (Uid uid : ctx.touched()) {
    auto it = commit_marks_.find(uid);
    if (it != commit_marks_.end() && it->second.shard != home &&
        recovery_->shard_log(it->second.shard).durable_size() <= it->second.address.offset) {
      off_home.marks.push_back(it->second);
    }
  }
  if (off_home.empty()) {
    return Status::Ok();
  }
  if (off_home.marks.size() > own_marks) {
    dependency_waits_->Increment();
  }
  // Outside the exclusion, so concurrent actions coalesce their per-shard
  // forces. A kCrashed wake leaves the action prepared but undecided.
  lock.unlock();
  Status s = recovery_->WaitDurable(off_home);
  lock.lock();
  return s;
}

Result<StagedOutcome> Guardian::CommitLocal(ActionContext& ctx,
                                            std::unique_lock<std::mutex>& lock) {
  ARGUS_CHECK(!crashed_ && lock.mutex() == &mu_ && lock.owns_lock());
  Status prepared = PrepareLocal(ctx, lock);
  if (!prepared.ok()) {
    return prepared;
  }
  StagedOutcome committed = recovery_->StageCommitSharded(ctx.aid());
  // The locks go with the volatile commit, before the commit record is
  // durable: whoever next touches what the action wrote finds its mark.
  for (Uid uid : ctx.touched()) {
    RecoverableObject* obj = heap_->Get(uid);
    if (obj != nullptr && obj->HoldsWriteLock(ctx.aid())) {
      commit_marks_[uid] = committed.marks.front();
    }
  }
  ctx.CommitVolatile(*heap_);
  return committed;
}

void Guardian::CommitOwnShare(ActionId aid) {
  auto it = contexts_.find(aid);
  if (it != contexts_.end()) {
    it->second.CommitVolatile(*heap_);  // a no-op after CommitLocal
    contexts_.erase(it);
  }
  local_outcomes_[aid] = ParticipantState::kCommitted;
  prepared_at_.erase(aid);
}

void Guardian::AbortOnNoVote(ActionId aid) {
  GuardianObs::Get().aborts->Increment();
  obs::EmitEnd("tpc.2pc", aid.sequence, 0, gid_.value);
  AbortTopAction(aid);
}

void Guardian::AbortTopAction(ActionId aid) {
  ARGUS_CHECK(!crashed_);
  auto it = jobs_.find(aid);
  auto outcome = local_outcomes_.find(aid);
  if ((it != jobs_.end() && (it->second.phase == CoordinatorJob::Phase::kCommitting ||
                             it->second.phase == CoordinatorJob::Phase::kDone)) ||
      (outcome != local_outcomes_.end() && outcome->second == ParticipantState::kCommitted)) {
    return;  // past the commit point; the verdict is commit
  }
  // The coordinator writes nothing for an abort: after a crash the absence of
  // a committing record IS the abort (§2.2.3).
  jobs_[aid].phase = CoordinatorJob::Phase::kAborted;
  local_outcomes_[aid] = ParticipantState::kAborted;
  for (GuardianId p : enlisted_[aid]) {
    if (p != gid_) {
      Send(p, MessageType::kAbort, aid);
    }
  }
  // The coordinator's own share aborts in place: this logs an aborted record
  // only if it prepared, and releases its locks.
  OnAbortDecision(aid);
}

void Guardian::RequeryOutstanding() {
  ARGUS_CHECK(!crashed_);
  for (const auto& [aid, state] : local_outcomes_) {
    if (state == ParticipantState::kPrepared) {
      GuardianObs::Get().query_retries->Increment();
      Send(aid.coordinator, MessageType::kQuery, aid);
      prepared_at_[aid] = clock_;
    }
  }
}

void Guardian::OnTick(std::uint64_t now) {
  if (crashed_) {
    return;
  }
  clock_ = now;
  if (timeouts_.prepare_timeout > 0) {
    // Coordinator timeout: a job still gathering prepare-acks after the
    // deadline presumes a participant is unreachable and aborts. No abort
    // record is written — the missing committing record is the verdict, and
    // late queries resolve against it (§2.2.3).
    std::vector<ActionId> expired;
    for (const auto& [aid, job] : jobs_) {
      if (job.phase == CoordinatorJob::Phase::kPreparing &&
          now - job.started_at >= timeouts_.prepare_timeout) {
        expired.push_back(aid);
      }
    }
    for (ActionId aid : expired) {
      GuardianObs::Get().timeouts->Increment();
      obs::Emit("tpc.timeout", aid.sequence, now, gid_.value);
      AbortTopAction(aid);
    }
  }
  if (timeouts_.query_retry_interval > 0) {
    for (auto& [aid, last_query] : prepared_at_) {
      if (now - last_query >= timeouts_.query_retry_interval) {
        GuardianObs::Get().query_retries->Increment();
        Send(aid.coordinator, MessageType::kQuery, aid);
        last_query = now;
      }
    }
  }
}

bool Guardian::HasTimeoutWork() const {
  if (crashed_) {
    return false;
  }
  if (timeouts_.query_retry_interval > 0 && !prepared_at_.empty()) {
    return true;
  }
  if (timeouts_.prepare_timeout > 0) {
    for (const auto& [aid, job] : jobs_) {
      if (job.phase == CoordinatorJob::Phase::kPreparing) {
        return true;
      }
    }
  }
  return false;
}

void Guardian::HandleMessage(const Message& message) {
  if (crashed_) {
    ++dropped_while_crashed_;
    return;
  }
  switch (message.type) {
    case MessageType::kPrepare:
      OnPrepare(message);
      return;
    case MessageType::kPrepareAck:
      OnPrepareAck(message);
      return;
    case MessageType::kCommit:
      OnCommitDecision(message.aid, message.from);
      return;
    case MessageType::kCommitAck:
      OnCommitAck(message);
      return;
    case MessageType::kAbort:
      OnAbortDecision(message.aid);
      return;
    case MessageType::kQuery:
      OnQuery(message);
      return;
    case MessageType::kQueryReply:
      if (message.positive) {
        OnCommitDecision(message.aid, message.from);
      } else {
        OnAbortDecision(message.aid);
      }
      return;
  }
}

void Guardian::OnPrepare(const Message& m) {
  ActionId aid = m.aid;
  auto outcome = local_outcomes_.find(aid);
  if (outcome != local_outcomes_.end()) {
    // Already resolved here (e.g. duplicate prepare): answer from history.
    Send(m.from, MessageType::kPrepareAck, aid,
         outcome->second != ParticipantState::kAborted);
    return;
  }
  auto it = contexts_.find(aid);
  if (it == contexts_.end()) {
    // "If the action is unknown at the participant (because it never ran
    // there, was aborted locally, or was wiped out by a crash), then the
    // participant replies aborted" (§2.2.2).
    Send(m.from, MessageType::kPrepareAck, aid, false);
    return;
  }
  Status s = recovery_->Prepare(aid, it->second.TakeMos());
  if (!s.ok()) {
    Send(m.from, MessageType::kPrepareAck, aid, false);
    return;
  }
  local_outcomes_[aid] = ParticipantState::kPrepared;
  prepared_at_[aid] = clock_;
  Send(m.from, MessageType::kPrepareAck, aid, true);
}

void Guardian::OnCommitDecision(ActionId aid, GuardianId coordinator) {
  auto outcome = local_outcomes_.find(aid);
  if (outcome != local_outcomes_.end() && outcome->second == ParticipantState::kCommitted) {
    Send(coordinator, MessageType::kCommitAck, aid);  // idempotent re-ack
    return;
  }
  // A commit for a locally-aborted action means the two sides diverged —
  // that must never happen (the coordinator's verdict is terminal); refuse
  // to compound the damage by writing a contradictory record.
  ARGUS_CHECK_MSG(outcome == local_outcomes_.end() ||
                      outcome->second != ParticipantState::kAborted,
                  "commit received for an action this participant aborted");
  Status s = recovery_->Commit(aid);
  ARGUS_CHECK_MSG(s.ok(), "commit log write failed");
  CommitOwnShare(aid);
  Send(coordinator, MessageType::kCommitAck, aid);
}

void Guardian::OnAbortDecision(ActionId aid) {
  auto outcome = local_outcomes_.find(aid);
  // An abort for a committed action means the two sides diverged (the
  // coordinator's verdict is terminal) — never paper over it.
  ARGUS_CHECK_MSG(outcome == local_outcomes_.end() ||
                      outcome->second != ParticipantState::kCommitted,
                  "abort received for an action this participant committed");
  // Idempotent by construction: Abort only logs for still-prepared actions,
  // and the context cleanup runs whether or not the outcome was already
  // recorded (AbortTopAction records the outcome before it aborts the
  // coordinator's own share here — the locks must still be released).
  Status s = recovery_->Abort(aid);
  ARGUS_CHECK_MSG(s.ok(), "abort log write failed");
  auto it = contexts_.find(aid);
  if (it != contexts_.end()) {
    it->second.AbortVolatile(*heap_);
    contexts_.erase(it);
  }
  local_outcomes_[aid] = ParticipantState::kAborted;
  prepared_at_.erase(aid);
}

void Guardian::OnPrepareAck(const Message& m) {
  auto it = jobs_.find(m.aid);
  if (it == jobs_.end()) {
    // Coordinator forgot the action (crash before committing): the default
    // outcome is abort; queries will tell the participant so.
    return;
  }
  CoordinatorJob& job = it->second;
  if (job.phase != CoordinatorJob::Phase::kPreparing) {
    return;
  }
  if (!m.positive) {
    AbortOnNoVote(m.aid);
    return;
  }
  job.awaiting.erase(m.from);
  if (!job.awaiting.empty()) {
    return;
  }
  // Everyone prepared: the commit point. When the coordinator did work too,
  // its own committed record is staged after the committing record on the
  // same home shard, and one force covers both, so a durable committed record
  // always has its committing record before it (§3.1). A force torn between
  // the two leaves committing without committed: the restart re-sends commit
  // and its own in-doubt query resolves the share.
  StagedOutcome decision = recovery_->StageCommitting(m.aid, job.participants);
  std::vector<GuardianId> remote;
  for (GuardianId p : job.participants) {
    if (p != gid_) {
      remote.push_back(p);
    }
  }
  const bool own_share = remote.size() < job.participants.size();
  if (own_share) {
    decision = recovery_->StageCommitSharded(m.aid);
  }
  Status s = recovery_->WaitDurable(decision);
  ARGUS_CHECK_MSG(s.ok(), "committing log write failed");
  GuardianObs::Get().commit_points->Increment();
  obs::Emit("tpc.commit_point", m.aid.sequence, job.participants.size(), gid_.value);
  if (own_share) {
    CommitOwnShare(m.aid);
  }
  job.phase = CoordinatorJob::Phase::kCommitting;
  job.awaiting.insert(remote.begin(), remote.end());
  for (GuardianId p : remote) {
    Send(p, MessageType::kCommit, m.aid);
  }
}

void Guardian::OnCommitAck(const Message& m) {
  auto it = jobs_.find(m.aid);
  if (it == jobs_.end()) {
    return;
  }
  CoordinatorJob& job = it->second;
  if (job.phase != CoordinatorJob::Phase::kCommitting) {
    return;
  }
  job.awaiting.erase(m.from);
  if (!job.awaiting.empty()) {
    return;
  }
  // Staged, not forced: a crash that loses it makes the restarted coordinator
  // re-send commit, and participants re-ack idempotently.
  recovery_->StageDone(m.aid);
  job.phase = CoordinatorJob::Phase::kDone;
  obs::EmitEnd("tpc.2pc", m.aid.sequence, 1, gid_.value);
}

void Guardian::OnQuery(const Message& m) {
  auto it = jobs_.find(m.aid);
  if (it != jobs_.end() && it->second.phase == CoordinatorJob::Phase::kPreparing) {
    // The outcome is UNDECIDED: stay silent. Replying abort here would race
    // the decision — a participant whose prepared-ack is still in flight
    // could be told to abort moments before the coordinator commits. The
    // participant re-queries later (§2.2.2: it "can query the coordinator").
    return;
  }
  bool committed = it != jobs_.end() && (it->second.phase == CoordinatorJob::Phase::kCommitting ||
                                         it->second.phase == CoordinatorJob::Phase::kDone);
  if (it == jobs_.end()) {
    // No job at all: the coordinator crashed before the committing record
    // (or never heard of the action). The absence IS the abort — this reply
    // is the presumed-abort verdict of §2.2.3, not a recorded decision.
    GuardianObs::Get().presumed_aborts->Increment();
    obs::Emit("tpc.presumed_abort", m.aid.sequence, m.from.value, gid_.value);
  }
  Send(m.from, MessageType::kQueryReply, m.aid, committed);
  if (committed && it->second.phase == CoordinatorJob::Phase::kCommitting) {
    // The reply doubles as the commit decision; expect an ack.
    it->second.awaiting.insert(m.from);
  }
}

Guardian::ActionFate Guardian::FateOf(ActionId aid) const {
  auto outcome = local_outcomes_.find(aid);
  if (outcome != local_outcomes_.end()) {
    switch (outcome->second) {
      case ParticipantState::kCommitted:
        return ActionFate::kCommitted;
      case ParticipantState::kAborted:
        return ActionFate::kAborted;
      case ParticipantState::kPrepared:
        return ActionFate::kInProgress;
    }
  }
  auto it = jobs_.find(aid);
  if (it != jobs_.end()) {
    switch (it->second.phase) {
      case CoordinatorJob::Phase::kDone:
      case CoordinatorJob::Phase::kCommitting:
        return ActionFate::kCommitted;
      case CoordinatorJob::Phase::kAborted:
        return ActionFate::kAborted;
      case CoordinatorJob::Phase::kPreparing:
        return ActionFate::kInProgress;
    }
  }
  if (contexts_.find(aid) != contexts_.end()) {
    return ActionFate::kInProgress;
  }
  return ActionFate::kUnknown;
}

bool Guardian::TwoPhaseDone(ActionId aid) const {
  auto it = jobs_.find(aid);
  return it != jobs_.end() && it->second.phase == CoordinatorJob::Phase::kDone;
}

void Guardian::ConfigureMaintenance(const CheckpointPolicyConfig& config) {
  maintenance_.emplace(config);
  if (!crashed_) {
    maintenance_->Rearm(*recovery_);
  }
}

Result<bool> Guardian::MaintenanceTick() {
  if (crashed_ || !maintenance_.has_value()) {
    return false;
  }
  return maintenance_->MaybeHousekeep(*recovery_);
}

void Guardian::Crash() {
  ARGUS_CHECK(!crashed_);
  GuardianObs::Get().crashes->Increment();
  obs::Emit("tpc.crash", gid_.value);
  recovery_->CrashCoordinators();
  surviving_ = recovery_->TakeSurvivingState();
  recovery_.reset();
  heap_.reset();
  contexts_.clear();
  commit_marks_.clear();
  jobs_.clear();
  enlisted_.clear();
  local_outcomes_.clear();
  prepared_at_.clear();
  crashed_ = true;
}

Result<RecoveryInfo> Guardian::Restart() {
  ARGUS_CHECK(crashed_);
  GuardianObs::Get().restarts->Increment();
  obs::TraceSpan span("tpc.restart", gid_.value);
  heap_ = std::make_unique<VolatileHeap>();
  recovery_ =
      std::make_unique<RecoverySystem>(config_, heap_.get(), std::move(surviving_), gid_);
  Result<RecoveryInfo> info = recovery_->Recover();
  if (!info.ok()) {
    // A failed recovery (e.g. a still-faulted disk) must not strand the
    // stable state inside the dead incarnation: reclaim it so a later
    // Restart() — after the fault heals — gets another try.
    surviving_ = recovery_->TakeSurvivingState();
    recovery_.reset();
    heap_.reset();
    return info;
  }
  crashed_ = false;
  // The forensic marker of a rejoin: how many in-doubt participants this
  // incarnation woke up with (they query below, then retry on ticks).
  obs::Emit("tpc.rejoin", gid_.value, info.value().in_doubt_actions);
  if (maintenance_.has_value()) {
    maintenance_->Rearm(*recovery_);  // log counters restarted with the incarnation
  }

  // Resume participants: prepared actions get a context holding their
  // write-locked objects and ask their coordinator for the verdict.
  for (const auto& [aid, state] : info.value().pt) {
    local_outcomes_[aid] = state;
    if (state != ParticipantState::kPrepared) {
      continue;
    }
    ActionContext& ctx = ContextFor(aid);
    for (const auto& [uid, entry] : info.value().ot) {
      if (entry.object->is_atomic() && entry.object->write_locker() == aid) {
        ctx.AdoptTouched(uid);
      }
    }
    Send(aid.coordinator, MessageType::kQuery, aid);
    // The rejoin query may be cut down by a partition or land on a still-dead
    // coordinator; the stamp arms the periodic re-query until the verdict.
    prepared_at_[aid] = clock_;
  }

  // Resume coordinators: a committing action re-sends its verdict; a done
  // action is finished.
  for (const auto& [aid, entry] : info.value().ct) {
    CoordinatorJob job;
    job.participants = entry.participants;
    if (entry.phase == CoordinatorPhase::kDone) {
      job.phase = CoordinatorJob::Phase::kDone;
      local_outcomes_[aid] = ParticipantState::kCommitted;
    } else {
      job.phase = CoordinatorJob::Phase::kCommitting;
      job.awaiting.insert(entry.participants.begin(), entry.participants.end());
      for (GuardianId p : entry.participants) {
        Send(p, MessageType::kCommit, aid);
      }
    }
    jobs_[aid] = std::move(job);
  }
  return info;
}

}  // namespace argus
