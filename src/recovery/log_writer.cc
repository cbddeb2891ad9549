#include "src/recovery/log_writer.h"

#include <algorithm>

#include "src/object/flatten.h"
#include "src/obs/trace.h"
#include "src/residency/residency_manager.h"

namespace argus {
namespace {

// Sets the backward-chain pointer on an outcome entry.
void SetPrev(LogEntry& entry, LogAddress prev) {
  std::visit(
      [prev](auto& e) {
        using T = std::decay_t<decltype(e)>;
        if constexpr (!std::is_same_v<T, DataEntry>) {
          e.prev = prev;
        }
      },
      entry);
}

}  // namespace

LogWriter::LogWriter(LogMode mode, std::vector<StableLog*> logs, VolatileHeap* heap,
                     ShardRouter router)
    : mode_(mode), heap_(heap), router_(std::move(router)) {
  ARGUS_CHECK(heap != nullptr && router_.num_shards() == logs.size());
  ARGUS_CHECK_MSG(mode == LogMode::kHybrid || logs.size() == 1,
                  "sharded logs require the hybrid mode");
  shards_.reserve(logs.size());
  for (StableLog* log : logs) {
    ARGUS_CHECK(log != nullptr);
    shards_.push_back(ShardBinding{log, nullptr, LogAddress::Null()});
  }
  // The stable-variables root is accessible by definition.
  as_.insert(Uid::Root());
}

LogWriter::LogWriter(LogMode mode, StableLog* log, VolatileHeap* heap)
    : LogWriter(mode, std::vector<StableLog*>{log}, heap, ShardRouter(ShardMapRecord{})) {}

void LogWriter::AttachCoordinators(std::vector<FlushCoordinator*> coordinators) {
  ARGUS_CHECK(coordinators.size() == shards_.size());
  for (std::size_t i = 0; i < coordinators.size(); ++i) {
    shards_[i].coordinator = coordinators[i];
  }
}

std::uint64_t LogWriter::EpochOf(std::uint32_t shard) const {
  const ShardBinding& b = shards_[shard];
  return b.coordinator != nullptr ? b.coordinator->log_epoch() : 0;
}

LogAddress LogWriter::WriteOutcome(LogEntry entry, std::uint32_t shard) {
  ShardBinding& b = shards_[shard];
  if (mode_ == LogMode::kHybrid) {
    SetPrev(entry, b.last_outcome);
  }
  LogAddress addr = b.log->Write(entry);
  b.last_outcome = addr;
  return addr;
}

LogAddress LogWriter::WriteDataEntryFor(ActionId aid, RecoverableObject* obj,
                                        std::vector<std::byte> flat) {
  DataEntry entry;
  entry.kind = obj->kind();
  entry.value = std::move(flat);
  if (mode_ == LogMode::kSimple) {
    // Hybrid data entries are anonymous; the prepared entry names them.
    entry.uid = obj->uid();
    entry.aid = aid;
  }
  LogAddress addr = shards_[router_.ShardOf(obj->uid())].log->Write(LogEntry(std::move(entry)));
  PendingAction& pending = pending_[aid];
  pending.pairs[obj->uid()] = addr;
  if (obj->is_mutex()) {
    pending.mutex_pairs[obj->uid()] = addr;
    // The frame holds the live mutex value — the authoritative residency
    // address from the moment it is staged.
    obj->set_stable_address(addr);
  } else {
    // The frame holds the tentative current version; CommitAction promotes
    // it to the stable slot when the version becomes the committed base.
    obj->set_pending_stable_address(addr);
  }
  return addr;
}

Status LogWriter::EnsureResident(RecoverableObject* obj) {
  if (!obj->evicted()) {
    return Status::Ok();
  }
  const LogAddress addr = obj->stable_address();
  ARGUS_CHECK_MSG(!addr.is_null(), "evicted object lost its stable address");
  Result<LogEntry> entry = shards_[router_.ShardOf(obj->uid())].log->Read(addr);
  if (!entry.ok()) {
    return entry.status();
  }
  Result<Value> decoded = DecodeStubPayload(entry.value(), obj->uid());
  if (!decoded.ok()) {
    return decoded.status();
  }
  Value v = std::move(decoded.value());
  Status resolved = ResolveUidRefs(v, [this](Uid uid) { return heap_->Get(uid); });
  if (!resolved.ok()) {
    return resolved;
  }
  obj->Materialize(std::move(v));
  return Status::Ok();
}

Status LogWriter::WriteAccessibleObject(ActionId aid, RecoverableObject* obj,
                                        std::vector<RecoverableObject*>& naos) {
  Status rs = EnsureResident(obj);
  if (!rs.ok()) {
    return rs;
  }
  // Previously accessible: only the current version is copied — the latest
  // committed version already appears in the log (§3.3.3.2).
  const Value& version = obj->is_atomic() ? obj->current_version() : obj->mutex_value();
  std::vector<RecoverableObject*> refs;
  std::vector<std::byte> flat = FlattenValue(version, &refs);
  for (RecoverableObject* ref : refs) {
    if (as_.find(ref->uid()) == as_.end()) {
      naos.push_back(ref);
    }
  }
  WriteDataEntryFor(aid, obj, std::move(flat));
  return Status::Ok();
}

Status LogWriter::WriteNewlyAccessibleObject(ActionId aid, RecoverableObject* obj,
                                             std::vector<RecoverableObject*>& naos) {
  Status rs = EnsureResident(obj);
  if (!rs.ok()) {
    return rs;
  }
  // Base/prepared-data entries for an object live on that object's shard, so
  // every shard chain stays self-contained for its uid subset.
  const std::uint32_t shard = router_.ShardOf(obj->uid());
  auto queue_refs = [&](const std::vector<RecoverableObject*>& refs) {
    for (RecoverableObject* ref : refs) {
      if (as_.find(ref->uid()) == as_.end()) {
        naos.push_back(ref);
      }
    }
  };

  if (obj->is_mutex()) {
    // §3.3.3.2: a newly accessible mutex object just gets a data entry; its
    // version is restored even if the preparing action later aborts.
    std::vector<RecoverableObject*> refs;
    std::vector<std::byte> flat = FlattenValue(obj->mutex_value(), &refs);
    queue_refs(refs);
    WriteDataEntryFor(aid, obj, std::move(flat));
    return Status::Ok();
  }

  if (obj->HoldsWriteLock(aid)) {
    // The preparing action itself modified the object: its base version must
    // survive an abort (base_committed) and its current version must survive
    // a commit (ordinary data entry).
    std::vector<RecoverableObject*> refs;
    std::vector<std::byte> base_flat = FlattenValue(obj->base_version(), &refs);
    LogAddress bc_addr =
        WriteOutcome(LogEntry(BaseCommittedEntry{obj->uid(), std::move(base_flat)}), shard);
    pending_[aid].chained_marks[shard] = bc_addr;
    obj->set_stable_address(bc_addr);
    std::vector<std::byte> cur_flat = FlattenValue(obj->current_version(), &refs);
    queue_refs(refs);
    WriteDataEntryFor(aid, obj, std::move(cur_flat));
    return Status::Ok();
  }

  if (obj->HoldsReadLock(aid)) {
    // Newly created by the preparing action: a single version, written as
    // base_committed so it survives regardless of outcome.
    std::vector<RecoverableObject*> refs;
    std::vector<std::byte> flat = FlattenValue(obj->current_version(), &refs);
    queue_refs(refs);
    LogAddress bc_addr =
        WriteOutcome(LogEntry(BaseCommittedEntry{obj->uid(), std::move(flat)}), shard);
    pending_[aid].chained_marks[shard] = bc_addr;
    obj->set_stable_address(bc_addr);
    return Status::Ok();
  }

  std::optional<ActionId> other = obj->write_locker();
  if (other.has_value() && pat_.find(*other) != pat_.end()) {
    // Write-locked by another action that has already PREPARED without this
    // object having been logged (it was inaccessible then). Both versions are
    // needed: base in case that action aborts, current in case it commits.
    std::vector<RecoverableObject*> refs;
    std::vector<std::byte> base_flat = FlattenValue(obj->base_version(), &refs);
    obj->set_stable_address(
        WriteOutcome(LogEntry(BaseCommittedEntry{obj->uid(), std::move(base_flat)}), shard));
    std::vector<std::byte> cur_flat = FlattenValue(obj->current_version(), &refs);
    queue_refs(refs);
    LogAddress pd_addr =
        WriteOutcome(LogEntry(PreparedDataEntry{obj->uid(), std::move(cur_flat), *other}), shard);
    pending_[aid].chained_marks[shard] = pd_addr;
    // The prepared entry's current version becomes the base if *other*
    // commits — that action's CommitAction promotes the pending slot.
    obj->set_pending_stable_address(pd_addr);
    return Status::Ok();
  }

  // Unlocked, read-locked by others, or write-locked by an unprepared action:
  // only the base version is durable state.
  std::vector<RecoverableObject*> refs;
  std::vector<std::byte> base_flat = FlattenValue(obj->base_version(), &refs);
  queue_refs(refs);
  LogAddress bc_addr =
      WriteOutcome(LogEntry(BaseCommittedEntry{obj->uid(), std::move(base_flat)}), shard);
  pending_[aid].chained_marks[shard] = bc_addr;
  obj->set_stable_address(bc_addr);
  return Status::Ok();
}

Result<ModifiedObjectsSet> LogWriter::WriteObjectsForAction(ActionId aid,
                                                            const ModifiedObjectsSet& mos) {
  std::vector<RecoverableObject*> naos;
  ModifiedObjectsSet leftover;

  for (Uid uid : mos) {
    RecoverableObject* obj = heap_->Get(uid);
    if (obj == nullptr) {
      return Status::InvalidArgument("MOS names unknown object " + to_string(uid));
    }
    if (as_.find(uid) != as_.end()) {
      Status s = WriteAccessibleObject(aid, obj, naos);
      if (!s.ok()) {
        return s;
      }
    } else {
      leftover.insert(uid);
    }
  }

  while (!naos.empty()) {
    RecoverableObject* obj = naos.back();
    naos.pop_back();
    if (as_.find(obj->uid()) != as_.end()) {
      continue;  // became accessible (and was written) via another path
    }
    Status s = WriteNewlyAccessibleObject(aid, obj, naos);
    if (!s.ok()) {
      return s;
    }
    as_.insert(obj->uid());
    leftover.erase(obj->uid());
  }
  return leftover;
}

Status LogWriter::LogGuardianCreation() {
  StagedOutcome staged;
  {
    std::lock_guard<std::mutex> l(mu_);
    std::vector<std::byte> flat = FlattenValue(heap_->root()->base_version(), nullptr);
    LogAddress addr;
    if (mode_ == LogMode::kHybrid) {
      addr = shards_[0].log->Write(
          LogEntry(BaseCommittedEntry{Uid::Root(), std::move(flat), shards_[0].last_outcome}));
      shards_[0].last_outcome = addr;
    } else {
      addr = shards_[0].log->Write(LogEntry(BaseCommittedEntry{Uid::Root(), std::move(flat)}));
    }
    staged.marks.push_back(StagedMark{0, addr, EpochOf(0)});
  }
  return WaitDurable(staged);
}

Result<StagedOutcome> LogWriter::StagePrepareSharded(ActionId aid, const ModifiedObjectsSet& mos) {
  std::lock_guard<std::mutex> l(mu_);
  Result<ModifiedObjectsSet> leftover = WriteObjectsForAction(aid, mos);
  if (!leftover.ok()) {
    return leftover.status();
  }

  // One prepared entry per touched shard, each carrying the shard-local pair
  // fragment. Ascending shard order keeps the staging deterministic.
  std::map<std::uint32_t, PreparedEntry> per_shard;
  auto it = pending_.find(aid);
  if (mode_ == LogMode::kHybrid && it != pending_.end()) {
    for (const auto& [uid, addr] : it->second.pairs) {
      PreparedEntry& entry = per_shard[router_.ShardOf(uid)];
      entry.aid = aid;
      entry.objects.push_back(UidAddress{uid, addr});
    }
  }
  StagedOutcome out;
  if (per_shard.empty()) {
    // Nothing logged (empty or fully inaccessible MOS): the action still
    // prepares durably, on its home shard.
    PreparedEntry entry;
    entry.aid = aid;
    const std::uint32_t home = HomeShardOf(aid);
    LogAddress addr = WriteOutcome(LogEntry(std::move(entry)), home);
    out.marks.push_back(StagedMark{home, addr, EpochOf(home)});
  } else {
    out.marks.reserve(per_shard.size());
    for (auto& [shard, entry] : per_shard) {
      LogAddress addr = WriteOutcome(LogEntry(std::move(entry)), shard);
      out.marks.push_back(StagedMark{shard, addr, EpochOf(shard)});
    }
  }
  // Shards that received only chained base_committed/prepared_data entries
  // (no data pairs, hence no prepared entry) still carry state this action
  // made accessible. Force them too: the decision record must never become
  // durable while a shard's staged bc/pd tail can be discarded by a crash.
  // A shard whose prepared entry is already marked stages strictly later, so
  // its mark covers the chained entries on that shard.
  it = pending_.find(aid);  // WriteObjectsForAction may have created it
  if (it != pending_.end() && !it->second.chained_marks.empty()) {
    for (const auto& [shard, addr] : it->second.chained_marks) {
      if (per_shard.find(shard) == per_shard.end() &&
          !(per_shard.empty() && shard == HomeShardOf(aid))) {
        out.marks.push_back(StagedMark{shard, addr, EpochOf(shard)});
      }
    }
  }

  // PAT/MT are updated at stage time (see the class comment): a concurrent
  // preparer of another action must classify objects against the staging
  // order, not the durable prefix. If the force later fails, the guardian
  // crashes and this volatile state dies with it.
  pat_.insert(aid);
  if (it != pending_.end()) {
    for (const auto& [uid, addr] : it->second.mutex_pairs) {
      mt_[uid] = addr;
    }
    pending_.erase(it);
  }
  // Logged at stage time, before any force: a crash dump showing this event
  // with no matching force batch is an entry that never became durable.
  obs::Emit("log.stage.prepare", aid.sequence, out.marks.front().address.offset);
  return out;
}

Status LogWriter::Prepare(ActionId aid, const ModifiedObjectsSet& mos) {
  Result<StagedOutcome> staged = StagePrepareSharded(aid, mos);
  if (!staged.ok()) {
    return staged.status();
  }
  return WaitDurable(staged.value());
}

Result<ModifiedObjectsSet> LogWriter::WriteEntry(ActionId aid, const ModifiedObjectsSet& mos) {
  std::lock_guard<std::mutex> l(mu_);
  return WriteObjectsForAction(aid, mos);
}

StagedOutcome LogWriter::StageCommitSharded(ActionId aid) {
  std::lock_guard<std::mutex> l(mu_);
  // The commit record goes to the home shard only. Callers guarantee every
  // prepare mark is already durable (class comment), so a durable commit
  // record implies the whole cross-shard prepare image is durable — recovery
  // restores the action atomically or presumes it aborted.
  const std::uint32_t home = HomeShardOf(aid);
  LogAddress staged = WriteOutcome(LogEntry(CommittedEntry{aid}), home);
  pat_.erase(aid);
  pending_.erase(aid);
  obs::Emit("log.stage.commit", aid.sequence, staged.offset);
  StagedOutcome out;
  out.marks.push_back(StagedMark{home, staged, EpochOf(home)});
  return out;
}

Status LogWriter::Commit(ActionId aid) { return WaitDurable(StageCommitSharded(aid)); }

Result<StagedOutcome> LogWriter::StageAbortSharded(ActionId aid) {
  std::lock_guard<std::mutex> l(mu_);
  // Only a PREPARED action needs an aborted record (§2.2.3: before the
  // prepared record is durable, "all record of that action is lost, and the
  // action will be aborted" — by default). Writing an aborted entry for a
  // never-prepared action would also be wrong for mutex semantics: its
  // early-written mutex data entries must stay invisible to recovery, which
  // they are exactly when no outcome entry names the action. Like the commit
  // record, the aborted record lives on the home shard only — a prepare
  // fragment with no decision record anywhere is presumed aborted.
  StagedOutcome out;
  if (pat_.find(aid) != pat_.end()) {
    const std::uint32_t home = HomeShardOf(aid);
    LogAddress staged = WriteOutcome(LogEntry(AbortedEntry{aid}), home);
    pat_.erase(aid);
    obs::Emit("log.stage.abort", aid.sequence, staged.offset);
    out.marks.push_back(StagedMark{home, staged, EpochOf(home)});
  }
  pending_.erase(aid);
  return out;
}

Status LogWriter::Abort(ActionId aid) {
  Result<StagedOutcome> staged = StageAbortSharded(aid);
  if (!staged.ok()) {
    return staged.status();
  }
  if (staged.value().empty()) {
    return Status::Ok();
  }
  return WaitDurable(staged.value());
}

StagedOutcome LogWriter::StageCommitting(ActionId aid, std::vector<GuardianId> participants) {
  std::lock_guard<std::mutex> l(mu_);
  const std::uint32_t home = HomeShardOf(aid);
  LogAddress addr = WriteOutcome(LogEntry(CommittingEntry{aid, participants}), home);
  obs::Emit("log.stage.committing", aid.sequence, addr.offset, participants.size());
  open_coordinators_[aid] = std::move(participants);
  StagedOutcome out;
  out.marks.push_back(StagedMark{home, addr, EpochOf(home)});
  return out;
}

StagedOutcome LogWriter::StageDone(ActionId aid) {
  std::lock_guard<std::mutex> l(mu_);
  const std::uint32_t home = HomeShardOf(aid);
  LogAddress addr = WriteOutcome(LogEntry(DoneEntry{aid}), home);
  obs::Emit("log.stage.done", aid.sequence, addr.offset);
  open_coordinators_.erase(aid);
  StagedOutcome out;
  out.marks.push_back(StagedMark{home, addr, EpochOf(home)});
  return out;
}

Status LogWriter::WaitDurable(const StagedOutcome& staged) {
  for (const StagedMark& mark : staged.marks) {
    const ShardBinding& b = shards_[mark.shard];
    Status s = b.coordinator != nullptr ? b.coordinator->ForceUpTo(mark.address, mark.epoch)
                                        : b.log->Force();
    if (!s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

void LogWriter::TrimAccessibilitySet() {
  IntersectAccessibilitySet(heap_->ComputeAccessibleUids());
}

void LogWriter::IntersectAccessibilitySet(const AccessibilitySet& reachable) {
  std::lock_guard<std::mutex> l(mu_);
  AccessibilitySet trimmed;
  for (Uid uid : reachable) {
    if (as_.find(uid) != as_.end()) {
      trimmed.insert(uid);
    }
  }
  trimmed.insert(Uid::Root());
  as_ = std::move(trimmed);
}

void LogWriter::RestoreState(AccessibilitySet as, PreparedActionsTable pat, MutexTable mt,
                             std::vector<LogAddress> chain_heads) {
  ARGUS_CHECK(chain_heads.size() == shards_.size());
  std::lock_guard<std::mutex> l(mu_);
  as_ = std::move(as);
  as_.insert(Uid::Root());
  pat_ = std::move(pat);
  mt_ = std::move(mt);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].last_outcome = chain_heads[i];
  }
}

void LogWriter::RestoreOpenCoordinators(std::map<ActionId, std::vector<GuardianId>> open) {
  std::lock_guard<std::mutex> l(mu_);
  open_coordinators_ = std::move(open);
}

void LogWriter::RebindLog(std::uint32_t shard, StableLog* log) {
  ARGUS_CHECK(shard < shards_.size() && log != nullptr);
  std::lock_guard<std::mutex> l(mu_);
  shards_[shard].log = log;
}

Status LogWriter::RewritePendingAfterLogSwap() {
  std::lock_guard<std::mutex> l(mu_);
  for (auto& [aid, pending] : pending_) {
    std::vector<Uid> uids;
    uids.reserve(pending.pairs.size());
    for (const auto& [uid, addr] : pending.pairs) {
      uids.push_back(uid);
    }
    pending.pairs.clear();
    pending.mutex_pairs.clear();
    std::vector<RecoverableObject*> naos;
    for (Uid uid : uids) {
      RecoverableObject* obj = heap_->Get(uid);
      if (obj == nullptr) {
        return Status::InvalidArgument("pending pair names unknown object " + to_string(uid));
      }
      // These objects were accessible when first written, so they are in the
      // AS and the plain accessible-object path applies.
      Status s = WriteAccessibleObject(aid, obj, naos);
      if (!s.ok()) {
        return s;
      }
    }
    ARGUS_CHECK_MSG(naos.empty(), "rewrite discovered newly accessible objects");
  }
  return Status::Ok();
}

LogAddress LogWriter::last_outcome_address() const {
  std::lock_guard<std::mutex> l(mu_);
  return shards_[0].last_outcome;
}

}  // namespace argus
