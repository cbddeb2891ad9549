#include "src/recovery/housekeeping.h"

#include <algorithm>

#include "src/object/flatten.h"

namespace argus {
namespace internal {

class Housekeeper {
 public:
  Housekeeper(CheckpointCapture capture, const StableLog* old_log,
              std::function<std::unique_ptr<StableMedium>()> medium_factory)
      : capture_(std::move(capture)), old_log_(old_log), stage2_next_(capture_.marker) {
    ARGUS_CHECK(old_log != nullptr && medium_factory != nullptr);
    outcome_.new_log = std::make_unique<StableLog>(medium_factory(), old_log->scope());
  }

  // Stage 1 + the checkpoint tail. Reads only the capture and old-log frames
  // at pre-marker addresses, so it is safe against concurrent appends.
  Status StageOne() {
    Status s = capture_.method == HousekeepingMethod::kCompaction ? StageOneCompaction()
                                                                  : StageOneSnapshot();
    if (!s.ok()) {
      return s;
    }
    EmitCheckpointTail();
    // Push the stage-1 prefix to the medium now, while writers are still
    // running: Finish's force then covers only the stage-2 carry-over, so
    // the swap barrier's pause stays bounded by activity since the capture,
    // not by the checkpoint's size.
    return outcome_.new_log->Force();
  }

  // Incremental stage-2 carry-over, callable while the old log is still being
  // appended to: copies the suffix staged since the marker (or since the
  // previous pass) and forces it. Each pass leaves less for the next; the
  // final pass under the swap barrier then covers only the tail staged since
  // the last catch-up. Old-log entries are immutable once staged and the
  // cursor is internally locked, so racing live appends is safe.
  Status CatchUp() {
    for (int pass = 0; pass < 4; ++pass) {
      Result<std::uint64_t> copied = StageTwo({});
      if (!copied.ok()) {
        return copied.status();
      }
      if (copied.value() == 0) {
        break;
      }
      Status s = outcome_.new_log->Force();
      if (!s.ok()) {
        return s;
      }
    }
    return Status::Ok();
  }

  // Stage 2 + force. Requires the old log's suffix to be frozen.
  Result<HousekeepingOutcome> Finish(const std::function<bool(std::uint64_t)>& stage2_hook) {
    Result<std::uint64_t> copied = StageTwo(stage2_hook);
    if (!copied.ok()) {
      return copied.status();
    }
    Status s = outcome_.new_log->Force();
    if (!s.ok()) {
      return s;
    }
    outcome_.new_last_outcome = new_chain_;
    outcome_.new_mt = std::move(new_mt_);
    return std::move(outcome_);
  }

 private:
  struct Tracked {
    bool restored = false;  // false == "prepared": base still owed
    bool is_mutex = false;
    LogAddress old_mutex_address = LogAddress::Null();
  };

  // ---- New-log emission ----

  LogAddress AppendData(ObjectKind kind, std::vector<std::byte> value) {
    DataEntry entry;
    entry.kind = kind;
    entry.value = std::move(value);
    return outcome_.new_log->Write(LogEntry(std::move(entry)));
  }

  LogAddress AppendOutcome(LogEntry entry) {
    std::visit(
        [this](auto& e) {
          using T = std::decay_t<decltype(e)>;
          if constexpr (!std::is_same_v<T, DataEntry>) {
            e.prev = new_chain_;
          }
        },
        entry);
    LogAddress addr = outcome_.new_log->Write(entry);
    new_chain_ = addr;
    return addr;
  }

  // Writes the committed_ss entry and then the deferred tentative-state
  // entries (prepared / prepared_data / committing) in old temporal order, so
  // a recovery walk meets tentative versions before their bases.
  void EmitCheckpointTail() {
    CommittedSsEntry css;
    css.objects.reserve(cssl_.size());
    for (const auto& [uid, addr] : cssl_) {
      css.objects.push_back(UidAddress{uid, addr});
    }
    AppendOutcome(LogEntry(std::move(css)));
    // deferred_ was filled newest-first (backward walks); reverse restores
    // temporal order. The snapshot fills it in arbitrary traversal order,
    // which is fine: its entries are mutually independent.
    for (auto it = deferred_.rbegin(); it != deferred_.rend(); ++it) {
      AppendOutcome(std::move(*it));
    }
    deferred_.clear();
  }

  // ---- Shared pieces ----

  Result<DataEntry> ReadOldData(LogAddress address) {
    // Stage-1 replay reads go through the log's block ReadCache (pinned frame
    // view + zero-copy decode) instead of the locked whole-entry read path:
    // compaction re-reads the same committed pairs the recovery scan touches,
    // so the cache is usually warm, and the view path skips the per-entry
    // LogEntry allocation and the log mutex for durable frames.
    Result<StableLog::FrameView> view = old_log_->ReadFrameView(address);
    if (!view.ok()) {
      return view.status();
    }
    Result<DataEntryView> data = DecodeDataEntryView(view.value().payload());
    if (!data.ok()) {
      if (data.status().code() == ErrorCode::kCorruption) {
        return Status::Corruption("pair points at a non-data entry");
      }
      return data.status();
    }
    DataEntry entry;
    entry.uid = data.value().uid;
    entry.kind = data.value().kind;
    entry.aid = data.value().aid;
    entry.value.assign(data.value().value.begin(), data.value().value.end());
    return entry;
  }

  // The §4.4 latest-version rule for one mutex pair. Copies the version to
  // the new log if it is the newest seen so far (by OLD address). The new
  // data entry lands either in the CSSL (stage 1) or in `into_pairs`
  // (stage 2 prepare lists).
  Status HandleMutexPair(Uid uid, LogAddress old_address, std::vector<std::byte> value,
                         std::vector<UidAddress>* into_pairs) {
    Tracked& t = tracked_[uid];
    t.is_mutex = true;
    if (!t.old_mutex_address.is_null() && old_address <= t.old_mutex_address) {
      return Status::Ok();  // an older version; the newer one is already out
    }
    LogAddress new_addr = AppendData(ObjectKind::kMutex, std::move(value));
    t.old_mutex_address = old_address;
    t.restored = true;
    if (into_pairs != nullptr) {
      into_pairs->push_back(UidAddress{uid, new_addr});
    } else {
      cssl_[uid] = new_addr;
    }
    new_mt_[uid] = new_addr;
    return Status::Ok();
  }

  // Checkpoints one committed atomic version (idempotent per uid).
  void CheckpointAtomic(Uid uid, std::vector<std::byte> value) {
    Tracked& t = tracked_[uid];
    if (t.restored) {
      return;
    }
    LogAddress addr = AppendData(ObjectKind::kAtomic, std::move(value));
    cssl_[uid] = addr;
    t.restored = true;
  }

  // ---- Stage 1: compaction (§5.1.1) ----

  Status StageOneCompaction() {
    LogAddress address = capture_.old_chain_head;
    while (!address.is_null()) {
      Result<LogEntry> entry_or = old_log_->Read(address);
      if (!entry_or.ok()) {
        return entry_or.status();
      }
      const LogEntry& entry = entry_or.value();

      Status s = Status::Ok();
      if (const auto* committed = std::get_if<CommittedEntry>(&entry)) {
        pt_.emplace(committed->aid, ParticipantState::kCommitted);
      } else if (const auto* aborted = std::get_if<AbortedEntry>(&entry)) {
        pt_.emplace(aborted->aid, ParticipantState::kAborted);
      } else if (const auto* done = std::get_if<DoneEntry>(&entry)) {
        ct_.emplace(done->aid, CoordinatorTableEntry{CoordinatorPhase::kDone, {}});
      } else if (const auto* committing = std::get_if<CommittingEntry>(&entry)) {
        if (ct_.find(committing->aid) == ct_.end()) {
          // Outcome still open: the coordinator must resume after recovery.
          ct_.emplace(committing->aid,
                      CoordinatorTableEntry{CoordinatorPhase::kCommitting,
                                            committing->participants});
          deferred_.push_back(
              LogEntry(CommittingEntry{committing->aid, committing->participants}));
        }
      } else if (const auto* bc = std::get_if<BaseCommittedEntry>(&entry)) {
        CheckpointAtomic(bc->uid, bc->value);
      } else if (const auto* pd = std::get_if<PreparedDataEntry>(&entry)) {
        s = CompactPreparedData(*pd);
      } else if (const auto* prepared = std::get_if<PreparedEntry>(&entry)) {
        s = CompactPrepared(*prepared);
      } else if (const auto* css = std::get_if<CommittedSsEntry>(&entry)) {
        for (const UidAddress& pair : css->objects) {
          s = CompactCommittedPair(pair);
          if (!s.ok()) {
            return s;
          }
        }
      }
      if (!s.ok()) {
        return s;
      }
      address = PrevPointer(entry);
    }
    return Status::Ok();
  }

  Status CompactPreparedData(const PreparedDataEntry& pd) {
    auto it = pt_.find(pd.aid);
    if (it == pt_.end()) {
      // Outcome unknown: the tentative version must survive verbatim.
      if (tracked_.find(pd.uid) == tracked_.end()) {
        tracked_[pd.uid];  // prepared (base owed)
      }
      deferred_.push_back(LogEntry(PreparedDataEntry{pd.uid, pd.value, pd.aid}));
      return Status::Ok();
    }
    if (it->second == ParticipantState::kAborted) {
      return Status::Ok();
    }
    // Committed: this current version is the latest committed version.
    CheckpointAtomic(pd.uid, pd.value);
    return Status::Ok();
  }

  Status CompactCommittedPair(const UidAddress& pair) {
    Result<DataEntry> data = ReadOldData(pair.address);
    if (!data.ok()) {
      return data.status();
    }
    if (data.value().kind == ObjectKind::kAtomic) {
      CheckpointAtomic(pair.uid, std::move(data.value().value));
      return Status::Ok();
    }
    return HandleMutexPair(pair.uid, pair.address, std::move(data.value().value), nullptr);
  }

  Status CompactPrepared(const PreparedEntry& prepared) {
    auto it = pt_.find(prepared.aid);
    if (it != pt_.end() && it->second == ParticipantState::kAborted) {
      // Atomic pairs die with the abort; mutex pairs survive (§2.4.2).
      for (const UidAddress& pair : prepared.objects) {
        Result<DataEntry> data = ReadOldData(pair.address);
        if (!data.ok()) {
          return data.status();
        }
        if (data.value().kind == ObjectKind::kMutex) {
          Status s =
              HandleMutexPair(pair.uid, pair.address, std::move(data.value().value), nullptr);
          if (!s.ok()) {
            return s;
          }
        }
      }
      return Status::Ok();
    }
    if (it != pt_.end() && it->second == ParticipantState::kCommitted) {
      for (const UidAddress& pair : prepared.objects) {
        Status s = CompactCommittedPair(pair);
        if (!s.ok()) {
          return s;
        }
      }
      return Status::Ok();
    }

    // Outcome not known: carry the prepared entry (with re-pointed pairs)
    // into the new log.
    std::vector<UidAddress> new_pairs;
    for (const UidAddress& pair : prepared.objects) {
      Result<DataEntry> data = ReadOldData(pair.address);
      if (!data.ok()) {
        return data.status();
      }
      if (data.value().kind == ObjectKind::kAtomic) {
        Tracked& t = tracked_[pair.uid];  // prepared: base owed
        (void)t;
        LogAddress addr = AppendData(ObjectKind::kAtomic, std::move(data.value().value));
        new_pairs.push_back(UidAddress{pair.uid, addr});
      } else {
        Status s =
            HandleMutexPair(pair.uid, pair.address, std::move(data.value().value), nullptr);
        if (!s.ok()) {
          return s;
        }
      }
    }
    // Unlike §5.1.1, the prepared entry is carried even when its pair list
    // came out empty (a mutex-only action): dropping it would lose the
    // action's prepared state across the checkpoint (DESIGN.md deviation D1).
    deferred_.push_back(LogEntry(PreparedEntry{prepared.aid, std::move(new_pairs)}));
    return Status::Ok();
  }

  // ---- Stage 1: snapshot (§5.2), from the captured heap copy ----

  Status StageOneSnapshot() {
    for (const CheckpointCapture::SnapshotObject& obj : capture_.objects) {
      if (obj.kind == ObjectKind::kAtomic) {
        CheckpointAtomic(obj.uid, obj.base);
        if (obj.prepared_locker.has_value()) {
          // A prepared, undecided action's tentative version.
          deferred_.push_back(LogEntry(
              PreparedDataEntry{obj.uid, obj.prepared_current, *obj.prepared_locker}));
        }
      } else {
        // The recovery-relevant mutex version is the last PREPARED one,
        // which lives in the old log at the MT address — the volatile value
        // may be newer (modified by an unprepared action).
        auto it = capture_.mt.find(obj.uid);
        if (it == capture_.mt.end()) {
          continue;  // never prepared: stage 2 or the post-swap rewrite covers it
        }
        Result<DataEntry> data = ReadOldData(it->second);
        if (!data.ok()) {
          return data.status();
        }
        Status s = HandleMutexPair(obj.uid, it->second, std::move(data.value().value),
                                   nullptr);
        if (!s.ok()) {
          return s;
        }
      }
    }
    // Preserve the prepared state of every undecided action (deviation D1) —
    // without this, a participant whose prepared action touched only mutex
    // objects would forget it had prepared.
    for (ActionId aid : capture_.pat) {
      deferred_.push_back(LogEntry(PreparedEntry{aid, {}}));
    }
    // Preserve in-flight coordinator state: a committing-but-not-done action
    // must still resend its verdict after a post-checkpoint crash.
    for (const auto& [aid, gids] : capture_.open_coordinators) {
      deferred_.push_back(LogEntry(CommittingEntry{aid, gids}));
    }
    outcome_.new_as = capture_.traversal_as;
    return Status::Ok();
  }

  // ---- Stage 2 (§5.1.1 second stage, shared) ----

  // One pass over the old-log suffix not yet carried over; resumable (the
  // cursor position persists across calls, for CatchUp). Returns the number
  // of outcome entries it copied.
  Result<std::uint64_t> StageTwo(const std::function<bool(std::uint64_t)>& hook) {
    StableLog::ForwardCursor cursor = old_log_->ReadForwardFrom(stage2_next_);
    std::uint64_t copied = 0;
    while (true) {
      Result<std::optional<std::pair<LogAddress, LogEntry>>> next = cursor.Next();
      if (!next.ok()) {
        return next.status();
      }
      if (!next.value().has_value()) {
        stage2_next_ = cursor.offset();
        break;
      }
      const LogEntry& entry = next.value()->second;
      if (std::holds_alternative<DataEntry>(entry)) {
        continue;  // copied on demand through prepare lists
      }
      if (hook && !hook(copied)) {
        return Status::IoError("checkpoint abandoned by stage-2 hook");
      }
      ++copied;

      if (const auto* prepared = std::get_if<PreparedEntry>(&entry)) {
        std::vector<UidAddress> new_pairs;
        for (const UidAddress& pair : prepared->objects) {
          Result<DataEntry> data = ReadOldData(pair.address);
          if (!data.ok()) {
            return data.status();
          }
          if (data.value().kind == ObjectKind::kAtomic) {
            LogAddress addr = AppendData(ObjectKind::kAtomic, std::move(data.value().value));
            new_pairs.push_back(UidAddress{pair.uid, addr});
          } else {
            Status s = HandleMutexPair(pair.uid, pair.address, std::move(data.value().value),
                                       &new_pairs);
            if (!s.ok()) {
              return s;
            }
          }
        }
        AppendOutcome(LogEntry(PreparedEntry{prepared->aid, std::move(new_pairs)}));
      } else if (const auto* committed = std::get_if<CommittedEntry>(&entry)) {
        AppendOutcome(LogEntry(CommittedEntry{committed->aid}));
      } else if (const auto* aborted = std::get_if<AbortedEntry>(&entry)) {
        AppendOutcome(LogEntry(AbortedEntry{aborted->aid}));
      } else if (const auto* committing = std::get_if<CommittingEntry>(&entry)) {
        AppendOutcome(LogEntry(CommittingEntry{committing->aid, committing->participants}));
      } else if (const auto* done = std::get_if<DoneEntry>(&entry)) {
        AppendOutcome(LogEntry(DoneEntry{done->aid}));
      } else if (const auto* bc = std::get_if<BaseCommittedEntry>(&entry)) {
        AppendOutcome(LogEntry(BaseCommittedEntry{bc->uid, bc->value}));
      } else if (const auto* pd = std::get_if<PreparedDataEntry>(&entry)) {
        AppendOutcome(LogEntry(PreparedDataEntry{pd->uid, pd->value, pd->aid}));
      } else {
        return Status::Corruption("committed_ss after the housekeeping marker");
      }
    }
    return copied;
  }

  CheckpointCapture capture_;
  const StableLog* old_log_;
  HousekeepingOutcome outcome_;

  std::unordered_map<Uid, Tracked> tracked_;  // stage-1 OT analogue
  ParticipantTable pt_;
  CoordinatorTable ct_;
  std::map<Uid, LogAddress> cssl_;            // uid → new data entry address
  std::vector<LogEntry> deferred_;            // tentative-state entries
  MutexTable new_mt_;
  LogAddress new_chain_ = LogAddress::Null();
  // Old-log offset the next stage-2 pass resumes from (starts at the marker).
  std::uint64_t stage2_next_ = 0;
};

}  // namespace internal

CheckpointCapture CaptureCheckpoint(HousekeepingMethod method,
                                    const HousekeepingInputs& inputs) {
  ARGUS_CHECK(inputs.old_log != nullptr && inputs.heap != nullptr && inputs.pat != nullptr &&
              inputs.mt != nullptr);
  CheckpointCapture capture;
  capture.method = method;
  // The housekeeping marker: everything at or past this offset is stage-2
  // territory. Captured while staging is excluded, so the marker cleanly
  // separates state reflected in the capture from carried-over activity.
  capture.marker = inputs.old_log->end_offset();
  capture.old_chain_head = inputs.old_chain_head;
  capture.pat = *inputs.pat;
  capture.mt = *inputs.mt;
  if (inputs.open_coordinators != nullptr) {
    capture.open_coordinators = *inputs.open_coordinators;
  }
  if (method == HousekeepingMethod::kSnapshot) {
    AccessibilitySet traversal_as;
    for (RecoverableObject* obj : inputs.heap->TraverseStableState()) {
      traversal_as.insert(obj->uid());
      CheckpointCapture::SnapshotObject snap;
      snap.uid = obj->uid();
      snap.kind = obj->kind();
      if (obj->is_atomic()) {
        snap.base = FlattenValue(obj->base_version(), nullptr);
        std::optional<ActionId> locker = obj->write_locker();
        if (locker.has_value() && capture.pat.find(*locker) != capture.pat.end()) {
          snap.prepared_locker = *locker;
          snap.prepared_current = FlattenValue(obj->current_version(), nullptr);
        }
      }
      capture.objects.push_back(std::move(snap));
    }
    capture.traversal_as = std::move(traversal_as);
  }
  return capture;
}

CheckpointBuilder::CheckpointBuilder(
    CheckpointCapture capture, const StableLog* old_log,
    std::function<std::unique_ptr<StableMedium>()> medium_factory)
    : impl_(std::make_unique<internal::Housekeeper>(std::move(capture), old_log,
                                                    std::move(medium_factory))) {}

CheckpointBuilder::~CheckpointBuilder() = default;

Status CheckpointBuilder::BuildStageOne() { return impl_->StageOne(); }

Status CheckpointBuilder::CatchUp() { return impl_->CatchUp(); }

Result<HousekeepingOutcome> CheckpointBuilder::Finish(
    const std::function<bool(std::uint64_t)>& stage2_hook) {
  return impl_->Finish(stage2_hook);
}

}  // namespace argus
