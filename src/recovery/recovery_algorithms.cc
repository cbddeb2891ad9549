#include "src/recovery/recovery_algorithms.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/object/flatten.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace argus {
namespace {

// Per-stage recovery telemetry. Wall-clock stage costs go to histograms (the
// before/after ledger for the reserve heuristic and any future table tuning);
// table sizes land in gauges at finalize. Trace events are emitted only from
// the recovering thread — shard workers stay silent so seeded runs produce
// identical event sequences regardless of worker count.
struct RecObs {
  obs::Counter* runs;
  obs::Counter* entries_examined;
  obs::Counter* data_entries_read;
  obs::Histogram* find_head_ns;
  obs::Histogram* walk_apply_ns;
  obs::Histogram* finalize_ns;
  obs::Gauge* ot_size;
  obs::Gauge* pt_size;
  obs::Gauge* ct_size;
  obs::Gauge* mt_size;
  obs::Gauge* table_reserve;

  static const RecObs& Get() {
    static const RecObs m{
        obs::GetCounter("recovery.runs"),
        obs::GetCounter("recovery.entries_examined"),
        obs::GetCounter("recovery.data_entries_read"),
        obs::GetHistogram("recovery.find_head_ns"),
        obs::GetHistogram("recovery.walk_apply_ns"),
        obs::GetHistogram("recovery.finalize_ns"),
        obs::GetGauge("recovery.ot_size"),
        obs::GetGauge("recovery.pt_size"),
        obs::GetGauge("recovery.ct_size"),
        obs::GetGauge("recovery.mt_size"),
        obs::GetGauge("recovery.table_reserve"),
    };
    return m;
  }
};

std::uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - since)
                                        .count());
}

// How many entries a log of this size plausibly holds. The divisor is the
// framed size of a minimal outcome entry — an underestimate of the average
// (data entries carry values), so the derived table reservations overshoot
// slightly rather than rehash. Capped so a pathological log cannot demand
// gigabytes of empty buckets.
std::size_t EntryEstimateFromLogSize(const StableLog& log) {
  constexpr std::uint64_t kMinFramedEntryBytes = 48;
  constexpr std::uint64_t kMaxEstimate = std::uint64_t{1} << 22;
  return static_cast<std::size_t>(
      std::min(log.durable_size() / kMinFramedEntryBytes, kMaxEstimate));
}

// Shared mechanics of both recovery algorithms: table updates plus the
// restore-version operations that copy flattened versions into the heap.
class RecoveryContext {
 public:
  explicit RecoveryContext(VolatileHeap& heap) : heap_(heap) {}

  RecoveryResult& result() { return result_; }
  const RecoveryResult& result() const { return result_; }

  // Sizes the OT/PT hash tables up front from the log-size entry estimate —
  // at 10^6 entries the incremental rehashes were ~25% of the cached walk
  // (ROADMAP). Data entries dominate a log and uids repeat across actions,
  // so half the entry count comfortably over-reserves the OT; the PT gets a
  // quarter (each action contributes at least a prepared and an outcome
  // entry).
  void ReserveTables(std::size_t entry_estimate) {
    result_.ot.reserve(entry_estimate / 2 + 16);
    result_.pt.reserve(entry_estimate / 4 + 16);
  }

  // ---- Table updates (first-seen wins: the scan runs newest-to-oldest) ----

  void NoteParticipant(ActionId aid, ParticipantState state) {
    result_.pt.emplace(aid, state);
  }

  void NoteCoordinator(ActionId aid, CoordinatorPhase phase, std::vector<GuardianId> gids) {
    result_.ct.emplace(aid, CoordinatorTableEntry{phase, std::move(gids)});
  }

  std::optional<ParticipantState> ParticipantStateOf(ActionId aid) const {
    auto it = result_.pt.find(aid);
    if (it == result_.pt.end()) {
      return std::nullopt;
    }
    return it->second;
  }

  // Shard workers on their own threads restore disjoint uid sets into one
  // shared heap, so only the heap's object-map accesses need serializing.
  // Null (the default, inline recovery) means no locking at all.
  void SetHeapMutex(std::mutex* mu) { heap_mu_ = mu; }

  // ---- Version restoration ----

  // Gets or materializes the volatile object for `uid`.
  Result<RecoverableObject*> EnsureObject(Uid uid, ObjectKind kind) {
    std::unique_lock<std::mutex> l;
    if (heap_mu_ != nullptr) {
      l = std::unique_lock<std::mutex>(*heap_mu_);
    }
    RecoverableObject* existing = heap_.Get(uid);
    if (existing != nullptr) {
      if (existing->kind() != kind) {
        return Status::Corruption("object kind mismatch for " + to_string(uid));
      }
      return existing;
    }
    return heap_.InstallRecovered(uid, kind);
  }

  // Installs a committed version: the base version of an atomic object or
  // the (current) version of a mutex object. Inserts/updates the OT.
  Status RestoreCommitted(Uid uid, ObjectKind kind, std::span<const std::byte> flat,
                          LogAddress data_address) {
    Result<Value> value = UnflattenValue(flat);
    if (!value.ok()) {
      return value.status();
    }
    Result<RecoverableObject*> obj = EnsureObject(uid, kind);
    if (!obj.ok()) {
      return obj.status();
    }
    obj.value()->RestoreBase(std::move(value).value());
    obj.value()->set_base_restored(true);
    ObjectTableEntry& entry = result_.ot[uid];
    entry.state = ObjectRecoveryState::kRestored;
    entry.object = obj.value();
    entry.base_address = data_address;
    if (kind == ObjectKind::kMutex) {
      entry.mutex_address = data_address;
    }
    return Status::Ok();
  }

  // Installs the tentative version of an atomic object for a prepared but
  // undecided action; the action is re-granted its write lock (§3.4.4 e.ii).
  Status RestorePreparedCurrent(Uid uid, std::span<const std::byte> flat, ActionId aid) {
    Result<Value> value = UnflattenValue(flat);
    if (!value.ok()) {
      return value.status();
    }
    Result<RecoverableObject*> obj = EnsureObject(uid, ObjectKind::kAtomic);
    if (!obj.ok()) {
      return obj.status();
    }
    obj.value()->RestoreCurrentWithLock(std::move(value).value(), aid);
    ObjectTableEntry& entry = result_.ot[uid];
    entry.state = ObjectRecoveryState::kPrepared;
    entry.object = obj.value();
    return Status::Ok();
  }

  // base_committed semantics (§3.4.4 d): supplies the base version if it is
  // still owed; otherwise the entry is stale and ignored. `address` is the
  // frame the value was decoded from (Null when the caller has none) — it
  // primes residency eviction, which must be able to re-read the base.
  Status HandleBaseCommitted(Uid uid, std::span<const std::byte> flat, LogAddress address) {
    auto it = result_.ot.find(uid);
    if (it != result_.ot.end()) {
      if (it->second.state == ObjectRecoveryState::kPrepared) {
        Result<Value> value = UnflattenValue(flat);
        if (!value.ok()) {
          return value.status();
        }
        it->second.object->RestoreBase(std::move(value).value());
        it->second.object->set_base_restored(true);
        it->second.state = ObjectRecoveryState::kRestored;
        it->second.base_address = address;
      }
      return Status::Ok();
    }
    return RestoreCommitted(uid, ObjectKind::kAtomic, flat, address);
  }

  // prepared_data semantics (§3.4.4 e).
  Status HandlePreparedData(const PreparedDataEntry& entry, LogAddress address) {
    std::optional<ParticipantState> state = ParticipantStateOf(entry.aid);
    if (state == ParticipantState::kAborted) {
      return Status::Ok();
    }
    if (state == ParticipantState::kCommitted) {
      // The modifying action committed: this current version is the latest
      // committed version — it plays the base role if still owed.
      return HandleBaseCommitted(entry.uid, AsSpan(entry.value), address);
    }
    // Prepared (seen later in the log) or unknown: the action prepared; the
    // real prepared entry appears earlier in the log.
    if (!state.has_value()) {
      NoteParticipant(entry.aid, ParticipantState::kPrepared);
    }
    if (result_.ot.find(entry.uid) != result_.ot.end()) {
      return Status::Ok();
    }
    return RestorePreparedCurrent(entry.uid, AsSpan(entry.value), entry.aid);
  }

  // ---- Finalization (§3.4.4 steps 3-5) ----

  Status Finalize() {
    // Every OT entry should have received its base by now; an object still in
    // prepared state means the log never supplied its committed version.
    std::uint64_t max_uid = 0;
    for (auto& [uid, entry] : result_.ot) {
      if (entry.state == ObjectRecoveryState::kPrepared) {
        return Status::Corruption("no committed version recovered for " + to_string(uid));
      }
      max_uid = std::max(max_uid, uid.value);
    }

    // Final pass: patch uid placeholders into volatile references.
    auto resolve = [this](Uid uid) -> RecoverableObject* {
      auto it = result_.ot.find(uid);
      if (it != result_.ot.end()) {
        return it->second.object;
      }
      // The root exists even if the log never mentioned it.
      return heap_.Get(uid);
    };
    for (auto& [uid, entry] : result_.ot) {
      RecoverableObject* obj = entry.object;
      Value base = obj->base_version();
      Status s = ResolveUidRefs(base, resolve);
      if (!s.ok()) {
        return s;
      }
      obj->RestoreBase(std::move(base));
      if (obj->is_atomic() && obj->has_current()) {
        std::optional<ActionId> locker = obj->write_locker();
        Value current = obj->current_version();
        s = ResolveUidRefs(current, resolve);
        if (!s.ok()) {
          return s;
        }
        ARGUS_CHECK(locker.has_value());
        obj->RestoreCurrentWithLock(std::move(current), *locker);
      }
    }

    // The stable counter resumes past every uid ever logged (§3.4.4 step 3).
    heap_.ResetUidCounter(max_uid + 1);

    // Rebuild the accessibility set by traversal (§3.4.4 step 4).
    for (Uid uid : heap_.ComputeAccessibleUids()) {
      result_.as.insert(uid);
    }

    // Rebuild the MT (§5.2): latest prepared mutex versions.
    for (const auto& [uid, entry] : result_.ot) {
      if (entry.object->is_mutex() && !entry.mutex_address.is_null()) {
        result_.mt.emplace(uid, entry.mutex_address);
      }
    }
    return Status::Ok();
  }

 private:
  VolatileHeap& heap_;
  std::mutex* heap_mu_ = nullptr;
  RecoveryResult result_;
};

// Handles one simple-log data entry per §3.4.4 step h.
Status HandleSimpleDataEntry(RecoveryContext& ctx, const DataEntry& entry, LogAddress address) {
  std::optional<ParticipantState> state = ctx.ParticipantStateOf(entry.aid);
  if (!state.has_value()) {
    // No outcome entry named this action: it never prepared; its writes are
    // invisible (this also covers early-prepared entries of unprepared
    // actions, §4.4).
    return Status::Ok();
  }
  ObjectTable& ot = ctx.result().ot;
  auto it = ot.find(entry.uid);
  switch (*state) {
    case ParticipantState::kCommitted:
      if (it != ot.end()) {
        if (it->second.state == ObjectRecoveryState::kPrepared &&
            entry.kind == ObjectKind::kAtomic) {
          // This is the latest committed version: the owed base.
          return ctx.HandleBaseCommitted(entry.uid, AsSpan(entry.value), address);
        }
        return Status::Ok();
      }
      return ctx.RestoreCommitted(entry.uid, entry.kind, AsSpan(entry.value), address);
    case ParticipantState::kPrepared:
      if (it != ot.end()) {
        return Status::Ok();
      }
      if (entry.kind == ObjectKind::kAtomic) {
        return ctx.RestorePreparedCurrent(entry.uid, AsSpan(entry.value), entry.aid);
      }
      // Mutex: restored regardless of the eventual outcome (§2.4.2).
      return ctx.RestoreCommitted(entry.uid, entry.kind, AsSpan(entry.value), address);
    case ParticipantState::kAborted:
      if (entry.kind == ObjectKind::kAtomic) {
        return Status::Ok();
      }
      if (it != ot.end()) {
        return Status::Ok();
      }
      // A prepared-then-aborted action's mutex version still holds (§2.4.2).
      return ctx.RestoreCommitted(entry.uid, entry.kind, AsSpan(entry.value), address);
  }
  return Status::Ok();
}

// Runs Finalize, records the finalize stage as begun at `start`, and
// publishes the post-recovery table sizes and counter mirrors. Shared by
// every recovery driver.
Status FinalizeWithMetrics(RecoveryContext& ctx, std::chrono::steady_clock::time_point start) {
  Status s = ctx.Finalize();
  const RecObs& m = RecObs::Get();
  m.finalize_ns->Record(ElapsedNs(start));
  m.runs->Increment();
  m.entries_examined->Add(ctx.result().entries_examined);
  m.data_entries_read->Add(ctx.result().data_entries_read);
  m.ot_size->Set(static_cast<double>(ctx.result().ot.size()));
  m.pt_size->Set(static_cast<double>(ctx.result().pt.size()));
  m.ct_size->Set(static_cast<double>(ctx.result().ct.size()));
  m.mt_size->Set(static_cast<double>(ctx.result().mt.size()));
  return s;
}

}  // namespace

Result<RecoveryResult> RecoverSimpleLog(const StableLog& log, VolatileHeap& heap) {
  obs::TraceSpan span("recovery.run", log.durable_size());
  RecoveryContext ctx(heap);
  const std::size_t entry_estimate = EntryEstimateFromLogSize(log);
  ctx.ReserveTables(entry_estimate);
  RecObs::Get().table_reserve->Set(static_cast<double>(entry_estimate));
  ctx.result().last_outcome.push_back(LogAddress::Null());  // the simple log has no chain
  const auto walk_start = std::chrono::steady_clock::now();

  StableLog::BackwardCursor cursor = log.ReadBackwardFromTop();
  while (true) {
    Result<std::optional<std::pair<LogAddress, LogEntry>>> next = cursor.Next();
    if (!next.ok()) {
      return next.status();
    }
    if (!next.value().has_value()) {
      break;
    }
    ++ctx.result().entries_examined;
    const auto& [address, entry] = *next.value();

    Status s = Status::Ok();
    if (const auto* prepared = std::get_if<PreparedEntry>(&entry)) {
      if (!ctx.ParticipantStateOf(prepared->aid).has_value()) {
        ctx.NoteParticipant(prepared->aid, ParticipantState::kPrepared);
      }
    } else if (const auto* committed = std::get_if<CommittedEntry>(&entry)) {
      ctx.NoteParticipant(committed->aid, ParticipantState::kCommitted);
    } else if (const auto* aborted = std::get_if<AbortedEntry>(&entry)) {
      ctx.NoteParticipant(aborted->aid, ParticipantState::kAborted);
    } else if (const auto* committing = std::get_if<CommittingEntry>(&entry)) {
      ctx.NoteCoordinator(committing->aid, CoordinatorPhase::kCommitting,
                          committing->participants);
    } else if (const auto* done = std::get_if<DoneEntry>(&entry)) {
      ctx.NoteCoordinator(done->aid, CoordinatorPhase::kDone, {});
    } else if (const auto* bc = std::get_if<BaseCommittedEntry>(&entry)) {
      s = ctx.HandleBaseCommitted(bc->uid, AsSpan(bc->value), address);
    } else if (const auto* pd = std::get_if<PreparedDataEntry>(&entry)) {
      s = ctx.HandlePreparedData(*pd, address);
    } else if (const auto* data = std::get_if<DataEntry>(&entry)) {
      s = HandleSimpleDataEntry(ctx, *data, address);
    } else if (std::holds_alternative<CommittedSsEntry>(entry)) {
      // Housekeeping (ch. 5) applies to the hybrid log only; a committed_ss
      // entry in a simple log means the log was written by the wrong mode.
      return Status::Corruption("committed_ss entry in a simple log");
    }
    if (!s.ok()) {
      return s;
    }
  }
  RecObs::Get().walk_apply_ns->Record(ElapsedNs(walk_start));

  Status s = FinalizeWithMetrics(ctx, std::chrono::steady_clock::now());
  if (!s.ok()) {
    return s;
  }
  obs::Emit("recovery.done", ctx.result().entries_examined, ctx.result().data_entries_read);
  return std::move(ctx.result());
}

namespace {

// A dereferenced data entry handed to the apply stage: `view.value` aliases
// the frame bytes `pin` keeps alive in the read cache.
struct FetchedData {
  DataEntryView view;
  StableLog::FrameView pin;
};

// Fetches the data entry a <uid, log-address> pair points at through the
// log's pinned frame views: decodes straight out of the cached block, no
// per-entry heap copy. Ticks data_entries_read after a successful frame
// read, before the data-kind check.
Result<FetchedData> FetchViaView(const StableLog& log, RecoveryContext& ctx,
                                 const UidAddress& pair) {
  Result<StableLog::FrameView> frame = log.ReadFrameView(pair.address);
  if (!frame.ok()) {
    return frame.status();
  }
  ++ctx.result().data_entries_read;
  if (!IsDataEntryPayload(frame.value().payload())) {
    // A decode failure reports itself; a well-formed non-data entry reports
    // the chain inconsistency.
    Result<LogEntry> entry = DecodeEntry(frame.value().payload());
    if (!entry.ok()) {
      return entry.status();
    }
    return Status::Corruption("prepared pair points at a non-data entry");
  }
  Result<DataEntryView> view = DecodeDataEntryView(frame.value().payload());
  if (!view.ok()) {
    return view.status();
  }
  FetchedData out;
  out.view = view.value();
  out.pin = std::move(frame).value();
  return out;
}

// Dereferences and applies one <uid, log address> pair of a hybrid prepared
// (or committed_ss) entry, given the outcome of the covering action.
Status HandleHybridPair(RecoveryContext& ctx, const StableLog& log, const UidAddress& pair,
                        ParticipantState outcome, ActionId aid) {
  ObjectTable& ot = ctx.result().ot;

  auto it = ot.find(pair.uid);
  if (it != ot.end()) {
    ObjectTableEntry& existing = it->second;
    if (existing.object->is_mutex()) {
      // §4.4: with early prepare, chain order can disagree with write order;
      // only a data entry at a HIGHER address supersedes the installed one.
      if (!existing.mutex_address.is_null() && pair.address > existing.mutex_address) {
        Result<FetchedData> data = FetchViaView(log, ctx, pair);
        if (!data.ok()) {
          return data.status();
        }
        Result<Value> value = UnflattenValue(data.value().view.value);
        if (!value.ok()) {
          return value.status();
        }
        existing.object->RestoreBase(std::move(value).value());
        existing.mutex_address = pair.address;
      }
      return Status::Ok();
    }
    // Atomic, already present.
    if (existing.state == ObjectRecoveryState::kPrepared &&
        outcome == ParticipantState::kCommitted) {
      Result<FetchedData> data = FetchViaView(log, ctx, pair);
      if (!data.ok()) {
        return data.status();
      }
      return ctx.HandleBaseCommitted(pair.uid, data.value().view.value, pair.address);
    }
    return Status::Ok();
  }

  // Not yet in the OT.
  Result<FetchedData> data = FetchViaView(log, ctx, pair);
  if (!data.ok()) {
    return data.status();
  }
  const DataEntryView& d = data.value().view;
  switch (outcome) {
    case ParticipantState::kAborted:
      if (d.kind == ObjectKind::kAtomic) {
        return Status::Ok();
      }
      return ctx.RestoreCommitted(pair.uid, d.kind, d.value, pair.address);
    case ParticipantState::kCommitted:
      return ctx.RestoreCommitted(pair.uid, d.kind, d.value, pair.address);
    case ParticipantState::kPrepared:
      if (d.kind == ObjectKind::kAtomic) {
        return ctx.RestorePreparedCurrent(pair.uid, d.value, aid);
      }
      return ctx.RestoreCommitted(pair.uid, d.kind, d.value, pair.address);
  }
  return Status::Ok();
}

// Applies one chain entry to the recovery tables.
Status ApplyChainEntry(RecoveryContext& ctx, const StableLog& log, const LogEntry& entry,
                       LogAddress address) {
  Status s = Status::Ok();
  if (const auto* prepared = std::get_if<PreparedEntry>(&entry)) {
    std::optional<ParticipantState> state = ctx.ParticipantStateOf(prepared->aid);
    if (!state.has_value()) {
      ctx.NoteParticipant(prepared->aid, ParticipantState::kPrepared);
      state = ParticipantState::kPrepared;
    }
    for (const UidAddress& pair : prepared->objects) {
      s = HandleHybridPair(ctx, log, pair, *state, prepared->aid);
      if (!s.ok()) {
        return s;
      }
    }
  } else if (const auto* committed = std::get_if<CommittedEntry>(&entry)) {
    ctx.NoteParticipant(committed->aid, ParticipantState::kCommitted);
  } else if (const auto* aborted = std::get_if<AbortedEntry>(&entry)) {
    ctx.NoteParticipant(aborted->aid, ParticipantState::kAborted);
  } else if (const auto* committing = std::get_if<CommittingEntry>(&entry)) {
    ctx.NoteCoordinator(committing->aid, CoordinatorPhase::kCommitting,
                        committing->participants);
  } else if (const auto* done = std::get_if<DoneEntry>(&entry)) {
    ctx.NoteCoordinator(done->aid, CoordinatorPhase::kDone, {});
  } else if (const auto* bc = std::get_if<BaseCommittedEntry>(&entry)) {
    s = ctx.HandleBaseCommitted(bc->uid, AsSpan(bc->value), address);
  } else if (const auto* pd = std::get_if<PreparedDataEntry>(&entry)) {
    s = ctx.HandlePreparedData(*pd, address);
  } else if (const auto* css = std::get_if<CommittedSsEntry>(&entry)) {
    // §5.1.2: a combined prepare-and-commit of an anonymous action.
    for (const UidAddress& pair : css->objects) {
      s = HandleHybridPair(ctx, log, pair, ParticipantState::kCommitted, ActionId::Invalid());
      if (!s.ok()) {
        return s;
      }
    }
  }
  return s;
}

// Finds the chain head (the newest outcome entry), skipping data entries that
// were forced after it. Ticks entries_examined for every entry touched.
Result<std::optional<LogAddress>> FindChainHead(const StableLog& log, RecoveryContext& ctx) {
  StableLog::BackwardCursor cursor = log.ReadBackwardFromTop();
  while (true) {
    Result<std::optional<std::pair<LogAddress, LogEntry>>> next = cursor.Next();
    if (!next.ok()) {
      return next.status();
    }
    if (!next.value().has_value()) {
      return std::optional<LogAddress>(std::nullopt);
    }
    ++ctx.result().entries_examined;
    if (IsOutcomeEntry(next.value()->second)) {
      return std::optional<LogAddress>(next.value()->first);
    }
  }
}

// Walks `log`'s backward outcome chain from `head` to its oldest entry,
// handing each decoded entry and its address to `visit`. Ticks
// entries_examined once per entry read.
template <typename Visit>
Status WalkChain(const StableLog& log, LogAddress head, RecoveryContext& ctx, Visit visit) {
  for (LogAddress address = head; !address.is_null();) {
    Result<LogEntry> entry = log.Read(address);
    if (!entry.ok()) {
      return entry.status();
    }
    ++ctx.result().entries_examined;
    if (!IsOutcomeEntry(entry.value())) {
      return Status::Corruption("outcome chain points at a data entry");
    }
    if (Status s = visit(entry.value(), address); !s.ok()) {
      return s;
    }
    address = PrevPointer(entry.value());
  }
  return Status::Ok();
}

// The participant-table half of ApplyChainEntry, with the same first-seen
// discipline: a decision record always appears after (and is therefore walked
// before) the prepare record it decides.
void NoteDecision(RecoveryContext& ctx, const LogEntry& entry) {
  if (const auto* prepared = std::get_if<PreparedEntry>(&entry)) {
    ctx.NoteParticipant(prepared->aid, ParticipantState::kPrepared);
  } else if (const auto* committed = std::get_if<CommittedEntry>(&entry)) {
    ctx.NoteParticipant(committed->aid, ParticipantState::kCommitted);
  } else if (const auto* aborted = std::get_if<AbortedEntry>(&entry)) {
    ctx.NoteParticipant(aborted->aid, ParticipantState::kAborted);
  } else if (const auto* pd = std::get_if<PreparedDataEntry>(&entry)) {
    ctx.NoteParticipant(pd->aid, ParticipantState::kPrepared);
  }
}

// One shard's share of a hybrid restart.
struct ShardRecovery {
  explicit ShardRecovery(VolatileHeap& heap) : ctx(heap) {}

  RecoveryContext ctx;
  LogAddress head = LogAddress::Null();
  std::uint64_t scan_ns = 0;  // head find plus decision pass
  std::uint64_t walk_ns = 0;
};

// Runs `task(shard)` for every shard index and returns the lowest-index
// shard's error, so every schedule surfaces the same failure. With fewer than
// two workers the shards run inline in ascending order; otherwise
// min(workers, shards) threads pull indices from a shared counter. Per-shard
// tasks are independent, so every schedule computes the same outputs.
Status RunPerShard(std::size_t shard_count, std::size_t workers,
                   const std::function<Status(std::size_t)>& task) {
  std::vector<Status> statuses(shard_count, Status::Ok());
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < shard_count; i = next.fetch_add(1)) {
      statuses[i] = task(i);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < std::min(workers, shard_count); ++t) {
    threads.emplace_back(drain);
  }
  drain();
  for (std::thread& t : threads) {
    t.join();
  }
  for (const Status& s : statuses) {
    if (!s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

// Merges the shards' participant fragments decided-wins and seeds every
// shard's walk with the result. A prepare fragment on one shard is subsumed by
// the decision record on the action's home shard; the two-phase commit force
// protocol (LogWriter) makes that record durable only after every shard's
// prepare fragment is, so two *conflicting* decisions are corruption.
Status MergeDecisions(std::vector<ShardRecovery>& shards) {
  ParticipantTable merged;
  std::size_t estimate = 16;
  for (const ShardRecovery& shard : shards) {
    estimate += shard.ctx.result().pt.size();
  }
  merged.reserve(estimate);
  for (const ShardRecovery& shard : shards) {
    for (const auto& [aid, state] : shard.ctx.result().pt) {
      auto [it, inserted] = merged.emplace(aid, state);
      if (inserted || it->second == state) {
        continue;
      }
      if (it->second == ParticipantState::kPrepared) {
        it->second = state;
      } else if (state != ParticipantState::kPrepared) {
        return Status::Corruption("conflicting outcomes across shards for " + to_string(aid));
      }
    }
  }
  for (ShardRecovery& shard : shards) {
    shard.ctx.result().pt = merged;
  }
  return Status::Ok();
}

}  // namespace

Result<RecoveryResult> RecoverHybridLog(std::span<const StableLog* const> logs,
                                        VolatileHeap& heap, std::size_t workers) {
  ARGUS_CHECK(!logs.empty());
  const std::size_t n = logs.size();
  std::uint64_t total_durable = 0;
  std::size_t entry_estimate = 0;
  for (const StableLog* log : logs) {
    ARGUS_CHECK(log != nullptr);
    total_durable += log->durable_size();
    entry_estimate += EntryEstimateFromLogSize(*log);
  }
  obs::TraceSpan span("recovery.run", total_durable);
  const RecObs& m = RecObs::Get();
  m.table_reserve->Set(static_cast<double>(entry_estimate));

  // Worker threads restore disjoint uid sets into the one heap, so only its
  // object-map accesses need serializing.
  std::mutex heap_mu;
  std::vector<ShardRecovery> shards;
  shards.reserve(n);
  for (const StableLog* log : logs) {
    shards.emplace_back(heap);
    shards.back().ctx.ReserveTables(EntryEstimateFromLogSize(*log));
    if (std::min(workers, n) > 1) {
      shards.back().ctx.SetHeapMutex(&heap_mu);
    }
  }

  const auto head_start = std::chrono::steady_clock::now();
  Status s = RunPerShard(n, workers, [&](std::size_t i) -> Status {
    const auto start = std::chrono::steady_clock::now();
    Result<std::optional<LogAddress>> head = FindChainHead(*logs[i], shards[i].ctx);
    shards[i].scan_ns = ElapsedNs(start);
    if (!head.ok()) {
      return head.status();
    }
    shards[i].head = head.value().value_or(LogAddress::Null());
    return Status::Ok();
  });
  if (!s.ok()) {
    return s;
  }
  m.find_head_ns->Record(ElapsedNs(head_start));

  const auto walk_start = std::chrono::steady_clock::now();
  if (n > 1) {
    // The decision pass: an action's prepare fragments and its decision
    // record can sit on different shards, so every chain's PT fragment is
    // collected and merged before any shard restores a version.
    s = RunPerShard(n, workers, [&](std::size_t i) -> Status {
      const auto start = std::chrono::steady_clock::now();
      RecoveryContext& ctx = shards[i].ctx;
      Status st = WalkChain(*logs[i], shards[i].head, ctx,
                            [&ctx](const LogEntry& entry, LogAddress) {
                              NoteDecision(ctx, entry);
                              return Status::Ok();
                            });
      shards[i].scan_ns += ElapsedNs(start);
      return st;
    });
    if (!s.ok()) {
      return s;
    }
    if (s = MergeDecisions(shards); !s.ok()) {
      return s;
    }
  }
  s = RunPerShard(n, workers, [&](std::size_t i) -> Status {
    const auto start = std::chrono::steady_clock::now();
    RecoveryContext& ctx = shards[i].ctx;
    const StableLog& log = *logs[i];
    Status st = WalkChain(log, shards[i].head, ctx, [&](const LogEntry& entry, LogAddress address) {
      return ApplyChainEntry(ctx, log, entry, address);
    });
    shards[i].walk_ns = ElapsedNs(start);
    return st;
  });
  if (!s.ok()) {
    return s;
  }
  m.walk_apply_ns->Record(ElapsedNs(walk_start));

  // Per-shard timings and sizes, published from the recovering thread only.
  for (std::size_t i = 0; i < n; ++i) {
    const std::string shard = std::to_string(i);
    const RecoveryResult& r = shards[i].ctx.result();
    obs::GetHistogram(obs::Labeled("recovery.shard.scan_ns", {{"shard", shard}}))
        ->Record(shards[i].scan_ns);
    obs::GetHistogram(obs::Labeled("recovery.shard.apply_ns", {{"shard", shard}}))
        ->Record(shards[i].walk_ns);
    obs::GetCounter(obs::Labeled("recovery.shard.entries_examined", {{"shard", shard}}))
        ->Add(r.entries_examined);
    obs::GetCounter(obs::Labeled("recovery.shard.data_entries_read", {{"shard", shard}}))
        ->Add(r.data_entries_read);
  }

  // Fold the other shards into shard 0's tables: the OT is a disjoint union
  // (the shard map routes each uid to exactly one shard), the CT a union
  // (outcome records live only on an action's home shard), and every PT
  // already holds the merged decisions.
  const auto finalize_start = std::chrono::steady_clock::now();
  RecoveryContext& ctx = shards[0].ctx;
  RecoveryResult& merged = ctx.result();
  for (std::size_t i = 1; i < n; ++i) {
    RecoveryResult& r = shards[i].ctx.result();
    for (const auto& [uid, entry] : r.ot) {
      if (!merged.ot.emplace(uid, entry).second) {
        return Status::Corruption("object " + to_string(uid) + " recovered on multiple shards");
      }
    }
    for (auto& [aid, entry] : r.ct) {
      merged.ct.emplace(aid, std::move(entry));
    }
    merged.entries_examined += r.entries_examined;
    merged.data_entries_read += r.data_entries_read;
  }
  for (const ShardRecovery& shard : shards) {
    merged.last_outcome.push_back(shard.head);
  }
  if (s = FinalizeWithMetrics(ctx, finalize_start); !s.ok()) {
    return s;
  }
  obs::Emit("recovery.done", merged.entries_examined, merged.data_entries_read);
  return std::move(merged);
}

Result<RecoveryResult> RecoverHybridLog(const StableLog& log, VolatileHeap& heap) {
  const StableLog* const one = &log;
  return RecoverHybridLog(std::span<const StableLog* const>(&one, 1), heap);
}

}  // namespace argus
