#include "src/recovery/recovery_system.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/stable/replicated_medium.h"

namespace argus {

void RecoverySystem::StartRepairServices() {
  if (!config_.repair.has_value()) {
    return;
  }
  repair_services_.resize(logs_.size());
  for (std::size_t i = 0; i < logs_.size(); ++i) {
    auto* medium = dynamic_cast<ReplicatedStableMedium*>(&logs_[i]->medium());
    if (medium == nullptr) {
      continue;  // in-memory / file media have nothing to scrub
    }
    repair_services_[i] = std::make_unique<ReplicaRepairService>(
        &medium->store(), *config_.repair,
        obs::Scope{.guardian = guardian_.value, .shard = static_cast<std::uint32_t>(i)});
    repair_services_[i]->Start();
  }
}

void RecoverySystem::StopRepairServices() { repair_services_.clear(); }

void RecoverySystem::InitWriterAndCoordinators() {
  std::vector<StableLog*> raw;
  raw.reserve(logs_.size());
  for (const auto& log : logs_) {
    raw.push_back(log.get());
  }
  writer_ = std::make_unique<LogWriter>(config_.mode, std::move(raw), heap_, router_);
  if (config_.group_commit.has_value()) {
    std::vector<FlushCoordinator*> attached;
    attached.reserve(logs_.size());
    for (const auto& log : logs_) {
      coordinators_.push_back(
          std::make_unique<FlushCoordinator>(log.get(), *config_.group_commit));
      attached.push_back(coordinators_.back().get());
    }
    writer_->AttachCoordinators(std::move(attached));
  }
}

void RecoverySystem::InitResidency() {
  if (config_.residency.mem_budget_bytes == 0) {
    return;
  }
  std::vector<StableLog*> raw;
  raw.reserve(logs_.size());
  for (const auto& log : logs_) {
    raw.push_back(log.get());
  }
  residency_ = std::make_unique<ResidencyManager>(heap_, std::move(raw), router_,
                                                  config_.residency,
                                                  obs::Scope{.guardian = guardian_.value});
}

RecoverySystem::RecoverySystem(RecoverySystemConfig config, VolatileHeap* heap,
                               GuardianId guardian)
    : config_(std::move(config)),
      guardian_(guardian),
      in_doubt_actions_(
          obs::Scope{.guardian = guardian.value}.GetCounter("recovery.in_doubt_actions")),
      heap_(heap),
      router_(ShardMapRecord{
          .num_shards = config_.log_shards, .salt = config_.shard_salt, .overrides = {}}) {
  ARGUS_CHECK(heap_ != nullptr);
  ARGUS_CHECK(config_.medium_factory != nullptr);
  ARGUS_CHECK(config_.log_shards >= 1);
  if (config_.log_shards > 1) {
    ARGUS_CHECK_MSG(config_.mode == LogMode::kHybrid, "sharded logs require the hybrid mode");
    // The shard map is durable state in its own right and is written before
    // any shard log exists: recovery must be able to rebuild the routing
    // before it can find anything else.
    shard_map_ = std::make_unique<ShardMapStore>(config_.medium_factory());
    Status s = shard_map_->Put(router_.record());
    ARGUS_CHECK_MSG(s.ok(), "shard map creation write failed");
  }
  for (std::uint32_t i = 0; i < config_.log_shards; ++i) {
    logs_.push_back(std::make_unique<StableLog>(
        config_.medium_factory(), obs::Scope{.guardian = guardian_.value, .shard = i}));
  }
  InitWriterAndCoordinators();
  // A fresh guardian durably records its (empty) stable-variables root so
  // recovery always has a committed root version to fall back on.
  Status s = writer_->LogGuardianCreation();
  ARGUS_CHECK_MSG(s.ok(), "guardian creation write failed");
  StartRepairServices();
  InitResidency();
}

RecoverySystem::RecoverySystem(RecoverySystemConfig config, VolatileHeap* heap,
                               std::unique_ptr<StableLog> log, GuardianId guardian)
    : RecoverySystem(
          std::move(config), heap,
          [&log] {
            SurvivingState surviving;
            surviving.logs.push_back(std::move(log));
            return surviving;
          }(),
          guardian) {}

RecoverySystem::RecoverySystem(RecoverySystemConfig config, VolatileHeap* heap,
                               SurvivingState surviving, GuardianId guardian)
    : config_(std::move(config)),
      guardian_(guardian),
      in_doubt_actions_(
          obs::Scope{.guardian = guardian.value}.GetCounter("recovery.in_doubt_actions")),
      heap_(heap),
      logs_(std::move(surviving.logs)),
      shard_map_(std::move(surviving.shard_map)),
      router_(ShardMapRecord{}) {
  ARGUS_CHECK(heap_ != nullptr);
  ARGUS_CHECK(config_.medium_factory != nullptr);
  ARGUS_CHECK(!logs_.empty());
  for (const auto& log : logs_) {
    ARGUS_CHECK(log != nullptr);
  }
  if (shard_map_ != nullptr) {
    // The routing is durable state: recover it first. A failure here leaves
    // the writer unconstructed; Recover() reports the error and the caller
    // can reclaim the surviving state and retry (e.g. after healing faults).
    Result<ShardMapRecord> record = shard_map_->Recover();
    if (!record.ok()) {
      deferred_error_ = record.status();
      return;
    }
    if (record.value().num_shards != logs_.size()) {
      deferred_error_ = Status::Corruption("shard map names " +
                                           std::to_string(record.value().num_shards) +
                                           " shards but " + std::to_string(logs_.size()) +
                                           " logs survived");
      return;
    }
    router_ = ShardRouter(std::move(record).value());
  }
  InitWriterAndCoordinators();
  StartRepairServices();
  InitResidency();
}

Result<RecoveryInfo> RecoverySystem::Recover() {
  if (!deferred_error_.ok()) {
    return deferred_error_;
  }
  std::vector<const StableLog*> shards;
  shards.reserve(logs_.size());
  for (const auto& log : logs_) {
    if (Status s = log->RecoverAfterCrash(); !s.ok()) {
      return s;
    }
    shards.push_back(log.get());
  }

  Result<RecoveryResult> result = config_.mode == LogMode::kSimple
                                      ? RecoverSimpleLog(*logs_[0], *heap_)
                                      : RecoverHybridLog(shards, *heap_, shards.size());
  if (!result.ok()) {
    return result.status();
  }
  RecoveryResult& r = result.value();

  // Prime the writer: the PAT is the prepared subset of the PT.
  PreparedActionsTable pat;
  for (const auto& [aid, state] : r.pt) {
    if (state == ParticipantState::kPrepared) {
      pat.insert(aid);
    }
  }
  writer_->RestoreState(r.as, std::move(pat), r.mt, std::move(r.last_outcome));

  std::map<ActionId, std::vector<GuardianId>> open;
  for (const auto& [aid, entry] : r.ct) {
    if (entry.phase == CoordinatorPhase::kCommitting) {
      open[aid] = entry.participants;
    }
  }
  writer_->RestoreOpenCoordinators(std::move(open));

  // Prime residency addresses: any object whose committed base was restored
  // from a durable frame — a pair-addressed data entry or a chained
  // base_committed / prepared_data frame — is immediately eviction-eligible,
  // because the fault path can decode all three frame kinds. Objects whose
  // base arrived without an address stay resident until a later logged write
  // re-addresses them.
  for (const auto& [uid, entry] : r.ot) {
    if (entry.object != nullptr && entry.state == ObjectRecoveryState::kRestored &&
        !entry.base_address.is_null()) {
      entry.object->set_stable_address(entry.base_address);
    }
  }

  RecoveryInfo info;
  info.ot = std::move(r.ot);
  info.pt = std::move(r.pt);
  info.ct = std::move(r.ct);
  info.entries_examined = r.entries_examined;
  info.data_entries_read = r.data_entries_read;
  for (const auto& [aid, state] : info.pt) {
    if (state == ParticipantState::kPrepared) {
      ++info.in_doubt_actions;
    }
  }
  in_doubt_actions_->Add(info.in_doubt_actions);
  return info;
}

Result<LogAddress> RecoverySystem::StagePrepare(ActionId aid, const ModifiedObjectsSet& mos) {
  ARGUS_CHECK(logs_.size() == 1);
  Result<StagedOutcome> staged = writer_->StagePrepareSharded(aid, mos);
  if (!staged.ok()) {
    return staged.status();
  }
  return staged.value().marks.front().address;
}

Result<LogAddress> RecoverySystem::StageCommit(ActionId aid) {
  ARGUS_CHECK(logs_.size() == 1);
  return writer_->StageCommitSharded(aid).marks.front().address;
}

Result<std::optional<LogAddress>> RecoverySystem::StageAbort(ActionId aid) {
  ARGUS_CHECK(logs_.size() == 1);
  Result<StagedOutcome> staged = writer_->StageAbortSharded(aid);
  if (!staged.ok()) {
    return staged.status();
  }
  if (staged.value().empty()) {
    return std::optional<LogAddress>(std::nullopt);
  }
  return std::optional<LogAddress>(staged.value().marks.front().address);
}

Status RecoverySystem::WaitDurable(LogAddress address, std::uint64_t epoch) {
  ARGUS_CHECK(logs_.size() == 1);
  return writer_->WaitDurable(StagedOutcome{{StagedMark{0, address, epoch}}});
}

void RecoverySystem::CrashCoordinators() {
  for (const auto& coordinator : coordinators_) {
    coordinator->Crash();
  }
}

std::unique_ptr<StableLog> RecoverySystem::TakeLog() {
  ARGUS_CHECK(logs_.size() == 1);
  StopRepairServices();
  residency_.reset();
  return std::move(logs_[0]);
}

RecoverySystem::SurvivingState RecoverySystem::TakeSurvivingState() {
  StopRepairServices();
  residency_.reset();
  SurvivingState surviving;
  surviving.logs = std::move(logs_);
  surviving.shard_map = std::move(shard_map_);
  return surviving;
}

Status RecoverySystem::Housekeep(HousekeepingMethod method,
                                 const std::function<void()>& between_stages) {
  Result<CheckpointCapture> capture = CaptureCheckpoint(method);
  if (!capture.ok()) {
    return capture.status();
  }
  Result<std::unique_ptr<CheckpointBuilder>> builder =
      BuildCheckpoint(std::move(capture.value()));
  if (!builder.ok()) {
    return builder.status();
  }
  if (between_stages) {
    between_stages();
  }
  return CompleteCheckpointSwap(std::move(builder.value()));
}

Result<CheckpointCapture> RecoverySystem::CaptureCheckpoint(HousekeepingMethod method) {
  if (config_.mode != LogMode::kHybrid) {
    return Status::InvalidArgument("housekeeping requires the hybrid log (chapter 5)");
  }
  if (logs_.size() > 1) {
    return Status::InvalidArgument(
        "housekeeping is not supported with sharded logs (cross-shard swap barrier)");
  }
  if (swap_crash_hook_ && !swap_crash_hook_("capture", 0)) {
    return Status::IoError("injected crash before capture");
  }

  // The capture traverses committed base versions; stubs must be
  // rematerialized first so the snapshot sees real values.
  if (residency_ != nullptr) {
    Status ms = residency_->MaterializeAll();
    if (!ms.ok()) {
      return ms;
    }
  }

  HousekeepingInputs inputs;
  inputs.old_log = logs_[0].get();
  inputs.heap = heap_;
  inputs.pat = &writer_->prepared_actions();
  inputs.mt = &writer_->mutex_table();
  inputs.open_coordinators = &writer_->open_coordinators();
  inputs.old_chain_head = writer_->last_outcome_address();
  inputs.medium_factory = config_.medium_factory;
  return ::argus::CaptureCheckpoint(method, inputs);
}

Result<std::unique_ptr<CheckpointBuilder>> RecoverySystem::BuildCheckpoint(
    CheckpointCapture capture) {
  if (swap_crash_hook_ && !swap_crash_hook_("build", 0)) {
    return Status::IoError("injected crash before build");
  }
  auto builder = std::make_unique<CheckpointBuilder>(std::move(capture), logs_[0].get(),
                                                     config_.medium_factory);
  Status s = builder->BuildStageOne();
  if (!s.ok()) {
    return s;
  }
  return builder;
}

Status RecoverySystem::CompleteCheckpointSwap(std::unique_ptr<CheckpointBuilder> builder) {
  ARGUS_CHECK(builder != nullptr);
  ARGUS_CHECK(logs_.size() == 1);

  // Drain in-flight durability waits and force the old log's staged tail, so
  // (a) the post-marker suffix read by stage 2 is frozen and fully visible,
  // and (b) waiters that staged before the barrier wake against a durable
  // frame instead of a swapped log.
  if (coordinator() != nullptr) {
    Status s = coordinator()->Quiesce();
    if (!s.ok()) {
      return s;
    }
  }
  if (swap_crash_hook_ && !swap_crash_hook_("quiesced", 0)) {
    return Status::IoError("injected crash after quiesce");
  }
  // Any stubs that slipped in between capture and swap point at the old log;
  // materialize them now since all old-log addresses die at the swap.
  if (residency_ != nullptr) {
    Status ms = residency_->MaterializeAll();
    if (!ms.ok()) {
      return ms;
    }
  }

  std::function<bool(std::uint64_t)> stage2_hook;
  if (swap_crash_hook_) {
    stage2_hook = [this](std::uint64_t index) { return swap_crash_hook_("stage2", index); };
  }
  Result<HousekeepingOutcome> outcome = builder->Finish(stage2_hook);
  if (!outcome.ok()) {
    return outcome.status();
  }
  if (swap_crash_hook_ && !swap_crash_hook_("forced", 0)) {
    return Status::IoError("injected crash after new-log force");
  }
  HousekeepingOutcome& hk = outcome.value();

  // The atomic swap: the new log supplants the old. The retired log stays
  // alive one generation so any latent stale access faults loudly. The
  // repair service scrubbing the old medium stops before the swap (its store
  // is about to be retired) and a fresh one adopts the new medium after.
  StopRepairServices();
  retired_log_ = std::move(logs_[0]);
  logs_[0] = std::move(hk.new_log);
  writer_->RebindLog(0, logs_[0].get());
  if (coordinator() != nullptr) {
    coordinator()->RebindLog(logs_[0].get());
  }
  StartRepairServices();

  // Every stable address recorded so far names a frame of the retired log.
  // Wipe them all; RewritePendingAfterLogSwap below re-installs addresses for
  // pending data, and committed bases become eviction-eligible again the next
  // time an action re-logs them.
  for (const auto& [uid, obj] : *heap_) {
    obj->ClearStableAddresses();
  }
  if (residency_ != nullptr) {
    residency_->RebindLog(0, logs_[0].get());
  }

  AccessibilitySet as = writer_->accessibility_set();
  if (hk.new_as.has_value()) {
    // §5.2: the traversal's AS is intersected with the old AS. Uids that
    // became accessible after the capture may be dropped here — conservative:
    // the next prepare touching them re-writes their committed version.
    AccessibilitySet intersected;
    for (Uid uid : *hk.new_as) {
      if (as.find(uid) != as.end()) {
        intersected.insert(uid);
      }
    }
    as = std::move(intersected);
  }
  // The PAT is the writer's LIVE table: actions that prepared after the
  // capture were carried into the new log by stage 2. The MT is the
  // checkpoint's — stage 2 re-pointed post-capture mutex versions too.
  writer_->RestoreState(std::move(as), writer_->prepared_actions(), std::move(hk.new_mt),
                        {hk.new_last_outcome});
  if (swap_crash_hook_ && !swap_crash_hook_("swapped", 0)) {
    return Status::IoError("injected crash after swap");
  }

  // Data entries of not-yet-prepared actions were not carried over; rewrite
  // them from volatile state.
  Status s = writer_->RewritePendingAfterLogSwap();
  if (!s.ok()) {
    return s;
  }
  if (swap_crash_hook_ && !swap_crash_hook_("rewritten", 0)) {
    return Status::IoError("injected crash after pending rewrite");
  }
  return Status::Ok();
}

}  // namespace argus
