#include "src/tpc/workload.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>
#include <thread>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/residency/residency_service.h"

namespace argus {

namespace {

// Objects a concurrent action writes on its guardian.
constexpr std::size_t kConcurrentWritesPerAction = 2;

struct WorkloadObs {
  obs::Counter* attempted;
  obs::Counter* committed;
  obs::Counter* aborted;
  obs::Counter* in_doubt;
  obs::Counter* partial_crashes;
  obs::Counter* partial_recoveries;

  static const WorkloadObs& Get() {
    static const WorkloadObs m{
        obs::GetCounter("workload.attempted"),
        obs::GetCounter("workload.committed"),
        obs::GetCounter("workload.aborted"),
        obs::GetCounter("workload.in_doubt"),
        obs::GetCounter("workload.partial_crashes"),
        obs::GetCounter("workload.partial_recoveries"),
    };
    return m;
  }
};

}  // namespace

WorkloadDriver::WorkloadDriver(SimWorld* world, WorkloadConfig config)
    : world_(world), config_(config), rng_(config.seed) {
  ARGUS_CHECK(world != nullptr);
  model_.resize(world->guardian_count());
  live_ = std::vector<LiveGuardian>(world->guardian_count());
  if (config_.checkpoint.has_value()) {
    for (std::uint32_t g = 0; g < world->guardian_count(); ++g) {
      world->guardian(g).ConfigureMaintenance(*config_.checkpoint);
    }
  }
}

std::vector<WorkloadDriver::LiveGuardianStats> WorkloadDriver::SnapshotLiveStats() const {
  std::vector<LiveGuardianStats> out(world_->guardian_count());
  for (std::size_t g = 0; g < out.size(); ++g) {
    out[g].committed = live_[g].committed.load(std::memory_order_relaxed);
    out[g].crashed = live_[g].crashed.load(std::memory_order_relaxed);
    out[g].resident_bytes = live_[g].resident_bytes.load(std::memory_order_relaxed);
  }
  return out;
}

std::string WorkloadDriver::last_crash_dump() const {
  return last_crash_capture_.has_value() ? obs::FormatFlightRecorders(*last_crash_capture_)
                                         : std::string();
}

std::vector<std::uint32_t> WorkloadDriver::LiveGuardians() const {
  std::vector<std::uint32_t> up;
  up.reserve(live_.size());
  for (std::uint32_t g = 0; g < live_.size(); ++g) {
    if (!live_[g].crashed.load(std::memory_order_relaxed)) {
      up.push_back(g);
    }
  }
  return up;
}

std::vector<std::uint32_t> WorkloadDriver::PickVictims(Rng& rng) const {
  const std::size_t n = world_->guardian_count();
  ARGUS_CHECK(n >= 2);
  std::size_t count = 1 + rng.NextBelow(n - 1);  // 1..n-1: survivors nonempty
  std::vector<std::uint32_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = 0; i < count; ++i) {  // partial Fisher-Yates
    std::size_t j = i + rng.NextBelow(n - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(count);
  return pool;
}

Status WorkloadDriver::Setup() {
  for (std::uint32_t g = 0; g < world_->guardian_count(); ++g) {
    Result<Guardian::ActionFate> fate =
        world_->RunTopAction(GuardianId{g}, [&](SimWorld& w, ActionId aid) -> Status {
          return w.RunAt(aid, GuardianId{g}, [&](Guardian& guard, ActionContext& ctx) {
            for (std::size_t i = 0; i < config_.objects_per_guardian; ++i) {
              RecoverableObject* obj = ctx.CreateAtomic(guard.heap(), Value::Int(0));
              Status s = guard.SetStableVariable(aid, SlotName(i), obj);
              if (!s.ok()) {
                return s;
              }
            }
            return Status::Ok();
          });
        });
    if (!fate.ok()) {
      return fate.status();
    }
    if (fate.value() != Guardian::ActionFate::kCommitted) {
      return Status::IoError("setup action did not commit");
    }
    for (std::size_t i = 0; i < config_.objects_per_guardian; ++i) {
      model_[g][i] = 0;
    }
  }
  return Status::Ok();
}

Status WorkloadDriver::RunOneAction() {
  ++stats_.attempted;
  WorkloadObs::Get().attempted->Increment();

  // Choose 1..max_participants distinct alive guardians.
  std::size_t participant_count =
      1 + rng_.NextBelow(std::min(config_.max_participants, world_->guardian_count()));
  std::vector<std::uint32_t> participants;
  for (std::size_t tries = 0; tries < 16 && participants.size() < participant_count; ++tries) {
    std::uint32_t g = static_cast<std::uint32_t>(rng_.NextBelow(world_->guardian_count()));
    if (!world_->guardian(g).crashed() &&
        std::find(participants.begin(), participants.end(), g) == participants.end()) {
      participants.push_back(g);
    }
  }
  if (participants.empty()) {
    return Status::Ok();  // everyone is down right now
  }
  GuardianId coordinator{participants[0]};

  // Staged mutations, applied to the model only on commit.
  std::vector<std::tuple<std::uint32_t, std::size_t, std::int64_t>> staged;
  bool request_abort = rng_.NextBool(config_.abort_probability);

  Guardian& coord = world_->guardian(coordinator);
  ActionId aid = coord.BeginTopAction();
  obs::EmitBegin("workload.action", aid.sequence, participants.size(), coordinator.value);
  bool blocked = false;
  for (std::uint32_t g : participants) {
    std::size_t slot = rng_.NextBelow(config_.objects_per_guardian);
    std::int64_t value = static_cast<std::int64_t>(rng_.NextBelow(100000));
    Status s = world_->RunAt(aid, GuardianId{g}, [&](Guardian& guard, ActionContext& ctx) {
      Result<RecoverableObject*> obj = guard.GetStableVariable(aid, SlotName(slot));
      if (!obj.ok()) {
        return obj.status();
      }
      return ctx.UpdateObject(obj.value(), [value](Value& v) { v = Value::Int(value); });
    });
    if (!s.ok()) {
      blocked = true;  // lock conflict or guardian down
      break;
    }
    staged.emplace_back(g, slot, value);
    if (rng_.NextBool(config_.early_prepare_probability)) {
      Status ep = world_->guardian(g).EarlyPrepare(aid);
      if (!ep.ok()) {
        return ep;
      }
    }
  }

  if (blocked || request_abort) {
    coord.AbortTopAction(aid);
    world_->Pump();
    ++stats_.aborted;
    WorkloadObs::Get().aborted->Increment();
    obs::EmitEnd("workload.action", aid.sequence, 0);
    return Status::Ok();
  }

  Status s = coord.RequestCommit(aid);
  if (!s.ok()) {
    return s;
  }

  // Maybe crash a participant mid-protocol.
  if (rng_.NextBool(config_.crash_probability)) {
    std::uint64_t steps = rng_.NextBelow(4);
    for (std::uint64_t i = 0; i < steps; ++i) {
      world_->Step();
    }
    std::uint32_t victim = participants[rng_.NextBelow(participants.size())];
    world_->guardian(victim).Crash();
    ++stats_.crashes;
    world_->Pump();
    // If the coordinator itself died, nothing more to drive now; restart
    // everyone so the protocol can settle.
    Result<RecoveryInfo> info = world_->guardian(victim).Restart();
    if (!info.ok()) {
      return info.status();
    }
    world_->Pump();
    if (victim != coordinator.value) {
      // The coordinator may still be waiting for the victim's prepare: let it
      // give up if the action has not reached the commit point.
      coord.AbortTopAction(aid);
      world_->guardian(victim).RequeryOutstanding();
    }
    world_->Pump();
  } else {
    world_->Pump();
  }

  Guardian::ActionFate fate = coord.FateOf(aid);
  obs::EmitEnd("workload.action", aid.sequence,
               fate == Guardian::ActionFate::kCommitted ? 1 : 0);
  if (fate == Guardian::ActionFate::kCommitted) {
    ++stats_.committed;
    WorkloadObs::Get().committed->Increment();
    live_total_committed_.fetch_add(1, std::memory_order_relaxed);
    std::set<std::uint32_t> touched;
    for (const auto& [g, slot, value] : staged) {
      model_[g][slot] = value;
      touched.insert(g);
    }
    for (std::uint32_t g : touched) {
      live_[g].committed.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    ++stats_.aborted;
    WorkloadObs::Get().aborted->Increment();
  }

  // Per-guardian checkpoint policies (a crashed guardian skips its tick).
  for (std::uint32_t g = 0; g < world_->guardian_count(); ++g) {
    Result<bool> ran = world_->guardian(g).MaintenanceTick();
    if (!ran.ok()) {
      return ran.status();
    }
  }
  // Serial residency: every guardian with a memory budget sheds pressure
  // inline between actions (the concurrent driver uses background
  // ResidencyService threads instead).
  for (std::uint32_t g = 0; g < world_->guardian_count(); ++g) {
    if (world_->guardian(g).crashed()) {
      continue;
    }
    ResidencyManager* rm = world_->guardian(g).recovery().residency();
    if (rm != nullptr) {
      rm->RunEvictionPass();
      live_[g].resident_bytes.store(rm->resident_bytes(), std::memory_order_relaxed);
    }
  }
  return Status::Ok();
}

Status WorkloadDriver::Run(std::size_t actions) {
  if (config_.checkpoint.has_value()) {
    for (std::uint32_t g = 0; g < world_->guardian_count(); ++g) {
      if (world_->guardian(g).recovery().shard_count() > 1) {
        return Status::InvalidArgument(
            "checkpointing is not supported with sharded logs (housekeeping "
            "needs a cross-shard swap barrier)");
      }
    }
  }
  Status s = Status::Ok();
  if (config_.threads >= 1) {
    s = RunConcurrent(actions);
  } else {
    for (std::size_t i = 0; i < actions && s.ok(); ++i) {
      s = RunOneAction();
    }
    if (s.ok()) {
      world_->Pump();
    }
  }
  stats_.checkpoints = 0;
  for (std::uint32_t g = 0; g < world_->guardian_count(); ++g) {
    if (const CheckpointPolicy* policy = world_->guardian(g).maintenance()) {
      stats_.checkpoints += policy->checkpoints_taken();
    }
  }
  return s;
}

Status WorkloadDriver::RunOneConcurrentAction(Rng& rng, WorkloadStats& local, bool journal) {
  ++local.attempted;
  WorkloadObs::Get().attempted->Increment();
  // Pick among the guardians that are up: during a partial-world outage the
  // victims' volatile side (heap, recovery system) is gone, and traffic must
  // flow to the survivors — that flow is the liveness property under test.
  std::vector<std::uint32_t> alive = LiveGuardians();
  if (alive.empty()) {
    return Status::Ok();  // everyone is down right now; skip the slot
  }
  std::uint32_t g = alive[rng.NextBelow(alive.size())];
  Status s = RunOnGuardian(rng, g, local, journal);
  if (!s.ok()) {
    return Status(s.code(), "guardian " + std::to_string(g) + ": " + s.message());
  }
  return s;
}

Status WorkloadDriver::RunOnGuardian(Rng& rng, std::uint32_t g, WorkloadStats& local,
                                     bool journal) {
  Guardian& guard = world_->guardian(g);
  ActionId aid{GuardianId{g},
               next_concurrent_sequence_.fetch_add(1, std::memory_order_relaxed)};
  ActionContext ctx(aid);
  ResidencyManager* residency = guard.recovery().residency();
  if (residency != nullptr) {
    ctx.BindResidency(residency);
    // Live gauge sample; the atomic read needs no lock, and sampling once per
    // action keeps SnapshotLiveStats at most one action stale.
    live_[g].resident_bytes.store(residency->resident_bytes(), std::memory_order_relaxed);
  }
  bool request_abort = rng.NextBool(config_.abort_probability);
  const auto action_start = std::chrono::steady_clock::now();

  // The guardian's exclusion serializes volatile state (heap versions, locks,
  // model) and log staging; durability is awaited outside it, so concurrent
  // actions on one guardian coalesce their forces.
  std::unique_lock<std::mutex> l(guard.mutex());
  std::vector<JournalWrite> staged;
  for (std::size_t w = 0; w < kConcurrentWritesPerAction; ++w) {
    std::size_t slot = rng.NextBelow(config_.objects_per_guardian);
    if (std::any_of(staged.begin(), staged.end(),
                    [slot](const JournalWrite& j) { return j.slot == slot; })) {
      continue;  // each slot once: a second write would replace the action's own
    }
    // Unique values: the reconciler names the journal record that produced a
    // recovered slot by the value the slot holds.
    std::int64_t value = next_unique_value_.fetch_add(1, std::memory_order_relaxed);
    RecoverableObject* obj = guard.CommittedStableVariable(SlotName(slot));
    if (obj == nullptr) {
      return Status::Corruption("guardian " + std::to_string(g) + " lost " + SlotName(slot));
    }
    Status s = ctx.WriteObject(obj, Value::Int(value));
    if (!s.ok()) {
      continue;  // locked by an action that waits outside the exclusion; skip
    }
    // Under the write lock the base version is the committed value this
    // write replaces: what the action read.
    staged.push_back(JournalWrite{slot, value, obj->base_version().as_int()});
  }
  if (request_abort || staged.empty()) {
    // Never prepared: no log writes, the volatile rollback is the abort.
    ctx.AbortVolatile(guard.heap());
    ++local.aborted;
    WorkloadObs::Get().aborted->Increment();
    return Status::Ok();
  }
  if (rng.NextBool(config_.early_prepare_probability)) {
    Status ep = guard.EarlyPrepare(ctx);
    if (!ep.ok()) {
      return ep;
    }
  }
  // A kCrashed wake inside leaves the action prepared but undecided: presumed
  // abort resolves it at recovery; nothing was journaled or committed.
  Result<StagedOutcome> committed = guard.CommitLocal(ctx, l);
  if (!committed.ok()) {
    return committed.status();
  }
  // One mark, on the home shard. It carries the log generation read in this
  // critical section: if an online checkpoint swaps the log between our
  // unlock and the wait below, the epoch mismatch tells the coordinator the
  // address is from the retired (already-forced) log.
  const StagedMark commit_mark = committed.value().marks.front();
  // The window the flight recorder exists for: between this event and a
  // matching commit.durable, the commit entry is staged but not durable — a
  // coherent crash in that window makes the action in-doubt.
  obs::Emit("commit.stage", aid.sequence, commit_mark.address.offset, g);
  // The model update stays under the exclusion with the volatile commit, so
  // the model's order equals the log's staging order.
  for (const JournalWrite& w : staged) {
    model_[g][w.slot] = w.value;
  }
  CommittedRecord* record = nullptr;
  if (journal) {
    // Journal the commit in the same critical section as the staging, so the
    // journal order IS the staging order of the commit records — the
    // property the reconciliation rests on.
    journal_[g].emplace_back();
    record = &journal_[g].back();
    record->writes = std::move(staged);
    record->home_shard = commit_mark.shard;
  }
  ++local.committed;
  WorkloadObs::Get().committed->Increment();
  live_[g].committed.fetch_add(1, std::memory_order_relaxed);
  live_total_committed_.fetch_add(1, std::memory_order_relaxed);
  l.unlock();

  // The coalescing point: many actions block here on one physical flush.
  Status durable = guard.recovery().WaitDurable(committed.value());
  if (durable.ok()) {
    obs::Emit("commit.durable", aid.sequence, commit_mark.address.offset, g);
    if (record != nullptr) {
      record->durable.store(true, std::memory_order_release);
    }
    if (config_.commit_latency_ns) {
      config_.commit_latency_ns(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - action_start)
              .count()));
    }
  }
  return durable;
}

Status WorkloadDriver::RunConcurrent(std::size_t actions) {
  const std::size_t guardian_count = world_->guardian_count();
  const bool partials_enabled = config_.partial_crash_probability > 0.0;
  const bool crashes_enabled = config_.crash_probability > 0.0 || partials_enabled;
  std::mutex merge_mu;
  Status first_error = Status::Ok();

  if (partials_enabled && guardian_count < 2) {
    return Status::InvalidArgument(
        "partial_crash_probability needs >= 2 guardians: a partial crash kills a proper "
        "subset and asserts the survivors keep committing");
  }
  if (config_.recovery_faults.has_value()) {
    if (config_.crash_probability <= 0.0) {
      return Status::InvalidArgument(
          "recovery_faults only fire during post-crash recovery; set crash_probability > 0");
    }
    for (std::uint32_t g = 0; g < guardian_count; ++g) {
      RecoverySystem& rs = world_->guardian(g).recovery();
      for (std::uint32_t sh = 0; sh < rs.shard_count(); ++sh) {
        if (dynamic_cast<ReplicatedStableMedium*>(&rs.shard_log(sh).medium()) == nullptr) {
          return Status::InvalidArgument(
              "recovery_faults requires a replicated medium (kDuplexed/kReplicated: faults "
              "are injected at the simulated-disk layer under the replicated store)");
        }
      }
    }
  }
  if (config_.checkpoint.has_value()) {
    for (std::uint32_t g = 0; g < guardian_count; ++g) {
      if (world_->guardian(g).recovery().coordinator() == nullptr) {
        return Status::InvalidArgument(
            "concurrent checkpointing requires group commit: workers wait for "
            "durability outside the guardian's exclusion, and only the coordinator's "
            "epoch check resolves waits that race a log swap");
      }
    }
  }

  // Each guardian's background services: a CheckpointService when a policy is
  // configured and a ResidencyService when it has a memory budget, both
  // taking the guardian's exclusion as their exclusive section.
  // They hold pointers into one incarnation, so take-down stops them and
  // bring-up starts them on the next.
  struct GuardianServices {
    std::unique_ptr<CheckpointService> checkpoint;
    std::unique_ptr<ResidencyService> residency;
    // Set by the request of an event that takes this guardian down.
    std::atomic<bool> going_down{false};
    // Set by the swap hook when it abandons a checkpoint.
    std::atomic<bool> stood_down{false};
  };
  std::vector<GuardianServices> services(guardian_count);

  auto start_services = [&](std::uint32_t g) {
    Guardian& guard = world_->guardian(g);
    GuardianServices& svc = services[g];
    auto exclusive = [&guard](const std::function<void()>& fn) {
      std::lock_guard<std::mutex> l(guard.mutex());
      fn();
    };
    if (config_.checkpoint.has_value()) {
      // A mid-flight checkpoint abandons itself at its next boundary once its
      // own guardian is going down — except past the swap, where backing out
      // would lose the pending-pair rewrite; those last steps are quick and
      // touch no worker.
      guard.recovery().SetSwapCrashHook([&svc](const char* step, std::uint64_t) {
        if (!svc.going_down.load(std::memory_order_acquire) ||
            std::strcmp(step, "swapped") == 0 || std::strcmp(step, "rewritten") == 0) {
          return true;
        }
        svc.stood_down.store(true, std::memory_order_relaxed);
        return false;
      });
      svc.checkpoint = std::make_unique<CheckpointService>(
          &guard.recovery(), guard.maintenance(), exclusive, config_.checkpoint_mode);
      svc.checkpoint->Start();
    }
    if (ResidencyManager* rm = guard.recovery().residency(); rm != nullptr) {
      svc.residency = std::make_unique<ResidencyService>(rm, exclusive);
      svc.residency->Start();
    }
  };
  // Stops g's services. A checkpoint that stood down (abandoned by its hook,
  // or woken kCrashed in the swap barrier's drain) exits cleanly only when g
  // is going down; any other error is a failure.
  auto stop_services = [&](std::uint32_t g) -> Status {
    GuardianServices& svc = services[g];
    svc.residency.reset();
    Status err = Status::Ok();
    if (svc.checkpoint != nullptr) {
      svc.checkpoint->Stop();
      err = svc.checkpoint->last_error();
      svc.checkpoint.reset();
    }
    const bool stood_down = svc.stood_down.exchange(false, std::memory_order_relaxed) ||
                            err.code() == ErrorCode::kCrashed;
    const bool going_down = svc.going_down.exchange(false, std::memory_order_relaxed);
    if (err.ok() || (stood_down && going_down)) {
      return Status::Ok();
    }
    return Status(err.code(), "checkpoint service of guardian " + std::to_string(g) +
                                  (stood_down ? " stood down while the guardian stayed up: "
                                              : ": ") +
                                  err.message());
  };

  // Run by the requesting worker before it parks: marks the guardians the
  // event takes down and fails their force queues, so threads blocked in
  // WaitDurable on a victim wake kCrashed and park instead of waiting for a
  // flush that will never come. A survivor's waiters complete normally (a
  // waiter elected flush leader flushes synchronously) and park at their
  // next Poll.
  auto mark_going_down = [&](const std::vector<std::uint32_t>& victims) {
    for (std::uint32_t v : victims) {
      services[v].going_down.store(true, std::memory_order_release);
      world_->guardian(v).recovery().CrashCoordinators();
    }
  };

  // Sets `plan` on every replica but the highest-index one of each guardian's
  // replicated media. The last replica stays intact, so the quorum careful
  // read + fallback + re-duplexing deterministically succeed at any N (the
  // N=2 shape is the historical "disk A decays, B stays healthy"). Holds the
  // guardian's exclusion: a checkpoint service started by bring-up swaps the
  // log under it.
  auto set_recovery_faults = [&](const std::vector<std::uint32_t>& guardians,
                                 const DiskFaultPlan& plan) {
    for (std::uint32_t g : guardians) {
      std::lock_guard<std::mutex> l(world_->guardian(g).mutex());
      RecoverySystem& rs = world_->guardian(g).recovery();
      for (std::uint32_t sh = 0; sh < rs.shard_count(); ++sh) {
        auto* medium = dynamic_cast<ReplicatedStableMedium*>(&rs.shard_log(sh).medium());
        ARGUS_CHECK(medium != nullptr);  // validated before the storm
        ReplicatedStore& store = medium->store();
        for (std::uint32_t r = 0; r + 1 < store.replica_count(); ++r) {
          store.SetReplicaFaultPlan(r, plan);
        }
      }
    }
  };

  // The one take-down path. Services stop first (their pointers are about to
  // dangle), `faults` (if any) are armed for the recovery reads, and then the
  // victims crash at one instant: volatile state and staged log tails die
  // together.
  auto take_down = [&](const std::vector<std::uint32_t>& victims,
                       const std::optional<DiskFaultPlan>& faults) -> Status {
    for (std::uint32_t v : victims) {
      Status s = stop_services(v);
      if (!s.ok()) {
        return s;
      }
    }
    if (faults.has_value()) {
      set_recovery_faults(victims, *faults);
    }
    for (std::uint32_t v : victims) {
      world_->guardian(v).Crash();
      live_[v].crashed.store(true, std::memory_order_relaxed);
      live_[v].resident_bytes.store(0, std::memory_order_relaxed);
      if (config_.partition_during_outage) {
        world_->network().Partition(GuardianId{v});
      }
    }
    return Status::Ok();
  };

  // The one bring-up path: heal, restart every victim through full recovery,
  // pump once so presumed abort settles (and unlocks) what the restarts found
  // in doubt, reconcile each victim against its journal's durable prefix,
  // mark it up and, with `start`, restart its services. Ends any outage.
  auto bring_up = [&](std::vector<std::uint32_t> victims, bool start) -> Status {
    for (std::uint32_t v : victims) {
      if (config_.partition_during_outage) {
        world_->network().Heal(GuardianId{v});
      }
      Result<RecoveryInfo> info = world_->guardian(v).Restart();
      if (!info.ok()) {
        return Status(info.status().code(), "recovery of guardian " + std::to_string(v) + ": " +
                                                info.status().message());
      }
    }
    world_->Pump();
    for (std::uint32_t v : victims) {
      Status s = ReconcileOneGuardian(v);
      if (!s.ok()) {
        return s;
      }
      live_[v].crashed.store(false, std::memory_order_relaxed);
      if (start) {
        start_services(v);
      }
    }
    outage_victims_.clear();
    outage_active_.store(false, std::memory_order_release);
    return Status::Ok();
  };

  // The events, each run by the controller's elected executor while every
  // worker is parked — single-threaded ownership of the world.
  std::vector<std::uint32_t> everyone(guardian_count);
  std::iota(everyone.begin(), everyone.end(), 0u);

  // Full crash. One landing mid-outage subsumes the partial one: its victims
  // are already down and come back up with everyone else.
  auto crash_world = [&]() -> Status {
    // Capture the flight recorders first, while every worker is parked and
    // before any crash/recovery event overwrites the ring windows: staged-
    // but-undurable commits show as commit.stage events with no matching
    // commit.durable.
    last_crash_capture_ = obs::CaptureFlightRecorders();
    Status s = take_down(LiveGuardians(), config_.recovery_faults);
    if (s.ok()) {
      s = bring_up(everyone, /*start=*/true);
    }
    if (!s.ok()) {
      return s;
    }
    if (config_.recovery_faults.has_value()) {
      set_recovery_faults(everyone, DiskFaultPlan{});
    }
    ++stats_.crashes;
    return Status::Ok();
  };

  // Partial crash: only `victims` die. The survivors' state, journals and
  // services are untouched, and their traffic resumes the moment the barrier
  // releases, which is exactly what the liveness floor measures.
  auto partial_crash = [&](const std::vector<std::uint32_t>& victims) -> Status {
    ARGUS_CHECK(!outage_active_.load(std::memory_order_relaxed));
    Status s = take_down(victims, std::nullopt);
    if (!s.ok()) {
      return s;
    }
    for (std::uint32_t v : victims) {
      obs::Emit("workload.partial_crash", v, victims.size(),
                live_total_committed_.load(std::memory_order_relaxed));
    }
    // Forensic record: every parked worker's ring as of the instant the
    // subset died. A commit staged on a victim but never durability-confirmed
    // shows as a commit.stage (c = victim guardian) with no matching
    // commit.durable, and the workload.partial_crash markers just emitted
    // name the victims — taken after the take-down so the dump is
    // self-describing (only the executor's own ring gains those few events).
    last_crash_capture_ = obs::CaptureFlightRecorders();
    outage_victims_ = victims;
    outage_baseline_.store(live_total_committed_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    outage_active_.store(true, std::memory_order_release);
    ++stats_.partial_crashes;
    WorkloadObs::Get().partial_crashes->Increment();
    return Status::Ok();
  };

  // Partial recovery, gated by the liveness floor: bring the victims up, then
  // hold every survivor to a full-replay reconcile (nothing it committed may
  // have vanished — it never crashed). A survivor's services keep running, so
  // its reconcile holds its exclusion.
  auto partial_recover = [&]() -> Status {
    ARGUS_CHECK(outage_active_.load(std::memory_order_relaxed));
    const std::uint64_t growth = live_total_committed_.load(std::memory_order_relaxed) -
                                 outage_baseline_.load(std::memory_order_relaxed);
    if (growth < config_.min_survivor_commits) {
      return Status::Corruption(
          "survivor liveness violated: only " + std::to_string(growth) +
          " commits during the outage, floor is " +
          std::to_string(config_.min_survivor_commits));
    }
    const std::vector<std::uint32_t> victims = outage_victims_;
    const std::vector<std::uint32_t> survivors = LiveGuardians();
    Status s = bring_up(victims, /*start=*/true);
    if (!s.ok()) {
      return s;
    }
    for (std::uint32_t g : survivors) {
      std::lock_guard<std::mutex> l(world_->guardian(g).mutex());
      s = ReconcileOneGuardian(g, /*require_full_replay=*/true);
      if (!s.ok()) {
        return Status(s.code(), "survivor " + std::to_string(g) + ": " + s.message());
      }
    }
    for (std::uint32_t v : victims) {
      obs::Emit("workload.partial_recover", v, victims.size(), growth);
    }
    ++stats_.partial_recoveries;
    stats_.min_outage_survivor_commits =
        std::min(stats_.min_outage_survivor_commits, growth);
    WorkloadObs::Get().partial_recoveries->Increment();
    return Status::Ok();
  };

  // Journal values must differ from every base value, or the reconciler could
  // not name records by value; a serial Run leaves model values up to 99 999.
  for (const auto& slots : model_) {
    for (const auto& [slot, value] : slots) {
      if (next_unique_value_.load(std::memory_order_relaxed) <= value) {
        next_unique_value_.store(value + 1, std::memory_order_relaxed);
      }
    }
  }

  std::unique_ptr<CrashController> controller;
  if (crashes_enabled) {
    journal_.clear();
    journal_.resize(guardian_count);
    crash_base_.assign(guardian_count, {});
    for (std::uint32_t g = 0; g < guardian_count; ++g) {
      crash_base_[g].assign(config_.objects_per_guardian, 0);
      for (const auto& [slot, value] : model_[g]) {
        if (slot < config_.objects_per_guardian) {
          crash_base_[g][slot] = value;
        }
      }
    }
    controller = std::make_unique<CrashController>(config_.threads);
  }

  for (std::uint32_t g = 0; g < guardian_count; ++g) {
    start_services(g);
  }

  stats_.per_thread_failures.assign(config_.threads, 0);
  std::vector<std::thread> workers;
  workers.reserve(config_.threads);
  for (std::size_t t = 0; t < config_.threads; ++t) {
    std::size_t quota = actions / config_.threads + (t < actions % config_.threads ? 1 : 0);
    workers.emplace_back([this, t, quota, &merge_mu, &first_error, &controller,
                          &mark_going_down, &crash_world, &partial_crash, &partial_recover] {
      Rng rng(config_.seed + 0x9e3779b97f4a7c15ull * (t + 1));
      WorkloadStats local;
      std::uint64_t failures = 0;
      Status status = Status::Ok();
      for (std::size_t i = 0; i < quota; ++i) {
        if (controller != nullptr) {
          // Preemption point: park here if an event is pending.
          status = controller->Poll();
          if (!status.ok()) {
            break;
          }
          if (rng.NextBool(config_.crash_probability)) {
            status = controller->RequestEvent(
                crash_world, [this, &mark_going_down] { mark_going_down(LiveGuardians()); });
            if (!status.ok()) {
              break;
            }
          }
          if (config_.partial_crash_probability > 0.0) {
            // The outage flag only flips inside a barrier event, which needs
            // THIS thread parked — so the value read here cannot go stale
            // between the check and the request. A request that loses the
            // race to another pending event is simply dropped (the closure
            // never runs) and this thread parks through the winner.
            if (!outage_active_.load(std::memory_order_acquire) &&
                rng.NextBool(config_.partial_crash_probability)) {
              std::vector<std::uint32_t> victims = PickVictims(rng);
              status = controller->RequestEvent(
                  [&partial_crash, victims] { return partial_crash(victims); },
                  [&mark_going_down, &victims] { mark_going_down(victims); });
              if (!status.ok()) {
                break;
              }
            } else if (outage_active_.load(std::memory_order_acquire) &&
                       live_total_committed_.load(std::memory_order_relaxed) -
                               outage_baseline_.load(std::memory_order_relaxed) >=
                           config_.min_survivor_commits &&
                       rng.NextBool(config_.partial_recover_probability)) {
              status = controller->RequestEvent(partial_recover);
              if (!status.ok()) {
                break;
              }
            }
          }
        }
        status = RunOneConcurrentAction(rng, local, controller != nullptr);
        if (!status.ok()) {
          ++failures;
          if (status.code() == ErrorCode::kCrashed) {
            // The action's durability wait was cut short by a coherent
            // crash: in doubt, not an error. Reconciliation decides its fate;
            // the next Poll() parks this thread through the recovery.
            ++local.in_doubt;
            WorkloadObs::Get().in_doubt->Increment();
            status = Status::Ok();
            continue;
          }
          status = Status(status.code(), "thread " + std::to_string(t) + ", action #" +
                                             std::to_string(i) + ": " + status.message());
          break;
        }
      }
      if (controller != nullptr) {
        controller->Deregister();
      }
      std::lock_guard<std::mutex> l(merge_mu);
      stats_.attempted += local.attempted;
      stats_.committed += local.committed;
      stats_.aborted += local.aborted;
      stats_.in_doubt += local.in_doubt;
      stats_.per_thread_failures[t] = failures;
      if (!status.ok() && first_error.ok()) {
        first_error = status;
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  // A storm that ends mid-outage brings its victims back, so the checks below
  // see a whole world. Not counted as a recovery: no worker requested it, and
  // the liveness floor may legitimately not have been reached.
  if (first_error.ok() && outage_active_.load(std::memory_order_relaxed)) {
    first_error = bring_up(outage_victims_, /*start=*/false);
  }
  // End-of-run checks on every live guardian: its checkpoint service never
  // stood down (stop_services), and none of its slots is still write-locked —
  // a lock that outlives the run belongs to an in-doubt action that presumed
  // abort never settled.
  for (std::uint32_t g = 0; g < guardian_count; ++g) {
    Status s = stop_services(g);
    if (first_error.ok() && !s.ok()) {
      first_error = s;
    }
    Guardian& guard = world_->guardian(g);
    if (guard.crashed()) {
      continue;
    }
    guard.recovery().SetSwapCrashHook(nullptr);  // it points into `services`
    for (std::size_t slot = 0; slot < config_.objects_per_guardian && first_error.ok(); ++slot) {
      RecoverableObject* obj = guard.CommittedStableVariable(SlotName(slot));
      if (obj != nullptr && obj->write_locker().has_value()) {
        first_error = Status::Corruption("guardian " + std::to_string(g) + " " + SlotName(slot) +
                                         " is still write-locked by " +
                                         to_string(*obj->write_locker()) + " after the run");
      }
    }
  }
  return first_error;
}

Status WorkloadDriver::ReconcileOneGuardian(std::uint32_t g, bool require_full_replay) {
  Guardian& guard = world_->guardian(g);
  // The oracle reads committed base versions directly; rematerialize any
  // stubs first (a crashed guardian recovers fully resident, but a survivor
  // may have evicted mid-outage).
  if (ResidencyManager* rm = guard.recovery().residency(); rm != nullptr) {
    Status ms = rm->MaterializeAll();
    if (!ms.ok()) {
      return Status(ms.code(),
                    "guardian " + std::to_string(g) + " rematerialize: " + ms.message());
    }
  }
  std::vector<Value> recovered;
  recovered.reserve(config_.objects_per_guardian);
  for (std::size_t slot = 0; slot < config_.objects_per_guardian; ++slot) {
    RecoverableObject* obj = guard.CommittedStableVariable(SlotName(slot));
    if (obj == nullptr) {
      return Status::Corruption("guardian " + std::to_string(g) + " lost " + SlotName(slot) +
                                " across the crash");
    }
    recovered.push_back(obj->base_version());
  }

  // A record certainly survived if it is durably confirmed or if a recovered
  // slot holds one of its (unique) values. Each home shard forces its commit
  // records in staging order, which is journal order, so on every home shard
  // the survivors are the journal prefix up to the newest such record. A
  // survivor (never crashed) keeps its whole journal.
  std::deque<CommittedRecord>& journal = journal_[g];
  std::map<std::uint32_t, std::size_t> survivors_end;  // home shard -> prefix end
  for (std::size_t p = 0; p < journal.size(); ++p) {
    bool survived = require_full_replay || journal[p].durable.load(std::memory_order_acquire);
    for (const JournalWrite& w : journal[p].writes) {
      survived = survived || recovered[w.slot] == Value::Int(w.value);
    }
    if (survived) {
      survivors_end[journal[p].home_shard] = p + 1;
    }
  }

  // Replaying the base plus the survivors in journal order must reproduce
  // the recovered state exactly: nothing lost, nothing partial, nothing
  // invented. Each survivor must also find in the replay the value it read
  // (values are unique, so another value means its source was lost).
  std::vector<std::int64_t> state = crash_base_[g];
  std::size_t replayed = 0;
  for (std::size_t p = 0; p < journal.size(); ++p) {
    if (p >= survivors_end[journal[p].home_shard]) {
      continue;
    }
    ++replayed;
    for (const JournalWrite& w : journal[p].writes) {
      if (state[w.slot] != w.replaced) {
        return Status::Corruption("guardian " + std::to_string(g) + " " + SlotName(w.slot) +
                                  ": surviving commit #" + std::to_string(p) + " read " +
                                  std::to_string(w.replaced) +
                                  " from a commit the crash lost (the survivors before it "
                                  "leave " +
                                  std::to_string(state[w.slot]) + ")");
      }
      state[w.slot] = w.value;
    }
  }
  for (std::size_t slot = 0; slot < state.size(); ++slot) {
    if (!(Value::Int(state[slot]) == recovered[slot])) {
      return Status::Corruption(
          "guardian " + std::to_string(g) + " " + SlotName(slot) + " = " +
          recovered[slot].ToString() + " but replaying " + std::to_string(replayed) + " of " +
          std::to_string(journal.size()) + " journaled commits gives " +
          std::to_string(state[slot]) +
          (require_full_replay ? " — a commit vanished without a crash"
                               : " — committed work was lost, or a partial or invented "
                                 "action survived"));
    }
  }
  // The in-doubt records beyond each home shard's prefix vanished with the
  // staged log. Rebase the oracle so post-recovery traffic verifies against
  // reality.
  crash_base_[g] = state;
  for (std::size_t slot = 0; slot < state.size(); ++slot) {
    model_[g][slot] = state[slot];
  }
  journal.clear();
  return Status::Ok();
}

Result<std::size_t> WorkloadDriver::VerifyAfterCrash() {
  // Settle in-flight work first: any still-undecided coordinator gives up.
  world_->Pump();
  for (std::uint32_t g = 0; g < world_->guardian_count(); ++g) {
    if (world_->guardian(g).crashed()) {
      Result<RecoveryInfo> info = world_->guardian(g).Restart();
      if (!info.ok()) {
        return info.status();
      }
    }
  }
  world_->Pump();

  // Full-world crash and recovery.
  for (std::uint32_t g = 0; g < world_->guardian_count(); ++g) {
    world_->guardian(g).Crash();
  }
  for (std::uint32_t g = 0; g < world_->guardian_count(); ++g) {
    Result<RecoveryInfo> info = world_->guardian(g).Restart();
    if (!info.ok()) {
      return info.status();
    }
  }
  world_->Pump();

  std::size_t checked = 0;
  for (std::uint32_t g = 0; g < world_->guardian_count(); ++g) {
    for (const auto& [slot, expected] : model_[g]) {
      RecoverableObject* obj =
          world_->guardian(g).CommittedStableVariable(SlotName(slot));
      if (obj == nullptr) {
        return Status::Corruption("guardian " + std::to_string(g) + " lost " +
                                  SlotName(slot));
      }
      // In-flight prepared actions may still hold tentative versions; the
      // COMMITTED (base) state must match the model exactly.
      if (!(obj->base_version() == Value::Int(expected))) {
        return Status::Corruption(
            "guardian " + std::to_string(g) + " " + SlotName(slot) + " = " +
            obj->base_version().ToString() + ", model says " + std::to_string(expected));
      }
      ++checked;
    }
  }
  return checked;
}

}  // namespace argus
