// Workload `twophase`: serial two-phase commit over guardians whose objects do
// not all fit in memory.
//
// Three guardians built from Guardian + SimNetwork (so each medium can be
// wrapped), on duplexed media behind the same device model as `commit`
// (100 µs per Append), each holding 1024 stable variables of 512 bytes. Here
// the model spins out the 100 µs rather than sleeping: an action waits for
// about five forces in a row, and on a loaded host a late wake-up from one of
// those sleeps was common enough to move commit p99 from 1.6 to 5.8 ms
// between runs of one program; spinning held it at 1.35-1.41 ms. One
// action at a time: it touches 2 guardians (70%) or 1 and writes 2 objects at
// each; 5% are client aborts and 20% of the participants early-prepare.
// Between actions every guardian runs its checkpoint policy (a snapshot once
// its log has grown by 1 MiB) and one eviction pass against a budget of a
// quarter of its all-resident bytes.
//
// restart_ms: in the timed phase, whenever a guardian's checkpoint falls due
// (its log is then at its longest in the checkpoint cycle: a snapshot plus
// 1 MiB of tail), the log's bytes are laid into two fresh duplexed media, and
// each copy is opened and recovered (timed; the faster is the sample) and its
// state checked against the model; then the checkpoint runs. The restarts thus
// fall all through the run, so a spell of load on a shared host moves few of
// them, and the guardian runs on untouched: crashing it mid-run left later
// actions a cold cache and a re-grown resident set, which cost 14% of commit
// throughput and moved commit p99 between seeds. Copying and checking are kept
// out of the timed phase's figures.
//
// Single-threaded: a layer's self time shows one-for-one in commit latency,
// and every count repeats exactly for a seed. It is the only workload with
// 2PC messages, root-record lookups, residency faults (point reads through
// the ReadCache, interleaved with writes) and checkpoints. Without the device
// model the run-to-run spread of commit latency on a shared 4-vCPU host was
// 0.12-0.33 of the median, so the forces are device-bound here too. One and
// two guardians split 30/70 rather than 50/50: an even split put the median
// commit in the gap between the one-guardian and the two-guardian latency
// modes, where it jumped between them from seed to seed.

#include <cmath>

#include "perfbench/src/harness.h"
#include "src/recovery/checkpoint_policy.h"
#include "src/stable/duplexed_medium.h"
#include "src/tpc/guardian.h"

namespace perfbench {

namespace {

using argus::ActionId;
using argus::Guardian;
using argus::GuardianId;
using argus::Value;

constexpr std::uint32_t kGuardians = 3;
constexpr std::size_t kObjects = 1024;
constexpr std::size_t kPayload = 512;
constexpr std::size_t kWritesPerGuardian = 2;
constexpr double kTwoGuardians = 0.70;
constexpr double kClientAbort = 0.05;
constexpr std::chrono::microseconds kDeviceAppend{100};
// Timed restarts of a copy of the log each time a checkpoint falls due.
constexpr int kRestartsWhenDue = 2;
constexpr double kEarlyPrepare = 0.20;
constexpr std::uint64_t kCheckpointGrowth = 1 << 20;
// In --small mode, so that checkpoints and restarts fall due in a few hundred
// actions.
constexpr std::uint64_t kSmallCheckpointGrowth = 32 << 10;
// Fixed work: actions per second of --seconds (about --seconds of timed phase
// on a 4-core host).
constexpr double kActionsPerSecond = 600.0;
// Rounds of identical shape (fresh set-up, a share of the timed work, oracle),
// so set-up is timed several times per run.
constexpr int kRounds = 5;

struct World {
  argus::SimNetwork network;
  std::vector<argus::RecoverySystemConfig> configs;
  std::vector<std::unique_ptr<Guardian>> guardians;
  std::vector<argus::CheckpointPolicy> policies;
  std::vector<std::vector<std::string>> model;  // [guardian][slot] committed payload
  std::uint64_t seed;
  std::uint64_t copies = 0;  // log copies made, for their media's seeds

  explicit World(std::uint64_t world_seed) : network(world_seed), seed(world_seed) {}

  void Pump() {
    while (std::optional<argus::Message> m = network.NextDelivery()) {
      guardians[m->to.value]->HandleMessage(*m);
    }
  }

  std::uint64_t LogBytes() const {
    std::uint64_t bytes = 0;
    for (const auto& g : guardians) {
      bytes += g->recovery().log().durable_size();
    }
    return bytes;
  }
};

// Resident bytes of a guardian with every object in memory: the objects'
// payloads plus the root record naming them. The residency budget is a
// quarter of this.
std::uint64_t AllResidentBytes() {
  Value::Record root;
  for (std::size_t i = 0; i < kObjects; ++i) {
    root[SlotName(i)] = Value::Ref(nullptr);
  }
  return kObjects * Value::Str(std::string(kPayload, 'x')).ApproxBytes() +
         Value::OfRecord(std::move(root)).ApproxBytes();
}

Status Populate(World& w, std::uint32_t g, std::uint64_t tag) {
  constexpr std::size_t kObjectsPerAction = 128;
  Guardian& guard = *w.guardians[g];
  for (std::size_t first = 0; first < kObjects; first += kObjectsPerAction) {
    ActionId aid = guard.BeginTopAction();
    argus::ActionContext& ctx = guard.ContextFor(aid);
    for (std::size_t i = first; i < first + kObjectsPerAction; ++i) {
      w.model[g][i] = MakePayload(kPayload, Mix(tag, i));
      argus::RecoverableObject* obj = ctx.CreateAtomic(guard.heap(), Value::Str(w.model[g][i]));
      Status s = guard.SetStableVariable(aid, SlotName(i), obj);
      if (!s.ok()) {
        return s;
      }
    }
    Status s = guard.RequestCommit(aid);
    if (!s.ok()) {
      return s;
    }
    w.Pump();
    if (guard.FateOf(aid) != Guardian::ActionFate::kCommitted) {
      return Status::IoError("set-up action did not commit");
    }
  }
  return Status::Ok();
}

// The durability oracle for one guardian: every stable variable must hold the
// payload of its last acknowledged commit.
Status Check(World& w, std::uint32_t g) {
  Guardian& guard = *w.guardians[g];
  if (argus::ResidencyManager* rm = guard.recovery().residency()) {
    Status s = rm->MaterializeAll();
    if (!s.ok()) {
      return s;
    }
  }
  for (std::size_t i = 0; i < kObjects; ++i) {
    argus::RecoverableObject* obj = guard.CommittedStableVariable(SlotName(i));
    if (obj == nullptr) {
      return Status::Corruption("guardian " + std::to_string(g) + " lost " + SlotName(i));
    }
    const Value& v = obj->base_version();
    if (!v.is_str() || v.as_str() != w.model[g][i]) {
      return Status::Corruption("guardian " + std::to_string(g) + " " + SlotName(i) +
                                " differs from its last acknowledged commit");
    }
  }
  return Status::Ok();
}

// What the restarts inside a timed phase took, to be kept out of its figures.
struct Pause {
  double s = 0;
  MediaSnapshot media;
  RegistrySnapshot registry;
};

// Guardian `g` is due a checkpoint: restart copies of its log (timed) and
// check each recovered state against the model.
void RestartCopies(World& w, std::uint32_t g, PassResult* out, Pause* pause) {
  const std::int64_t t0 = NowNs();
  const MediaSnapshot media0 = SnapshotMedia();
  const RegistrySnapshot registry0 = SnapshotRegistry();
  argus::StableMedium& live = w.guardians[g]->recovery().log().medium();
  std::vector<std::byte> bytes(live.durable_size());
  Status s = live.ReadInto(0, std::span<std::byte>(bytes.data(), bytes.size()));
  if (!s.ok()) {
    out->Fail("log read: " + s.ToString());
  }
  const std::size_t first_restart = out->restart_ms.size();
  for (int k = 0; k < kRestartsWhenDue && s.ok(); ++k) {
    auto copy = std::make_unique<argus::DuplexedStableMedium>(Mix(w.seed, 1000 + w.copies++));
    s = copy->Append(std::span<const std::byte>(bytes.data(), bytes.size()));
    if (!s.ok()) {
      out->Fail("log copy: " + s.ToString());
      break;
    }
    LocalGuardian restarted;
    restarted.config = w.configs[g];
    restarted.slots.assign(kObjects, nullptr);
    restarted.model = w.model[g];
    s = TimedRestart(out, [&] {
      std::unique_ptr<argus::StableLog> log;
      {
        Span open(SpanName::kLogOpen);
        log = std::make_unique<argus::StableLog>(std::make_unique<MeteredMedium>(std::move(copy)));
      }
      return restarted.Recover(std::move(log));
    });
    if (!s.ok()) {
      break;
    }
    ++out->attempted;
    if (argus::ResidencyManager* rm = restarted.rs->residency()) {
      s = rm->MaterializeAll();
    }
    if (s.ok()) {
      s = restarted.ResolveAndCheck();
    }
    if (!s.ok()) {
      out->Fail("oracle after restart: " + s.ToString());
    }
  }
  out->EndRestartEvent(first_restart);
  pause->s += static_cast<double>(NowNs() - t0) / 1e9;
  pause->media += SnapshotMedia() - media0;
  pause->registry += SnapshotRegistry() - registry0;
}

// One action, then the between-action housekeeping. `pause` is set in the
// timed phase only: there a due checkpoint is preceded by RestartCopies.
void Act(World& w, argus::Rng& rng, std::uint64_t tag, bool timed, PassResult* out,
         Pause* pause) {
  ++out->attempted;
  std::vector<std::uint32_t> participants{static_cast<std::uint32_t>(rng.NextBelow(kGuardians))};
  if (rng.NextBool(kTwoGuardians)) {
    std::uint32_t other = static_cast<std::uint32_t>(rng.NextBelow(kGuardians - 1));
    participants.push_back(other >= participants[0] ? other + 1 : other);
  }
  const bool client_abort = rng.NextBool(kClientAbort);
  struct Write {
    std::uint32_t guardian;
    std::size_t slot;
    std::string value;
  };
  std::vector<Write> writes;
  std::vector<bool> early;
  for (std::uint32_t g : participants) {
    std::size_t first = static_cast<std::size_t>(rng.NextBelow(kObjects));
    std::size_t second = static_cast<std::size_t>(rng.NextBelow(kObjects - 1));
    second = second >= first ? second + 1 : second;
    writes.push_back({g, first, MakePayload(kPayload, Mix(tag, writes.size()))});
    writes.push_back({g, second, MakePayload(kPayload, Mix(tag, writes.size()))});
    early.push_back(rng.NextBool(kEarlyPrepare));
  }

  Guardian& coordinator = *w.guardians[participants[0]];
  Status status = Status::Ok();
  Guardian::ActionFate fate = Guardian::ActionFate::kUnknown;
  std::int64_t start = 0;
  std::int64_t end = 0;
  {
    Span action(SpanName::kAction);
    start = NowNs();
    ActionId aid = coordinator.BeginTopAction();
    for (std::size_t p = 0; p < participants.size() && status.ok(); ++p) {
      Guardian& guard = *w.guardians[participants[p]];
      argus::ActionContext& ctx = guard.ContextFor(aid);
      for (std::size_t k = 0; k < kWritesPerGuardian && status.ok(); ++k) {
        const Write& write = writes[p * kWritesPerGuardian + k];
        std::optional<Result<argus::RecoverableObject*>> obj;
        {
          Span lookup(SpanName::kLookup);
          obj.emplace(guard.GetStableVariable(aid, SlotName(write.slot)));
        }
        if (!obj->ok()) {
          status = obj->status();
          break;
        }
        const double faults_before = ResidencyFaultNs();
        const std::uint64_t reads_before = SnapshotMedia().read_ns;
        {
          Span span(SpanName::kObjectWrite);
          status = ctx.WriteObject(obj->value(), Value::Str(write.value));
        }
        const double fault_ns = ResidencyFaultNs() - faults_before;
        out->write_fault_ns += fault_ns;
        out->write_fault_self_ns +=
            fault_ns - static_cast<double>(SnapshotMedia().read_ns - reads_before);
      }
      coordinator.EnlistParticipant(aid, guard.gid());
      if (status.ok() && early[p]) {
        Span stage(SpanName::kStage);
        status = guard.EarlyPrepare(aid);
      }
    }
    {
      Span protocol(SpanName::kProtocol);
      if (status.ok() && !client_abort) {
        status = coordinator.RequestCommit(aid);
      } else {
        coordinator.AbortTopAction(aid);
      }
      w.Pump();
    }
    fate = coordinator.FateOf(aid);
    end = NowNs();
  }

  if (!status.ok()) {
    out->Fail("action: " + status.ToString());
  } else if (client_abort) {
    ++out->client_aborts;
  } else if (fate != Guardian::ActionFate::kCommitted) {
    out->Fail("action did not commit");
  } else {
    for (const Write& write : writes) {
      w.model[write.guardian][write.slot] = write.value;
    }
    if (timed) {
      out->commit_us.push_back(static_cast<double>(end - start) / 1e3);
      ++out->committed;
      out->payload_bytes += writes.size() * kPayload;
    }
  }
  if (timed) {
    out->space_sum += static_cast<double>(w.LogBytes()) /
                      static_cast<double>(kGuardians * kObjects * kPayload);
    ++out->space_samples;
  }

  // Between actions: due checkpoints, then one eviction pass per guardian.
  for (std::uint32_t g = 0; g < kGuardians; ++g) {
    argus::RecoverySystem& rs = w.guardians[g]->recovery();
    if (w.policies[g].ShouldHousekeep(rs)) {
      if (pause != nullptr) {
        RestartCopies(w, g, out, pause);
      }
      Result<bool> ran = false;
      {
        Span checkpoint(SpanName::kCheckpoint);
        ran = w.policies[g].MaybeHousekeep(rs);
      }
      if (!ran.ok()) {
        out->Fail("checkpoint: " + ran.status().ToString());
      } else if (ran.value() && timed) {
        ++out->checkpoints;
      }
    }
    Span pass(SpanName::kResidencyPass);
    rs.residency()->RunEvictionPass();
  }
}

}  // namespace

Status RunTwoPhase(const Options& options, PassResult* out) {
  const std::size_t total =
      options.small ? 600 : static_cast<std::size_t>(std::llround(options.seconds * kActionsPerSecond));
  const std::size_t per_round = std::max<std::size_t>(1, total / static_cast<std::size_t>(kRounds));
  const std::size_t warmup = options.small ? 20 : 256;
  const std::uint64_t growth = options.small ? kSmallCheckpointGrowth : kCheckpointGrowth;
  const std::uint64_t budget = AllResidentBytes() / 4;
  out->stamp["guardians"] = std::to_string(kGuardians);
  out->stamp["actions"] = std::to_string(per_round * static_cast<std::size_t>(kRounds));
  out->stamp["objects_per_guardian"] = std::to_string(kObjects);
  out->stamp["payload_bytes"] = std::to_string(kPayload);
  out->stamp["residency_budget_bytes"] = std::to_string(budget);
  out->stamp["checkpoint_growth_bytes"] = std::to_string(growth);
  out->stamp["medium"] = "duplexed";
  out->stamp["device_append_us"] = std::to_string(kDeviceAppend.count()) + " (spin)";
  out->stamp["rounds"] = std::to_string(kRounds);

  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t round_start = NowNs();
    const std::uint64_t round_seed = Mix(options.seed, static_cast<std::uint64_t>(round));
    World w(round_seed);
    w.model.assign(kGuardians, std::vector<std::string>(kObjects));
    argus::CheckpointPolicyConfig policy;
    policy.log_growth_bytes = growth;
    policy.entries_since_checkpoint = 0;
    policy.method = argus::HousekeepingMethod::kSnapshot;
    for (std::uint32_t g = 0; g < kGuardians; ++g) {
      argus::RecoverySystemConfig config;
      config.mode = argus::LogMode::kHybrid;
      config.medium_factory = [seed = Mix(round_seed, 10 + g)] {
        return std::make_unique<MeteredMedium>(std::make_unique<argus::DuplexedStableMedium>(seed),
                                               kDeviceAppend, DeviceWait::kSpin);
      };
      config.residency.mem_budget_bytes = budget;
      w.configs.push_back(config);
      w.guardians.push_back(std::make_unique<Guardian>(GuardianId{g}, config, &w.network));
      Status s = Populate(w, g, Mix(round_seed, 20 + g));
      if (!s.ok()) {
        out->Fail("set-up: " + s.ToString());
        return s;
      }
      w.policies.emplace_back(policy);
      w.policies.back().Rearm(w.guardians[g]->recovery());
    }

    argus::Rng rng(Mix(round_seed, 1));
    const std::uint64_t stream = Mix(round_seed, 2);
    PassResult warm;
    for (std::size_t n = 0; n < warmup; ++n) {
      Act(w, rng, Mix(stream, n), false, &warm, nullptr);
    }
    out->attempted += warm.attempted;
    out->failed += warm.failed;

    const MediaSnapshot media0 = SnapshotMedia();
    const RegistrySnapshot registry0 = SnapshotRegistry();
    const std::size_t first_sample = out->commit_us.size();
    const std::uint64_t committed_before = out->committed;
    const std::int64_t t0 = NowNs();
    out->setup_s.push_back(static_cast<double>(t0 - round_start) / 1e9);
    Pause pause;
    {
      TraceWindow window(options.trace);
      for (std::size_t n = 0; n < per_round; ++n) {
        Act(w, rng, Mix(stream, warmup + n), true, out, &pause);
      }
    }
    const double round_s = static_cast<double>(NowNs() - t0) / 1e9 - pause.s;
    out->EndRound(first_sample, round_s, out->committed - committed_before);
    out->media += (SnapshotMedia() - media0) - pause.media;
    out->registry += (SnapshotRegistry() - registry0) - pause.registry;

    // Durability oracle per guardian: crash, recover over the log as the
    // timed phase left it, and compare.
    for (std::uint32_t g = 0; g < kGuardians; ++g) {
      Guardian& guard = *w.guardians[g];
      guard.Crash();
      ++out->attempted;
      Result<argus::RecoveryInfo> tail = guard.Restart();
      Status s = tail.ok() ? Check(w, g) : tail.status();
      if (!s.ok()) {
        out->Fail("oracle after the timed phase: " + s.ToString());
      }
    }
  }
  return Status::Ok();
}

}  // namespace perfbench
