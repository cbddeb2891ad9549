// Recovery-equivalence property test for sharded guardian logs (label:
// concurrency, runs under the TSan CI job).
//
// Properties:
//  1. Determinism: parallel N-shard recovery (a worker pool over the shards)
//     produces OT/PT/CT/MT/AS bit-identical to the serial, inline per-shard
//     recovery of the SAME logs — worker scheduling must not leak into the
//     result.
//  2. Semantic equivalence: the same seeded workload driven against a
//     1-shard guardian and an N-shard guardian recovers to the same logical
//     state (PT, CT, AS, and every object's flattened versions), even though
//     the physical entry layout is completely different.
//  3. Fault isolation and retry: a mid-recovery fault confined to ONE shard
//     (both duplexed replicas transiently unreadable — the moral equivalent
//     of that shard's recovery worker dying) fails the whole recovery with
//     the failing shard's error, and a healed retry from the same surviving
//     logs succeeds with the exact serial-equivalent result. The same
//     heal-and-retry works through Guardian::Restart, which must reclaim the
//     surviving state from a failed incarnation instead of stranding it.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/object/flatten.h"
#include "src/obs/metrics.h"
#include "src/recovery/recovery_algorithms.h"
#include "src/stable/duplexed_medium.h"
#include "src/tpc/sim_world.h"
#include "tests/test_support.h"

namespace argus {
namespace {

// ---- Seeded sharded history builder --------------------------------------

struct ShardHistoryConfig {
  std::uint64_t seed = 1;
  std::uint32_t shards = 4;
  bool duplexed = false;
  std::uint32_t disk_seed = 9100;
  std::size_t steps = 50;
};

RecoverySystemConfig MakeShardedConfig(const ShardHistoryConfig& config) {
  RecoverySystemConfig rs_config;
  rs_config.mode = LogMode::kHybrid;
  if (config.duplexed) {
    std::uint32_t disk_seed = config.disk_seed;
    rs_config.medium_factory = [disk_seed] {
      return std::make_unique<DuplexedStableMedium>(disk_seed);
    };
  } else {
    rs_config.medium_factory = [] { return std::make_unique<InMemoryStableMedium>(); };
  }
  rs_config.log_shards = config.shards;
  rs_config.shard_salt = config.seed;  // distinct seeds exercise distinct routings
  return rs_config;
}

// Runs a deterministic mixed workload (committed, aborted, undecided,
// early-prepared, coordinator entries) against a guardian stack with the
// given shard count. All randomness flows from the seed, so two builders
// with the same seed issue the SAME logical operations regardless of how
// many shards the entries land on.
class ShardedHistoryBuilder {
 public:
  explicit ShardedHistoryBuilder(const ShardHistoryConfig& config)
      : config_(config), harness_(std::make_unique<StorageHarness>(MakeShardedConfig(config))) {}

  RecoverySystem::SurvivingState BuildAndCrash() {
    Rng rng(config_.seed);
    StorageHarness& h = *harness_;

    ActionId t0 = Aid(next_seq_++);
    for (int i = 0; i < 6; ++i) {
      RecoverableObject* a = h.ctx(t0).CreateAtomic(h.heap(), Value::Int(i));
      EXPECT_TRUE(h.BindStable(t0, "a" + std::to_string(i), a).ok());
    }
    EXPECT_TRUE(h.PrepareAndCommit(t0).ok());

    for (std::size_t step = 0; step < config_.steps; ++step) {
      switch (rng.NextBelow(8)) {
        case 0:
        case 1:
        case 2:
          CommitRandomWrites(rng);
          break;
        case 3:
          PrepareUndecided(rng);
          break;
        case 4:
          PrepareThenAbort(rng);
          break;
        case 5:
          CoordinatorActivity(rng);
          break;
        case 6:
          CreateAndCommitObject(rng);
          break;
        case 7:
          EarlyPrepareTrailingData(rng);
          break;
      }
    }
    return h.rs().TakeSurvivingState();
  }

 private:
  RecoverableObject* PickUnlocked(Rng& rng) {
    std::vector<RecoverableObject*> candidates;
    const Value& root = harness_->heap().root()->base_version();
    if (!root.is_record()) {
      return nullptr;
    }
    for (const auto& [name, value] : root.as_record()) {
      if (value.is_ref() && !value.as_ref()->is_mutex() && !value.as_ref()->locked()) {
        candidates.push_back(value.as_ref());
      }
    }
    return candidates.empty() ? nullptr : candidates[rng.NextBelow(candidates.size())];
  }

  void CommitRandomWrites(Rng& rng) {
    StorageHarness& h = *harness_;
    ActionId aid = Aid(next_seq_++);
    std::size_t writes = 1 + rng.NextBelow(3);
    bool wrote = false;
    for (std::size_t i = 0; i < writes; ++i) {
      RecoverableObject* obj = PickUnlocked(rng);
      if (obj != nullptr) {
        wrote |= h.ctx(aid)
                     .WriteObject(obj, Value::Int(static_cast<std::int64_t>(rng.NextU64() % 1000)))
                     .ok();
      }
    }
    if (wrote) {
      EXPECT_TRUE(h.PrepareAndCommit(aid).ok());
    }
  }

  void PrepareUndecided(Rng& rng) {
    StorageHarness& h = *harness_;
    RecoverableObject* obj = PickUnlocked(rng);
    if (obj == nullptr) {
      return;
    }
    ActionId aid = Aid(next_seq_++);
    if (h.ctx(aid).WriteObject(obj, Value::Int(-7)).ok()) {
      EXPECT_TRUE(h.PrepareOnly(aid).ok());  // stays undecided at the crash
    }
  }

  void PrepareThenAbort(Rng& rng) {
    StorageHarness& h = *harness_;
    RecoverableObject* obj = PickUnlocked(rng);
    if (obj == nullptr) {
      return;
    }
    ActionId aid = Aid(next_seq_++);
    if (h.ctx(aid).WriteObject(obj, Value::Int(-13)).ok()) {
      EXPECT_TRUE(h.PrepareOnly(aid).ok());
      EXPECT_TRUE(h.AbortPrepared(aid).ok());
    }
  }

  void CoordinatorActivity(Rng& rng) {
    StorageHarness& h = *harness_;
    ActionId aid = Aid(next_seq_++);
    EXPECT_TRUE(
        h.rs().WaitDurable(h.rs().StageCommitting(aid, {GuardianId{1}, GuardianId{2}})).ok());
    if (rng.NextBool(0.5)) {
      h.rs().StageDone(aid);  // durable with the next force, lost by a crash before it
    }
  }

  void CreateAndCommitObject(Rng& rng) {
    StorageHarness& h = *harness_;
    ActionId aid = Aid(next_seq_++);
    std::string name = "x" + std::to_string(next_seq_);
    RecoverableObject* obj = h.ctx(aid).CreateAtomic(
        h.heap(), Value::Int(static_cast<std::int64_t>(rng.NextU64() % 100)));
    EXPECT_TRUE(h.BindStable(aid, name, obj).ok());
    EXPECT_TRUE(h.PrepareAndCommit(aid).ok());
  }

  // Stages data entries without an outcome entry; the crash discards the
  // unforced ones, and the forced ones become trailing data the per-shard
  // head-find must skip.
  void EarlyPrepareTrailingData(Rng& rng) {
    StorageHarness& h = *harness_;
    RecoverableObject* obj = PickUnlocked(rng);
    if (obj == nullptr) {
      return;
    }
    ActionId aid = Aid(next_seq_++);
    if (!h.ctx(aid).WriteObject(obj, Value::Int(-99)).ok()) {
      return;
    }
    Result<ModifiedObjectsSet> leftover = h.rs().WriteEntry(aid, h.ctx(aid).TakeMos());
    EXPECT_TRUE(leftover.ok());
    if (rng.NextBool(0.5)) {
      for (std::uint32_t sh = 0; sh < h.rs().shard_count(); ++sh) {
        EXPECT_TRUE(h.rs().shard_log(sh).Force().ok());
      }
    }
    h.ctx(aid).AbortVolatile(h.heap());
  }

  ShardHistoryConfig config_;
  std::unique_ptr<StorageHarness> harness_;
  std::uint64_t next_seq_ = 1;
};

// ---- Result comparison ----------------------------------------------------

struct ShardedRun {
  std::string label;
  std::unique_ptr<VolatileHeap> heap;
  Result<RecoveryResult> result = Status::Unavailable("recovery not run");
};

ShardedRun RunSharded(const RecoverySystem::SurvivingState& surviving, const std::string& label,
                      std::size_t workers) {
  ShardedRun run;
  run.label = label;
  run.heap = std::make_unique<VolatileHeap>();
  std::vector<const StableLog*> raw;
  for (const auto& log : surviving.logs) {
    raw.push_back(log.get());
  }
  run.result = RecoverHybridLog(raw, *run.heap, workers);
  return run;
}

void ExpectObjectEquivalent(Uid uid, const ObjectTableEntry& a, const ObjectTableEntry& b,
                            const std::string& label, bool compare_addresses) {
  EXPECT_EQ(a.state, b.state) << label << " OT state of " << to_string(uid);
  if (compare_addresses) {
    EXPECT_EQ(a.mutex_address, b.mutex_address) << label << " mutex_address of " << to_string(uid);
  }
  ASSERT_NE(a.object, nullptr);
  ASSERT_NE(b.object, nullptr);
  EXPECT_EQ(a.object->kind(), b.object->kind()) << label << " kind of " << to_string(uid);
  EXPECT_EQ(FlattenValue(a.object->base_version(), nullptr),
            FlattenValue(b.object->base_version(), nullptr))
      << label << " base version of " << to_string(uid);
  EXPECT_EQ(a.object->has_current(), b.object->has_current())
      << label << " has_current of " << to_string(uid);
  if (a.object->has_current() && b.object->has_current()) {
    EXPECT_EQ(FlattenValue(a.object->current_version(), nullptr),
              FlattenValue(b.object->current_version(), nullptr))
        << label << " current version of " << to_string(uid);
  }
  EXPECT_EQ(a.object->write_locker(), b.object->write_locker())
      << label << " write locker of " << to_string(uid);
}

// Semantic comparison of two RecoveryResults. With `compare_addresses` it is
// the full bit-identity check (same logs, serial vs parallel); without, it
// compares only layout-independent state (1-shard vs N-shard worlds).
void ExpectEquivalentResults(const RecoveryResult& a, const RecoveryResult& b,
                             const std::string& label, bool compare_addresses) {
  EXPECT_EQ(a.pt, b.pt) << label << " PT differs";
  EXPECT_EQ(a.as, b.as) << label << " AS differs";
  if (compare_addresses) {
    EXPECT_EQ(a.mt, b.mt) << label << " MT differs";
    EXPECT_EQ(a.last_outcome, b.last_outcome) << label;
    EXPECT_EQ(a.entries_examined, b.entries_examined) << label;
    EXPECT_EQ(a.data_entries_read, b.data_entries_read) << label;
  } else {
    ASSERT_EQ(a.mt.size(), b.mt.size()) << label << " MT size";
    for (const auto& [uid, addr] : a.mt) {
      EXPECT_TRUE(b.mt.find(uid) != b.mt.end()) << label << " MT missing " << to_string(uid);
    }
  }
  ASSERT_EQ(a.ct.size(), b.ct.size()) << label << " CT size";
  for (const auto& [aid, entry_a] : a.ct) {
    auto it = b.ct.find(aid);
    ASSERT_NE(it, b.ct.end()) << label << " CT missing " << to_string(aid);
    EXPECT_EQ(entry_a.phase, it->second.phase) << label << " CT phase of " << to_string(aid);
    EXPECT_EQ(entry_a.participants, it->second.participants)
        << label << " CT participants of " << to_string(aid);
  }
  ASSERT_EQ(a.ot.size(), b.ot.size()) << label << " OT size";
  for (const auto& [uid, entry_a] : a.ot) {
    auto it = b.ot.find(uid);
    ASSERT_NE(it, b.ot.end()) << label << " OT missing " << to_string(uid);
    ExpectObjectEquivalent(uid, entry_a, it->second, label, compare_addresses);
  }
}

// ---- Property 1: serial == parallel, bit for bit --------------------------

class ShardDeterminismTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardDeterminismTest, ParallelRecoveryEqualsSerial) {
  ScopedFlightRecorderDumpOnFailure dump_guard;
  for (std::uint32_t shards : {2u, 4u}) {
    ShardHistoryConfig config;
    config.seed = GetParam();
    config.shards = shards;
    config.duplexed = (GetParam() % 2) == 0;
    ShardedHistoryBuilder builder(config);
    RecoverySystem::SurvivingState surviving = builder.BuildAndCrash();
    ASSERT_EQ(surviving.logs.size(), shards);
    for (const auto& log : surviving.logs) {
      ASSERT_TRUE(log->RecoverAfterCrash().ok());
    }

    ShardedRun serial = RunSharded(surviving, "serial", /*workers=*/0);
    ShardedRun parallel = RunSharded(surviving, "parallel", /*workers=*/shards);
    ASSERT_TRUE(serial.result.ok()) << serial.result.status().message();
    ASSERT_TRUE(parallel.result.ok()) << parallel.result.status().message();
    EXPECT_EQ(serial.result.value().last_outcome, parallel.result.value().last_outcome);
    ExpectEquivalentResults(serial.result.value(), parallel.result.value(),
                            "serial vs parallel (" + std::to_string(shards) + " shards):",
                            /*compare_addresses=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShardDeterminismTest, testing::Range<std::uint64_t>(1, 9));

// ---- Property 2: 1 shard == N shards, semantically ------------------------

class ShardSemanticsTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardSemanticsTest, OneShardEqualsFourShards) {
  ScopedFlightRecorderDumpOnFailure dump_guard;
  ShardHistoryConfig single;
  single.seed = GetParam();
  single.shards = 1;
  ShardHistoryConfig sharded = single;
  sharded.shards = 4;

  RecoverySystem::SurvivingState s1 = ShardedHistoryBuilder(single).BuildAndCrash();
  RecoverySystem::SurvivingState s4 = ShardedHistoryBuilder(sharded).BuildAndCrash();
  ASSERT_EQ(s1.logs.size(), 1u);
  ASSERT_EQ(s4.logs.size(), 4u);
  for (const auto& log : s1.logs) {
    ASSERT_TRUE(log->RecoverAfterCrash().ok());
  }
  for (const auto& log : s4.logs) {
    ASSERT_TRUE(log->RecoverAfterCrash().ok());
  }

  VolatileHeap heap1;
  Result<RecoveryResult> single_result = RecoverHybridLog(*s1.logs[0], heap1);
  ASSERT_TRUE(single_result.ok()) << single_result.status().message();

  ShardedRun parallel = RunSharded(s4, "4-shard", /*workers=*/4);
  ASSERT_TRUE(parallel.result.ok()) << parallel.result.status().message();

  ExpectEquivalentResults(single_result.value(), parallel.result.value(),
                          "1 shard vs 4 shards:", /*compare_addresses=*/false);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShardSemanticsTest, testing::Range<std::uint64_t>(1, 7));

// ---- Property 3: single-shard fault, heal, retry ---------------------------

TEST(ShardFaultTest, MidRecoveryShardFaultFailsThenHealedRetryMatchesSerial) {
  ScopedFlightRecorderDumpOnFailure dump_guard;
  ShardHistoryConfig config;
  config.seed = 42;
  config.shards = 4;
  config.duplexed = true;
  ShardedHistoryBuilder builder(config);
  RecoverySystem::SurvivingState surviving = builder.BuildAndCrash();
  for (const auto& log : surviving.logs) {
    ASSERT_TRUE(log->RecoverAfterCrash().ok());
  }

  // The healthy serial answer, for later comparison.
  ShardedRun reference = RunSharded(surviving, "reference", /*workers=*/0);
  ASSERT_TRUE(reference.result.ok());

  // Kill shard 2's recovery worker mid-flight: BOTH replicas of that shard's
  // duplexed store transiently refuse every read, so its chain scan cannot
  // make progress while the other three shards recover fine.
  auto* medium = dynamic_cast<DuplexedStableMedium*>(&surviving.logs[2]->medium());
  ASSERT_NE(medium, nullptr);
  DiskFaultPlan storm;
  storm.transient_read_error_probability = 1.0;
  medium->store().disk_a().set_fault_plan(storm);
  medium->store().disk_b().set_fault_plan(storm);
  // The reference run warmed shard 2's block cache; drop it so the faulted
  // scan actually reaches the (now unreadable) medium.
  surviving.logs[2]->read_cache().Clear();

  ShardedRun faulted = RunSharded(surviving, "faulted", /*workers=*/4);
  ASSERT_FALSE(faulted.result.ok()) << "a wholly unreadable shard must fail recovery";

  // Heal and retry from the same surviving logs: partial progress from the
  // failed attempt (other shards' scans, cache fills) must not poison the
  // rerun — each retry gets a fresh heap and fresh contexts.
  medium->store().disk_a().set_fault_plan(DiskFaultPlan{});
  medium->store().disk_b().set_fault_plan(DiskFaultPlan{});
  ShardedRun healed = RunSharded(surviving, "healed", /*workers=*/4);
  ASSERT_TRUE(healed.result.ok()) << healed.result.status().message();
  ExpectEquivalentResults(reference.result.value(), healed.result.value(),
                          "reference vs healed retry:", /*compare_addresses=*/true);
}

TEST(ShardFaultTest, GuardianRestartReclaimsSurvivingStateOnFailedRecovery) {
  ScopedFlightRecorderDumpOnFailure dump_guard;
  SimWorldConfig config;
  config.guardian_count = 1;
  config.mode = LogMode::kHybrid;
  config.medium = MediumKind::kDuplexed;
  config.seed = 7;
  config.log_shards = 4;
  SimWorld world(config);
  Guardian& g = world.guardian(0u);

  // A few committed actions so recovery has real state to rebuild.
  for (int i = 0; i < 3; ++i) {
    Result<Guardian::ActionFate> fate =
        world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
          return w.RunAt(aid, GuardianId{0}, [&](Guardian& guard, ActionContext& ctx) {
            RecoverableObject* obj = ctx.CreateAtomic(guard.heap(), Value::Int(10 + i));
            return guard.SetStableVariable(aid, "v" + std::to_string(i), obj);
          });
        });
    ASSERT_TRUE(fate.ok());
    ASSERT_EQ(fate.value(), Guardian::ActionFate::kCommitted);
  }

  // Grab shard 1's medium before the crash; the object survives inside the
  // surviving state and the fault plans with it.
  auto* medium = dynamic_cast<DuplexedStableMedium*>(&g.recovery().shard_log(1).medium());
  ASSERT_NE(medium, nullptr);

  g.Crash();
  DiskFaultPlan storm;
  storm.transient_read_error_probability = 1.0;
  medium->store().disk_a().set_fault_plan(storm);
  medium->store().disk_b().set_fault_plan(storm);

  Result<RecoveryInfo> failed = g.Restart();
  ASSERT_FALSE(failed.ok()) << "restart through an unreadable shard must fail";
  EXPECT_TRUE(g.crashed());

  // Heal; the SAME guardian must be restartable — a failed recovery must not
  // have stranded the stable state inside the dead incarnation.
  medium->store().disk_a().set_fault_plan(DiskFaultPlan{});
  medium->store().disk_b().set_fault_plan(DiskFaultPlan{});
  // The 4-shard restart reports its stages like a one-log restart: one
  // sample per stage histogram and one recovery run.
  const char* const stages[] = {"recovery.find_head_ns", "recovery.walk_apply_ns",
                                "recovery.finalize_ns"};
  std::vector<std::uint64_t> stage_samples;
  for (const char* stage : stages) {
    stage_samples.push_back(obs::GetHistogram(stage)->Count());
  }
  const std::uint64_t runs = obs::GetCounter("recovery.runs")->Value();
  Result<RecoveryInfo> healed = g.Restart();
  ASSERT_TRUE(healed.ok()) << healed.status().message();
  for (std::size_t i = 0; i < stage_samples.size(); ++i) {
    EXPECT_EQ(obs::GetHistogram(stages[i])->Count(), stage_samples[i] + 1) << stages[i];
  }
  EXPECT_EQ(obs::GetCounter("recovery.runs")->Value(), runs + 1);
  for (int i = 0; i < 3; ++i) {
    RecoverableObject* obj = g.CommittedStableVariable("v" + std::to_string(i));
    ASSERT_NE(obj, nullptr) << "v" << i << " lost across the faulted restart";
    EXPECT_EQ(FlattenValue(obj->base_version(), nullptr), FlattenValue(Value::Int(10 + i), nullptr));
  }
}

}  // namespace
}  // namespace argus
