// Property tests for ONLINE housekeeping: the three checkpoint phases
// (capture / build / swap) interleaved with live commits.
//
// Three families:
//
//  1. A seeded scheduler advances concurrent action machines (write →
//     stage-prepare → stage-outcome → epoch-checked wait) one micro-step per
//     tick, and a checkpoint machine through capture → build → catch-up →
//     swap at randomized points between them. The history then crashes and
//     recovers. Invariant: the recovered committed state equals a serial
//     oracle replay of the durably-committed actions in stage order — where
//     "durable" means staged before the last completed swap (the barrier
//     forces and carries the whole pre-swap suffix) or below the final log's
//     durable watermark — and the V1–V6 structural invariants hold.
//
//  2. A crash matrix over the swap barrier itself: the same deterministic
//     history is crashed at every step of CompleteCheckpointSwap (after
//     quiesce, before each stage-2 entry copy, after the new-log force,
//     after the swap, after the pending rewrite). Every crash point must
//     recover to the same committed state: the swap is atomic — the guardian
//     lands in a valid pre-swap or post-swap state, never in between.
//
//  3. Real threads: the concurrent workload driver with a live checkpoint
//     service (both online and stop-the-world), verified against its model
//     after a full crash. This is the TSan target for the whole feature.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/recovery/validate.h"
#include "src/tpc/workload.h"
#include "tests/test_support.h"

namespace argus {
namespace {

constexpr int kAtomicVars = 5;
constexpr int kMutexVars = 2;
constexpr std::size_t kConcurrentActions = 4;
constexpr std::size_t kActionBudget = 60;

std::string AtomicName(int i) { return "a" + std::to_string(i); }
std::string MutexName(int i) { return "m" + std::to_string(i); }

RecoverySystemConfig GroupCommitConfig() {
  RecoverySystemConfig config = MemConfig(LogMode::kHybrid);
  config.group_commit = FlushCoordinatorConfig{};  // flush immediately
  return config;
}

// ---------------------------------------------------------------------------
// Family 1: checkpoint phases interleaved with commits by a seeded scheduler.
// ---------------------------------------------------------------------------

struct Params {
  HousekeepingMethod method;
  std::uint64_t seed;
};

std::string Name(const Params& params) {
  return std::string(params.method == HousekeepingMethod::kSnapshot ? "snapshot"
                                                                    : "compaction") +
         "_seed" + std::to_string(params.seed);
}

// gtest prints the parameter into the test listing that ctest names its tests
// by; a byte dump would carry padding bytes that differ between builds.
void PrintTo(const Params& params, std::ostream* os) { *os << Name(params); }

std::string ParamName(const testing::TestParamInfo<Params>& info) { return Name(info.param); }

class OnlineCheckpointPropertyTest : public testing::TestWithParam<Params> {};

INSTANTIATE_TEST_SUITE_P(Sweep, OnlineCheckpointPropertyTest,
                         testing::Values(Params{HousekeepingMethod::kSnapshot, 1},
                                         Params{HousekeepingMethod::kSnapshot, 2},
                                         Params{HousekeepingMethod::kSnapshot, 3},
                                         Params{HousekeepingMethod::kSnapshot, 4},
                                         Params{HousekeepingMethod::kSnapshot, 5},
                                         Params{HousekeepingMethod::kCompaction, 1},
                                         Params{HousekeepingMethod::kCompaction, 2},
                                         Params{HousekeepingMethod::kCompaction, 3},
                                         Params{HousekeepingMethod::kCompaction, 4},
                                         Params{HousekeepingMethod::kCompaction, 5}),
                         ParamName);

struct Machine {
  enum class Phase { kStart, kWritten, kPrepared, kOutcomeStaged, kDone };
  ActionId aid;
  Phase phase = Phase::kStart;
  std::map<std::string, std::int64_t> atomic_writes;
  std::map<std::string, std::int64_t> mutex_writes;
  LogAddress prepare_address = LogAddress::Null();
  LogAddress outcome_address = LogAddress::Null();
  // Completed-swap count when the entry was staged: entries from earlier
  // generations were forced and carried over by the barrier, so they are
  // durable no matter where the final log's watermark lands.
  std::uint64_t prepare_generation = 0;
  std::uint64_t outcome_generation = 0;
  std::uint64_t stage_epoch = 0;  // durability epoch at outcome-stage time
  bool committed = false;
};

TEST_P(OnlineCheckpointPropertyTest, RecoveredStateEqualsOracleAcrossSwaps) {
  const Params params = GetParam();
  Rng rng(params.seed * 977 + 13);
  StorageHarness h(GroupCommitConfig());

  {
    ActionId t0 = Aid(1);
    for (int i = 0; i < kAtomicVars; ++i) {
      RecoverableObject* obj = h.ctx(t0).CreateAtomic(h.heap(), Value::Int(0));
      ASSERT_TRUE(h.BindStable(t0, AtomicName(i), obj).ok());
    }
    for (int i = 0; i < kMutexVars; ++i) {
      RecoverableObject* obj = h.ctx(t0).CreateMutex(h.heap(), Value::Int(0));
      ASSERT_TRUE(h.BindStable(t0, MutexName(i), obj).ok());
    }
    ASSERT_TRUE(h.PrepareAndCommit(t0).ok());
  }

  std::vector<Machine> commit_order;
  std::vector<Machine> prepare_order;
  std::vector<Machine> live(kConcurrentActions);
  std::map<ActionId, Machine> all;

  // The checkpoint machine's in-flight state.
  std::optional<CheckpointCapture> capture;
  std::unique_ptr<CheckpointBuilder> builder;
  std::uint64_t generation = 0;

  std::uint64_t next_seq = 10;
  std::size_t started = 0;
  const std::uint64_t crash_tick = 40 + rng.NextBelow(400);

  auto start_machine = [&](Machine& m) {
    m = Machine{};
    m.aid = Aid(next_seq++);
    ++started;
  };
  for (Machine& m : live) {
    start_machine(m);
  }

  for (std::uint64_t tick = 0; tick < crash_tick; ++tick) {
    bool advance_checkpoint = rng.NextBool(0.12);
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].phase != Machine::Phase::kDone) {
        candidates.push_back(i);
      }
    }
    if (candidates.empty()) {
      // Action budget exhausted. Spend the remaining ticks completing at
      // least one swap, so every seed exercises the interleaving property.
      if (generation >= 1) {
        break;
      }
      advance_checkpoint = true;
    }

    // Advance the checkpoint machine one phase instead of an action — this
    // is what scatters capture/build/swap across the history.
    if (advance_checkpoint) {
      if (builder != nullptr) {
        if (rng.NextBool(0.5)) {
          ASSERT_TRUE(builder->CatchUp().ok());
        }
        Status s = h.rs().CompleteCheckpointSwap(std::move(builder));
        ASSERT_TRUE(s.ok()) << s.ToString();
        ++generation;
      } else if (capture.has_value()) {
        Result<std::unique_ptr<CheckpointBuilder>> built =
            h.rs().BuildCheckpoint(std::move(*capture));
        ASSERT_TRUE(built.ok()) << built.status().ToString();
        builder = std::move(built.value());
        capture.reset();
      } else {
        Result<CheckpointCapture> captured = h.rs().CaptureCheckpoint(params.method);
        ASSERT_TRUE(captured.ok()) << captured.status().ToString();
        capture = std::move(captured.value());
      }
      continue;
    }

    Machine& m = live[candidates[rng.NextBelow(candidates.size())]];

    switch (m.phase) {
      case Machine::Phase::kStart: {
        int k = static_cast<int>(rng.NextInRange(1, 2));
        bool blocked = false;
        for (int j = 0; j < k; ++j) {
          std::string name = AtomicName(static_cast<int>(rng.NextBelow(kAtomicVars)));
          std::int64_t v = static_cast<std::int64_t>(rng.NextBelow(1000));
          Status s = h.ctx(m.aid).WriteObject(h.StableVar(name), Value::Int(v));
          if (!s.ok()) {
            blocked = true;
            break;
          }
          m.atomic_writes[name] = v;
        }
        if (!blocked && rng.NextBool(0.4)) {
          std::string name = MutexName(static_cast<int>(rng.NextBelow(kMutexVars)));
          std::int64_t v = static_cast<std::int64_t>(rng.NextBelow(1000));
          if (h.ctx(m.aid).MutateMutex(h.StableVar(name), [&](Value& mv) {
                 mv = Value::Int(v);
               }).ok()) {
            m.mutex_writes[name] = v;
          }
        }
        if (blocked) {
          h.ctx(m.aid).AbortVolatile(h.heap());
          m.phase = Machine::Phase::kDone;
        } else {
          m.phase = Machine::Phase::kWritten;
        }
        break;
      }
      case Machine::Phase::kWritten: {
        if (rng.NextBool(0.15)) {
          Result<std::optional<LogAddress>> staged = h.rs().StageAbort(m.aid);
          ASSERT_TRUE(staged.ok());
          EXPECT_FALSE(staged.value().has_value());
          h.ctx(m.aid).AbortVolatile(h.heap());
          m.phase = Machine::Phase::kDone;
          break;
        }
        if (rng.NextBool(0.25)) {
          // Early prepare; if a swap lands before this machine prepares, the
          // pending data entries must be rewritten into the new log.
          Result<ModifiedObjectsSet> leftover = h.rs().WriteEntry(m.aid, h.ctx(m.aid).TakeMos());
          ASSERT_TRUE(leftover.ok());
          h.ctx(m.aid).AddToMos(leftover.value());
        }
        Result<LogAddress> prepared = h.rs().StagePrepare(m.aid, h.ctx(m.aid).TakeMos());
        ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
        m.prepare_address = prepared.value();
        m.prepare_generation = generation;
        m.phase = Machine::Phase::kPrepared;
        prepare_order.push_back(m);
        all[m.aid] = m;
        break;
      }
      case Machine::Phase::kPrepared: {
        if (rng.NextBool(0.2)) {
          Result<std::optional<LogAddress>> staged = h.rs().StageAbort(m.aid);
          ASSERT_TRUE(staged.ok());
          ASSERT_TRUE(staged.value().has_value());
          m.outcome_address = *staged.value();
          m.committed = false;
          h.ctx(m.aid).AbortVolatile(h.heap());
        } else {
          Result<LogAddress> committed = h.rs().StageCommit(m.aid);
          ASSERT_TRUE(committed.ok());
          m.outcome_address = committed.value();
          m.committed = true;
          h.ctx(m.aid).CommitVolatile(h.heap());
          commit_order.push_back(m);
        }
        m.outcome_generation = generation;
        m.stage_epoch = h.rs().durability_epoch();
        all[m.aid] = m;
        m.phase = Machine::Phase::kOutcomeStaged;
        break;
      }
      case Machine::Phase::kOutcomeStaged: {
        if (rng.NextBool(0.7)) {
          // The epoch-checked wait: if a swap retired the log this machine
          // staged on, the barrier already forced it — Ok, immediately.
          ASSERT_TRUE(h.rs().WaitDurable(m.outcome_address, m.stage_epoch).ok());
        }
        m.phase = Machine::Phase::kDone;
        if (started < kActionBudget) {
          start_machine(m);
        }
        break;
      }
      case Machine::Phase::kDone:
        break;
    }
  }
  builder.reset();
  capture.reset();
  // With ~12% of several hundred ticks going to the checkpoint machine, every
  // seed completes at least one full capture→build→swap cycle; a zero here
  // means the interleaving property was never actually exercised.
  EXPECT_GE(generation, 1u);

  const std::uint64_t durable = h.rs().log().durable_size();
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  auto is_durable = [&](std::uint64_t entry_generation, LogAddress address) {
    return entry_generation < generation || address.offset < durable;
  };

  std::map<std::string, std::int64_t> oracle_atomic;
  std::map<std::string, std::int64_t> oracle_mutex;
  for (int i = 0; i < kAtomicVars; ++i) {
    oracle_atomic[AtomicName(i)] = 0;
  }
  for (int i = 0; i < kMutexVars; ++i) {
    oracle_mutex[MutexName(i)] = 0;
  }
  for (const Machine& m : commit_order) {
    if (is_durable(m.outcome_generation, m.outcome_address)) {
      for (const auto& [name, v] : m.atomic_writes) {
        oracle_atomic[name] = v;
      }
    }
  }
  for (const Machine& m : prepare_order) {
    if (is_durable(m.prepare_generation, m.prepare_address)) {
      for (const auto& [name, v] : m.mutex_writes) {
        oracle_mutex[name] = v;
      }
    }
  }

  std::set<ActionId> expected_prepared;
  for (const auto& [aid, m] : all) {
    bool prepared_durable = is_durable(m.prepare_generation, m.prepare_address);
    bool outcome_durable = m.outcome_address != LogAddress::Null() &&
                           is_durable(m.outcome_generation, m.outcome_address);
    if (prepared_durable && !outcome_durable) {
      expected_prepared.insert(aid);
    }
  }
  std::set<ActionId> recovered_prepared;
  for (const auto& [aid, state] : info.value().pt) {
    if (state == ParticipantState::kPrepared) {
      recovered_prepared.insert(aid);
    }
  }
  EXPECT_EQ(recovered_prepared, expected_prepared)
      << "generations=" << generation << " durable=" << durable;

  ValidationReport structural = ValidateRecoveredState(h.heap(), info.value());
  EXPECT_TRUE(structural.clean()) << structural.ToString();

  for (ActionId aid : recovered_prepared) {
    ASSERT_TRUE(h.rs().Abort(aid).ok());
    for (const auto& [uid, entry] : info.value().ot) {
      if (entry.object->is_atomic()) {
        entry.object->AbortAction(aid);
      }
    }
  }

  for (const auto& [name, v] : oracle_atomic) {
    EXPECT_EQ(h.StableVar(name)->base_version(), Value::Int(v))
        << name << " (generations=" << generation << ", durable=" << durable
        << ", crash_tick=" << crash_tick << ")";
  }
  for (const auto& [name, v] : oracle_mutex) {
    EXPECT_EQ(h.StableVar(name)->mutex_value(), Value::Int(v))
        << name << " (generations=" << generation << ", durable=" << durable
        << ", crash_tick=" << crash_tick << ")";
  }
}

// ---------------------------------------------------------------------------
// Family 2: crash at every step of the swap barrier.
// ---------------------------------------------------------------------------

// Deterministic history: a pre-capture commit, then (post-capture, so stage 2
// must carry them) another commit, an undecided prepared action, and an
// early-prepared action. Whatever step the swap dies at, recovery must see
// a0=10, m0=5 (pre-capture), a1=20 (post-capture), a2 undecided (PT lists
// p1), a3 untouched.
class SwapCrashScenario {
 public:
  SwapCrashScenario() : h_(GroupCommitConfig()) {
    ActionId t0 = Aid(1);
    for (int i = 0; i < 4; ++i) {
      RecoverableObject* obj = h_.ctx(t0).CreateAtomic(h_.heap(), Value::Int(0));
      ARGUS_CHECK(h_.BindStable(t0, AtomicName(i), obj).ok());
    }
    RecoverableObject* m0 = h_.ctx(t0).CreateMutex(h_.heap(), Value::Int(0));
    ARGUS_CHECK(h_.BindStable(t0, MutexName(0), m0).ok());
    ARGUS_CHECK(h_.PrepareAndCommit(t0).ok());

    ActionId c1 = Aid(10);
    ARGUS_CHECK(h_.ctx(c1).WriteObject(h_.StableVar(AtomicName(0)), Value::Int(10)).ok());
    ARGUS_CHECK(
        h_.ctx(c1).MutateMutex(h_.StableVar(MutexName(0)), [](Value& v) { v = Value::Int(5); })
            .ok());
    ARGUS_CHECK(h_.PrepareAndCommit(c1).ok());

    Result<CheckpointCapture> capture = h_.rs().CaptureCheckpoint(HousekeepingMethod::kSnapshot);
    ARGUS_CHECK(capture.ok());
    Result<std::unique_ptr<CheckpointBuilder>> built =
        h_.rs().BuildCheckpoint(std::move(capture.value()));
    ARGUS_CHECK(built.ok());
    builder_ = std::move(built.value());

    // Post-capture traffic: stage 2's carry-over work.
    ActionId c2 = Aid(11);
    ARGUS_CHECK(h_.ctx(c2).WriteObject(h_.StableVar(AtomicName(1)), Value::Int(20)).ok());
    ARGUS_CHECK(h_.PrepareAndCommit(c2).ok());

    prepared_ = Aid(12);
    ARGUS_CHECK(h_.ctx(prepared_).WriteObject(h_.StableVar(AtomicName(2)), Value::Int(30)).ok());
    ARGUS_CHECK(h_.PrepareOnly(prepared_).ok());

    // Early-prepared, never prepared: pending pairs at swap time.
    ActionId e1 = Aid(13);
    ARGUS_CHECK(h_.ctx(e1).WriteObject(h_.StableVar(AtomicName(3)), Value::Int(40)).ok());
    Result<ModifiedObjectsSet> leftover = h_.rs().WriteEntry(e1, h_.ctx(e1).TakeMos());
    ARGUS_CHECK(leftover.ok());
  }

  // Runs the swap with `hook`; returns its status.
  Status Swap(RecoverySystem::SwapCrashHook hook) {
    h_.rs().SetSwapCrashHook(std::move(hook));
    return h_.rs().CompleteCheckpointSwap(std::move(builder_));
  }

  // Crash, recover, and check the committed state every crash point must
  // agree on.
  void VerifyRecovered() {
    Result<RecoveryInfo> info = h_.CrashAndRecover();
    ASSERT_TRUE(info.ok()) << info.status().ToString();

    std::set<ActionId> recovered_prepared;
    for (const auto& [aid, state] : info.value().pt) {
      if (state == ParticipantState::kPrepared) {
        recovered_prepared.insert(aid);
      }
    }
    EXPECT_EQ(recovered_prepared, std::set<ActionId>{prepared_});

    ValidationReport structural = ValidateRecoveredState(h_.heap(), info.value());
    EXPECT_TRUE(structural.clean()) << structural.ToString();

    for (ActionId aid : recovered_prepared) {
      ASSERT_TRUE(h_.rs().Abort(aid).ok());
      for (const auto& [uid, entry] : info.value().ot) {
        if (entry.object->is_atomic()) {
          entry.object->AbortAction(aid);
        }
      }
    }

    EXPECT_EQ(h_.StableVar(AtomicName(0))->base_version(), Value::Int(10));
    EXPECT_EQ(h_.StableVar(AtomicName(1))->base_version(), Value::Int(20));
    EXPECT_EQ(h_.StableVar(AtomicName(2))->base_version(), Value::Int(0));
    EXPECT_EQ(h_.StableVar(AtomicName(3))->base_version(), Value::Int(0));
    EXPECT_EQ(h_.StableVar(MutexName(0))->mutex_value(), Value::Int(5));
  }

 private:
  StorageHarness h_;
  std::unique_ptr<CheckpointBuilder> builder_;
  ActionId prepared_;
};

TEST(SwapCrashMatrixTest, EveryCrashPointRecoversToAValidState) {
  // Control run: count the stage-2 entries and confirm a hook-free swap
  // completes and recovers correctly.
  std::uint64_t stage2_entries = 0;
  {
    SwapCrashScenario control;
    Status s = control.Swap([&](const char* step, std::uint64_t index) {
      if (std::string(step) == "stage2") {
        stage2_entries = index + 1;
      }
      return true;
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
    control.VerifyRecovered();
  }
  ASSERT_GT(stage2_entries, 0u) << "scenario staged no post-capture outcome entries";

  struct CrashPoint {
    std::string step;
    std::uint64_t index;
  };
  std::vector<CrashPoint> points = {{"quiesced", 0}, {"forced", 0}, {"swapped", 0},
                                    {"rewritten", 0}};
  for (std::uint64_t i = 0; i < stage2_entries; ++i) {
    points.push_back({"stage2", i});
  }

  for (const CrashPoint& point : points) {
    SCOPED_TRACE("crash at " + point.step + "[" + std::to_string(point.index) + "]");
    SwapCrashScenario scenario;
    Status s = scenario.Swap([&](const char* step, std::uint64_t index) {
      return !(point.step == step && point.index == index);
    });
    EXPECT_FALSE(s.ok()) << "hook should have aborted the swap";
    scenario.VerifyRecovered();
  }
}

// ---------------------------------------------------------------------------
// Family 3: real threads — the workload driver with a live checkpoint
// service. Run under TSan in CI.
// ---------------------------------------------------------------------------

void RunConcurrentWorkloadWithCheckpoints(CheckpointMode mode) {
  SimWorldConfig world_config;
  world_config.guardian_count = 2;
  world_config.mode = LogMode::kHybrid;
  world_config.seed = 71;
  world_config.group_commit = FlushCoordinatorConfig{};
  SimWorld world(world_config);

  WorkloadConfig config;
  config.seed = 71;
  config.threads = 4;
  config.abort_probability = 0.05;
  config.early_prepare_probability = 0.2;
  CheckpointPolicyConfig checkpoint;
  checkpoint.log_growth_bytes = 8 * 1024;
  checkpoint.entries_since_checkpoint = 0;
  config.checkpoint = checkpoint;
  config.checkpoint_mode = mode;

  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());
  const std::uint64_t ckpt_before = obs::GetCounter("checkpoint.count")->Value();
  Status s = driver.Run(1200);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(driver.stats().committed, 0u);
  EXPECT_GT(driver.stats().checkpoints, 0u)
      << "policy never fired; the test exercised nothing";
  // Forward progress as the registry sees it: every completed checkpoint
  // ticks checkpoint.count at the same site that records the phase
  // histograms, so the policies' count and the process-wide metric agree
  // even with the 1 ms poll racing the min-gap fairness floor.
  EXPECT_GE(obs::GetCounter("checkpoint.count")->Value() - ckpt_before,
            driver.stats().checkpoints);

  Result<std::size_t> checked = driver.VerifyAfterCrash();
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_GT(checked.value(), 0u);
}

TEST(ConcurrentCheckpointWorkloadTest, OnlineCheckpointsRaceCommits) {
  RunConcurrentWorkloadWithCheckpoints(CheckpointMode::kOnline);
}

TEST(ConcurrentCheckpointWorkloadTest, StopTheWorldCheckpointsRaceCommits) {
  RunConcurrentWorkloadWithCheckpoints(CheckpointMode::kStopTheWorld);
}

TEST(ConcurrentCheckpointWorkloadTest, RequiresGroupCommit) {
  SimWorldConfig world_config;
  world_config.guardian_count = 1;
  world_config.mode = LogMode::kHybrid;
  world_config.seed = 7;
  SimWorld world(world_config);  // no group commit

  WorkloadConfig config;
  config.seed = 7;
  config.threads = 2;
  config.checkpoint = CheckpointPolicyConfig{};
  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());
  Status s = driver.Run(10);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
}

// Nothing that decides what the system does may read a metric: with every
// metric stopped, the entry trigger still fires, an online checkpoint's
// catch-up still ends, and the concurrent driver still counts the checkpoints
// its services took.
TEST(ObsDisabled, NoBehaviourReadsAMetric) {
  struct RestoreObs {
    bool previous = obs::SetEnabled(false);
    ~RestoreObs() { obs::SetEnabled(previous); }
  } restore;

  {
    StorageHarness h(MemConfig(LogMode::kHybrid));
    CheckpointPolicyConfig only_entries;
    only_entries.log_growth_bytes = 0;
    only_entries.entries_since_checkpoint = 8;
    CheckpointPolicy policy(only_entries);
    policy.Rearm(h.rs());
    EXPECT_FALSE(policy.ShouldHousekeep(h.rs()));
    for (std::uint64_t i = 1; i <= 4; ++i) {
      ActionId aid = Aid(i);
      RecoverableObject* obj = h.ctx(aid).CreateAtomic(h.heap(), Value::Int(0));
      ASSERT_TRUE(h.BindStable(aid, "v" + std::to_string(i), obj).ok());
      ASSERT_TRUE(h.PrepareAndCommit(aid).ok());
    }
    EXPECT_TRUE(policy.ShouldHousekeep(h.rs()));
    Result<bool> ran = policy.MaybeHousekeep(h.rs());
    ASSERT_TRUE(ran.ok()) << ran.status().ToString();
    EXPECT_TRUE(ran.value());
    EXPECT_EQ(policy.checkpoints_taken(), 1u);
    EXPECT_FALSE(policy.ShouldHousekeep(h.rs()));
  }

  {
    StorageHarness h(GroupCommitConfig());
    ActionId aid = Aid(1);
    RecoverableObject* obj = h.ctx(aid).CreateAtomic(h.heap(), Value::Int(1));
    ASSERT_TRUE(h.BindStable(aid, "x", obj).ok());
    ASSERT_TRUE(h.PrepareAndCommit(aid).ok());
    OnlineCheckpointer checkpointer(
        &h.rs(), [](const std::function<void()>& fn) { fn(); }, CheckpointMode::kOnline);
    ASSERT_TRUE(checkpointer.RunOnce(HousekeepingMethod::kSnapshot).ok());
  }

  SimWorldConfig world_config;
  world_config.guardian_count = 2;
  world_config.mode = LogMode::kHybrid;
  world_config.seed = 73;
  world_config.group_commit = FlushCoordinatorConfig{};
  SimWorld world(world_config);
  WorkloadConfig config;
  config.seed = 73;
  config.threads = 4;
  CheckpointPolicyConfig checkpoint;
  checkpoint.log_growth_bytes = 8 * 1024;
  checkpoint.entries_since_checkpoint = 0;
  config.checkpoint = checkpoint;
  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());
  Status s = driver.Run(600);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(driver.stats().checkpoints, 0u);
}

}  // namespace
}  // namespace argus
