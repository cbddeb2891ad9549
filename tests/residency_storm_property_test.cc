// The residency eviction storm (experiment E17's correctness half).
//
// Two oracles, swept over 64 seeds:
//   1. Exact equivalence — the serial driver is fully deterministic, so the
//      same seed run twice, once all-resident (budget 0) and once under a
//      starvation budget with inline eviction passes after every action, must
//      commit/abort/crash identically and both reconcile against the model.
//      Eviction is pure mechanism: it may never change an outcome.
//   2. The concurrent storm — worker threads, group commit, coherent world
//      crashes, and background ResidencyService threads demoting objects
//      between actions. The durable-prefix reconciliation must hold exactly
//      as it does for the all-resident E12 storm.
//
// The suite carries the `concurrency` and `residency` ctest labels.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/residency/residency_manager.h"
#include "src/tpc/workload.h"
#include "tests/test_support.h"

namespace argus {
namespace {

// Small enough that a guardian's handful of slots always exceeds the high
// watermark: the eviction path runs continuously, not just at the margin.
constexpr std::uint64_t kStarvationBudget = 512;

SimWorldConfig ResidencyWorld(std::uint64_t seed, std::uint64_t budget) {
  SimWorldConfig config;
  config.guardian_count = 2;
  config.mode = LogMode::kHybrid;
  config.medium = MediumKind::kInMemory;
  config.seed = seed;
  config.group_commit = FlushCoordinatorConfig{};
  config.mem_budget_bytes = budget;
  return config;
}

struct SerialOutcome {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t crashes = 0;
  std::size_t verified = 0;
};

// One deterministic serial run; the caller compares outcomes across budgets.
SerialOutcome RunSerialStorm(std::uint64_t seed, std::uint64_t budget) {
  SimWorld world(ResidencyWorld(seed, budget));
  WorkloadConfig config;
  config.seed = seed;
  config.threads = 0;  // serial: inline eviction passes, no service threads
  config.objects_per_guardian = 6;
  config.abort_probability = 0.1;
  config.crash_probability = 0.15;
  WorkloadDriver driver(&world, config);
  EXPECT_TRUE(driver.Setup().ok());
  Status s = driver.Run(80);
  EXPECT_TRUE(s.ok()) << "seed " << seed << " budget " << budget << ": " << s.ToString();
  Result<std::size_t> checked = driver.VerifyAfterCrash();
  EXPECT_TRUE(checked.ok()) << "seed " << seed << " budget " << budget << ": "
                            << checked.status().ToString();
  SerialOutcome out;
  out.committed = driver.stats().committed;
  out.aborted = driver.stats().aborted;
  out.crashes = driver.stats().crashes;
  out.verified = checked.ok() ? checked.value() : 0;
  return out;
}

class ResidencyStormSeedSweep : public testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ResidencyStormSeedSweep,
                         testing::Range<std::uint64_t>(400, 464));

TEST_P(ResidencyStormSeedSweep, EvictionStormMatchesAllResidentOracle) {
  ScopedFlightRecorderDumpOnFailure dump_guard;
  const std::uint64_t seed = GetParam();

  // Oracle 1: exact outcome equivalence against the all-resident run.
  SerialOutcome resident = RunSerialStorm(seed, 0);
  SerialOutcome evicting = RunSerialStorm(seed, kStarvationBudget);
  EXPECT_EQ(evicting.committed, resident.committed) << "seed " << seed;
  EXPECT_EQ(evicting.aborted, resident.aborted) << "seed " << seed;
  EXPECT_EQ(evicting.crashes, resident.crashes) << "seed " << seed;
  EXPECT_EQ(evicting.verified, resident.verified) << "seed " << seed;
  EXPECT_GT(resident.committed, 0u) << "seed " << seed;

  // Oracle 2: the concurrent storm under the same starvation budget.
  SimWorld world(ResidencyWorld(seed, kStarvationBudget));
  WorkloadConfig config;
  config.seed = seed;
  config.threads = 3;
  config.objects_per_guardian = 6;
  config.abort_probability = 0.1;
  config.crash_probability = 0.1;
  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());
  Status s = driver.Run(60);
  ASSERT_TRUE(s.ok()) << "seed " << seed << ": " << s.ToString();
  EXPECT_GT(driver.stats().committed, 0u) << "seed " << seed;
  Result<std::size_t> checked = driver.VerifyAfterCrash();
  ASSERT_TRUE(checked.ok()) << "seed " << seed << ": " << checked.status().ToString();
}

// Deterministic activity check: under a starvation budget the serial driver
// must actually evict and fault — a storm that silently never demotes would
// pass the equivalence sweep without testing anything.
TEST(ResidencyStorm, SerialStarvationBudgetEvictsAndFaults) {
  const std::uint64_t seed = 4711;
  SimWorld world(ResidencyWorld(seed, kStarvationBudget));
  // Each guardian's manager counts under {guardian=g}.
  auto counted = [&world](const char* name) {
    std::uint64_t sum = 0;
    for (std::uint32_t g = 0; g < world.guardian_count(); ++g) {
      sum += CounterValue(name, obs::Scope{.guardian = g});
    }
    return sum;
  };
  const std::uint64_t evictions_before = counted("residency.evictions");
  const std::uint64_t faults_before = counted("residency.faults");
  WorkloadConfig config;
  config.seed = seed;
  config.threads = 0;
  config.objects_per_guardian = 6;
  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());
  Status s = driver.Run(100);
  ASSERT_TRUE(s.ok()) << s.ToString();

  for (std::uint32_t g = 0; g < world.guardian_count(); ++g) {
    ASSERT_NE(world.guardian(g).recovery().residency(), nullptr) << g;
  }
  EXPECT_GT(counted("residency.evictions") - evictions_before, 0u);
  EXPECT_GT(counted("residency.faults") - faults_before, 0u);

  // The live snapshot surfaces per-guardian resident bytes for dashboards.
  std::vector<WorkloadDriver::LiveGuardianStats> live = driver.SnapshotLiveStats();
  ASSERT_EQ(live.size(), world.guardian_count());
  for (const auto& g : live) {
    EXPECT_GT(g.resident_bytes, 0u);
  }

  Result<std::size_t> checked = driver.VerifyAfterCrash();
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
}

// Online checkpoints racing the eviction service: checkpoint capture must
// rematerialize stubs, the swap wipes every old-log address, and eviction
// resumes against the new log — all while workers commit and crash.
TEST(ResidencyStorm, SurvivesOnlineCheckpointsUnderPressure) {
  const std::uint64_t seed = 4712;
  SimWorld world(ResidencyWorld(seed, kStarvationBudget));
  WorkloadConfig config;
  config.seed = seed;
  config.threads = 3;
  config.objects_per_guardian = 6;
  config.crash_probability = 0.08;
  CheckpointPolicyConfig checkpoint;
  checkpoint.log_growth_bytes = 4 * 1024;
  config.checkpoint = checkpoint;
  config.checkpoint_mode = CheckpointMode::kOnline;
  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());
  Status s = driver.Run(90);
  ASSERT_TRUE(s.ok()) << s.ToString();
  Result<std::size_t> checked = driver.VerifyAfterCrash();
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
}

// Sharded guardians: the fault path groups stubs per shard and issues one
// ReadMany per shard log.
TEST(ResidencyStorm, ShardedGuardiansFaultAcrossShards) {
  const std::uint64_t seed = 4713;
  SimWorldConfig world_config = ResidencyWorld(seed, kStarvationBudget);
  world_config.log_shards = 4;
  SimWorld world(world_config);
  WorkloadConfig config;
  config.seed = seed;
  config.threads = 3;
  config.objects_per_guardian = 6;
  config.crash_probability = 0.1;
  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());
  Status s = driver.Run(60);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(driver.stats().committed, 0u);
  Result<std::size_t> checked = driver.VerifyAfterCrash();
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
}

}  // namespace
}  // namespace argus
