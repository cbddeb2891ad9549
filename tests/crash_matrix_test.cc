// Crash matrix for a coalesced group-commit force over the full duplexed
// stack: a batch of actions stages prepare+commit entries without forcing,
// then one physical force covers the batch — and the "machine crashes"
// (torn write) at EVERY duplexed write step inside that force, on each
// replica disk.
//
// The invariant under test is the crash-equivalence argument for group
// commit: a coalesced force is one medium Append, which writes data pages
// first and the superblock last, each duplexed A-then-B. So the only legal
// recovered states are the pre-batch state and the post-batch state — never
// a torn batch — and which of the two survives is determined by where the
// tear lands:
//   - any data-page tear (either disk): Append aborts before the superblock,
//     so the old length survives → pre-batch state;
//   - superblock tear on replica A: reads prefer A, Repair copies intact B
//     (old) over torn A → pre-batch state;
//   - superblock tear on replica B: A already holds the new superblock and
//     reads prefer it; Repair copies A over torn B → post-batch state.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/recovery/validate.h"
#include "src/stable/duplexed_medium.h"
#include "tests/test_support.h"

namespace argus {
namespace {

constexpr int kSlots = 3;
constexpr std::int64_t kOldValue = 7;
constexpr std::int64_t kNewBase = 100;

std::string Slot(int i) { return "slot" + std::to_string(i); }

// A storage stack over the duplexed medium with a hook to the live medium so
// the matrix can plant fault plans on the underlying simulated disks.
struct DuplexHarness {
  explicit DuplexHarness(LogMode mode) {
    RecoverySystemConfig config;
    config.mode = mode;
    config.medium_factory = [this] {
      auto m = std::make_unique<DuplexedStableMedium>(/*seed=*/11);
      medium = m.get();
      return m;
    };
    harness = std::make_unique<StorageHarness>(config);
  }

  DuplexedStableMedium* medium = nullptr;
  std::unique_ptr<StorageHarness> harness;
};

// Commits the baseline state: kSlots atomic stable variables, all kOldValue.
void SetupBaseline(StorageHarness& h) {
  ActionId t0 = Aid(1);
  for (int i = 0; i < kSlots; ++i) {
    RecoverableObject* obj = h.ctx(t0).CreateAtomic(h.heap(), Value::Int(kOldValue));
    ASSERT_TRUE(h.BindStable(t0, Slot(i), obj).ok());
  }
  ASSERT_TRUE(h.PrepareAndCommit(t0).ok());
}

// Stages (without forcing) one prepare+commit per slot: the coalesced batch.
// Volatile commit happens at stage time, as in the concurrent driver.
void StageBatch(StorageHarness& h) {
  for (int i = 0; i < kSlots; ++i) {
    ActionId aid = Aid(static_cast<std::uint64_t>(10 + i));
    ASSERT_TRUE(h.ctx(aid).WriteObject(h.StableVar(Slot(i)), Value::Int(kNewBase + i)).ok());
    Result<LogAddress> prepared = h.rs().StagePrepare(aid, h.ctx(aid).TakeMos());
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    Result<LogAddress> committed = h.rs().StageCommit(aid);
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    h.ctx(aid).CommitVolatile(h.heap());
  }
}

void ExpectState(StorageHarness& h, bool new_state, const std::string& context) {
  for (int i = 0; i < kSlots; ++i) {
    RecoverableObject* obj = h.StableVar(Slot(i));
    ASSERT_NE(obj, nullptr) << context << ": " << Slot(i);
    EXPECT_EQ(obj->base_version(), Value::Int(new_state ? kNewBase + i : kOldValue))
        << context << ": " << Slot(i);
  }
}

// Counts the physical writes one disk performs during the coalesced force
// (identical for both disks: the store writes A then B for every page).
std::uint64_t WritesPerDiskDuringForce(LogMode mode) {
  DuplexHarness d(mode);
  SetupBaseline(*d.harness);
  StageBatch(*d.harness);
  std::uint64_t before = d.medium->store().disk_a().writes();
  EXPECT_TRUE(d.harness->rs().log().Force().ok());
  return d.medium->store().disk_a().writes() - before;
}

class CrashMatrixTest : public testing::TestWithParam<LogMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, CrashMatrixTest,
                         testing::Values(LogMode::kSimple, LogMode::kHybrid),
                         [](const testing::TestParamInfo<LogMode>& param_info) {
                           return param_info.param == LogMode::kSimple ? std::string("simple")
                                                                       : std::string("hybrid");
                         });

TEST_P(CrashMatrixTest, TornWriteAtEveryStepOfCoalescedForceYieldsLegalPrefix) {
  const LogMode mode = GetParam();
  const std::uint64_t writes_per_disk = WritesPerDiskDuringForce(mode);
  ASSERT_GE(writes_per_disk, 2u) << "need at least one data page plus the superblock";

  for (int disk = 0; disk < 2; ++disk) {
    for (std::uint64_t step = 0; step < writes_per_disk; ++step) {
      std::string context = std::string("disk ") + (disk == 0 ? "A" : "B") + ", write " +
                            std::to_string(step) + "/" + std::to_string(writes_per_disk - 1);

      DuplexHarness d(mode);
      SetupBaseline(*d.harness);
      StageBatch(*d.harness);

      // Crash mid-force: the step-th write on the chosen disk tears.
      DiskFaultPlan plan;
      plan.tear_write_at = static_cast<std::int64_t>(step);
      SimulatedDisk& victim =
          disk == 0 ? d.medium->store().disk_a() : d.medium->store().disk_b();
      victim.set_fault_plan(plan);

      Status forced = d.harness->rs().log().Force();
      EXPECT_FALSE(forced.ok()) << context;
      EXPECT_EQ(forced.code(), ErrorCode::kUnavailable) << context;

      // The machine is dead; the fault plan dies with the incident.
      victim.set_fault_plan(DiskFaultPlan{});
      Result<RecoveryInfo> info = d.harness->CrashAndRecover();
      ASSERT_TRUE(info.ok()) << context << ": " << info.status().ToString();

      // The superblock is the last write per disk; only a tear on replica B's
      // superblock lets the batch survive (replica A already has it).
      const bool superblock_step = step == writes_per_disk - 1;
      const bool batch_survives = disk == 1 && superblock_step;
      ExpectState(*d.harness, batch_survives, context);

      // Tables must match the same prefix: with the batch, every batch action
      // is committed; without it, no trace of any (never a partial batch).
      // Nothing may be left dangling in the prepared state either way.
      for (const auto& [aid, state] : info.value().pt) {
        EXPECT_NE(state, ParticipantState::kPrepared) << context << " " << to_string(aid);
      }
      for (int i = 0; i < kSlots; ++i) {
        ActionId aid = Aid(static_cast<std::uint64_t>(10 + i));
        auto it = info.value().pt.find(aid);
        if (batch_survives) {
          ASSERT_NE(it, info.value().pt.end()) << context << " " << to_string(aid);
          EXPECT_EQ(it->second, ParticipantState::kCommitted) << context;
        } else {
          EXPECT_EQ(it, info.value().pt.end()) << context << " " << to_string(aid);
        }
      }

      ValidationReport structural = ValidateRecoveredState(d.harness->heap(), info.value());
      EXPECT_TRUE(structural.clean()) << context << "\n" << structural.ToString();
    }
  }
}

TEST_P(CrashMatrixTest, CrashBeforeForceLosesWholeBatch) {
  DuplexHarness d(GetParam());
  SetupBaseline(*d.harness);
  StageBatch(*d.harness);
  // No force at all: the staged batch is purely volatile.
  Result<RecoveryInfo> info = d.harness->CrashAndRecover();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ExpectState(*d.harness, /*new_state=*/false, "no force");
  for (const auto& [aid, state] : info.value().pt) {
    EXPECT_NE(state, ParticipantState::kPrepared);
  }
}

TEST_P(CrashMatrixTest, ForceAfterRecoveryResumesCleanly) {
  // After a torn-force crash and recovery, the guardian must be able to run
  // and force new actions on the repaired medium.
  const LogMode mode = GetParam();
  DuplexHarness d(mode);
  SetupBaseline(*d.harness);
  StageBatch(*d.harness);
  DiskFaultPlan plan;
  plan.tear_write_at = 0;
  d.medium->store().disk_a().set_fault_plan(plan);
  EXPECT_FALSE(d.harness->rs().log().Force().ok());
  d.medium->store().disk_a().set_fault_plan(DiskFaultPlan{});
  ASSERT_TRUE(d.harness->CrashAndRecover().ok());

  StorageHarness& h = *d.harness;
  ActionId aid = Aid(50);
  ASSERT_TRUE(h.ctx(aid).WriteObject(h.StableVar(Slot(0)), Value::Int(555)).ok());
  ASSERT_TRUE(h.PrepareAndCommit(aid).ok());
  ASSERT_TRUE(h.CrashAndRecover().ok());
  EXPECT_EQ(h.StableVar(Slot(0))->base_version(), Value::Int(555));
}

}  // namespace
}  // namespace argus
