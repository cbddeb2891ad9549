// Tests for housekeeping (chapter 5): log compaction and stable-state
// snapshot, including activity between the two stages, prepared-action
// carry-over, mutex latest-version preservation, and recovery bounds.

#include <cstdint>
#include <type_traits>

#include <gtest/gtest.h>

#include "tests/test_support.h"

namespace argus {
namespace {

// gtest prints a byte dump of this struct into the test listing that ctest
// names its tests by, so every byte is fixed: no padding and no pointer,
// whose bytes would differ between builds. The 16-byte size keeps the names.
struct Method {
  HousekeepingMethod method;
  std::uint32_t reserved[3] = {};
};
static_assert(std::has_unique_object_representations_v<Method>);

class HousekeepingTest : public testing::TestWithParam<Method> {};

INSTANTIATE_TEST_SUITE_P(Both, HousekeepingTest,
                         testing::Values(Method{HousekeepingMethod::kCompaction},
                                         Method{HousekeepingMethod::kSnapshot}),
                         [](const auto& param_info) {
                           return param_info.param.method == HousekeepingMethod::kSnapshot
                                      ? "snapshot"
                                      : "compaction";
                         });

void Seed(StorageHarness& h) {
  ActionId t0 = Aid(100);
  RecoverableObject* a = h.ctx(t0).CreateAtomic(h.heap(), Value::Int(0));
  RecoverableObject* m = h.ctx(t0).CreateMutex(h.heap(), Value::Int(0));
  ASSERT_TRUE(h.BindStable(t0, "a", a).ok());
  ASSERT_TRUE(h.BindStable(t0, "m", m).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t0).ok());
}

// Runs n committed modifications of "a".
void Churn(StorageHarness& h, std::uint64_t base_seq, int n) {
  for (int i = 0; i < n; ++i) {
    ActionId t = Aid(base_seq + static_cast<std::uint64_t>(i));
    ASSERT_TRUE(h.ctx(t).WriteObject(h.StableVar("a"),
                                     Value::Int(static_cast<std::int64_t>(i + 1))).ok());
    ASSERT_TRUE(h.PrepareAndCommit(t).ok());
  }
}

TEST_P(HousekeepingTest, ShrinksTheLog) {
  StorageHarness h(LogMode::kHybrid);
  Seed(h);
  Churn(h, 1, 50);
  std::uint64_t before = h.rs().log().durable_size();
  ASSERT_TRUE(h.rs().Housekeep(GetParam().method).ok());
  std::uint64_t after = h.rs().log().durable_size();
  EXPECT_LT(after, before / 4) << "log should shrink dramatically";
}

TEST_P(HousekeepingTest, StateSurvivesCheckpointAndCrash) {
  StorageHarness h(LogMode::kHybrid);
  Seed(h);
  Churn(h, 1, 30);
  ActionId tm = Aid(60);
  ASSERT_TRUE(h.ctx(tm).MutateMutex(h.StableVar("m"),
                                    [](Value& v) { v = Value::Int(77); }).ok());
  ASSERT_TRUE(h.PrepareAndCommit(tm).ok());

  ASSERT_TRUE(h.rs().Housekeep(GetParam().method).ok());
  ASSERT_TRUE(h.CrashAndRecover().ok());
  EXPECT_EQ(h.StableVar("a")->base_version(), Value::Int(30));
  EXPECT_EQ(h.StableVar("m")->mutex_value(), Value::Int(77));
}

TEST_P(HousekeepingTest, WorksRepeatedly) {
  StorageHarness h(LogMode::kHybrid);
  Seed(h);
  for (int round = 0; round < 3; ++round) {
    Churn(h, 1 + static_cast<std::uint64_t>(round) * 100, 10);
    ASSERT_TRUE(h.rs().Housekeep(GetParam().method).ok());
  }
  ASSERT_TRUE(h.CrashAndRecover().ok());
  EXPECT_EQ(h.StableVar("a")->base_version(), Value::Int(10));
}

TEST_P(HousekeepingTest, PreparedUndecidedActionSurvivesCheckpoint) {
  StorageHarness h(LogMode::kHybrid);
  Seed(h);
  Churn(h, 1, 10);
  ActionId tp = Aid(50);
  ASSERT_TRUE(h.ctx(tp).WriteObject(h.StableVar("a"), Value::Int(999)).ok());
  ASSERT_TRUE(h.PrepareOnly(tp).ok());

  ASSERT_TRUE(h.rs().Housekeep(GetParam().method).ok());
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  // The action is still prepared; its tentative version is intact.
  EXPECT_EQ(info.value().pt.at(tp), ParticipantState::kPrepared);
  RecoverableObject* a = h.StableVar("a");
  EXPECT_EQ(a->base_version(), Value::Int(10));
  EXPECT_EQ(a->current_version(), Value::Int(999));
  EXPECT_TRUE(a->HoldsWriteLock(tp));

  // It can still commit after the crash.
  ASSERT_TRUE(h.rs().Commit(tp).ok());
  a->CommitAction(tp);
  ASSERT_TRUE(h.CrashAndRecover().ok());
  EXPECT_EQ(h.StableVar("a")->base_version(), Value::Int(999));
}

TEST_P(HousekeepingTest, MutexOnlyPreparedActionKeepsPreparedState) {
  // Deviation D1: a prepared action that touched only mutex objects must not
  // lose its prepared record across a checkpoint.
  StorageHarness h(LogMode::kHybrid);
  Seed(h);
  ActionId tp = Aid(50);
  ASSERT_TRUE(h.ctx(tp).MutateMutex(h.StableVar("m"),
                                    [](Value& v) { v = Value::Int(5); }).ok());
  ASSERT_TRUE(h.PrepareOnly(tp).ok());

  ASSERT_TRUE(h.rs().Housekeep(GetParam().method).ok());
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().pt.at(tp), ParticipantState::kPrepared);
  EXPECT_EQ(h.StableVar("m")->mutex_value(), Value::Int(5));
}

TEST_P(HousekeepingTest, AbortedActionsVanishButPreparedMutexSurvives) {
  StorageHarness h(LogMode::kHybrid);
  Seed(h);
  ActionId ta = Aid(50);
  ASSERT_TRUE(h.ctx(ta).WriteObject(h.StableVar("a"), Value::Int(123)).ok());
  ASSERT_TRUE(h.ctx(ta).MutateMutex(h.StableVar("m"),
                                    [](Value& v) { v = Value::Int(123); }).ok());
  ASSERT_TRUE(h.PrepareOnly(ta).ok());
  ASSERT_TRUE(h.AbortPrepared(ta).ok());

  ASSERT_TRUE(h.rs().Housekeep(GetParam().method).ok());
  ASSERT_TRUE(h.CrashAndRecover().ok());
  EXPECT_EQ(h.StableVar("a")->base_version(), Value::Int(0));     // rolled back
  EXPECT_EQ(h.StableVar("m")->mutex_value(), Value::Int(123));    // prepared mutex holds
}

TEST_P(HousekeepingTest, ActivityBetweenStagesIsCarriedOver) {
  StorageHarness h(LogMode::kHybrid);
  Seed(h);
  Churn(h, 1, 10);

  // Between stage 1 and stage 2, more actions commit against the old log.
  Status s = h.rs().Housekeep(GetParam().method, [&] {
    for (std::uint64_t i = 0; i < 5; ++i) {
      ActionId t = Aid(200 + i);
      ASSERT_TRUE(h.ctx(t).WriteObject(h.StableVar("a"),
                                       Value::Int(static_cast<std::int64_t>(1000 + i))).ok());
      ASSERT_TRUE(h.PrepareAndCommit(t).ok());
    }
  });
  ASSERT_TRUE(s.ok()) << s.ToString();

  ASSERT_TRUE(h.CrashAndRecover().ok());
  EXPECT_EQ(h.StableVar("a")->base_version(), Value::Int(1004));
}

TEST_P(HousekeepingTest, PrepareBetweenStagesSurvives) {
  StorageHarness h(LogMode::kHybrid);
  Seed(h);
  Churn(h, 1, 5);
  ActionId tp = Aid(300);
  Status s = h.rs().Housekeep(GetParam().method, [&] {
    ASSERT_TRUE(h.ctx(tp).WriteObject(h.StableVar("a"), Value::Int(555)).ok());
    ASSERT_TRUE(h.PrepareOnly(tp).ok());
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().pt.at(tp), ParticipantState::kPrepared);
  EXPECT_EQ(h.StableVar("a")->current_version(), Value::Int(555));
  EXPECT_EQ(h.StableVar("a")->base_version(), Value::Int(5));
}

TEST_P(HousekeepingTest, EarlyPreparedUnpreparedActionIsRewritten) {
  StorageHarness h(LogMode::kHybrid);
  Seed(h);
  ActionId te = Aid(400);
  ASSERT_TRUE(h.ctx(te).WriteObject(h.StableVar("a"), Value::Int(42)).ok());
  ASSERT_TRUE(h.rs().WriteEntry(te, h.ctx(te).TakeMos()).ok());

  // The checkpoint swaps logs; the early-prepared data must be rewritten so
  // a later prepare still covers it.
  ASSERT_TRUE(h.rs().Housekeep(GetParam().method).ok());
  ASSERT_TRUE(h.rs().Prepare(te, {}).ok());
  ASSERT_TRUE(h.rs().Commit(te).ok());
  h.ctx(te).CommitVolatile(h.heap());

  ASSERT_TRUE(h.CrashAndRecover().ok());
  EXPECT_EQ(h.StableVar("a")->base_version(), Value::Int(42));
}

TEST_P(HousekeepingTest, RecoveryAfterCheckpointIsBounded) {
  StorageHarness h(LogMode::kHybrid);
  Seed(h);
  Churn(h, 1, 100);
  Result<RecoveryInfo> before = h.CrashAndRecover();
  ASSERT_TRUE(before.ok());
  std::uint64_t entries_before = before.value().entries_examined;

  ASSERT_TRUE(h.rs().Housekeep(GetParam().method).ok());
  Result<RecoveryInfo> after = h.CrashAndRecover();
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after.value().entries_examined, entries_before / 4)
      << "checkpoint must bound the recovery scan";
  EXPECT_EQ(h.StableVar("a")->base_version(), Value::Int(100));
}

TEST_P(HousekeepingTest, CoordinatorCommittingEntrySurvives) {
  StorageHarness h(LogMode::kHybrid);
  Seed(h);
  ActionId tc = Aid(500);
  ASSERT_TRUE(h.rs().WaitDurable(h.rs().StageCommitting(tc, {GuardianId{1}, GuardianId{2}})).ok());
  ASSERT_TRUE(h.rs().Housekeep(GetParam().method).ok());
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info.value().ct.contains(tc));
  EXPECT_EQ(info.value().ct.at(tc).phase, CoordinatorPhase::kCommitting);
  EXPECT_EQ(info.value().ct.at(tc).participants.size(), 2u);
}

TEST_P(HousekeepingTest, DoneCoordinatorEntryIsDropped) {
  StorageHarness h(LogMode::kHybrid);
  Seed(h);
  ActionId tc = Aid(500);
  ASSERT_TRUE(h.rs().WaitDurable(h.rs().StageCommitting(tc, {GuardianId{1}})).ok());
  // Done is only staged; the checkpoint reads it from the old log's staged
  // tail, and the swap forces the new log.
  h.rs().StageDone(tc);
  ASSERT_TRUE(h.rs().Housekeep(GetParam().method).ok());
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok());
  // Finished coordination work need not survive the checkpoint.
  EXPECT_FALSE(info.value().ct.contains(tc));
}

TEST(HousekeepingMode, RejectedOnSimpleLog) {
  StorageHarness h(LogMode::kSimple);
  EXPECT_EQ(h.rs().Housekeep(HousekeepingMethod::kCompaction).code(),
            ErrorCode::kInvalidArgument);
}

TEST(HousekeepingCost, SnapshotScalesWithLiveSetNotLogLength) {
  // §5.3: snapshot work ∝ accessible objects; compaction must grind through
  // every outcome entry of the old log.
  StorageHarness h(LogMode::kHybrid);
  Seed(h);
  Churn(h, 1, 200);  // long history, tiny live set

  StorageHarness h2(LogMode::kHybrid);
  Seed(h2);
  Churn(h2, 1, 200);

  // Compaction processes every outcome entry (~2 per churned action).
  ASSERT_TRUE(h.rs().Housekeep(HousekeepingMethod::kCompaction).ok());
  // Snapshot touches the live objects (3: root, a, m).
  ASSERT_TRUE(h2.rs().Housekeep(HousekeepingMethod::kSnapshot).ok());
  // Both lead to the same recovered state.
  ASSERT_TRUE(h.CrashAndRecover().ok());
  ASSERT_TRUE(h2.CrashAndRecover().ok());
  EXPECT_EQ(h.StableVar("a")->base_version(), h2.StableVar("a")->base_version());
}

}  // namespace
}  // namespace argus
