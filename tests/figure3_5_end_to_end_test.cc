// Figure 3-5 end to end: the thesis's motivating example for newly
// accessible objects, driven through the REAL writing algorithm (not a
// hand-built log), then crashed and recovered. Both log organizations must
// land in exactly the Step 8 state:
//
//   1. X→O1, Y→O2 committed (by T1)
//   2. T2 write-locks O1; creates O3; O1's new version points at O3
//   3. T3 write-locks O2; its new version points at O3 too
//   4. T2 modifies O3
//   5. T2 prepares            → O1 current, bc(O3 base), O3 current logged
//   6. T3 prepares            → O2 current logged (O3 already accessible)
//   7. T2 aborts
//   8. T3 commits
//   9. crash
//
// "Even though T2 aborted, object O3 must be recovered after a crash because
// it is needed for T3."

#include <gtest/gtest.h>

#include "tests/test_support.h"

namespace argus {
namespace {

class Figure3_5Test : public testing::TestWithParam<LogMode> {};

INSTANTIATE_TEST_SUITE_P(BothLogs, Figure3_5Test,
                         testing::Values(LogMode::kSimple, LogMode::kHybrid),
                         [](const auto& param_info) {
                           return param_info.param == LogMode::kSimple ? "simple" : "hybrid";
                         });

TEST_P(Figure3_5Test, NewlyAccessibleObjectSurvivesCreatorAbort) {
  StorageHarness h(GetParam());

  // Step 1: T1 establishes X→O1, Y→O2, committed.
  ActionId t1 = Aid(1);
  RecoverableObject* o1 = h.ctx(t1).CreateAtomic(h.heap(), Value::Int(100));
  RecoverableObject* o2 = h.ctx(t1).CreateAtomic(h.heap(), Value::Int(200));
  ASSERT_TRUE(h.BindStable(t1, "X", o1).ok());
  ASSERT_TRUE(h.BindStable(t1, "Y", o2).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());

  // Step 2: T2 creates O3 (read lock) and re-points O1 at it.
  ActionId t2 = Aid(2);
  RecoverableObject* o3 = h.ctx(t2).CreateAtomic(h.heap(), Value::Int(300));
  ASSERT_TRUE(h.ctx(t2).WriteObject(h.StableVar("X"), Value::Ref(o3)).ok());

  // Step 3: T3 re-points O2 at O3 as well.
  ActionId t3 = Aid(3);
  ASSERT_TRUE(h.ctx(t3).WriteObject(h.StableVar("Y"), Value::Ref(o3)).ok());

  // Step 4: T2 modifies O3 (upgrade: T2 is the sole reader).
  ASSERT_TRUE(h.ctx(t2).WriteObject(o3, Value::Int(333)).ok());

  // Step 5: T2 prepares. Step 6: T3 prepares.
  ASSERT_TRUE(h.PrepareOnly(t2).ok());
  ASSERT_TRUE(h.PrepareOnly(t3).ok());

  // Step 7: T2 aborts. Step 8: T3 commits.
  ASSERT_TRUE(h.AbortPrepared(t2).ok());
  ASSERT_TRUE(h.rs().Commit(t3).ok());
  h.ctx(t3).CommitVolatile(h.heap());

  // Step 9: crash, recover.
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().pt.at(t2), ParticipantState::kAborted);
  EXPECT_EQ(info.value().pt.at(t3), ParticipantState::kCommitted);

  // X→O1: T2 aborted, so O1 keeps its original committed value.
  RecoverableObject* rx = h.StableVar("X");
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->base_version(), Value::Int(100));
  EXPECT_FALSE(rx->locked());

  // Y→O2: committed by T3, pointing at O3.
  RecoverableObject* ry = h.StableVar("Y");
  ASSERT_NE(ry, nullptr);
  ASSERT_TRUE(ry->base_version().is_ref());
  RecoverableObject* ro3 = ry->base_version().as_ref();

  // O3 survives with its BASE version: T2's modification (333) aborted with
  // T2; the base (300) is what T3's committed reference needs.
  EXPECT_EQ(ro3->base_version(), Value::Int(300));
  EXPECT_FALSE(ro3->has_current());
  EXPECT_FALSE(ro3->locked());
}

TEST_P(Figure3_5Test, CreatorCommitsInsteadKeepsModifiedValue) {
  // Control history: T2 COMMITS instead of aborting — O3's current version
  // (333) must become its base.
  StorageHarness h(GetParam());
  ActionId t1 = Aid(1);
  RecoverableObject* o1 = h.ctx(t1).CreateAtomic(h.heap(), Value::Int(100));
  RecoverableObject* o2 = h.ctx(t1).CreateAtomic(h.heap(), Value::Int(200));
  ASSERT_TRUE(h.BindStable(t1, "X", o1).ok());
  ASSERT_TRUE(h.BindStable(t1, "Y", o2).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());

  ActionId t2 = Aid(2);
  RecoverableObject* o3 = h.ctx(t2).CreateAtomic(h.heap(), Value::Int(300));
  ASSERT_TRUE(h.ctx(t2).WriteObject(h.StableVar("X"), Value::Ref(o3)).ok());
  ActionId t3 = Aid(3);
  ASSERT_TRUE(h.ctx(t3).WriteObject(h.StableVar("Y"), Value::Ref(o3)).ok());
  ASSERT_TRUE(h.ctx(t2).WriteObject(o3, Value::Int(333)).ok());

  ASSERT_TRUE(h.PrepareOnly(t2).ok());
  ASSERT_TRUE(h.PrepareOnly(t3).ok());
  ASSERT_TRUE(h.rs().Commit(t2).ok());
  h.ctx(t2).CommitVolatile(h.heap());
  ASSERT_TRUE(h.rs().Commit(t3).ok());
  h.ctx(t3).CommitVolatile(h.heap());

  ASSERT_TRUE(h.CrashAndRecover().ok());
  RecoverableObject* rx = h.StableVar("X");
  ASSERT_TRUE(rx->base_version().is_ref());
  EXPECT_EQ(rx->base_version().as_ref()->base_version(), Value::Int(333));
  RecoverableObject* ry = h.StableVar("Y");
  ASSERT_TRUE(ry->base_version().is_ref());
  // X and Y share the restored O3 (sharing preserved, §2.4.3).
  EXPECT_EQ(rx->base_version().as_ref(), ry->base_version().as_ref());
}

}  // namespace
}  // namespace argus
