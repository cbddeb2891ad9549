// End-to-end recovery tests for the SIMPLE log (chapter 3): write through the
// recovery system, crash, recover, and check the restored stable state and
// the returned OT/PT tables.

#include <gtest/gtest.h>

#include "tests/test_support.h"

namespace argus {
namespace {

TEST(SimpleRecovery, FreshGuardianRecoversEmptyRoot) {
  StorageHarness h(LogMode::kSimple);
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  // The guardian-creation entry restores exactly the (empty) root.
  ASSERT_EQ(info.value().ot.size(), 1u);
  EXPECT_TRUE(info.value().ot.contains(Uid::Root()));
  EXPECT_TRUE(info.value().pt.empty());
  ASSERT_TRUE(h.heap().root()->base_version().is_record());
  EXPECT_TRUE(h.heap().root()->base_version().as_record().empty());
}

TEST(SimpleRecovery, CommittedObjectSurvivesCrash) {
  StorageHarness h(LogMode::kSimple);
  ActionId t1 = Aid(1);
  RecoverableObject* acct = h.ctx(t1).CreateAtomic(h.heap(), Value::Int(100));
  ASSERT_TRUE(h.BindStable(t1, "account", acct).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());

  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  RecoverableObject* restored = h.StableVar("account");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->base_version(), Value::Int(100));
  EXPECT_EQ(info.value().pt.at(t1), ParticipantState::kCommitted);
}

TEST(SimpleRecovery, UncommittedModificationDoesNotSurvive) {
  StorageHarness h(LogMode::kSimple);
  ActionId t1 = Aid(1);
  RecoverableObject* acct = h.ctx(t1).CreateAtomic(h.heap(), Value::Int(100));
  ASSERT_TRUE(h.BindStable(t1, "account", acct).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());

  // t2 modifies but never prepares: the change is volatile only.
  ActionId t2 = Aid(2);
  RecoverableObject* obj = h.StableVar("account");
  ASSERT_TRUE(h.ctx(t2).WriteObject(obj, Value::Int(999)).ok());

  ASSERT_TRUE(h.CrashAndRecover().ok());
  RecoverableObject* restored = h.StableVar("account");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->base_version(), Value::Int(100));
}

TEST(SimpleRecovery, PreparedUndecidedActionIsRestoredWithLock) {
  StorageHarness h(LogMode::kSimple);
  ActionId t1 = Aid(1);
  RecoverableObject* acct = h.ctx(t1).CreateAtomic(h.heap(), Value::Int(100));
  ASSERT_TRUE(h.BindStable(t1, "account", acct).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());

  ActionId t2 = Aid(2);
  ASSERT_TRUE(h.ctx(t2).WriteObject(h.StableVar("account"), Value::Int(55)).ok());
  ASSERT_TRUE(h.PrepareOnly(t2).ok());

  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().pt.at(t2), ParticipantState::kPrepared);

  RecoverableObject* restored = h.StableVar("account");
  ASSERT_NE(restored, nullptr);
  // Base = committed value; current = tentative value, write-locked by t2.
  EXPECT_EQ(restored->base_version(), Value::Int(100));
  EXPECT_TRUE(restored->has_current());
  EXPECT_EQ(restored->current_version(), Value::Int(55));
  EXPECT_TRUE(restored->HoldsWriteLock(t2));
}

TEST(SimpleRecovery, PreparedThenCommittedAfterRecoveryInstalls) {
  StorageHarness h(LogMode::kSimple);
  ActionId t1 = Aid(1);
  RecoverableObject* acct = h.ctx(t1).CreateAtomic(h.heap(), Value::Int(1));
  ASSERT_TRUE(h.BindStable(t1, "v", acct).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());

  ActionId t2 = Aid(2);
  ASSERT_TRUE(h.ctx(t2).WriteObject(h.StableVar("v"), Value::Int(2)).ok());
  ASSERT_TRUE(h.PrepareOnly(t2).ok());
  ASSERT_TRUE(h.CrashAndRecover().ok());

  // The coordinator's verdict arrives after recovery: commit.
  ASSERT_TRUE(h.rs().Commit(t2).ok());
  RecoverableObject* obj = h.StableVar("v");
  obj->CommitAction(t2);
  EXPECT_EQ(obj->base_version(), Value::Int(2));

  // And it survives another crash.
  ASSERT_TRUE(h.CrashAndRecover().ok());
  EXPECT_EQ(h.StableVar("v")->base_version(), Value::Int(2));
}

TEST(SimpleRecovery, AbortedActionChangesDiscarded) {
  StorageHarness h(LogMode::kSimple);
  ActionId t1 = Aid(1);
  RecoverableObject* acct = h.ctx(t1).CreateAtomic(h.heap(), Value::Int(10));
  ASSERT_TRUE(h.BindStable(t1, "v", acct).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());

  ActionId t2 = Aid(2);
  ASSERT_TRUE(h.ctx(t2).WriteObject(h.StableVar("v"), Value::Int(20)).ok());
  ASSERT_TRUE(h.PrepareOnly(t2).ok());
  ASSERT_TRUE(h.AbortPrepared(t2).ok());

  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().pt.at(t2), ParticipantState::kAborted);
  EXPECT_EQ(h.StableVar("v")->base_version(), Value::Int(10));
  EXPECT_FALSE(h.StableVar("v")->locked());
}

TEST(SimpleRecovery, MutexSurvivesAbortOfPreparedAction) {
  // Scenario 2 (Figure 3-8) semantics: a mutex version written by an action
  // that PREPARED is restored even though the action later aborted.
  StorageHarness h(LogMode::kSimple);
  ActionId t1 = Aid(1);
  RecoverableObject* m = h.ctx(t1).CreateMutex(h.heap(), Value::Int(0));
  ASSERT_TRUE(h.BindStable(t1, "m", m).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());

  ActionId t2 = Aid(2);
  ASSERT_TRUE(h.ctx(t2).MutateMutex(h.StableVar("m"),
                                    [](Value& v) { v = Value::Int(42); }).ok());
  ASSERT_TRUE(h.PrepareOnly(t2).ok());
  ASSERT_TRUE(h.AbortPrepared(t2).ok());

  ASSERT_TRUE(h.CrashAndRecover().ok());
  EXPECT_EQ(h.StableVar("m")->mutex_value(), Value::Int(42));
}

TEST(SimpleRecovery, MutexOfUnpreparedActionNotRestored) {
  StorageHarness h(LogMode::kSimple);
  ActionId t1 = Aid(1);
  RecoverableObject* m = h.ctx(t1).CreateMutex(h.heap(), Value::Int(7));
  ASSERT_TRUE(h.BindStable(t1, "m", m).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());

  ActionId t2 = Aid(2);
  ASSERT_TRUE(h.ctx(t2).MutateMutex(h.StableVar("m"),
                                    [](Value& v) { v = Value::Int(99); }).ok());
  // t2 never prepares; crash.
  ASSERT_TRUE(h.CrashAndRecover().ok());
  EXPECT_EQ(h.StableVar("m")->mutex_value(), Value::Int(7));
}

TEST(SimpleRecovery, ObjectGraphWithSharingIsRebuilt) {
  StorageHarness h(LogMode::kSimple);
  ActionId t1 = Aid(1);
  RecoverableObject* shared = h.ctx(t1).CreateAtomic(h.heap(), Value::Str("shared"));
  RecoverableObject* left = h.ctx(t1).CreateAtomic(h.heap(), Value::Ref(shared));
  RecoverableObject* right = h.ctx(t1).CreateAtomic(h.heap(), Value::Ref(shared));
  ASSERT_TRUE(h.BindStable(t1, "left", left).ok());
  ASSERT_TRUE(h.BindStable(t1, "right", right).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());

  ASSERT_TRUE(h.CrashAndRecover().ok());
  RecoverableObject* l = h.StableVar("left");
  RecoverableObject* r = h.StableVar("right");
  ASSERT_NE(l, nullptr);
  ASSERT_NE(r, nullptr);
  // Sharing of recoverable objects is preserved (§2.4.3).
  ASSERT_TRUE(l->base_version().is_ref());
  ASSERT_TRUE(r->base_version().is_ref());
  EXPECT_EQ(l->base_version().as_ref(), r->base_version().as_ref());
  EXPECT_EQ(l->base_version().as_ref()->base_version(), Value::Str("shared"));
}

TEST(SimpleRecovery, MultipleCommitsLatestVersionWins) {
  StorageHarness h(LogMode::kSimple);
  ActionId t1 = Aid(1);
  RecoverableObject* v = h.ctx(t1).CreateAtomic(h.heap(), Value::Int(0));
  ASSERT_TRUE(h.BindStable(t1, "v", v).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());
  for (std::uint64_t i = 2; i <= 10; ++i) {
    ActionId t = Aid(i);
    ASSERT_TRUE(h.ctx(t).WriteObject(h.StableVar("v"),
                                     Value::Int(static_cast<std::int64_t>(i))).ok());
    ASSERT_TRUE(h.PrepareAndCommit(t).ok());
  }
  ASSERT_TRUE(h.CrashAndRecover().ok());
  EXPECT_EQ(h.StableVar("v")->base_version(), Value::Int(10));
}

TEST(SimpleRecovery, UidCounterResumesPastRecoveredUids) {
  StorageHarness h(LogMode::kSimple);
  ActionId t1 = Aid(1);
  RecoverableObject* a = h.ctx(t1).CreateAtomic(h.heap(), Value::Int(1));
  Uid old_uid = a->uid();
  ASSERT_TRUE(h.BindStable(t1, "a", a).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());

  ASSERT_TRUE(h.CrashAndRecover().ok());
  ActionId t2 = Aid(2);
  RecoverableObject* fresh = h.ctx(t2).CreateAtomic(h.heap(), Value::Int(2));
  EXPECT_GT(fresh->uid().value, old_uid.value);  // no uid reuse (§3.2)
}

TEST(SimpleRecovery, AccessibilitySetRebuiltFromTraversal) {
  StorageHarness h(LogMode::kSimple);
  ActionId t1 = Aid(1);
  RecoverableObject* a = h.ctx(t1).CreateAtomic(h.heap(), Value::Int(1));
  ASSERT_TRUE(h.BindStable(t1, "a", a).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());
  ASSERT_TRUE(h.CrashAndRecover().ok());
  const AccessibilitySet& as = h.rs().writer().accessibility_set();
  EXPECT_TRUE(as.contains(Uid::Root()));
  EXPECT_TRUE(as.contains(h.StableVar("a")->uid()));
}

TEST(SimpleRecovery, CoordinatorTablesRestored) {
  // The coordinator forces its committing record (the commit point) and only
  // stages done: done survives a crash once a later force carries it.
  StorageHarness h(LogMode::kSimple);
  ActionId t1 = Aid(1);
  ASSERT_TRUE(h.rs().WaitDurable(h.rs().StageCommitting(t1, {GuardianId{1}, GuardianId{2}})).ok());
  ActionId t2 = Aid(2);
  ASSERT_TRUE(h.rs().WaitDurable(h.rs().StageCommitting(t2, {GuardianId{3}})).ok());
  h.rs().StageDone(t2);

  // Crashed before any force, t2's done is lost and t2 recovers as committing
  // (its coordinator re-sends commit).
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().ct.at(t1).phase, CoordinatorPhase::kCommitting);
  ASSERT_EQ(info.value().ct.at(t1).participants.size(), 2u);
  EXPECT_EQ(info.value().ct.at(t2).phase, CoordinatorPhase::kCommitting);

  // Staged again, t2's done survives once a later action's commit forces the log.
  h.rs().StageDone(t2);
  ActionId t3 = Aid(3);
  RecoverableObject* a = h.ctx(t3).CreateAtomic(h.heap(), Value::Int(3));
  ASSERT_TRUE(h.BindStable(t3, "a", a).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t3).ok());
  info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().ct.at(t1).phase, CoordinatorPhase::kCommitting);
  EXPECT_EQ(info.value().ct.at(t2).phase, CoordinatorPhase::kDone);
}

TEST(SimpleRecovery, CommittedSsEntryIsRejected) {
  // committed_ss is a hybrid-log (housekeeping) construct; finding one in a
  // simple log is corruption, not something to skip silently.
  auto log = MakeMemLog();
  log->Write(LogEntry(CommittedSsEntry{{}, LogAddress::Null()}));
  ASSERT_TRUE(log->Force().ok());
  VolatileHeap heap;
  Result<RecoveryResult> r = RecoverSimpleLog(*log, heap);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorruption);
}

TEST(SimpleRecovery, RepeatedCrashesAreIdempotent) {
  StorageHarness h(LogMode::kSimple);
  ActionId t1 = Aid(1);
  RecoverableObject* v = h.ctx(t1).CreateAtomic(h.heap(), Value::Int(123));
  ASSERT_TRUE(h.BindStable(t1, "v", v).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(h.CrashAndRecover().ok()) << "crash " << i;
    EXPECT_EQ(h.StableVar("v")->base_version(), Value::Int(123));
  }
}

}  // namespace
}  // namespace argus
