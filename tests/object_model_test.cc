// Tests for recoverable objects (§2.4), the volatile heap, and the per-action
// context: locks, versions, commit/abort installation, traversal.

#include <gtest/gtest.h>

#include "src/object/action_context.h"
#include "tests/test_support.h"

namespace argus {
namespace {

TEST(RecoverableObject, WriteLockCreatesCurrentVersion) {
  RecoverableObject obj(ObjectKind::kAtomic, Uid{1}, Value::Int(1));
  ActionId t1 = Aid(1);
  ASSERT_TRUE(obj.AcquireWriteLock(t1).ok());
  EXPECT_TRUE(obj.has_current());
  obj.MutableCurrent(t1) = Value::Int(2);
  EXPECT_EQ(obj.base_version(), Value::Int(1));
  EXPECT_EQ(obj.current_version(), Value::Int(2));
}

TEST(RecoverableObject, CommitInstallsCurrentAsBase) {
  RecoverableObject obj(ObjectKind::kAtomic, Uid{1}, Value::Int(1));
  ActionId t1 = Aid(1);
  ASSERT_TRUE(obj.AcquireWriteLock(t1).ok());
  obj.MutableCurrent(t1) = Value::Int(5);
  obj.CommitAction(t1);
  EXPECT_FALSE(obj.has_current());
  EXPECT_EQ(obj.base_version(), Value::Int(5));
  EXPECT_FALSE(obj.locked());
}

TEST(RecoverableObject, AbortDiscardsCurrent) {
  RecoverableObject obj(ObjectKind::kAtomic, Uid{1}, Value::Int(1));
  ActionId t1 = Aid(1);
  ASSERT_TRUE(obj.AcquireWriteLock(t1).ok());
  obj.MutableCurrent(t1) = Value::Int(5);
  obj.AbortAction(t1);
  EXPECT_EQ(obj.base_version(), Value::Int(1));
  EXPECT_FALSE(obj.locked());
}

TEST(RecoverableObject, ConflictingWriteLocksRefused) {
  RecoverableObject obj(ObjectKind::kAtomic, Uid{1}, Value::Int(0));
  ASSERT_TRUE(obj.AcquireWriteLock(Aid(1)).ok());
  EXPECT_EQ(obj.AcquireWriteLock(Aid(2)).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(obj.AcquireReadLock(Aid(2)).code(), ErrorCode::kUnavailable);
}

TEST(RecoverableObject, SharedReadLocksAllowed) {
  RecoverableObject obj(ObjectKind::kAtomic, Uid{1}, Value::Int(0));
  EXPECT_TRUE(obj.AcquireReadLock(Aid(1)).ok());
  EXPECT_TRUE(obj.AcquireReadLock(Aid(2)).ok());
  // Neither can upgrade while the other reads.
  EXPECT_EQ(obj.AcquireWriteLock(Aid(1)).code(), ErrorCode::kUnavailable);
}

TEST(RecoverableObject, SoleReaderCanUpgrade) {
  RecoverableObject obj(ObjectKind::kAtomic, Uid{1}, Value::Int(0));
  ActionId t1 = Aid(1);
  ASSERT_TRUE(obj.AcquireReadLock(t1).ok());
  EXPECT_TRUE(obj.AcquireWriteLock(t1).ok());
  EXPECT_TRUE(obj.HoldsWriteLock(t1));
}

TEST(RecoverableObject, WriteLockIsReentrant) {
  RecoverableObject obj(ObjectKind::kAtomic, Uid{1}, Value::Int(0));
  ActionId t1 = Aid(1);
  ASSERT_TRUE(obj.AcquireWriteLock(t1).ok());
  obj.MutableCurrent(t1) = Value::Int(1);
  ASSERT_TRUE(obj.AcquireWriteLock(t1).ok());
  // Re-acquisition must not clobber the tentative version.
  EXPECT_EQ(obj.current_version(), Value::Int(1));
}

TEST(RecoverableObject, MutexSeizeRelease) {
  RecoverableObject obj(ObjectKind::kMutex, Uid{2}, Value::Int(0));
  ActionId t1 = Aid(1);
  ActionId t2 = Aid(2);
  ASSERT_TRUE(obj.Seize(t1).ok());
  EXPECT_EQ(obj.Seize(t2).code(), ErrorCode::kUnavailable);
  obj.MutableValue(t1) = Value::Int(3);
  obj.Release(t1);
  EXPECT_TRUE(obj.Seize(t2).ok());
  EXPECT_EQ(obj.mutex_value(), Value::Int(3));
}

TEST(Heap, RootExistsWithUidZero) {
  VolatileHeap heap;
  ASSERT_NE(heap.root(), nullptr);
  EXPECT_EQ(heap.root()->uid(), Uid::Root());
  EXPECT_TRUE(heap.root()->base_version().is_record());
  EXPECT_EQ(heap.Get(Uid::Root()), heap.root());
}

TEST(Heap, CreateAssignsFreshUids) {
  VolatileHeap heap;
  ActionId t1 = Aid(1);
  RecoverableObject* a = heap.CreateAtomic(t1, Value::Int(1));
  RecoverableObject* b = heap.CreateMutex(Value::Int(2));
  EXPECT_NE(a->uid(), b->uid());
  EXPECT_TRUE(a->uid().valid());
  EXPECT_EQ(heap.Get(a->uid()), a);
  EXPECT_EQ(heap.Get(b->uid()), b);
}

TEST(Heap, CreatorHoldsReadLockOnNewAtomic) {
  VolatileHeap heap;
  ActionId t1 = Aid(1);
  RecoverableObject* a = heap.CreateAtomic(t1, Value::Int(1));
  EXPECT_TRUE(a->HoldsReadLock(t1));
}

TEST(Heap, TraversalFollowsBaseAndCurrentVersions) {
  VolatileHeap heap;
  ActionId t1 = Aid(1);
  RecoverableObject* a = heap.CreateAtomic(t1, Value::Int(1));
  RecoverableObject* b = heap.CreateAtomic(t1, Value::Int(2));
  // Root (base) → a committed; a's CURRENT version → b.
  heap.root()->RestoreBase(Value::OfRecord({{"a", Value::Ref(a)}}));
  ASSERT_TRUE(a->AcquireWriteLock(t1).ok());
  a->MutableCurrent(t1) = Value::Ref(b);

  std::unordered_set<Uid> uids = heap.ComputeAccessibleUids();
  EXPECT_TRUE(uids.contains(Uid::Root()));
  EXPECT_TRUE(uids.contains(a->uid()));
  EXPECT_TRUE(uids.contains(b->uid()));
}

TEST(Heap, TraversalSkipsUnreachable) {
  VolatileHeap heap;
  ActionId t1 = Aid(1);
  RecoverableObject* a = heap.CreateAtomic(t1, Value::Int(1));
  heap.CreateAtomic(t1, Value::Int(2));  // never linked
  heap.root()->RestoreBase(Value::OfRecord({{"a", Value::Ref(a)}}));
  EXPECT_EQ(heap.ComputeAccessibleUids().size(), 2u);  // root + a
}

TEST(Heap, InstallRecoveredBumpsUidCounter) {
  VolatileHeap heap;
  heap.InstallRecovered(Uid{41}, ObjectKind::kAtomic);
  EXPECT_GE(heap.next_uid(), 42u);
}

TEST(ActionContext, WriteRecordsInMos) {
  VolatileHeap heap;
  ActionContext ctx(Aid(1));
  RecoverableObject* a = ctx.CreateAtomic(heap, Value::Int(0));
  ASSERT_TRUE(ctx.WriteObject(a, Value::Int(9)).ok());
  EXPECT_TRUE(ctx.mos().contains(a->uid()));
  EXPECT_EQ(a->current_version(), Value::Int(9));
}

TEST(ActionContext, ReadDoesNotEnterMos) {
  VolatileHeap heap;
  ActionContext writer(Aid(1));
  RecoverableObject* a = writer.CreateAtomic(heap, Value::Int(4));
  writer.CommitVolatile(heap);

  ActionContext reader(Aid(2));
  Result<const Value*> v = reader.ReadObject(a);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), &a->base_version()) << "the view is the version itself, not a copy";
  EXPECT_EQ(*v.value(), Value::Int(4));
  EXPECT_TRUE(reader.mos().empty());
}

TEST(ActionContext, ReadViewShowsOwnTentativeWrite) {
  VolatileHeap heap;
  ActionContext creator(Aid(1));
  RecoverableObject* a = creator.CreateAtomic(heap, Value::Int(4));
  creator.CommitVolatile(heap);

  ActionContext ctx(Aid(2));
  ASSERT_TRUE(ctx.WriteObject(a, Value::Int(5)).ok());
  Result<const Value*> v = ctx.ReadObject(a);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), &a->current_version());
  EXPECT_EQ(*v.value(), Value::Int(5));
  EXPECT_EQ(a->base_version(), Value::Int(4));
}

TEST(ActionContext, ReadViewHoldsTheReadLock) {
  VolatileHeap heap;
  ActionContext creator(Aid(1));
  RecoverableObject* a = creator.CreateAtomic(heap, Value::Int(4));
  creator.CommitVolatile(heap);

  ActionContext reader(Aid(2));
  Result<const Value*> v = reader.ReadObject(a);
  ASSERT_TRUE(v.ok());
  ActionContext writer(Aid(3));
  EXPECT_EQ(writer.WriteObject(a, Value::Int(9)).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(*v.value(), Value::Int(4));
  reader.CommitVolatile(heap);
  EXPECT_TRUE(writer.WriteObject(a, Value::Int(9)).ok());
}

TEST(ActionContext, CommitVolatileInstallsAndReleases) {
  VolatileHeap heap;
  ActionContext ctx(Aid(1));
  RecoverableObject* a = ctx.CreateAtomic(heap, Value::Int(0));
  ASSERT_TRUE(ctx.WriteObject(a, Value::Int(8)).ok());
  ctx.CommitVolatile(heap);
  EXPECT_EQ(a->base_version(), Value::Int(8));
  EXPECT_FALSE(a->locked());
  EXPECT_TRUE(ctx.mos().empty());
}

TEST(ActionContext, AbortVolatileDiscards) {
  VolatileHeap heap;
  ActionContext creator(Aid(1));
  RecoverableObject* a = creator.CreateAtomic(heap, Value::Int(1));
  creator.CommitVolatile(heap);

  ActionContext ctx(Aid(2));
  ASSERT_TRUE(ctx.WriteObject(a, Value::Int(2)).ok());
  ctx.AbortVolatile(heap);
  EXPECT_EQ(a->base_version(), Value::Int(1));
  EXPECT_FALSE(a->locked());
}

TEST(ActionContext, MutateMutexSeizesAndRecords) {
  VolatileHeap heap;
  ActionContext ctx(Aid(1));
  RecoverableObject* m = ctx.CreateMutex(heap, Value::Int(0));
  ASSERT_TRUE(ctx.MutateMutex(m, [](Value& v) { v = Value::Int(10); }).ok());
  EXPECT_EQ(m->mutex_value(), Value::Int(10));
  EXPECT_FALSE(m->seized());
  EXPECT_TRUE(ctx.mos().contains(m->uid()));
}

TEST(ActionContext, UpdateObjectEditsInPlace) {
  VolatileHeap heap;
  ActionContext ctx(Aid(1));
  RecoverableObject* a = ctx.CreateAtomic(heap, Value::OfList({Value::Int(1)}));
  ASSERT_TRUE(
      ctx.UpdateObject(a, [](Value& v) { v.as_list().push_back(Value::Int(2)); }).ok());
  EXPECT_EQ(a->current_version().as_list().size(), 2u);
}

TEST(ActionContext, WriteConflictSurfacesUnavailable) {
  VolatileHeap heap;
  ActionContext creator(Aid(1));
  RecoverableObject* a = creator.CreateAtomic(heap, Value::Int(0));
  creator.CommitVolatile(heap);

  ActionContext t2(Aid(2));
  ActionContext t3(Aid(3));
  ASSERT_TRUE(t2.WriteObject(a, Value::Int(1)).ok());
  EXPECT_EQ(t3.WriteObject(a, Value::Int(2)).code(), ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace argus
