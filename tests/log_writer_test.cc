// Tests for the writing algorithm (§3.3.3.3): which entries reach the log in
// each accessibility/lock case, for both log organizations.

#include <gtest/gtest.h>

#include "src/recovery/log_writer.h"
#include "src/object/action_context.h"
#include "tests/test_support.h"

namespace argus {
namespace {

std::vector<LogEntry> AllEntries(const StableLog& log) {
  std::vector<LogEntry> out;
  StableLog::ForwardCursor cursor = log.ReadForwardFrom(0);
  while (true) {
    auto next = cursor.Next();
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok() || !next.value().has_value()) {
      break;
    }
    out.push_back(next.value()->second);
  }
  return out;
}

template <typename T>
std::size_t CountOf(const std::vector<LogEntry>& entries) {
  std::size_t n = 0;
  for (const LogEntry& e : entries) {
    if (std::holds_alternative<T>(e)) {
      ++n;
    }
  }
  return n;
}

struct WriterFixture {
  explicit WriterFixture(LogMode mode)
      : log(MakeMemLog()), writer(mode, log.get(), &heap) {}

  std::unique_ptr<StableLog> log;
  VolatileHeap heap;
  LogWriter writer;
};

TEST(LogWriterSimple, AccessibleModifiedObjectGetsDataEntry) {
  WriterFixture f(LogMode::kSimple);
  ActionId t1 = Aid(1);
  ActionContext ctx(t1);
  // Make an object stable (and accessible) under t0 first.
  ActionId t0 = Aid(99);
  ActionContext ctx0(t0);
  RecoverableObject* a = ctx0.CreateAtomic(f.heap, Value::Int(0));
  ASSERT_TRUE(ctx0.UpdateObject(f.heap.root(), [&](Value& r) {
    r.as_record()["a"] = Value::Ref(a);
  }).ok());
  ASSERT_TRUE(f.writer.Prepare(t0, ctx0.TakeMos()).ok());
  ASSERT_TRUE(f.writer.Commit(t0).ok());
  ctx0.CommitVolatile(f.heap);

  // Now t1 modifies the accessible object.
  ASSERT_TRUE(ctx.WriteObject(a, Value::Int(7)).ok());
  ASSERT_TRUE(f.writer.Prepare(t1, ctx.TakeMos()).ok());

  std::vector<LogEntry> entries = AllEntries(*f.log);
  // t0: root data + bc(a) + prepared + committed; t1: data(a) + prepared.
  ASSERT_GE(entries.size(), 6u);
  const auto* data = std::get_if<DataEntry>(&entries[entries.size() - 2]);
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->uid, a->uid());   // simple log: uid present
  EXPECT_EQ(data->aid, t1);         // simple log: aid present
  EXPECT_EQ(data->kind, ObjectKind::kAtomic);
}

TEST(LogWriterSimple, NewlyCreatedObjectGetsBaseCommitted) {
  WriterFixture f(LogMode::kSimple);
  ActionId t1 = Aid(1);
  ActionContext ctx(t1);
  RecoverableObject* a = ctx.CreateAtomic(f.heap, Value::Int(5));
  ASSERT_TRUE(ctx.UpdateObject(f.heap.root(), [&](Value& r) {
    r.as_record()["a"] = Value::Ref(a);
  }).ok());
  ASSERT_TRUE(f.writer.Prepare(t1, ctx.TakeMos()).ok());

  std::vector<LogEntry> entries = AllEntries(*f.log);
  EXPECT_EQ(CountOf<BaseCommittedEntry>(entries), 1u);
  EXPECT_EQ(CountOf<DataEntry>(entries), 1u);  // just the root
  EXPECT_EQ(CountOf<PreparedEntry>(entries), 1u);
  // The creating action held only a read lock → single version, no data
  // entry for the new object (§3.3.3.3 step 4a).
  bool found = false;
  for (const LogEntry& e : entries) {
    if (const auto* bc = std::get_if<BaseCommittedEntry>(&e)) {
      EXPECT_EQ(bc->uid, a->uid());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LogWriterSimple, NewlyAccessibleWriteLockedGetsBaseAndCurrent) {
  WriterFixture f(LogMode::kSimple);
  ActionId t1 = Aid(1);
  ActionContext ctx(t1);
  // Create an object, link it, AND modify it in the same action: the writer
  // must emit bc(base) + data(current).
  RecoverableObject* a = ctx.CreateAtomic(f.heap, Value::Int(5));
  ASSERT_TRUE(ctx.WriteObject(a, Value::Int(6)).ok());  // upgrades to write lock
  ASSERT_TRUE(ctx.UpdateObject(f.heap.root(), [&](Value& r) {
    r.as_record()["a"] = Value::Ref(a);
  }).ok());
  ASSERT_TRUE(f.writer.Prepare(t1, ctx.TakeMos()).ok());

  std::vector<LogEntry> entries = AllEntries(*f.log);
  EXPECT_EQ(CountOf<BaseCommittedEntry>(entries), 1u);
  EXPECT_EQ(CountOf<DataEntry>(entries), 2u);  // root + a's current version
}

TEST(LogWriterSimple, NewlyAccessibleLockedByPreparedActionGetsPreparedData) {
  WriterFixture f(LogMode::kSimple);
  // t0 creates object a (stable), commits. t1 write-locks a and PREPARES
  // while a is accessible... then t2 makes a SECOND object b accessible that
  // t1 had also locked but that was inaccessible at t1's prepare.
  ActionId t0 = Aid(10);
  ActionContext ctx0(t0);
  RecoverableObject* root_obj = ctx0.CreateAtomic(f.heap, Value::Nil());
  ASSERT_TRUE(ctx0.UpdateObject(f.heap.root(), [&](Value& r) {
    r.as_record()["x"] = Value::Ref(root_obj);
  }).ok());
  ASSERT_TRUE(f.writer.Prepare(t0, ctx0.TakeMos()).ok());
  ASSERT_TRUE(f.writer.Commit(t0).ok());
  ctx0.CommitVolatile(f.heap);

  // b exists but is inaccessible; t1 modifies it and prepares (b not written:
  // it is not accessible).
  ActionId t1 = Aid(1);
  ActionContext ctx1(t1);
  RecoverableObject* b = ctx1.CreateAtomic(f.heap, Value::Int(1));
  ASSERT_TRUE(ctx1.WriteObject(b, Value::Int(2)).ok());
  ASSERT_TRUE(f.writer.Prepare(t1, ctx1.TakeMos()).ok());
  EXPECT_TRUE(f.writer.prepared_actions().contains(t1));

  std::size_t entries_before = AllEntries(*f.log).size();

  // t2 links b into the stable state: newly accessible, write-locked by the
  // PREPARED t1 → bc(base) + prepared_data(current, t1).
  ActionId t2 = Aid(2);
  ActionContext ctx2(t2);
  ASSERT_TRUE(ctx2.UpdateObject(root_obj, [&](Value& v) { v = Value::Ref(b); }).ok());
  ASSERT_TRUE(f.writer.Prepare(t2, ctx2.TakeMos()).ok());

  std::vector<LogEntry> entries = AllEntries(*f.log);
  ASSERT_GT(entries.size(), entries_before);
  EXPECT_EQ(CountOf<PreparedDataEntry>(entries), 1u);
  for (const LogEntry& e : entries) {
    if (const auto* pd = std::get_if<PreparedDataEntry>(&e)) {
      EXPECT_EQ(pd->uid, b->uid());
      EXPECT_EQ(pd->aid, t1);
    }
  }
}

TEST(LogWriterSimple, NewlyAccessibleLockedByUnpreparedActionGetsOnlyBase) {
  WriterFixture f(LogMode::kSimple);
  ActionId t0 = Aid(10);
  ActionContext ctx0(t0);
  RecoverableObject* slot = ctx0.CreateAtomic(f.heap, Value::Nil());
  ASSERT_TRUE(ctx0.UpdateObject(f.heap.root(), [&](Value& r) {
    r.as_record()["slot"] = Value::Ref(slot);
  }).ok());
  ASSERT_TRUE(f.writer.Prepare(t0, ctx0.TakeMos()).ok());
  ASSERT_TRUE(f.writer.Commit(t0).ok());
  ctx0.CommitVolatile(f.heap);

  ActionId t1 = Aid(1);  // modifies b but does NOT prepare
  ActionContext ctx1(t1);
  RecoverableObject* b = ctx1.CreateAtomic(f.heap, Value::Int(1));
  ASSERT_TRUE(ctx1.WriteObject(b, Value::Int(2)).ok());

  ActionId t2 = Aid(2);
  ActionContext ctx2(t2);
  ASSERT_TRUE(ctx2.UpdateObject(slot, [&](Value& v) { v = Value::Ref(b); }).ok());
  ASSERT_TRUE(f.writer.Prepare(t2, ctx2.TakeMos()).ok());

  std::vector<LogEntry> entries = AllEntries(*f.log);
  EXPECT_EQ(CountOf<PreparedDataEntry>(entries), 0u);
  EXPECT_EQ(CountOf<BaseCommittedEntry>(entries), 2u);  // slot at t0, b at t2
}

TEST(LogWriterSimple, NewlyAccessibleMutexGetsDataEntry) {
  WriterFixture f(LogMode::kSimple);
  ActionId t1 = Aid(1);
  ActionContext ctx(t1);
  RecoverableObject* m = ctx.CreateMutex(f.heap, Value::Int(3));
  ASSERT_TRUE(ctx.UpdateObject(f.heap.root(), [&](Value& r) {
    r.as_record()["m"] = Value::Ref(m);
  }).ok());
  ASSERT_TRUE(f.writer.Prepare(t1, ctx.TakeMos()).ok());

  bool found = false;
  for (const LogEntry& e : AllEntries(*f.log)) {
    if (const auto* data = std::get_if<DataEntry>(&e)) {
      if (data->kind == ObjectKind::kMutex) {
        EXPECT_EQ(data->uid, m->uid());
        EXPECT_EQ(data->aid, t1);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
  // MT tracks the latest prepared mutex version.
  EXPECT_TRUE(f.writer.mutex_table().contains(m->uid()));
}

TEST(LogWriterSimple, InaccessibleMosObjectsAreNotWritten) {
  WriterFixture f(LogMode::kSimple);
  ActionId t1 = Aid(1);
  ActionContext ctx(t1);
  RecoverableObject* orphan = ctx.CreateAtomic(f.heap, Value::Int(1));
  ASSERT_TRUE(ctx.WriteObject(orphan, Value::Int(2)).ok());
  // Never linked to the root: nothing but the prepared entry is logged.
  ASSERT_TRUE(f.writer.Prepare(t1, ctx.TakeMos()).ok());
  std::vector<LogEntry> entries = AllEntries(*f.log);
  EXPECT_EQ(CountOf<DataEntry>(entries), 0u);
  EXPECT_EQ(CountOf<BaseCommittedEntry>(entries), 0u);
  EXPECT_EQ(CountOf<PreparedEntry>(entries), 1u);
}

TEST(LogWriterHybrid, DataEntriesAreAnonymousAndPairedInPrepared) {
  WriterFixture f(LogMode::kHybrid);
  ActionId t1 = Aid(1);
  ActionContext ctx(t1);
  RecoverableObject* a = ctx.CreateAtomic(f.heap, Value::Int(5));
  ASSERT_TRUE(ctx.WriteObject(a, Value::Int(6)).ok());
  ASSERT_TRUE(ctx.UpdateObject(f.heap.root(), [&](Value& r) {
    r.as_record()["a"] = Value::Ref(a);
  }).ok());
  ASSERT_TRUE(f.writer.Prepare(t1, ctx.TakeMos()).ok());

  std::vector<LogEntry> entries = AllEntries(*f.log);
  for (const LogEntry& e : entries) {
    if (const auto* data = std::get_if<DataEntry>(&e)) {
      EXPECT_FALSE(data->uid.valid());  // hybrid data entries carry no uid
      EXPECT_FALSE(data->aid.valid());
    }
  }
  // The prepared entry lists <uid, address> pairs for root and a.
  const auto* prepared = std::get_if<PreparedEntry>(&entries.back());
  ASSERT_NE(prepared, nullptr);
  EXPECT_EQ(prepared->objects.size(), 2u);
  // Pairs dereference to data entries.
  for (const UidAddress& pair : prepared->objects) {
    Result<LogEntry> target = f.log->Read(pair.address);
    ASSERT_TRUE(target.ok());
    EXPECT_TRUE(std::holds_alternative<DataEntry>(target.value()));
  }
}

TEST(LogWriterHybrid, OutcomeEntriesFormBackwardChain) {
  WriterFixture f(LogMode::kHybrid);
  ActionId t1 = Aid(1);
  ActionContext ctx(t1);
  RecoverableObject* a = ctx.CreateAtomic(f.heap, Value::Int(1));
  ASSERT_TRUE(ctx.UpdateObject(f.heap.root(), [&](Value& r) {
    r.as_record()["a"] = Value::Ref(a);
  }).ok());
  ASSERT_TRUE(f.writer.Prepare(t1, ctx.TakeMos()).ok());
  ASSERT_TRUE(f.writer.Commit(t1).ok());

  // Walk the chain from the writer's head: committed → prepared → bc → null.
  LogAddress addr = f.writer.last_outcome_address();
  std::vector<std::string> kinds;
  while (!addr.is_null()) {
    Result<LogEntry> e = f.log->Read(addr);
    ASSERT_TRUE(e.ok());
    kinds.push_back(DescribeEntry(e.value()).substr(0, DescribeEntry(e.value()).find('{')));
    addr = PrevPointer(e.value());
  }
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], "committed");
  EXPECT_EQ(kinds[1], "prepared");
  EXPECT_EQ(kinds[2], "base_committed");
}

TEST(LogWriterHybrid, CoordinatorEntriesJoinChain) {
  WriterFixture f(LogMode::kHybrid);
  ActionId t1 = Aid(1);
  ASSERT_TRUE(f.writer.WaitDurable(f.writer.StageCommitting(t1, {GuardianId{1}, GuardianId{2}}))
                  .ok());
  f.writer.StageDone(t1);  // staged only; the chain reads it all the same
  LogAddress addr = f.writer.last_outcome_address();
  Result<LogEntry> done = f.log->Read(addr);
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(std::holds_alternative<DoneEntry>(done.value()));
  Result<LogEntry> committing = f.log->Read(PrevPointer(done.value()));
  ASSERT_TRUE(committing.ok());
  const auto* c = std::get_if<CommittingEntry>(&committing.value());
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->participants.size(), 2u);
}

TEST(LogWriter, PreparedActionsTableLifecycle) {
  WriterFixture f(LogMode::kHybrid);
  ActionId t1 = Aid(1);
  ActionContext ctx(t1);
  RecoverableObject* a = ctx.CreateAtomic(f.heap, Value::Int(1));
  ASSERT_TRUE(ctx.UpdateObject(f.heap.root(), [&](Value& r) {
    r.as_record()["a"] = Value::Ref(a);
  }).ok());
  EXPECT_FALSE(f.writer.prepared_actions().contains(t1));
  ASSERT_TRUE(f.writer.Prepare(t1, ctx.TakeMos()).ok());
  EXPECT_TRUE(f.writer.prepared_actions().contains(t1));
  ASSERT_TRUE(f.writer.Commit(t1).ok());
  EXPECT_FALSE(f.writer.prepared_actions().contains(t1));
}

TEST(LogWriter, AbortWithoutPrepareWritesNothing) {
  WriterFixture f(LogMode::kHybrid);
  ActionId t1 = Aid(1);
  ASSERT_TRUE(f.writer.Abort(t1).ok());
  EXPECT_TRUE(AllEntries(*f.log).empty());
}

TEST(LogWriter, AbortAfterPrepareWritesAbortedEntry) {
  WriterFixture f(LogMode::kHybrid);
  ActionId t1 = Aid(1);
  ActionContext ctx(t1);
  RecoverableObject* a = ctx.CreateAtomic(f.heap, Value::Int(1));
  ASSERT_TRUE(ctx.UpdateObject(f.heap.root(), [&](Value& r) {
    r.as_record()["a"] = Value::Ref(a);
  }).ok());
  ASSERT_TRUE(f.writer.Prepare(t1, ctx.TakeMos()).ok());
  ASSERT_TRUE(f.writer.Abort(t1).ok());
  EXPECT_EQ(CountOf<AbortedEntry>(AllEntries(*f.log)), 1u);
}

TEST(LogWriter, AccessibilitySetGrowsWithNewObjects) {
  WriterFixture f(LogMode::kHybrid);
  EXPECT_EQ(f.writer.accessibility_set().size(), 1u);  // the root
  ActionId t1 = Aid(1);
  ActionContext ctx(t1);
  RecoverableObject* a = ctx.CreateAtomic(f.heap, Value::Int(1));
  ASSERT_TRUE(ctx.UpdateObject(f.heap.root(), [&](Value& r) {
    r.as_record()["a"] = Value::Ref(a);
  }).ok());
  ASSERT_TRUE(f.writer.Prepare(t1, ctx.TakeMos()).ok());
  EXPECT_TRUE(f.writer.accessibility_set().contains(a->uid()));
}

TEST(LogWriter, TrimAccessibilitySetDropsUnreachable) {
  WriterFixture f(LogMode::kHybrid);
  ActionId t1 = Aid(1);
  ActionContext ctx(t1);
  RecoverableObject* a = ctx.CreateAtomic(f.heap, Value::Int(1));
  RecoverableObject* b = ctx.CreateAtomic(f.heap, Value::Int(2));
  ASSERT_TRUE(ctx.UpdateObject(f.heap.root(), [&](Value& r) {
    r.as_record()["a"] = Value::Ref(a);
    r.as_record()["b"] = Value::Ref(b);
  }).ok());
  ASSERT_TRUE(f.writer.Prepare(t1, ctx.TakeMos()).ok());
  ASSERT_TRUE(f.writer.Commit(t1).ok());
  ctx.CommitVolatile(f.heap);
  ASSERT_EQ(f.writer.accessibility_set().size(), 3u);

  // Unlink b; its uid lingers in the AS until a trim.
  ActionId t2 = Aid(2);
  ActionContext ctx2(t2);
  ASSERT_TRUE(ctx2.UpdateObject(f.heap.root(), [&](Value& r) {
    r.as_record().erase("b");
  }).ok());
  ASSERT_TRUE(f.writer.Prepare(t2, ctx2.TakeMos()).ok());
  ASSERT_TRUE(f.writer.Commit(t2).ok());
  ctx2.CommitVolatile(f.heap);
  EXPECT_TRUE(f.writer.accessibility_set().contains(b->uid()));

  f.writer.TrimAccessibilitySet();
  EXPECT_FALSE(f.writer.accessibility_set().contains(b->uid()));
  EXPECT_TRUE(f.writer.accessibility_set().contains(a->uid()));
}

TEST(LogWriter, SharedNewObjectWrittenOnce) {
  // Two accessible objects both point at the same new object: it must be
  // processed exactly once (the second NAOS hit sees it in the AS).
  WriterFixture f(LogMode::kHybrid);
  ActionId t1 = Aid(1);
  ActionContext ctx(t1);
  RecoverableObject* shared = ctx.CreateAtomic(f.heap, Value::Int(9));
  ASSERT_TRUE(ctx.UpdateObject(f.heap.root(), [&](Value& r) {
    r.as_record()["x"] = Value::Ref(shared);
    r.as_record()["y"] = Value::Ref(shared);
  }).ok());
  ASSERT_TRUE(f.writer.Prepare(t1, ctx.TakeMos()).ok());
  EXPECT_EQ(CountOf<BaseCommittedEntry>(AllEntries(*f.log)), 1u);
}

}  // namespace
}  // namespace argus
