// Tests for nested subactions (§2.1): volatile undo, MOS hygiene, nesting,
// mutex semantics, and composition with top-level commit + crash recovery.

#include <gtest/gtest.h>

#include "src/object/subaction.h"
#include "tests/test_support.h"

namespace argus {
namespace {

struct Fixture {
  Fixture() : h(LogMode::kHybrid) {
    ActionId t0 = Aid(100);
    RecoverableObject* a = h.ctx(t0).CreateAtomic(h.heap(), Value::Int(0));
    RecoverableObject* m = h.ctx(t0).CreateMutex(h.heap(), Value::Int(0));
    EXPECT_TRUE(h.BindStable(t0, "a", a).ok());
    EXPECT_TRUE(h.BindStable(t0, "m", m).ok());
    EXPECT_TRUE(h.PrepareAndCommit(t0).ok());
  }
  StorageHarness h;
};

TEST(Subaction, CommittedSubactionEffectsStayWithTop) {
  Fixture f;
  ActionId top = Aid(1);
  ActionContext& ctx = f.h.ctx(top);
  {
    SubactionScope sub(&ctx, &f.h.heap());
    ASSERT_TRUE(sub.WriteObject(f.h.StableVar("a"), Value::Int(5)).ok());
    sub.Commit();
  }
  EXPECT_EQ(f.h.StableVar("a")->current_version(), Value::Int(5));
  EXPECT_TRUE(ctx.InMos(f.h.StableVar("a")->uid()));
  ASSERT_TRUE(f.h.PrepareAndCommit(top).ok());
  ASSERT_TRUE(f.h.CrashAndRecover().ok());
  EXPECT_EQ(f.h.StableVar("a")->base_version(), Value::Int(5));
}

TEST(Subaction, AbortedSubactionRollsBackTentativeValue) {
  Fixture f;
  ActionId top = Aid(1);
  ActionContext& ctx = f.h.ctx(top);
  // Top writes 3; subaction writes 9 then aborts.
  ASSERT_TRUE(ctx.WriteObject(f.h.StableVar("a"), Value::Int(3)).ok());
  {
    SubactionScope sub(&ctx, &f.h.heap());
    ASSERT_TRUE(sub.WriteObject(f.h.StableVar("a"), Value::Int(9)).ok());
    sub.Abort();
  }
  EXPECT_EQ(f.h.StableVar("a")->current_version(), Value::Int(3));
  // Still in the MOS: the top's own write survives.
  EXPECT_TRUE(ctx.InMos(f.h.StableVar("a")->uid()));
  ASSERT_TRUE(f.h.PrepareAndCommit(top).ok());
  EXPECT_EQ(f.h.StableVar("a")->base_version(), Value::Int(3));
}

TEST(Subaction, AbortedFirstWriterLeavesObjectOutOfMos) {
  Fixture f;
  ActionId top = Aid(1);
  ActionContext& ctx = f.h.ctx(top);
  {
    SubactionScope sub(&ctx, &f.h.heap());
    ASSERT_TRUE(sub.WriteObject(f.h.StableVar("a"), Value::Int(9)).ok());
    sub.Abort();
  }
  EXPECT_FALSE(ctx.InMos(f.h.StableVar("a")->uid()));
  EXPECT_EQ(f.h.StableVar("a")->current_version(), Value::Int(0));
  // Committing the (now-empty) top writes nothing for "a".
  ASSERT_TRUE(f.h.PrepareAndCommit(top).ok());
  ASSERT_TRUE(f.h.CrashAndRecover().ok());
  EXPECT_EQ(f.h.StableVar("a")->base_version(), Value::Int(0));
}

TEST(Subaction, DestructorAbortsOpenScope) {
  Fixture f;
  ActionId top = Aid(1);
  ActionContext& ctx = f.h.ctx(top);
  {
    SubactionScope sub(&ctx, &f.h.heap());
    ASSERT_TRUE(sub.WriteObject(f.h.StableVar("a"), Value::Int(42)).ok());
    // No Commit(): the handler reply was lost.
  }
  EXPECT_EQ(f.h.StableVar("a")->current_version(), Value::Int(0));
}

TEST(Subaction, NestedScopesUnwindCorrectly) {
  Fixture f;
  ActionId top = Aid(1);
  ActionContext& ctx = f.h.ctx(top);
  ASSERT_TRUE(ctx.WriteObject(f.h.StableVar("a"), Value::Int(1)).ok());
  {
    SubactionScope outer(&ctx, &f.h.heap());
    ASSERT_TRUE(outer.WriteObject(f.h.StableVar("a"), Value::Int(2)).ok());
    {
      SubactionScope inner(&ctx, &f.h.heap(), &outer);
      ASSERT_TRUE(inner.WriteObject(f.h.StableVar("a"), Value::Int(3)).ok());
      inner.Abort();
    }
    // Inner abort restores outer's value.
    EXPECT_EQ(f.h.StableVar("a")->current_version(), Value::Int(2));
    outer.Commit();
  }
  EXPECT_EQ(f.h.StableVar("a")->current_version(), Value::Int(2));
  ASSERT_TRUE(f.h.PrepareAndCommit(top).ok());
  EXPECT_EQ(f.h.StableVar("a")->base_version(), Value::Int(2));
}

TEST(Subaction, NestedCommitThenOuterAbortUnwindsBoth) {
  // Commit is RELATIVE: the inner subaction committed into the outer one, so
  // the outer's abort unwinds the inner's write too.
  Fixture f;
  ActionId top = Aid(1);
  ActionContext& ctx = f.h.ctx(top);
  {
    SubactionScope outer(&ctx, &f.h.heap());
    {
      SubactionScope inner(&ctx, &f.h.heap(), &outer);
      ASSERT_TRUE(inner.WriteObject(f.h.StableVar("a"), Value::Int(7)).ok());
      inner.Commit();
    }
    EXPECT_EQ(f.h.StableVar("a")->current_version(), Value::Int(7));
    outer.Abort();
  }
  EXPECT_EQ(f.h.StableVar("a")->current_version(), Value::Int(0));
  EXPECT_FALSE(ctx.InMos(f.h.StableVar("a")->uid()));
}

TEST(Subaction, InnerAbortOuterCommitKeepsOuterWrites) {
  Fixture f;
  ActionId top = Aid(1);
  ActionContext& ctx = f.h.ctx(top);
  {
    SubactionScope outer(&ctx, &f.h.heap());
    ASSERT_TRUE(outer.WriteObject(f.h.StableVar("a"), Value::Int(2)).ok());
    {
      SubactionScope inner(&ctx, &f.h.heap(), &outer);
      ASSERT_TRUE(inner.WriteObject(f.h.StableVar("a"), Value::Int(3)).ok());
      inner.Abort();  // back to 2
    }
    outer.Commit();
  }
  ASSERT_TRUE(f.h.PrepareAndCommit(top).ok());
  ASSERT_TRUE(f.h.CrashAndRecover().ok());
  EXPECT_EQ(f.h.StableVar("a")->base_version(), Value::Int(2));
}

TEST(Subaction, TwoSiblingsOlderPreStateWinsOnOuterAbort) {
  Fixture f;
  ActionId top = Aid(1);
  ActionContext& ctx = f.h.ctx(top);
  ASSERT_TRUE(ctx.WriteObject(f.h.StableVar("a"), Value::Int(1)).ok());
  {
    SubactionScope outer(&ctx, &f.h.heap());
    {
      SubactionScope first(&ctx, &f.h.heap(), &outer);
      ASSERT_TRUE(first.WriteObject(f.h.StableVar("a"), Value::Int(3)).ok());
      first.Commit();
    }
    {
      SubactionScope second(&ctx, &f.h.heap(), &outer);
      ASSERT_TRUE(second.WriteObject(f.h.StableVar("a"), Value::Int(5)).ok());
      second.Commit();
    }
    outer.Abort();
  }
  // Both siblings unwind; the top action's own write (1) is what remains.
  EXPECT_EQ(f.h.StableVar("a")->current_version(), Value::Int(1));
  EXPECT_TRUE(ctx.InMos(f.h.StableVar("a")->uid()));
}

TEST(Subaction, MutexMutationSurvivesSubactionAbort) {
  Fixture f;
  ActionId top = Aid(1);
  ActionContext& ctx = f.h.ctx(top);
  {
    SubactionScope sub(&ctx, &f.h.heap());
    ASSERT_TRUE(sub.MutateMutex(f.h.StableVar("m"),
                                [](Value& v) { v = Value::Int(99); }).ok());
    sub.Abort();
  }
  // Mutex discipline: the mutation stands and stays in the MOS.
  EXPECT_EQ(f.h.StableVar("m")->mutex_value(), Value::Int(99));
  EXPECT_TRUE(ctx.InMos(f.h.StableVar("m")->uid()));
}

TEST(Subaction, CreatedObjectForgottenOnAbort) {
  Fixture f;
  ActionId top = Aid(1);
  ActionContext& ctx = f.h.ctx(top);
  Uid created_uid;
  {
    SubactionScope sub(&ctx, &f.h.heap());
    RecoverableObject* fresh = sub.CreateAtomic(Value::Int(123));
    created_uid = fresh->uid();
    ASSERT_TRUE(sub.WriteObject(fresh, Value::Int(124)).ok());
    sub.Abort();
  }
  EXPECT_FALSE(ctx.InMos(created_uid));
  // The top action commits cleanly; the garbage object never hits the log.
  ASSERT_TRUE(f.h.PrepareAndCommit(top).ok());
  ASSERT_TRUE(f.h.CrashAndRecover().ok());
  EXPECT_EQ(f.h.heap().Get(created_uid), nullptr);
}

TEST(Subaction, ReadsSeeEnclosingTentativeState) {
  Fixture f;
  ActionId top = Aid(1);
  ActionContext& ctx = f.h.ctx(top);
  ASSERT_TRUE(ctx.WriteObject(f.h.StableVar("a"), Value::Int(6)).ok());
  SubactionScope sub(&ctx, &f.h.heap());
  Result<const Value*> v = sub.ReadObject(f.h.StableVar("a"));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v.value(), Value::Int(6));
  sub.Commit();
}

TEST(Subaction, ReadViewFollowsTheFamilysTentativeVersion) {
  Fixture f;
  ActionId top = Aid(1);
  ActionContext& ctx = f.h.ctx(top);
  RecoverableObject* a = f.h.StableVar("a");
  SubactionScope sub(&ctx, &f.h.heap());
  Result<const Value*> before = sub.ReadObject(a);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value(), &a->base_version());

  // A write ends the earlier view; a fresh read shows the tentative version.
  ASSERT_TRUE(sub.WriteObject(a, Value::Int(7)).ok());
  Result<const Value*> after = sub.ReadObject(a);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), &a->current_version());
  EXPECT_EQ(*after.value(), Value::Int(7));
  sub.Abort();
  EXPECT_EQ(*ctx.ReadObject(a).value(), Value::Int(0));
}

TEST(Subaction, CrashDiscardsEverythingUncommittedIncludingSubactions) {
  Fixture f;
  ActionId top = Aid(1);
  ActionContext& ctx = f.h.ctx(top);
  {
    SubactionScope sub(&ctx, &f.h.heap());
    ASSERT_TRUE(sub.WriteObject(f.h.StableVar("a"), Value::Int(31)).ok());
    sub.Commit();
  }
  // The top never prepares; crash.
  ASSERT_TRUE(f.h.CrashAndRecover().ok());
  EXPECT_EQ(f.h.StableVar("a")->base_version(), Value::Int(0));
}

}  // namespace
}  // namespace argus
