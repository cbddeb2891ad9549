// Tests for two-phase commit across guardians (§2.2) on the simulated
// network: happy paths, participant aborts, queries, and log contents.

#include <gtest/gtest.h>

#include "src/tpc/sim_world.h"
#include "tests/test_support.h"

namespace argus {
namespace {

SimWorldConfig Config(std::size_t guardians, LogMode mode = LogMode::kHybrid) {
  SimWorldConfig config;
  config.guardian_count = guardians;
  config.mode = mode;
  config.seed = 7;
  return config;
}

// Creates stable integer object `name` = value at guardian `gid`.
void SeedVar(SimWorld& world, GuardianId gid, const std::string& name, std::int64_t value) {
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(gid, [&](SimWorld& w, ActionId aid) -> Status {
        return w.RunAt(aid, gid, [&](Guardian& g, ActionContext& ctx) -> Status {
          RecoverableObject* obj = ctx.CreateAtomic(g.heap(), Value::Int(value));
          return g.SetStableVariable(aid, name, obj);
        });
      });
  ASSERT_TRUE(fate.ok());
  ASSERT_EQ(fate.value(), Guardian::ActionFate::kCommitted);
}

std::int64_t ReadVar(SimWorld& world, GuardianId gid, const std::string& name) {
  RecoverableObject* obj = world.guardian(gid).CommittedStableVariable(name);
  if (obj == nullptr) {
    return -1;
  }
  return obj->base_version().as_int();
}

TEST(TwoPhase, SingleGuardianCommit) {
  SimWorld world(Config(1));
  SeedVar(world, GuardianId{0}, "x", 5);
  EXPECT_EQ(ReadVar(world, GuardianId{0}, "x"), 5);
}

TEST(TwoPhase, StableVariableLookupReadsTheRootThroughTheActionsView) {
  SimWorld world(Config(1));
  SeedVar(world, GuardianId{0}, "x", 5);
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
        return w.RunAt(aid, GuardianId{0}, [&](Guardian& g, ActionContext& ctx) -> Status {
          RecoverableObject* y = ctx.CreateAtomic(g.heap(), Value::Int(6));
          Status s = g.SetStableVariable(aid, "y", y);
          if (!s.ok()) {
            return s;
          }
          s = ctx.UpdateObject(g.heap().root(),
                               [](Value& root) { root.as_record()["plain"] = Value::Int(3); });
          if (!s.ok()) {
            return s;
          }
          EXPECT_EQ(g.GetStableVariable(aid, "missing").status().code(), ErrorCode::kNotFound);
          EXPECT_EQ(g.GetStableVariable(aid, "plain").status().code(), ErrorCode::kNotFound);
          // The lookup sees this action's tentative root, not only the base.
          Result<RecoverableObject*> found = g.GetStableVariable(aid, "y");
          EXPECT_TRUE(found.ok() && found.value() == y);
          found = g.GetStableVariable(aid, "x");
          EXPECT_TRUE(found.ok() && found.value() == g.CommittedStableVariable("x"));
          return Status::Ok();
        });
      });
  ASSERT_TRUE(fate.ok());
  EXPECT_EQ(fate.value(), Guardian::ActionFate::kCommitted);
  EXPECT_EQ(ReadVar(world, GuardianId{0}, "y"), 6);
  EXPECT_EQ(world.guardian(GuardianId{0}).CommittedStableVariable("plain"), nullptr);
}

TEST(TwoPhase, DistributedTransferCommits) {
  SimWorld world(Config(3));
  SeedVar(world, GuardianId{1}, "balance", 100);
  SeedVar(world, GuardianId{2}, "balance", 50);

  // Coordinator at G0 moves 30 from G1 to G2.
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
        Status s = w.RunAt(aid, GuardianId{1}, [&](Guardian& g, ActionContext& ctx) -> Status {
          Result<RecoverableObject*> v = g.GetStableVariable(aid, "balance");
          if (!v.ok()) {
            return v.status();
          }
          return ctx.UpdateObject(v.value(), [](Value& b) {
            b = Value::Int(b.as_int() - 30);
          });
        });
        if (!s.ok()) {
          return s;
        }
        return w.RunAt(aid, GuardianId{2}, [&](Guardian& g, ActionContext& ctx) -> Status {
          Result<RecoverableObject*> v = g.GetStableVariable(aid, "balance");
          if (!v.ok()) {
            return v.status();
          }
          return ctx.UpdateObject(v.value(), [](Value& b) {
            b = Value::Int(b.as_int() + 30);
          });
        });
      });
  ASSERT_TRUE(fate.ok());
  EXPECT_EQ(fate.value(), Guardian::ActionFate::kCommitted);
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "balance"), 70);
  EXPECT_EQ(ReadVar(world, GuardianId{2}, "balance"), 80);
  // The coordinator finished 2PC (done record written).
  // Fate is reported by the coordinator guardian itself.
}

TEST(TwoPhase, BodyFailureAbortsEverywhere) {
  SimWorld world(Config(2));
  SeedVar(world, GuardianId{1}, "x", 10);
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
        Status s = w.RunAt(aid, GuardianId{1}, [&](Guardian& g, ActionContext& ctx) -> Status {
          Result<RecoverableObject*> v = g.GetStableVariable(aid, "x");
          if (!v.ok()) {
            return v.status();
          }
          return ctx.UpdateObject(v.value(), [](Value& b) { b = Value::Int(999); });
        });
        if (!s.ok()) {
          return s;
        }
        return Status::Unavailable("handler failed");  // body fails → abort
      });
  ASSERT_TRUE(fate.ok());
  EXPECT_EQ(fate.value(), Guardian::ActionFate::kAborted);
  world.Pump();
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), 10);
  // The write lock was released by the abort.
  EXPECT_FALSE(world.guardian(1).CommittedStableVariable("x")->locked());
}

TEST(TwoPhase, LockConflictLeadsToAbortWithoutDamage) {
  SimWorld world(Config(2));
  SeedVar(world, GuardianId{1}, "x", 1);

  // First action takes the write lock and stays open.
  Guardian& g0 = world.guardian(0);
  ActionId holder = g0.BeginTopAction();
  ASSERT_TRUE(world.RunAt(holder, GuardianId{1}, [&](Guardian& g, ActionContext& ctx) {
    Result<RecoverableObject*> v = g.GetStableVariable(holder, "x");
    EXPECT_TRUE(v.ok());
    return ctx.UpdateObject(v.value(), [](Value& b) { b = Value::Int(2); });
  }).ok());

  // Second action conflicts and aborts.
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
        return w.RunAt(aid, GuardianId{1}, [&](Guardian& g, ActionContext& ctx) -> Status {
          Result<RecoverableObject*> v = g.GetStableVariable(aid, "x");
          if (!v.ok()) {
            return v.status();
          }
          return ctx.UpdateObject(v.value(), [](Value& b) { b = Value::Int(3); });
        });
      });
  ASSERT_TRUE(fate.ok());
  EXPECT_EQ(fate.value(), Guardian::ActionFate::kAborted);

  // First action still completes.
  ASSERT_TRUE(g0.RequestCommit(holder).ok());
  world.Pump();
  EXPECT_EQ(g0.FateOf(holder), Guardian::ActionFate::kCommitted);
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), 2);
}

TEST(TwoPhase, CoordinatorIsAlsoParticipant) {
  SimWorld world(Config(2));
  SeedVar(world, GuardianId{0}, "local", 1);
  SeedVar(world, GuardianId{1}, "remote", 1);
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
        Status s = w.RunAt(aid, GuardianId{0}, [&](Guardian& g, ActionContext& ctx) -> Status {
          Result<RecoverableObject*> v = g.GetStableVariable(aid, "local");
          if (!v.ok()) {
            return v.status();
          }
          return ctx.UpdateObject(v.value(), [](Value& b) { b = Value::Int(2); });
        });
        if (!s.ok()) {
          return s;
        }
        return w.RunAt(aid, GuardianId{1}, [&](Guardian& g, ActionContext& ctx) -> Status {
          Result<RecoverableObject*> v = g.GetStableVariable(aid, "remote");
          if (!v.ok()) {
            return v.status();
          }
          return ctx.UpdateObject(v.value(), [](Value& b) { b = Value::Int(2); });
        });
      });
  ASSERT_TRUE(fate.ok());
  EXPECT_EQ(fate.value(), Guardian::ActionFate::kCommitted);
  EXPECT_EQ(ReadVar(world, GuardianId{0}, "local"), 2);
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "remote"), 2);
}

TEST(TwoPhase, ReadOnlyActionCommitsVacuously) {
  SimWorld world(Config(1));
  SeedVar(world, GuardianId{0}, "x", 5);
  const obs::Scope guardian0{.guardian = 0, .shard = 0};
  std::uint64_t forces_before = CounterValue("log.forces", guardian0);
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
        return w.RunAt(aid, GuardianId{0}, [&](Guardian& g, ActionContext& ctx) -> Status {
          Result<RecoverableObject*> v = g.GetStableVariable(aid, "x");
          if (!v.ok()) {
            return v.status();
          }
          Result<const Value*> value = ctx.ReadObject(v.value());
          return value.ok() ? Status::Ok() : value.status();
        });
      });
  ASSERT_TRUE(fate.ok());
  EXPECT_EQ(fate.value(), Guardian::ActionFate::kCommitted);
  // A read-only participant still votes and writes no data entries. The lone
  // guardian commits in one phase: an empty prepared entry and the committed
  // record, made durable by one small force.
  std::uint64_t forces_after = CounterValue("log.forces", guardian0);
  EXPECT_EQ(forces_after - forces_before, 1u);
}

TEST(TwoPhase, SequentialActionsAccumulate) {
  SimWorld world(Config(2));
  SeedVar(world, GuardianId{1}, "sum", 0);
  for (int i = 1; i <= 10; ++i) {
    Result<Guardian::ActionFate> fate =
        world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
          return w.RunAt(aid, GuardianId{1}, [&](Guardian& g, ActionContext& ctx) -> Status {
            Result<RecoverableObject*> v = g.GetStableVariable(aid, "sum");
            if (!v.ok()) {
              return v.status();
            }
            return ctx.UpdateObject(v.value(), [i](Value& b) {
              b = Value::Int(b.as_int() + i);
            });
          });
        });
    ASSERT_TRUE(fate.ok());
    ASSERT_EQ(fate.value(), Guardian::ActionFate::kCommitted);
  }
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "sum"), 55);
}

TEST(TwoPhase, ParticipantForcesTwicePerCommittedAction) {
  // §2.2/§3.3: a participant forces prepared and committed. The coordinator,
  // which did no work here, forces only its committing record (the commit
  // point); its done record is staged and rides a later force.
  SimWorld world(Config(2));
  SeedVar(world, GuardianId{1}, "x", 0);
  // Each guardian's one log counts under {guardian=g, shard=0}.
  const obs::Scope participant{.guardian = 1, .shard = 0};
  const obs::Scope coordinator{.guardian = 0, .shard = 0};
  std::uint64_t p_before = CounterValue("log.forces", participant);
  std::uint64_t c_before = CounterValue("log.forces", coordinator);
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
        return w.RunAt(aid, GuardianId{1}, [&](Guardian& g, ActionContext& ctx) -> Status {
          Result<RecoverableObject*> v = g.GetStableVariable(aid, "x");
          if (!v.ok()) {
            return v.status();
          }
          return ctx.UpdateObject(v.value(), [](Value& b) { b = Value::Int(1); });
        });
      });
  ASSERT_TRUE(fate.ok());
  ASSERT_EQ(fate.value(), Guardian::ActionFate::kCommitted);
  EXPECT_EQ(CounterValue("log.forces", participant) - p_before, 2u);
  EXPECT_EQ(CounterValue("log.forces", coordinator) - c_before, 1u);
}

// Increments "x" at each guardian in `where`, coordinated by G0; `*action`
// names the action.
Result<Guardian::ActionFate> IncrementAt(SimWorld& world, const std::vector<std::uint32_t>& where,
                                         ActionId* action) {
  return world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
    *action = aid;
    for (std::uint32_t g : where) {
      Status s = w.RunAt(aid, GuardianId{g}, [&](Guardian& guard, ActionContext& ctx) -> Status {
        Result<RecoverableObject*> v = guard.GetStableVariable(aid, "x");
        if (!v.ok()) {
          return v.status();
        }
        return ctx.UpdateObject(v.value(), [](Value& b) { b = Value::Int(b.as_int() + 1); });
      });
      if (!s.ok()) {
        return s;
      }
    }
    return Status::Ok();
  });
}

TEST(TwoPhase, OneGuardianActionCostsOneForceAndNoMessage) {
  // One-phase commit: the coordinator is the only participant, so it stages
  // prepared and committed and forces once; no committing or done record is
  // written and no message is sent.
  SimWorld world(Config(2));
  SeedVar(world, GuardianId{0}, "x", 0);
  const obs::Scope coordinator{.guardian = 0, .shard = 0};
  const std::uint64_t forces_before = CounterValue("log.forces", coordinator);
  const std::uint64_t messages_before = CounterValue("tpc.net.sent");
  ActionId aid;
  Result<Guardian::ActionFate> fate = IncrementAt(world, {0}, &aid);
  ASSERT_TRUE(fate.ok());
  ASSERT_EQ(fate.value(), Guardian::ActionFate::kCommitted);
  EXPECT_EQ(CounterValue("log.forces", coordinator) - forces_before, 1u);
  EXPECT_EQ(CounterValue("tpc.net.sent") - messages_before, 0u);
  EXPECT_TRUE(world.guardian(0).TwoPhaseDone(aid));
  EXPECT_EQ(ReadVar(world, GuardianId{0}, "x"), 1);

  // A crash right after the ack: the one committed record is the verdict.
  world.guardian(0).Crash();
  ASSERT_TRUE(world.guardian(0).Restart().ok());
  world.Pump();
  EXPECT_EQ(ReadVar(world, GuardianId{0}, "x"), 1);
  EXPECT_FALSE(world.guardian(0).CommittedStableVariable("x")->locked());
}

TEST(TwoPhase, TwoGuardianActionWhoseCoordinatorWritesForcesOnceThere) {
  // The coordinator's own prepared entry is staged, and its committing and
  // committed records ride one force (the commit point); done is staged. The
  // participant forces prepared and committed. Messages: prepare, its ack,
  // commit, its ack, with the participant only.
  SimWorld world(Config(2));
  SeedVar(world, GuardianId{0}, "x", 0);
  SeedVar(world, GuardianId{1}, "x", 0);
  const obs::Scope coordinator{.guardian = 0, .shard = 0};
  const obs::Scope participant{.guardian = 1, .shard = 0};
  const std::uint64_t c_before = CounterValue("log.forces", coordinator);
  const std::uint64_t p_before = CounterValue("log.forces", participant);
  const std::uint64_t messages_before = CounterValue("tpc.net.sent");
  ActionId aid;
  Result<Guardian::ActionFate> fate = IncrementAt(world, {0, 1}, &aid);
  ASSERT_TRUE(fate.ok());
  ASSERT_EQ(fate.value(), Guardian::ActionFate::kCommitted);
  EXPECT_EQ(CounterValue("log.forces", coordinator) - c_before, 1u);
  EXPECT_EQ(CounterValue("log.forces", participant) - p_before, 2u);
  EXPECT_EQ(CounterValue("tpc.net.sent") - messages_before, 4u);
  EXPECT_EQ(ReadVar(world, GuardianId{0}, "x"), 1);
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), 1);

  // Crashed before anything forced its done record, the coordinator restarts
  // committing, re-sends commit, and the participant re-acks.
  world.guardian(0).Crash();
  Result<RecoveryInfo> info = world.guardian(0).Restart();
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info.value().ct.contains(aid));
  EXPECT_EQ(info.value().ct.at(aid).phase, CoordinatorPhase::kCommitting);
  world.Pump();
  EXPECT_TRUE(world.guardian(0).TwoPhaseDone(aid));
  EXPECT_EQ(ReadVar(world, GuardianId{0}, "x"), 1);
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), 1);
}

TEST(TwoPhase, WorksOnSimpleLogToo) {
  SimWorld world(Config(2, LogMode::kSimple));
  SeedVar(world, GuardianId{1}, "x", 3);
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
        return w.RunAt(aid, GuardianId{1}, [&](Guardian& g, ActionContext& ctx) -> Status {
          Result<RecoverableObject*> v = g.GetStableVariable(aid, "x");
          if (!v.ok()) {
            return v.status();
          }
          return ctx.UpdateObject(v.value(), [](Value& b) { b = Value::Int(4); });
        });
      });
  ASSERT_TRUE(fate.ok());
  EXPECT_EQ(fate.value(), Guardian::ActionFate::kCommitted);
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), 4);
}

}  // namespace
}  // namespace argus
