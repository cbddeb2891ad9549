// Guardian-level protocol edge cases: duplicate deliveries, stale messages,
// aborts past the commit point, lossy networks, and partitions.

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/tpc/sim_world.h"
#include "tests/test_support.h"

namespace argus {
namespace {

SimWorldConfig MakeConfig(std::size_t guardians, std::uint64_t seed = 17) {
  SimWorldConfig config;
  config.guardian_count = guardians;
  config.mode = LogMode::kHybrid;
  config.seed = seed;
  return config;
}

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
  return obj == nullptr ? -1 : obj->base_version().as_int();
}

ActionId StartIncrement(SimWorld& world, GuardianId target) {
  Guardian& g0 = world.guardian(0);
  ActionId aid = g0.BeginTopAction();
  Status s = world.RunAt(aid, target, [&](Guardian& g, ActionContext& ctx) -> Status {
    Result<RecoverableObject*> v = g.GetStableVariable(aid, "x");
    if (!v.ok()) {
      return v.status();
    }
    return ctx.UpdateObject(v.value(), [](Value& b) { b = Value::Int(b.as_int() + 1); });
  });
  EXPECT_TRUE(s.ok());
  return aid;
}

TEST(GuardianProtocol, DuplicatePrepareIsIdempotent) {
  SimWorld world(MakeConfig(2));
  SeedVar(world, GuardianId{1}, "x", 0);
  ActionId aid = StartIncrement(world, GuardianId{1});
  ASSERT_TRUE(world.guardian(0).RequestCommit(aid).ok());
  // Inject a duplicate prepare before pumping.
  world.network().Send(Message{GuardianId{0}, GuardianId{1}, MessageType::kPrepare, aid, false});
  world.Pump();
  EXPECT_EQ(world.guardian(0).FateOf(aid), Guardian::ActionFate::kCommitted);
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), 1);
}

TEST(GuardianProtocol, DuplicateCommitIsIdempotent) {
  SimWorld world(MakeConfig(2));
  SeedVar(world, GuardianId{1}, "x", 0);
  ActionId aid = StartIncrement(world, GuardianId{1});
  ASSERT_TRUE(world.guardian(0).RequestCommit(aid).ok());
  world.Pump();
  const obs::Scope participant{.guardian = 1, .shard = 0};
  std::uint64_t forces = CounterValue("log.forces", participant);
  // A stale duplicate commit arrives late.
  world.network().Send(Message{GuardianId{0}, GuardianId{1}, MessageType::kCommit, aid, false});
  world.Pump();
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), 1);
  // No extra committed record was forced.
  EXPECT_EQ(CounterValue("log.forces", participant), forces);
}

TEST(GuardianProtocol, AbortAfterCommitPointIsRefused) {
  SimWorld world(MakeConfig(2));
  SeedVar(world, GuardianId{1}, "x", 0);
  ActionId aid = StartIncrement(world, GuardianId{1});
  ASSERT_TRUE(world.guardian(0).RequestCommit(aid).ok());
  world.Step();  // prepare
  world.Step();  // ack → committing record forced: the commit point
  world.guardian(0).AbortTopAction(aid);  // must be a no-op now
  world.Pump();
  EXPECT_EQ(world.guardian(0).FateOf(aid), Guardian::ActionFate::kCommitted);
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), 1);
}

TEST(GuardianProtocol, StaleQueryAfterDoneGetsCommitReply) {
  SimWorld world(MakeConfig(2));
  SeedVar(world, GuardianId{1}, "x", 0);
  ActionId aid = StartIncrement(world, GuardianId{1});
  ASSERT_TRUE(world.guardian(0).RequestCommit(aid).ok());
  world.Pump();
  ASSERT_TRUE(world.guardian(0).TwoPhaseDone(aid));
  // A participant (pretend it lost its state) queries after done.
  world.network().Send(Message{GuardianId{1}, GuardianId{0}, MessageType::kQuery, aid, false});
  auto reply_probe = [&]() -> bool {
    // Deliver the query; the reply lands in the queue next.
    world.Step();
    std::optional<Message> reply = world.network().NextDelivery();
    EXPECT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, MessageType::kQueryReply);
    return reply->positive;
  };
  EXPECT_TRUE(reply_probe());
}

TEST(GuardianProtocol, QueryForUnknownActionGetsAbortReply) {
  SimWorld world(MakeConfig(2));
  ActionId phantom{GuardianId{0}, 999};
  world.network().Send(
      Message{GuardianId{1}, GuardianId{0}, MessageType::kQuery, phantom, false});
  world.Step();
  std::optional<Message> reply = world.network().NextDelivery();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MessageType::kQueryReply);
  EXPECT_FALSE(reply->positive);
}

TEST(GuardianProtocol, LossyNetworkEventuallyCommitsWithRetries) {
  SimWorld world(MakeConfig(2, 23));
  SeedVar(world, GuardianId{1}, "x", 0);
  ActionId aid = StartIncrement(world, GuardianId{1});
  world.network().set_drop_probability(0.4);
  ASSERT_TRUE(world.guardian(0).RequestCommit(aid).ok());
  world.Pump();
  world.network().set_drop_probability(0.0);
  // Drive retries until the protocol settles: prepared participants re-query;
  // a committing coordinator replies commit through QueryReply.
  for (int i = 0; i < 20 && !world.guardian(0).TwoPhaseDone(aid); ++i) {
    world.guardian(1).RequeryOutstanding();
    world.Pump();
    if (world.guardian(0).FateOf(aid) == Guardian::ActionFate::kInProgress) {
      // The prepare itself may have been lost; a real system re-sends it.
      ASSERT_TRUE(world.guardian(0).RequestCommit(aid).ok());
      world.Pump();
    }
  }
  Guardian::ActionFate fate = world.guardian(0).FateOf(aid);
  if (fate == Guardian::ActionFate::kCommitted) {
    EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), 1);
  } else {
    EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), 0);
  }
}

TEST(GuardianProtocol, MessagesToCrashedGuardianAreCounted) {
  SimWorld world(MakeConfig(2));
  SeedVar(world, GuardianId{1}, "x", 0);
  ActionId aid = StartIncrement(world, GuardianId{1});
  world.guardian(1).Crash();
  ASSERT_TRUE(world.guardian(0).RequestCommit(aid).ok());
  world.Pump();
  EXPECT_GE(world.guardian(1).messages_dropped_while_crashed(), 1u);
}

TEST(GuardianProtocol, PartitionedParticipantHealsAndCommits) {
  SimWorld world(MakeConfig(2));
  SeedVar(world, GuardianId{1}, "x", 0);
  ActionId aid = StartIncrement(world, GuardianId{1});
  world.network().Partition(GuardianId{1});
  ASSERT_TRUE(world.guardian(0).RequestCommit(aid).ok());
  world.Pump();  // prepare dropped
  EXPECT_EQ(world.guardian(0).FateOf(aid), Guardian::ActionFate::kInProgress);
  world.network().Heal(GuardianId{1});
  // Coordinator re-sends the prepare (retry).
  ASSERT_TRUE(world.guardian(0).RequestCommit(aid).ok());
  world.Pump();
  EXPECT_EQ(world.guardian(0).FateOf(aid), Guardian::ActionFate::kCommitted);
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), 1);
}

TEST(GuardianProtocol, SelfAbortReleasesCoordinatorLocks) {
  // Regression: AbortTopAction records the aborted outcome before the
  // self-addressed abort message is delivered; the handler must still
  // release the coordinator's own locks.
  SimWorld world(MakeConfig(1));
  SeedVar(world, GuardianId{0}, "x", 5);
  Guardian& g0 = world.guardian(0);
  ActionId aid = g0.BeginTopAction();
  ASSERT_TRUE(world.RunAt(aid, GuardianId{0}, [&](Guardian& g, ActionContext& ctx) -> Status {
    Result<RecoverableObject*> v = g.GetStableVariable(aid, "x");
    if (!v.ok()) {
      return v.status();
    }
    return ctx.UpdateObject(v.value(), [](Value& b) { b = Value::Int(6); });
  }).ok());
  g0.AbortTopAction(aid);
  world.Pump();
  RecoverableObject* x = g0.CommittedStableVariable("x");
  EXPECT_FALSE(x->locked());
  EXPECT_EQ(x->base_version(), Value::Int(5));
  // A fresh action can take the lock and commit.
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId next) -> Status {
        return w.RunAt(next, GuardianId{0}, [&](Guardian& g, ActionContext& ctx) -> Status {
          Result<RecoverableObject*> v = g.GetStableVariable(next, "x");
          if (!v.ok()) {
            return v.status();
          }
          return ctx.UpdateObject(v.value(), [](Value& b) { b = Value::Int(7); });
        });
      });
  ASSERT_TRUE(fate.ok());
  EXPECT_EQ(fate.value(), Guardian::ActionFate::kCommitted);
  EXPECT_EQ(ReadVar(world, GuardianId{0}, "x"), 7);
}

TEST(GuardianProtocol, CoordinatorCrashBeforeCommitPointResolvesAsPresumedAbort) {
  // The §2.2.3 presumed-abort end-to-end: the participant prepares and holds
  // its lock; the coordinator crashes BEFORE forcing the committing record.
  // After its restart the coordinator's table has no trace of the action —
  // and that absence IS the abort verdict, delivered via kQuery/kQueryReply.
  SimWorld world(MakeConfig(2, 29));
  SeedVar(world, GuardianId{1}, "x", 0);
  const std::uint64_t presumed_before = obs::GetCounter("tpc.presumed_aborts")->Value();
  ActionId aid = StartIncrement(world, GuardianId{1});
  ASSERT_TRUE(world.guardian(0).RequestCommit(aid).ok());
  world.Step();  // prepare delivered: participant 1 is now prepared, in doubt
  ASSERT_EQ(world.guardian(1).FateOf(aid), Guardian::ActionFate::kInProgress);

  world.guardian(0).Crash();  // the ack (and the commit point) die with it
  world.Pump();
  ASSERT_TRUE(world.guardian(0).Restart().ok());

  // The in-doubt participant re-queries; the restarted coordinator has no
  // job for the aid, so the reply is negative.
  world.guardian(1).RequeryOutstanding();
  world.Pump();
  EXPECT_EQ(world.guardian(1).FateOf(aid), Guardian::ActionFate::kAborted);
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), 0);
  EXPECT_GE(obs::GetCounter("tpc.presumed_aborts")->Value(), presumed_before + 1);

  // The presumed abort released the lock: fresh traffic commits.
  ActionId next = StartIncrement(world, GuardianId{1});
  ASSERT_TRUE(world.guardian(0).RequestCommit(next).ok());
  world.Pump();
  EXPECT_EQ(world.guardian(0).FateOf(next), Guardian::ActionFate::kCommitted);
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), 1);
}

TEST(GuardianProtocol, CoordinatorCrashAfterCommitPointResolvesAsCommit) {
  // The mirror case: the committing record WAS forced before the crash, so
  // the restarted coordinator recovers the decision and the same query path
  // answers commit — the participant applies, not aborts.
  SimWorld world(MakeConfig(2, 31));
  SeedVar(world, GuardianId{1}, "x", 0);
  ActionId aid = StartIncrement(world, GuardianId{1});
  ASSERT_TRUE(world.guardian(0).RequestCommit(aid).ok());
  world.Step();  // prepare → participant prepared
  world.Step();  // ack → committing record forced: the commit point
  world.guardian(0).Crash();  // kCommit messages die with the coordinator
  world.Pump();
  ASSERT_TRUE(world.guardian(0).Restart().ok());

  world.guardian(1).RequeryOutstanding();
  world.Pump();
  EXPECT_EQ(world.guardian(1).FateOf(aid), Guardian::ActionFate::kCommitted);
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), 1);
}

TEST(GuardianProtocol, RestartCountsInDoubtActionsUnderItsGuardian) {
  // Participant 1 prepares; the coordinator dies before deciding and stays
  // down, so guardian 1 restarts holding one prepared, undecided action.
  SimWorld world(MakeConfig(2, 41));
  SeedVar(world, GuardianId{1}, "x", 0);
  const obs::Scope scope{.guardian = 1};
  const std::uint64_t labelled_before = CounterValue("recovery.in_doubt_actions", scope);
  const std::uint64_t total_before = CounterValue("recovery.in_doubt_actions");
  ActionId aid = StartIncrement(world, GuardianId{1});
  ASSERT_TRUE(world.guardian(0).RequestCommit(aid).ok());
  world.Step();  // prepare delivered: participant 1 is prepared, in doubt
  ASSERT_EQ(world.guardian(1).FateOf(aid), Guardian::ActionFate::kInProgress);
  world.guardian(0).Crash();
  world.guardian(1).Crash();

  Result<RecoveryInfo> info = world.guardian(1).Restart();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().in_doubt_actions, 1u);
  EXPECT_EQ(CounterValue("recovery.in_doubt_actions", scope) - labelled_before, 1u);
  // The unlabelled entry stays the process total.
  EXPECT_EQ(CounterValue("recovery.in_doubt_actions") - total_before, 1u);
}

TEST(GuardianProtocol, QueryWhileCoordinatorUndecidedGetsNoVerdict) {
  // While the coordinator is still collecting acks (kPreparing) the outcome
  // is genuinely open, so a query must not conjure a verdict either way: the
  // participant stays in doubt and keeps its lock.
  SimWorld world(MakeConfig(3, 37));
  SeedVar(world, GuardianId{1}, "x", 0);
  SeedVar(world, GuardianId{2}, "y", 0);
  Guardian& g0 = world.guardian(0);
  ActionId aid = g0.BeginTopAction();
  for (std::uint32_t t : {1u, 2u}) {
    const std::string name = t == 1 ? "x" : "y";
    ASSERT_TRUE(world.RunAt(aid, GuardianId{t}, [&](Guardian& g, ActionContext& ctx) -> Status {
      Result<RecoverableObject*> v = g.GetStableVariable(aid, name);
      if (!v.ok()) {
        return v.status();
      }
      return ctx.UpdateObject(v.value(), [](Value& b) { b = Value::Int(b.as_int() + 1); });
    }).ok());
  }
  // Cut guardian 2 off so its prepare never arrives: the coordinator stays
  // kPreparing with guardian 1 prepared and in doubt.
  world.network().Partition(GuardianId{2});
  ASSERT_TRUE(g0.RequestCommit(aid).ok());
  world.Pump();
  ASSERT_EQ(g0.FateOf(aid), Guardian::ActionFate::kInProgress);

  world.guardian(1).RequeryOutstanding();
  world.Pump();
  // No verdict: still in progress on both sides, lock still held.
  EXPECT_EQ(world.guardian(1).FateOf(aid), Guardian::ActionFate::kInProgress);
  EXPECT_TRUE(world.guardian(1).CommittedStableVariable("x")->locked());

  // The partition heals, the prepare is re-sent, and the action commits —
  // proof the undecided query left no scar.
  world.network().Heal(GuardianId{2});
  ASSERT_TRUE(g0.RequestCommit(aid).ok());
  world.Pump();
  EXPECT_EQ(g0.FateOf(aid), Guardian::ActionFate::kCommitted);
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), 1);
  EXPECT_EQ(ReadVar(world, GuardianId{2}, "y"), 1);
}

TEST(GuardianProtocol, HousekeepingBetweenActionsIsInvisibleToClients) {
  SimWorld world(MakeConfig(2));
  SeedVar(world, GuardianId{1}, "x", 0);
  for (int i = 1; i <= 5; ++i) {
    ActionId aid = StartIncrement(world, GuardianId{1});
    ASSERT_TRUE(world.guardian(0).RequestCommit(aid).ok());
    world.Pump();
    ASSERT_TRUE(world.guardian(1).Housekeep(HousekeepingMethod::kSnapshot).ok());
    EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), i);
  }
  world.guardian(1).Crash();
  ASSERT_TRUE(world.guardian(1).Restart().ok());
  world.Pump();
  EXPECT_EQ(ReadVar(world, GuardianId{1}, "x"), 5);
}

}  // namespace
}  // namespace argus
