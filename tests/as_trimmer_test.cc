// Tests for incremental accessibility-set trimming (§3.3.3.2) and for
// two-phase commit under random message reordering.

#include <gtest/gtest.h>

#include "src/recovery/as_trimmer.h"
#include "src/tpc/sim_world.h"
#include "tests/test_support.h"

namespace argus {
namespace {

// Builds a chain root -> o0 -> o1 -> ... -> o{n-1} plus `garbage` unlinked
// uids left in the AS.
void BuildChain(StorageHarness& h, int n) {
  ActionId t0 = Aid(1);
  RecoverableObject* prev = nullptr;
  for (int i = n - 1; i >= 0; --i) {
    Value v = prev == nullptr ? Value::Int(i) : Value::Ref(prev);
    prev = h.ctx(t0).CreateAtomic(h.heap(), std::move(v));
  }
  ASSERT_TRUE(h.BindStable(t0, "chain", prev).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t0).ok());
}

// The trimmer cases run on a one-log guardian and on a 4-shard one.
class AsTrimmer : public testing::TestWithParam<std::uint32_t> {
 protected:
  static RecoverySystemConfig Config() {
    RecoverySystemConfig config = MemConfig(LogMode::kHybrid);
    config.log_shards = GetParam();
    return config;
  }
};

INSTANTIATE_TEST_SUITE_P(Shards, AsTrimmer, testing::Values(1u, 4u));

TEST_P(AsTrimmer, CompletesInBoundedSteps) {
  StorageHarness h(Config());
  BuildChain(h, 20);
  IncrementalAsTrimmer trimmer(&h.rs().writer(), &h.heap());
  trimmer.Start();
  EXPECT_TRUE(trimmer.running());
  int steps = 0;
  while (!trimmer.Step(3)) {
    ++steps;
    ASSERT_LT(steps, 100);
  }
  EXPECT_FALSE(trimmer.running());
  EXPECT_EQ(trimmer.objects_visited(), 21u);  // chain + root
}

TEST_P(AsTrimmer, DropsUnreachableUids) {
  StorageHarness h(Config());
  BuildChain(h, 5);
  // Make an object stable, then unlink it: its uid lingers in the AS.
  ActionId t1 = Aid(10);
  RecoverableObject* doomed = h.ctx(t1).CreateAtomic(h.heap(), Value::Int(9));
  ASSERT_TRUE(h.BindStable(t1, "doomed", doomed).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());
  ActionId t2 = Aid(11);
  ASSERT_TRUE(h.ctx(t2).UpdateObject(h.heap().root(), [](Value& r) {
    r.as_record().erase("doomed");
  }).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t2).ok());
  ASSERT_TRUE(h.rs().writer().accessibility_set().contains(doomed->uid()));

  IncrementalAsTrimmer trimmer(&h.rs().writer(), &h.heap());
  trimmer.Start();
  while (!trimmer.Step(4)) {
  }
  EXPECT_FALSE(h.rs().writer().accessibility_set().contains(doomed->uid()));
  EXPECT_TRUE(h.rs().writer().accessibility_set().contains(Uid::Root()));
}

TEST_P(AsTrimmer, WritingBetweenStepsStaysCorrect) {
  StorageHarness h(Config());
  BuildChain(h, 12);
  IncrementalAsTrimmer trimmer(&h.rs().writer(), &h.heap());
  trimmer.Start();
  std::uint64_t seq = 100;
  // Interleave committed actions that create NEW stable objects while the
  // trimmer crawls; the intersection drops them from the AS, and the next
  // write re-discovers them as newly accessible — redundant but safe.
  while (!trimmer.Step(2)) {
    ActionId t = Aid(seq++);
    RecoverableObject* fresh = h.ctx(t).CreateAtomic(h.heap(), Value::Int(1));
    ASSERT_TRUE(h.BindStable(t, "fresh" + std::to_string(seq), fresh).ok());
    ASSERT_TRUE(h.PrepareAndCommit(t).ok());
  }
  // Everything still recovers.
  ASSERT_TRUE(h.CrashAndRecover().ok());
  EXPECT_NE(h.StableVar("chain"), nullptr);

  // And writing after the trim also works (re-writes what the trim dropped).
  ActionId t = Aid(seq++);
  RecoverableObject* chain = h.StableVar("chain");
  ASSERT_TRUE(h.ctx(t).WriteObject(chain, Value::Int(77)).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t).ok());
  ASSERT_TRUE(h.CrashAndRecover().ok());
  EXPECT_EQ(h.StableVar("chain")->base_version(), Value::Int(77));
}

TEST(ReorderedNetwork, ConcurrentCommitsSurviveReordering) {
  SimWorldConfig config;
  config.guardian_count = 3;
  config.mode = LogMode::kHybrid;
  config.seed = 51;
  SimWorld world(config);
  world.network().set_reorder(true);

  // Seed one slot per future action at G1/G2, so the concurrent actions
  // touch disjoint objects (no lock conflicts, including on the root).
  for (int i = 0; i < 6; ++i) {
    std::uint32_t target = 1 + static_cast<std::uint32_t>(i % 2);
    Result<Guardian::ActionFate> fate =
        world.RunTopAction(GuardianId{target}, [&](SimWorld& w, ActionId aid) -> Status {
          return w.RunAt(aid, GuardianId{target}, [&](Guardian& guard, ActionContext& ctx) {
            RecoverableObject* obj = ctx.CreateAtomic(guard.heap(), Value::Int(-1));
            return guard.SetStableVariable(aid, "result" + std::to_string(i), obj);
          });
        });
    ASSERT_TRUE(fate.ok());
    ASSERT_EQ(fate.value(), Guardian::ActionFate::kCommitted);
  }

  // Launch several independent actions and only then pump: messages of
  // different actions interleave in random order.
  std::vector<ActionId> aids;
  for (int i = 0; i < 6; ++i) {
    Guardian& g0 = world.guardian(0);
    ActionId aid = g0.BeginTopAction();
    std::uint32_t target = 1 + static_cast<std::uint32_t>(i % 2);
    Status s = world.RunAt(aid, GuardianId{target},
                           [&](Guardian& guard, ActionContext& ctx) -> Status {
                             Result<RecoverableObject*> obj = guard.GetStableVariable(
                                 aid, "result" + std::to_string(i));
                             if (!obj.ok()) {
                               return obj.status();
                             }
                             return ctx.UpdateObject(obj.value(), [i](Value& v) {
                               v = Value::Int(i);
                             });
                           });
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(g0.RequestCommit(aid).ok());
    aids.push_back(aid);
  }
  world.Pump();
  for (ActionId aid : aids) {
    EXPECT_EQ(world.guardian(0).FateOf(aid), Guardian::ActionFate::kCommitted)
        << to_string(aid);
    EXPECT_TRUE(world.guardian(0).TwoPhaseDone(aid));
  }
  // All results visible after a full-world crash.
  for (std::uint32_t g = 0; g < 3; ++g) {
    world.guardian(g).Crash();
  }
  for (std::uint32_t g = 0; g < 3; ++g) {
    ASSERT_TRUE(world.guardian(g).Restart().ok());
  }
  world.Pump();
  for (int i = 0; i < 6; ++i) {
    std::uint32_t target = 1 + static_cast<std::uint32_t>(i % 2);
    RecoverableObject* obj =
        world.guardian(target).CommittedStableVariable("result" + std::to_string(i));
    ASSERT_NE(obj, nullptr) << i;
    EXPECT_EQ(obj->base_version(), Value::Int(i));
  }
}

class ReorderSeedSweep : public testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, ReorderSeedSweep, testing::Range<std::uint64_t>(60, 66));

TEST_P(ReorderSeedSweep, ReorderedProtocolStillAtomic) {
  SimWorldConfig config;
  config.guardian_count = 3;
  config.mode = LogMode::kHybrid;
  config.seed = GetParam();
  SimWorld world(config);
  world.network().set_reorder(true);

  for (std::uint32_t g = 1; g <= 2; ++g) {
    Result<Guardian::ActionFate> fate =
        world.RunTopAction(GuardianId{g}, [&](SimWorld& w, ActionId aid) -> Status {
          return w.RunAt(aid, GuardianId{g}, [&](Guardian& guard, ActionContext& ctx) {
            RecoverableObject* obj = ctx.CreateAtomic(guard.heap(), Value::Int(0));
            return guard.SetStableVariable(aid, "x", obj);
          });
        });
    ASSERT_TRUE(fate.ok());
  }
  // One distributed action touching both, pumped under reordering.
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
        for (std::uint32_t g = 1; g <= 2; ++g) {
          Status s = w.RunAt(aid, GuardianId{g}, [&](Guardian& guard, ActionContext& ctx) {
            Result<RecoverableObject*> v = guard.GetStableVariable(aid, "x");
            if (!v.ok()) {
              return v.status();
            }
            return ctx.UpdateObject(v.value(), [](Value& b) { b = Value::Int(1); });
          });
          if (!s.ok()) {
            return s;
          }
        }
        return Status::Ok();
      });
  ASSERT_TRUE(fate.ok());
  ASSERT_EQ(fate.value(), Guardian::ActionFate::kCommitted);
  std::int64_t x1 = world.guardian(1).CommittedStableVariable("x")->base_version().as_int();
  std::int64_t x2 = world.guardian(2).CommittedStableVariable("x")->base_version().as_int();
  EXPECT_EQ(x1, 1);
  EXPECT_EQ(x2, 1);
}

}  // namespace
}  // namespace argus
