// Exhaustive two-phase-commit exploration.
//
// Instead of sampling random schedules, this test SYSTEMATICALLY enumerates
// message-delivery interleavings (and, in the crash suites, crash points) for
// a small distributed action, replaying the deterministic simulation from
// scratch for each schedule. Every terminal state must satisfy the atomicity
// invariants over every guardian that did work (G1 and G2, plus the
// coordinator G0 when it writes too):
//
//   A1  every participant applies the action, or none does (after all
//       failures are resolved);
//   A2  if the coordinator reports committed, every participant applied it;
//   A3  no participant is left holding locks once the protocol has settled.
//
// The schedule space: at each step with k deliverable messages, branch on
// which one is delivered. A special branch value crashes-and-restarts a
// chosen guardian at that point. Depth-first with replay keeps the state
// space honest (no state cloning shortcuts).
//
// Every suite runs over four world shapes: the coordinator does no work or
// increments its own objects too (its share is then prepared in place and
// committed by its commit-point force), at one log shard or four. At four
// shards each guardian's objects span shards, so the coordinator's prepare
// has marks on its home shard (they ride the commit-point force) and off it
// (forced before the commit point).

#include <gtest/gtest.h>

#include <array>

#include "src/tpc/sim_world.h"
#include "tests/test_support.h"

namespace argus {
namespace {

constexpr std::uint32_t kGuardians = 3;

struct Shape {
  bool coordinator_writes = false;
  std::uint32_t log_shards = 1;
  // One object per guardian at one shard; at four, enough that the
  // coordinator's objects land both on and off its home shard.
  std::size_t objects() const { return log_shards == 1 ? 1 : 4; }
  std::string Label() const {
    return std::string(coordinator_writes ? "coordinator writes" : "coordinator only") + ", " +
           std::to_string(log_shards) + " shard(s)";
  }
};

const Shape kShapes[] = {{false, 1}, {true, 1}, {false, 4}, {true, 4}};

// A guardian's value of the action's counter: its objects' common value, or
// kTorn when they disagree (part of the action survived there).
constexpr std::int64_t kTorn = -2;

struct Outcome {
  bool coordinator_committed = false;
  std::array<std::int64_t, kGuardians> v{-1, -1, -1};
  bool locks_clear = false;
};

std::string ObjectName(std::size_t i) { return "v" + std::to_string(i); }

// A schedule element >= 0 picks which pending message to deliver;
// CrashPick(g) crashes-and-restarts guardian g instead.
constexpr int CrashPick(std::uint32_t g) { return -1 - static_cast<int>(g); }

// Replays one schedule. When the schedule is exhausted the run is driven to
// quiescence (pump + requery retries). Returns the branching factor observed
// at the first step past the schedule (0 when the run had already settled),
// plus the terminal outcome.
std::pair<Outcome, std::size_t> Replay(const Shape& shape, const std::vector<int>& schedule) {
  SimWorldConfig config;
  config.guardian_count = kGuardians;
  config.mode = LogMode::kHybrid;
  config.seed = 1;
  config.log_shards = shape.log_shards;
  SimWorld world(config);

  // Seed objects v0..v{n-1} = 0 at every guardian.
  for (std::uint32_t g = 0; g < kGuardians; ++g) {
    Result<Guardian::ActionFate> fate =
        world.RunTopAction(GuardianId{g}, [&](SimWorld& w, ActionId aid) -> Status {
          return w.RunAt(aid, GuardianId{g}, [&](Guardian& guard, ActionContext& ctx) {
            for (std::size_t i = 0; i < shape.objects(); ++i) {
              RecoverableObject* obj = ctx.CreateAtomic(guard.heap(), Value::Int(0));
              Status s = guard.SetStableVariable(aid, ObjectName(i), obj);
              if (!s.ok()) {
                return s;
              }
            }
            return Status::Ok();
          });
        });
    ARGUS_CHECK(fate.ok() && fate.value() == Guardian::ActionFate::kCommitted);
  }

  // The action under test: every object += 1 at G1 and G2 (and at G0 when
  // the coordinator writes), coordinated by G0.
  Guardian& g0 = world.guardian(0);
  ActionId aid = g0.BeginTopAction();
  for (std::uint32_t g = shape.coordinator_writes ? 0 : 1; g < kGuardians; ++g) {
    Status s = world.RunAt(aid, GuardianId{g}, [&](Guardian& guard, ActionContext& ctx) {
      for (std::size_t i = 0; i < shape.objects(); ++i) {
        Result<RecoverableObject*> v = guard.GetStableVariable(aid, ObjectName(i));
        if (!v.ok()) {
          return v.status();
        }
        Status u =
            ctx.UpdateObject(v.value(), [](Value& b) { b = Value::Int(b.as_int() + 1); });
        if (!u.ok()) {
          return u;
        }
      }
      return Status::Ok();
    });
    ARGUS_CHECK(s.ok());
  }
  std::vector<std::uint64_t> staged_before(shape.log_shards);
  for (std::uint32_t s = 0; s < shape.log_shards; ++s) {
    staged_before[s] = CounterValue("log.entries_staged", obs::Scope{.guardian = 0, .shard = s});
  }
  ARGUS_CHECK(g0.RequestCommit(aid).ok());
  if (shape.coordinator_writes && shape.log_shards > 1) {
    // The shape's premise: the coordinator's prepare staged on its home
    // shard and on another one.
    const std::uint32_t home = g0.recovery().writer().HomeShardOf(aid);
    bool on_home = false;
    bool off_home = false;
    for (std::uint32_t s = 0; s < shape.log_shards; ++s) {
      if (CounterValue("log.entries_staged", obs::Scope{.guardian = 0, .shard = s}) >
          staged_before[s]) {
        (s == home ? on_home : off_home) = true;
      }
    }
    ARGUS_CHECK_MSG(on_home && off_home, "the coordinator's objects do not span its shards");
  }

  // Apply the schedule.
  for (int pick : schedule) {
    if (pick < 0) {
      Guardian& victim = world.guardian(static_cast<std::uint32_t>(-1 - pick));
      if (!victim.crashed()) {
        victim.Crash();
        Result<RecoveryInfo> info = victim.Restart();
        ARGUS_CHECK(info.ok());
      }
      continue;
    }
    std::optional<Message> m =
        world.network().DeliverAt(static_cast<std::size_t>(pick) %
                                  std::max<std::size_t>(world.network().pending(), 1));
    if (m.has_value()) {
      world.guardian(m->to).HandleMessage(*m);
    }
  }
  std::size_t branching = world.network().pending();

  // Settle: pump, give the coordinator its timeout decision if still
  // preparing, and let prepared participants requery until quiescent.
  world.Pump();
  if (g0.FateOf(aid) == Guardian::ActionFate::kInProgress) {
    g0.AbortTopAction(aid);  // timeout path
    world.Pump();
  }
  for (int round = 0; round < 4; ++round) {
    for (std::uint32_t g = 0; g < kGuardians; ++g) {
      world.guardian(g).RequeryOutstanding();
    }
    world.Pump();
  }

  Outcome out;
  out.coordinator_committed = g0.FateOf(aid) == Guardian::ActionFate::kCommitted;
  out.locks_clear = true;
  for (std::uint32_t g = 0; g < kGuardians; ++g) {
    for (std::size_t i = 0; i < shape.objects(); ++i) {
      RecoverableObject* obj = world.guardian(g).CommittedStableVariable(ObjectName(i));
      const std::int64_t value = obj == nullptr ? -1 : obj->base_version().as_int();
      out.v[g] = i == 0 || out.v[g] == value ? value : kTorn;
      out.locks_clear = out.locks_clear && obj != nullptr && !obj->locked();
    }
  }
  return {out, branching};
}

void CheckInvariants(const Shape& shape, const Outcome& out, const std::string& label) {
  const std::uint32_t first = shape.coordinator_writes ? 0 : 1;
  for (std::uint32_t g = first; g < kGuardians; ++g) {
    ASSERT_EQ(out.v[g], out.v[first]) << "A1 atomicity violated at G" << g << ": " << label;
    ASSERT_NE(out.v[g], kTorn) << "A1 atomicity violated inside G" << g << ": " << label;
    if (out.coordinator_committed) {
      EXPECT_EQ(out.v[g], 1) << "A2 violated at G" << g << ": " << label;
    }
  }
  EXPECT_TRUE(out.locks_clear) << "A3 violated: " << label;
}

std::string LabelOf(const Shape& shape, const std::vector<int>& schedule) {
  std::string label = shape.Label() + " [";
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (i > 0) {
      label += ",";
    }
    label += schedule[i] < 0 ? "crash G" + std::to_string(-1 - schedule[i])
                             : std::to_string(schedule[i]);
  }
  return label + "]";
}

TEST(ExhaustiveTwoPhase, AllDeliveryInterleavings) {
  // DFS over delivery choices only (no crashes). The protocol for 2 remote
  // participants has 8 messages (the coordinator's own share sends none);
  // branching is bounded by pending count.
  for (const Shape& shape : kShapes) {
    std::vector<std::vector<int>> frontier = {{}};
    std::size_t explored = 0;
    std::size_t committed_runs = 0;
    while (!frontier.empty()) {
      std::vector<int> schedule = std::move(frontier.back());
      frontier.pop_back();
      auto [outcome, branching] = Replay(shape, schedule);
      ++explored;
      CheckInvariants(shape, outcome, LabelOf(shape, schedule));
      if (outcome.coordinator_committed) {
        ++committed_runs;
      }
      if (schedule.size() < 8 && branching > 0) {
        for (std::size_t pick = 0; pick < branching; ++pick) {
          std::vector<int> next = schedule;
          next.push_back(static_cast<int>(pick));
          frontier.push_back(std::move(next));
        }
      }
      ASSERT_LT(explored, 5000u) << "state space larger than expected: " << shape.Label();
    }
    // Without failures every interleaving commits.
    EXPECT_EQ(committed_runs, explored) << shape.Label();
    EXPECT_GT(explored, 20u) << shape.Label();
  }
}

TEST(ExhaustiveTwoPhase, EveryCrashPointOfEachParticipant) {
  // For every prefix length L of the no-crash schedule and each victim (the
  // coordinator included), deliver L messages in order, crash the victim,
  // then settle.
  for (const Shape& shape : kShapes) {
    for (std::uint32_t victim = 0; victim < kGuardians; ++victim) {
      for (int prefix = 0; prefix <= 8; ++prefix) {
        std::vector<int> schedule(static_cast<std::size_t>(prefix), 0);  // FIFO order
        schedule.push_back(CrashPick(victim));
        auto [outcome, branching] = Replay(shape, schedule);
        (void)branching;
        CheckInvariants(shape, outcome, LabelOf(shape, schedule));
      }
    }
  }
}

TEST(ExhaustiveTwoPhase, CrashPairsAtEveryPoint) {
  // Two guardians crash at (possibly different) points: every ordered pair,
  // the coordinator included.
  for (const Shape& shape : kShapes) {
    for (std::uint32_t a = 0; a < kGuardians; ++a) {
      for (std::uint32_t b = 0; b < kGuardians; ++b) {
        if (a == b) {
          continue;
        }
        for (int first = 0; first <= 6; ++first) {
          for (int gap = 0; gap <= 3; ++gap) {
            std::vector<int> schedule(static_cast<std::size_t>(first), 0);
            schedule.push_back(CrashPick(a));
            schedule.insert(schedule.end(), static_cast<std::size_t>(gap), 0);
            schedule.push_back(CrashPick(b));
            auto [outcome, branching] = Replay(shape, schedule);
            (void)branching;
            CheckInvariants(shape, outcome, LabelOf(shape, schedule));
          }
        }
      }
    }
  }
}

TEST(ExhaustiveTwoPhase, DuplicatedMessagesAreHarmless) {
  // At-least-once delivery: every message duplicated; invariants must hold.
  SimWorldConfig config;
  config.guardian_count = 3;
  config.mode = LogMode::kHybrid;
  config.seed = 2;
  SimWorld world(config);
  world.network().set_duplicate_probability(1.0);

  for (std::uint32_t g = 1; g <= 2; ++g) {
    Result<Guardian::ActionFate> fate =
        world.RunTopAction(GuardianId{g}, [&](SimWorld& w, ActionId aid) -> Status {
          return w.RunAt(aid, GuardianId{g}, [&](Guardian& guard, ActionContext& ctx) {
            RecoverableObject* obj = ctx.CreateAtomic(guard.heap(), Value::Int(0));
            return guard.SetStableVariable(aid, "v", obj);
          });
        });
    ASSERT_TRUE(fate.ok());
    ASSERT_EQ(fate.value(), Guardian::ActionFate::kCommitted);
  }
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
        for (std::uint32_t g = 1; g <= 2; ++g) {
          Status s = w.RunAt(aid, GuardianId{g}, [&](Guardian& guard, ActionContext& ctx) {
            Result<RecoverableObject*> v = guard.GetStableVariable(aid, "v");
            if (!v.ok()) {
              return v.status();
            }
            return ctx.UpdateObject(v.value(),
                                    [](Value& b) { b = Value::Int(b.as_int() + 1); });
          });
          if (!s.ok()) {
            return s;
          }
        }
        return Status::Ok();
      });
  ASSERT_TRUE(fate.ok());
  EXPECT_EQ(fate.value(), Guardian::ActionFate::kCommitted);
  EXPECT_EQ(world.guardian(1).CommittedStableVariable("v")->base_version(), Value::Int(1));
  EXPECT_EQ(world.guardian(2).CommittedStableVariable("v")->base_version(), Value::Int(1));
}

}  // namespace
}  // namespace argus
