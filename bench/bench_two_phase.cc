// Experiment E7 — two-phase commit cost (§2.2, §3.3).
//
// The thesis charges each committed action two forces per participant
// (prepared, committed) and two at the coordinator (committing, done). Here
// the coordinator does no work, so each participant still forces twice, but
// the coordinator forces once: its committing record is the commit point and
// its done record is only staged (DESIGN.md D7). So forces/action = 1 +
// 2·participants and messages/action = 4·participants (prepare, ack,
// commit, ack). We sweep the number of participants and report commits/s,
// messages/action and forces/action, plus the effect of mid-run crashes.

#include <benchmark/benchmark.h>

#include "bench/bench_support.h"

#include "src/common/rng.h"
#include "src/tpc/sim_world.h"

namespace argus {
namespace {

SimWorldConfig MakeConfig(std::size_t guardians) {
  SimWorldConfig config;
  config.guardian_count = guardians;
  config.mode = LogMode::kHybrid;
  config.seed = 21;
  return config;
}

void Seed(SimWorld& world, GuardianId gid) {
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(gid, [&](SimWorld& w, ActionId aid) -> Status {
        return w.RunAt(aid, gid, [&](Guardian& g, ActionContext& ctx) -> Status {
          RecoverableObject* obj = ctx.CreateAtomic(g.heap(), Value::Int(0));
          return g.SetStableVariable(aid, "counter", obj);
        });
      });
  ARGUS_CHECK(fate.ok() && fate.value() == Guardian::ActionFate::kCommitted);
}

Status Bump(Guardian& g, ActionId aid, ActionContext& ctx) {
  Result<RecoverableObject*> v = g.GetStableVariable(aid, "counter");
  if (!v.ok()) {
    return v.status();
  }
  return ctx.UpdateObject(v.value(), [](Value& b) { b = Value::Int(b.as_int() + 1); });
}

void BM_TwoPhaseCommit(benchmark::State& state) {
  std::size_t participants = static_cast<std::size_t>(state.range(0));
  // Guardian i's one log counts under {guardian=i, shard=0}; the force counts
  // cover each log's whole life, setup included.
  auto log_of = [](std::uint32_t i) { return obs::Scope{.guardian = i, .shard = 0}; };
  std::vector<std::uint64_t> forces_before;
  for (std::uint32_t i = 0; i <= participants; ++i) {
    forces_before.push_back(CounterValue("log.forces", log_of(i)));
  }
  SimWorld world(MakeConfig(participants + 1));
  for (std::uint32_t i = 1; i <= participants; ++i) {
    Seed(world, GuardianId{i});
  }
  std::uint64_t messages_before = CounterValue("tpc.net.delivered");
  std::uint64_t actions = 0;
  for (auto _ : state) {
    Result<Guardian::ActionFate> fate =
        world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
          for (std::uint32_t i = 1; i <= participants; ++i) {
            Status s = w.RunAt(aid, GuardianId{i}, [&](Guardian& g, ActionContext& ctx) {
              return Bump(g, aid, ctx);
            });
            if (!s.ok()) {
              return s;
            }
          }
          return Status::Ok();
        });
    ARGUS_CHECK(fate.ok() && fate.value() == Guardian::ActionFate::kCommitted);
    ++actions;
  }
  std::uint64_t messages = CounterValue("tpc.net.delivered") - messages_before;
  state.counters["messages/action"] =
      benchmark::Counter(static_cast<double>(messages) / static_cast<double>(actions));
  std::uint64_t forces = 0;
  for (std::uint32_t i = 0; i <= participants; ++i) {
    forces += CounterValue("log.forces", log_of(i)) - forces_before[i];
  }
  state.counters["forces/action"] =
      benchmark::Counter(static_cast<double>(forces) / static_cast<double>(actions));
  state.counters["participant_forces/action"] = benchmark::Counter(
      static_cast<double>(CounterValue("log.forces", log_of(1)) - forces_before[1]) /
      static_cast<double>(actions));
}
BENCHMARK(BM_TwoPhaseCommit)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

// Same workload with a participant crash/restart every k actions: measures
// the throughput cost of recovery in the loop.
void BM_TwoPhaseWithCrashes(benchmark::State& state) {
  SimWorld world(MakeConfig(3));
  Seed(world, GuardianId{1});
  Seed(world, GuardianId{2});
  Rng rng(77);
  std::uint64_t actions = 0;
  for (auto _ : state) {
    Result<Guardian::ActionFate> fate =
        world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
          for (std::uint32_t i = 1; i <= 2; ++i) {
            Status s = w.RunAt(aid, GuardianId{i}, [&](Guardian& g, ActionContext& ctx) {
              return Bump(g, aid, ctx);
            });
            if (!s.ok()) {
              return s;
            }
          }
          return Status::Ok();
        });
    ARGUS_CHECK(fate.ok());
    ++actions;
    if (actions % static_cast<std::uint64_t>(state.range(0)) == 0) {
      std::uint32_t victim = 1 + static_cast<std::uint32_t>(rng.NextBelow(2));
      world.guardian(victim).Crash();
      Result<RecoveryInfo> info = world.guardian(victim).Restart();
      ARGUS_CHECK(info.ok());
      world.Pump();
    }
  }
}
BENCHMARK(BM_TwoPhaseWithCrashes)->Arg(10)->Arg(100)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace argus

ARGUS_BENCH_MAIN(bench_two_phase)
