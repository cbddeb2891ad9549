// Coherent crash injection for the concurrent workload driver (DESIGN.md
// "Crash coherence" section, experiment E12).
//
// Three layers, bottom up:
//   1. CrashController — the rendezvous barrier itself: every worker parked
//      before the event executor runs, exactly-once execution, sticky errors.
//   2. FlushCoordinator::Crash — the wakeup that makes the barrier reachable
//      from inside WaitDurable: blocked forces return kCrashed, but frames
//      that were already durable still report Ok.
//   3. The full storm — seeded sweeps of the concurrent driver with crashes
//      landing mid-traffic and mid-checkpoint, plus media faults armed during
//      post-crash recovery. The oracle is the durable-prefix reconciliation
//      with read-from closure: zero lost-committed actions, zero partial
//      actions, and no survivor that read from a lost commit, over every seed.
//   4. Dependency marks — the rule behind read-from closure at more than one
//      shard, on one guardian's local commits.
//
// The suite carries the `concurrency` ctest label, so CI runs it under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/log/flush_coordinator.h"
#include "src/obs/trace.h"
#include "src/tpc/crash_controller.h"
#include "src/tpc/workload.h"
#include "tests/test_support.h"

namespace argus {
namespace {

// ---------------------------------------------------------------------------
// CrashController
// ---------------------------------------------------------------------------

TEST(CrashController, SingleWorkerRunsCrashInline) {
  int crashes = 0;
  CrashController controller(1);
  auto crash = [&] {
    ++crashes;
    return Status::Ok();
  };
  EXPECT_TRUE(controller.Poll().ok());
  ASSERT_TRUE(controller.RequestEvent(crash).ok());
  EXPECT_EQ(crashes, 1);
  // The world is back; traffic resumes.
  EXPECT_TRUE(controller.Poll().ok());
  controller.Deregister();
}

TEST(CrashController, EveryWorkerParkedWhenCrashExecutes) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kIterations = 200;
  std::atomic<int> in_action{0};
  std::atomic<bool> freeze_violated{false};
  std::atomic<std::uint64_t> requested{0};
  std::atomic<std::uint64_t> crashes{0};

  CrashController controller(kWorkers);
  auto crash = [&] {
    // The whole point: the executor owns the world. Any worker still inside
    // its "action" here means the freeze failed.
    if (in_action.load() != 0) {
      freeze_violated = true;
    }
    ++crashes;
    return Status::Ok();
  };

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(7 + t);
      for (std::size_t i = 0; i < kIterations; ++i) {
        if (!controller.Poll().ok()) {
          break;
        }
        // on_requested runs only for a request that was not dropped, so
        // `requested` counts the events that must each run exactly once.
        if (rng.NextBool(0.02) && !controller.RequestEvent(crash, [&] { ++requested; }).ok()) {
          break;
        }
        ++in_action;
        ++in_action;  // a couple of "work" steps widen the race window
        in_action -= 2;
      }
      controller.Deregister();
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  EXPECT_FALSE(freeze_violated.load());
  EXPECT_EQ(crashes.load(), requested.load());
  EXPECT_GE(crashes.load(), 1u);
}

TEST(CrashController, FailedCrashIsStickyForEveryone) {
  CrashController controller(2);
  std::atomic<int> runs{0};
  auto failing_crash = [&] {
    ++runs;
    return Status::IoError("recovery failed");
  };
  std::atomic<bool> requester_done{false};
  Status requester_status;
  std::thread requester([&] {
    requester_status = controller.RequestEvent(failing_crash);
    requester_done = true;
  });
  // The second worker parks via Poll (once the request is pending) and must
  // come back with the same sticky error.
  Status poller_status = Status::Ok();
  while (poller_status.ok()) {
    poller_status = controller.Poll();
  }
  requester.join();
  ASSERT_TRUE(requester_done.load());
  EXPECT_EQ(requester_status.code(), ErrorCode::kIoError);
  EXPECT_EQ(poller_status.code(), ErrorCode::kIoError);
  // And it stays sticky: no retry resurrects the world, and a retried event
  // never runs.
  EXPECT_EQ(controller.Poll().code(), ErrorCode::kIoError);
  EXPECT_EQ(controller.RequestEvent(failing_crash).code(), ErrorCode::kIoError);
  EXPECT_EQ(runs.load(), 1);
  controller.Deregister();
  controller.Deregister();
}

TEST(CrashController, DeregisterUnblocksPendingCrash) {
  // Worker B finishes its quota and leaves while worker A is mid-request:
  // the barrier must re-evaluate against the shrunken registration count, or
  // A waits forever for a rendezvous that can no longer happen.
  std::atomic<int> crashes{0};
  CrashController controller(2);
  std::thread requester([&] {
    EXPECT_TRUE(controller
                    .RequestEvent([&] {
                      ++crashes;
                      return Status::Ok();
                    })
                    .ok());
  });
  controller.Deregister();
  requester.join();
  EXPECT_EQ(crashes.load(), 1);
  controller.Deregister();
}

// ---------------------------------------------------------------------------
// FlushCoordinator::Crash
// ---------------------------------------------------------------------------

DataEntry StormData(std::uint64_t tag) {
  DataEntry e;
  e.kind = ObjectKind::kAtomic;
  e.uid = Uid::Root();
  e.aid = Aid(tag);
  e.value = std::vector<std::byte>(16, std::byte{static_cast<std::uint8_t>(tag & 0xff)});
  return e;
}

TEST(FlushCoordinatorCrash, BlockedForceWakesWithKCrashed) {
  StableLog log(std::make_unique<InMemoryStableMedium>());
  FlushCoordinatorConfig config;
  config.batch_window = std::chrono::seconds(30);
  config.max_batch = 64;
  FlushCoordinator coordinator(&log, config);
  // One staged entry and a lone waiter: the elected leader lingers for the
  // rest of a 64-request batch that never arrives, so the only wakeup that
  // can resolve this force before the 30 s window is the crash — and if the
  // crash lands first, the loop-top check answers the same way.
  LogAddress staged = log.Write(LogEntry(StormData(1)));
  Status blocked = Status::Ok();
  std::thread waiter([&] { blocked = coordinator.ForceUpTo(staged); });
  coordinator.Crash();
  waiter.join();
  EXPECT_EQ(blocked.code(), ErrorCode::kCrashed);
  EXPECT_TRUE(coordinator.crashed());
}

TEST(FlushCoordinatorCrash, NewForcesRefuseAfterCrash) {
  StableLog log(std::make_unique<InMemoryStableMedium>());
  FlushCoordinator coordinator(&log);
  coordinator.Crash();
  Result<LogAddress> addr = coordinator.ForceWrite(LogEntry(StormData(1)));
  ASSERT_FALSE(addr.ok());
  EXPECT_EQ(addr.status().code(), ErrorCode::kCrashed);
}

TEST(FlushCoordinatorCrash, AlreadyDurableFramesStillReportOk) {
  StableLog log(std::make_unique<InMemoryStableMedium>());
  FlushCoordinator coordinator(&log);
  ASSERT_TRUE(coordinator.ForceWrite(LogEntry(StormData(1))).ok());
  coordinator.Crash();
  // The frame at offset 0 hit the medium before the crash; the in-doubt
  // (kCrashed) answer would be wrong — durability, once true, stays true.
  EXPECT_TRUE(coordinator.ForceUpTo(LogAddress{0}).ok());
}

// ---------------------------------------------------------------------------
// The full storm
// ---------------------------------------------------------------------------

SimWorldConfig StormWorld(std::size_t guardians, std::uint64_t seed, MediumKind medium) {
  SimWorldConfig config;
  config.guardian_count = guardians;
  config.mode = LogMode::kHybrid;
  config.medium = medium;
  config.seed = seed;
  config.group_commit = FlushCoordinatorConfig{};
  return config;
}

TEST(CrashStorm, ConcurrentCrashInjectionIsAccepted) {
  // Regression for the old guard: Run() with threads >= 2 and
  // crash_probability > 0 used to return InvalidArgument.
  SimWorld world(StormWorld(2, 41, MediumKind::kInMemory));
  WorkloadConfig config;
  config.seed = 41;
  config.threads = 2;
  config.crash_probability = 0.1;
  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());
  Status s = driver.Run(80);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(driver.stats().crashes, 1u);
  EXPECT_EQ(driver.stats().per_thread_failures.size(), 2u);
  Result<std::size_t> checked = driver.VerifyAfterCrash();
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
}

TEST(CrashStorm, RecoveryFaultsRequireCrashes) {
  SimWorld world(StormWorld(1, 42, MediumKind::kDuplexed));
  WorkloadConfig config;
  config.seed = 42;
  config.threads = 2;
  DiskFaultPlan plan;
  plan.decay_on_read_probability = 0.05;
  config.recovery_faults = plan;
  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());
  Status s = driver.Run(10);
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
}

TEST(CrashStorm, RecoveryFaultsRequireDuplexedMedium) {
  SimWorld world(StormWorld(1, 43, MediumKind::kInMemory));
  WorkloadConfig config;
  config.seed = 43;
  config.threads = 2;
  config.crash_probability = 0.1;
  DiskFaultPlan plan;
  plan.decay_on_read_probability = 0.05;
  config.recovery_faults = plan;
  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());
  Status s = driver.Run(10);
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
}

// The E12 sweep: 64 seeds of the full stack — duplexed Lampson-Sturgis
// media, group commit, online checkpoints racing the workers, coherent
// crashes landing mid-traffic and mid-checkpoint, and a media-fault storm
// (decay + transient read errors on disk A) armed for the duration of every
// post-crash recovery. Disk B stays healthy, so recovery must succeed; the
// reconciliation inside Run() enforces zero lost-committed and zero partial
// actions, and VerifyAfterCrash re-checks the rebased oracle end to end.
class CrashStormSeedSweep : public testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, CrashStormSeedSweep,
                         testing::Range<std::uint64_t>(100, 164));

TEST_P(CrashStormSeedSweep, DurablePrefixSurvivesTheStorm) {
  // A failing seed ships its per-thread event windows with the failure output
  // (and into the CI artifact).
  ScopedFlightRecorderDumpOnFailure dump_guard;
  const std::uint64_t seed = GetParam();
  SimWorld world(StormWorld(2, seed, MediumKind::kDuplexed));
  WorkloadConfig config;
  config.seed = seed;
  config.threads = 3;
  config.objects_per_guardian = 6;
  config.abort_probability = 0.1;
  config.crash_probability = 0.1;
  // Transient probability stays low: CarefulRead retries only 4 times, and
  // the fault storm must never make BOTH replicas unreadable.
  DiskFaultPlan storm;
  storm.decay_on_read_probability = 0.05;
  storm.transient_read_error_probability = 0.01;
  config.recovery_faults = storm;
  CheckpointPolicyConfig checkpoint;
  checkpoint.log_growth_bytes = 4 * 1024;  // frequent: crashes land mid-checkpoint
  config.checkpoint = checkpoint;
  config.checkpoint_mode = CheckpointMode::kOnline;

  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());
  Status s = driver.Run(60);
  ASSERT_TRUE(s.ok()) << "seed " << seed << ": " << s.ToString();
  EXPECT_GE(driver.stats().crashes, 1u) << "seed " << seed;
  EXPECT_GT(driver.stats().committed, 0u) << "seed " << seed;
  EXPECT_EQ(driver.stats().per_thread_failures.size(), 3u);
  // Every attempt is accounted for: committed, aborted, or cut short.
  EXPECT_GE(driver.stats().attempted,
            driver.stats().committed + driver.stats().aborted);
  Result<std::size_t> checked = driver.VerifyAfterCrash();
  ASSERT_TRUE(checked.ok()) << "seed " << seed << ": " << checked.status().ToString();
}

// The sharded E14 storm: the same 64-seed sweep against guardians whose
// stable state is partitioned across four log shards with independent force
// queues. Checkpoints stay off (the cross-shard swap barrier is not
// implemented; Run() rejects the combination). Durability is not
// prefix-closed across shards but is per home shard, so the reconciliation
// runs the same strict journal oracle as the one-log sweep: on each home
// shard the recovered actions must be exactly a journal prefix covering every
// durably confirmed commit, and no survivor may have read from a commit the
// crash lost (the dependency marks below keep that true across shards).
class ShardedCrashStormSeedSweep : public testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedCrashStormSeedSweep,
                         testing::Range<std::uint64_t>(200, 264));

TEST_P(ShardedCrashStormSeedSweep, ShardedDurableStateSurvivesTheStorm) {
  ScopedFlightRecorderDumpOnFailure dump_guard;
  const std::uint64_t seed = GetParam();
  SimWorldConfig world_config = StormWorld(2, seed, MediumKind::kDuplexed);
  world_config.log_shards = 4;
  SimWorld world(world_config);
  WorkloadConfig config;
  config.seed = seed;
  config.threads = 3;
  config.objects_per_guardian = 6;
  config.abort_probability = 0.1;
  config.crash_probability = 0.1;
  DiskFaultPlan storm;
  storm.decay_on_read_probability = 0.05;
  storm.transient_read_error_probability = 0.01;
  config.recovery_faults = storm;

  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());
  Status s = driver.Run(60);
  ASSERT_TRUE(s.ok()) << "seed " << seed << ": " << s.ToString();
  EXPECT_GE(driver.stats().crashes, 1u) << "seed " << seed;
  EXPECT_GT(driver.stats().committed, 0u) << "seed " << seed;
  Result<std::size_t> checked = driver.VerifyAfterCrash();
  ASSERT_TRUE(checked.ok()) << "seed " << seed << ": " << checked.status().ToString();
}

TEST(CrashStorm, ShardedRunRejectsCheckpoints) {
  SimWorldConfig world_config = StormWorld(1, 55, MediumKind::kInMemory);
  world_config.log_shards = 4;
  SimWorld world(world_config);
  WorkloadConfig config;
  config.seed = 55;
  config.threads = 2;
  CheckpointPolicyConfig checkpoint;
  checkpoint.log_growth_bytes = 4 * 1024;
  config.checkpoint = checkpoint;
  config.checkpoint_mode = CheckpointMode::kOnline;
  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());
  EXPECT_EQ(driver.Run(10).code(), ErrorCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Dependency marks (DESIGN.md D10)
// ---------------------------------------------------------------------------

// A local commit releases its locks before its commit record is durable. A,
// homed on shard 0, writes X (on shard 0) and is staged and committed
// volatile, not forced. B, homed on the last shard, reads X, writes Y = X + 1
// (or only reads X) and is acknowledged. B's acknowledgement must imply what
// it read: at two shards B waits for A's commit mark before it stages its own
// commit record; at one shard forcing B's commit record forces A's (§3.1),
// and nothing is waited for. Without the wait, the restart at two shards
// recovers X = 0 and Y = 101.
struct DependencyCase {
  const char* name;
  std::uint32_t shards;
  bool reader_writes;
};

void PrintTo(const DependencyCase& c, std::ostream* os) { *os << c.name; }

class DependencyMarks : public testing::TestWithParam<DependencyCase> {};

INSTANTIATE_TEST_SUITE_P(Inputs, DependencyMarks,
                         testing::Values(DependencyCase{"TwoShards", 2, true},
                                         DependencyCase{"TwoShardsReadOnly", 2, false},
                                         DependencyCase{"OneShard", 1, true}),
                         [](const testing::TestParamInfo<DependencyCase>& param_info) {
                           return std::string(param_info.param.name);
                         });

TEST_P(DependencyMarks, AcknowledgedReaderKeepsWhatItRead) {
  const DependencyCase& c = GetParam();
  constexpr std::uint64_t kSalt = 7;
  SimNetwork network(1);
  RecoverySystemConfig config;
  config.medium_factory = [] { return std::make_unique<InMemoryStableMedium>(); };
  config.group_commit = FlushCoordinatorConfig{};
  config.log_shards = c.shards;
  config.shard_salt = kSalt;
  Guardian guard(GuardianId{0}, config, &network);
  const ShardRouter router(ShardMapRecord{.num_shards = c.shards, .salt = kSalt, .overrides = {}});
  const std::uint32_t reader_home = c.shards - 1;

  // X on shard 0 and Y on the reader's home shard, committed and forced.
  ActionId setup = guard.BeginTopAction();
  ActionContext& setup_ctx = guard.ContextFor(setup);
  RecoverableObject* x = nullptr;
  RecoverableObject* y = nullptr;
  while (x == nullptr || y == nullptr) {
    RecoverableObject* obj = setup_ctx.CreateAtomic(guard.heap(), Value::Int(0));
    const std::uint32_t shard = router.ShardOf(obj->uid());
    if (x == nullptr && shard == 0) {
      x = obj;
    } else if (y == nullptr && shard == reader_home) {
      y = obj;
    }
  }
  ASSERT_TRUE(guard.SetStableVariable(setup, "x", x).ok());
  ASSERT_TRUE(guard.SetStableVariable(setup, "y", y).ok());
  ASSERT_TRUE(guard.RequestCommit(setup).ok());
  ASSERT_EQ(guard.FateOf(setup), Guardian::ActionFate::kCommitted);

  std::uint64_t sequence = std::uint64_t{1} << 20;
  auto homed_on = [&](std::uint32_t shard) {
    while (router.HomeShardOf(ActionId{GuardianId{0}, sequence}) != shard) {
      ++sequence;
    }
    const ActionId aid{GuardianId{0}, sequence++};
    EXPECT_EQ(guard.recovery().writer().HomeShardOf(aid), shard);
    return aid;
  };
  const obs::Scope scope{.guardian = 0};
  const std::uint64_t waits_before = CounterValue("tpc.local.dependency_waits", scope);

  std::unique_lock<std::mutex> lock(guard.mutex());
  ActionContext a(homed_on(0));
  ASSERT_TRUE(a.WriteObject(x, Value::Int(100)).ok());
  Result<StagedOutcome> a_commit = guard.CommitLocal(a, lock);
  ASSERT_TRUE(a_commit.ok()) << a_commit.status().ToString();
  const StagedMark a_mark = a_commit.value().marks.front();
  ASSERT_EQ(a_mark.shard, 0u);
  ASSERT_LE(guard.recovery().shard_log(0).durable_size(), a_mark.address.offset);

  ActionContext b(homed_on(reader_home));
  Result<const Value*> read = b.ReadObject(x);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const std::int64_t seen = read.value()->as_int();
  ASSERT_EQ(seen, 100);
  if (c.reader_writes) {
    ASSERT_TRUE(b.WriteObject(y, Value::Int(seen + 1)).ok());
  }
  Result<StagedOutcome> b_commit = guard.CommitLocal(b, lock);
  ASSERT_TRUE(b_commit.ok()) << b_commit.status().ToString();
  lock.unlock();
  ASSERT_TRUE(guard.recovery().WaitDurable(b_commit.value()).ok());  // B is acknowledged
  EXPECT_GT(guard.recovery().shard_log(0).durable_size(), a_mark.address.offset)
      << "B was acknowledged before the commit it read from was durable";
  EXPECT_EQ(CounterValue("tpc.local.dependency_waits", scope) - waits_before,
            c.shards > 1 ? 1u : 0u);

  guard.Crash();
  Result<RecoveryInfo> info = guard.Restart();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(guard.CommittedStableVariable("x")->base_version().as_int(), 100);
  EXPECT_EQ(guard.CommittedStableVariable("y")->base_version().as_int(),
            c.reader_writes ? 101 : 0);
}

// Stop-the-world checkpoints under the same storm: the service holds the
// guardian mutex across the whole checkpoint, so the crash must find it at a
// hook boundary (capture/build) rather than wedged against parked workers.
TEST(CrashStorm, StopTheWorldCheckpointsAlsoSurvive) {
  SimWorld world(StormWorld(2, 77, MediumKind::kInMemory));
  WorkloadConfig config;
  config.seed = 77;
  config.threads = 3;
  config.crash_probability = 0.08;
  CheckpointPolicyConfig checkpoint;
  checkpoint.log_growth_bytes = 4 * 1024;
  config.checkpoint = checkpoint;
  config.checkpoint_mode = CheckpointMode::kStopTheWorld;
  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());
  Status s = driver.Run(90);
  ASSERT_TRUE(s.ok()) << s.ToString();
  Result<std::size_t> checked = driver.VerifyAfterCrash();
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
}

// ---------------------------------------------------------------------------
// The flight recorder at the crash
// ---------------------------------------------------------------------------

// The `a` payload of every `name` event in the dump (a = action sequence for
// commit.stage / commit.durable).
std::set<std::string> EventArgAs(const std::string& dump, const std::string& name) {
  std::set<std::string> out;
  const std::string needle = " " + name + " a=";
  std::istringstream in(dump);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t pos = line.find(needle);
    if (pos == std::string::npos) {
      continue;
    }
    std::size_t start = pos + needle.size();
    std::size_t end = line.find(' ', start);
    out.insert(line.substr(start, end - start));
  }
  return out;
}

// commit.durable always follows its commit.stage on the same worker's ring,
// so a stage whose sequence has no durable event anywhere in the dump is an
// action that was staged but not yet durability-confirmed when the world
// died — exactly the entries the post-crash reconciler rules on.
bool DumpShowsStagedButUndurable(const std::string& dump) {
  std::set<std::string> staged = EventArgAs(dump, "commit.stage");
  std::set<std::string> durable = EventArgAs(dump, "commit.durable");
  for (const std::string& seq : staged) {
    if (!durable.contains(seq)) {
      return true;
    }
  }
  return false;
}

TEST(FlightRecorder, CrashDumpShowsStagedButUndurableEntries) {
  // A coherent crash parks every worker; one cut down between staging its
  // commit and confirming durability leaves a commit.stage with no matching
  // commit.durable in its ring — the forensic signature the flight recorder
  // exists to preserve. Thread scheduling decides which run catches a worker
  // inside that window, so sweep seeds until one does.
  bool found = false;
  std::uint64_t crashes_seen = 0;
  for (std::uint64_t seed = 300; seed < 324 && !found; ++seed) {
    obs::ResetTraceForTest();
    SimWorld world(StormWorld(2, seed, MediumKind::kInMemory));
    WorkloadConfig config;
    config.seed = seed;
    config.threads = 3;
    config.crash_probability = 0.15;
    WorkloadDriver driver(&world, config);
    ASSERT_TRUE(driver.Setup().ok());
    Status s = driver.Run(60);
    ASSERT_TRUE(s.ok()) << "seed " << seed << ": " << s.ToString();
    if (driver.stats().crashes == 0) {
      continue;
    }
    crashes_seen += driver.stats().crashes;
    const std::string& dump = driver.last_crash_dump();
    ASSERT_NE(dump.find("=== flight recorder"), std::string::npos) << "seed " << seed;
    found = DumpShowsStagedButUndurable(dump);
  }
  ASSERT_GE(crashes_seen, 1u);
  EXPECT_TRUE(found);
}

// One worker thread: no scheduling freedom in the event stream, so the dump
// captured at a seeded crash is a pure function of the seed (events carry
// logical payloads only — never wall-clock values).
std::string RunStormAndTakeCrashDump(std::uint64_t seed) {
  obs::ResetTraceForTest();
  SimWorld world(StormWorld(2, seed, MediumKind::kInMemory));
  WorkloadConfig config;
  config.seed = seed;
  config.threads = 1;
  config.crash_probability = 0.25;
  WorkloadDriver driver(&world, config);
  EXPECT_TRUE(driver.Setup().ok());
  Status s = driver.Run(40);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(driver.stats().crashes, 1u);
  return driver.last_crash_dump();
}

TEST(FlightRecorder, SameSeedProducesIdenticalCrashDumps) {
  std::string first = RunStormAndTakeCrashDump(4242);
  std::string second = RunStormAndTakeCrashDump(4242);
  ASSERT_FALSE(first.empty());
  EXPECT_NE(first.find("commit.stage"), std::string::npos);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace argus
