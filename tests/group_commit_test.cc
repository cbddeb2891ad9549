// Group commit under real concurrency: N threads force-writing through one
// FlushCoordinator, stagers and readers working while a force's append is
// parked, and parallel Prepare/Commit/Abort on shared guardians via the
// concurrent workload driver. Run under -DARGUS_SANITIZE=thread to check the
// locking discipline, not just the results.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "src/log/flush_coordinator.h"
#include "src/tpc/workload.h"
#include "tests/test_support.h"

namespace argus {
namespace {

DataEntry MakeData(std::uint64_t tag) {
  DataEntry e;
  e.kind = ObjectKind::kAtomic;
  e.uid = Uid::Root();
  e.aid = Aid(tag);
  e.value = std::vector<std::byte>(16, std::byte{static_cast<std::uint8_t>(tag & 0xff)});
  return e;
}

// An in-memory medium whose next Append, once armed, announces that it has
// entered and parks until Release(); it then appends, or fails with IoError
// when armed to fail.
class ParkingMedium final : public StableMedium {
 public:
  void Arm(bool fail) {
    std::lock_guard<std::mutex> l(mu_);
    armed_ = true;
    fail_ = fail;
    entered_ = false;
    released_ = false;
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> l(mu_);
    released_ = true;
    cv_.notify_all();
  }

  Status Append(std::span<const std::byte> data) override {
    {
      std::unique_lock<std::mutex> l(mu_);
      if (armed_) {
        armed_ = false;
        entered_ = true;
        cv_.notify_all();
        cv_.wait(l, [this] { return released_; });
        if (fail_) {
          return Status::IoError("injected append failure");
        }
      }
    }
    return inner_.Append(data);
  }
  Result<std::vector<std::byte>> Read(std::uint64_t offset, std::uint64_t len) override {
    return inner_.Read(offset, len);
  }
  std::uint64_t durable_size() const override { return inner_.durable_size(); }
  std::uint64_t physical_bytes_written() const override {
    return inner_.physical_bytes_written();
  }

 private:
  InMemoryStableMedium inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool fail_ = false;
  bool entered_ = false;
  bool released_ = false;
};

// The tag MakeData gave the data entry at `address`, or nullopt.
std::optional<std::uint64_t> TagAt(const StableLog& log, LogAddress address) {
  Result<LogEntry> entry = log.Read(address);
  if (!entry.ok() || !std::holds_alternative<DataEntry>(entry.value())) {
    return std::nullopt;
  }
  return std::get<DataEntry>(entry.value()).aid.sequence;
}

// Addresses a backward walk from the top finds, newest first.
std::vector<LogAddress> WalkBackFromTop(const StableLog& log) {
  std::vector<LogAddress> found;
  StableLog::BackwardCursor cursor = log.ReadBackwardFromTop();
  for (;;) {
    auto next = cursor.Next();
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok() || !next.value().has_value()) {
      return found;
    }
    found.push_back(next.value()->first);
  }
}

// What a third thread saw while a force of the staged entry A was parked in
// its append: it staged B, read A and B back, and read the log's end.
struct ParkedForce {
  Status force = Status::Ok();
  bool stager_returned = false;  // within the bounded wait
  LogAddress b;
  std::optional<std::uint64_t> tag_a;
  std::optional<std::uint64_t> tag_b;
  std::uint64_t end_offset = 0;
};

ParkedForce StageWhileAForceIsParked(StableLog& log, ParkingMedium& medium, LogAddress a,
                                     bool fail) {
  medium.Arm(fail);
  std::future<Status> force = std::async(std::launch::async, [&log] { return log.Force(); });
  medium.WaitEntered();
  std::future<ParkedForce> stager = std::async(std::launch::async, [&log, a] {
    ParkedForce seen;
    seen.b = log.Write(LogEntry(MakeData(2)));
    seen.tag_a = TagAt(log, a);
    seen.tag_b = TagAt(log, seen.b);
    seen.end_offset = log.end_offset();
    return seen;
  });
  // Bounded, so that a log which makes the stager wait out the append fails
  // here instead of hanging: the latch opens whatever happened.
  const bool returned = stager.wait_for(std::chrono::seconds(3)) == std::future_status::ready;
  medium.Release();
  ParkedForce seen = stager.get();
  seen.stager_returned = returned;
  seen.force = force.get();
  return seen;
}

TEST(PipelinedForce, StagingAndReadsProceedWhileAnAppendIsParked) {
  auto owned = std::make_unique<ParkingMedium>();
  ParkingMedium& medium = *owned;
  StableLog log(std::move(owned));
  const LogAddress a = log.Write(LogEntry(MakeData(1)));

  ParkedForce seen = StageWhileAForceIsParked(log, medium, a, /*fail=*/false);
  ASSERT_TRUE(seen.force.ok()) << seen.force.ToString();
  EXPECT_TRUE(seen.stager_returned) << "staging waited for the parked append";
  EXPECT_EQ(seen.tag_a, 1u) << "A, in flight, did not read back";
  EXPECT_EQ(seen.tag_b, 2u) << "B, staged, did not read back";
  // B was staged behind the in-flight batch: the force made A durable and
  // left B at the durable size it reached.
  EXPECT_EQ(seen.b.offset, log.durable_size());
  EXPECT_EQ(seen.end_offset, log.end_offset());
  EXPECT_EQ(log.GetTop(), a);
  EXPECT_EQ(log.staged_entries(), 1u);

  ASSERT_TRUE(log.Force().ok());
  EXPECT_EQ(log.durable_size(), seen.end_offset);
  EXPECT_EQ(log.GetTop(), seen.b);
  EXPECT_EQ(WalkBackFromTop(log), (std::vector<LogAddress>{seen.b, a}));
}

TEST(PipelinedForce, FailedParkedAppendKeepsStagingOrder) {
  auto owned = std::make_unique<ParkingMedium>();
  ParkingMedium& medium = *owned;
  StableLog log(std::move(owned));
  const LogAddress a = log.Write(LogEntry(MakeData(1)));

  ParkedForce seen = StageWhileAForceIsParked(log, medium, a, /*fail=*/true);
  EXPECT_EQ(seen.force.code(), ErrorCode::kIoError) << seen.force.ToString();
  EXPECT_TRUE(seen.stager_returned) << "staging waited for the parked append";
  // Nothing is durable, and both entries stay staged where they were put:
  // A first, B right behind it.
  EXPECT_EQ(log.durable_size(), 0u);
  EXPECT_FALSE(log.GetTop().has_value());
  EXPECT_EQ(log.staged_entries(), 2u);
  EXPECT_GT(seen.b.offset, a.offset);
  EXPECT_EQ(TagAt(log, a), 1u);
  EXPECT_EQ(TagAt(log, seen.b), 2u);
  EXPECT_EQ(log.end_offset(), seen.end_offset);

  // A retry appends both.
  ASSERT_TRUE(log.Force().ok());
  EXPECT_EQ(log.durable_size(), seen.end_offset);
  EXPECT_EQ(log.staged_entries(), 0u);
  EXPECT_EQ(log.GetTop(), seen.b);
  EXPECT_EQ(WalkBackFromTop(log), (std::vector<LogAddress>{seen.b, a}));
}

TEST(FlushCoordinator, ConcurrentForceWritesAllDurableAndCoalesced) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kEntriesPerThread = 50;

  // The coordinator counts under its log's scope.
  const obs::Scope scope{.guardian = 11, .shard = 0};
  const std::uint64_t forces_before = CounterValue("log.forces", scope);
  const std::uint64_t requests_before = CounterValue("log.force.requests", scope);
  const std::uint64_t coalesced_before = CounterValue("log.force.coalesced", scope);
  StableLog log(std::make_unique<InMemoryStableMedium>(), scope);
  FlushCoordinatorConfig config;
  config.batch_window = std::chrono::microseconds(500);
  config.max_batch = kThreads;
  FlushCoordinator coordinator(&log, config);

  std::vector<std::vector<LogAddress>> addresses(kThreads);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::optional<LogAddress> last_top;
      for (std::size_t i = 0; i < kEntriesPerThread; ++i) {
        Result<LogAddress> addr =
            coordinator.ForceWrite(LogEntry(MakeData(t * kEntriesPerThread + i)));
        if (!addr.ok()) {
          failed = true;
          return;
        }
        addresses[t].push_back(addr.value());
        // ForceWrite returned, so the entry is durable: GetTop() must already
        // cover it, and must never regress between this thread's observations.
        std::optional<LogAddress> top = log.GetTop();
        if (!top.has_value() || *top < addr.value() ||
            (last_top.has_value() && *top < *last_top)) {
          failed = true;
          return;
        }
        last_top = top;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_FALSE(failed.load());

  // Every returned address is durable and readable after the threads drained.
  std::uint64_t durable = log.durable_size();
  for (const auto& per_thread : addresses) {
    ASSERT_EQ(per_thread.size(), kEntriesPerThread);
    for (LogAddress addr : per_thread) {
      EXPECT_LT(addr.offset, durable);
      Result<LogEntry> entry = log.Read(addr);
      ASSERT_TRUE(entry.ok()) << entry.status().ToString();
      EXPECT_TRUE(std::holds_alternative<DataEntry>(entry.value()));
    }
  }

  // Coalescing: far fewer physical forces than entries, and the counts see
  // both the followers and the shared flushes.
  const std::uint64_t entries = log.entries_written();
  const std::uint64_t forces = CounterValue("log.forces", scope) - forces_before;
  EXPECT_EQ(entries, kThreads * kEntriesPerThread);
  EXPECT_LT(forces, entries);
  EXPECT_GT(static_cast<double>(entries) / static_cast<double>(forces), 2.0)
      << "forces=" << forces;
  EXPECT_EQ(CounterValue("log.force.requests", scope) - requests_before,
            kThreads * kEntriesPerThread);
  EXPECT_GT(CounterValue("log.force.coalesced", scope) - coalesced_before, std::uint64_t{0});
}

TEST(FlushCoordinator, ForceUpToDurableAddressReturnsImmediately) {
  StableLog log(std::make_unique<InMemoryStableMedium>());
  FlushCoordinator coordinator(&log);

  // Forcing an empty log is a no-op.
  EXPECT_TRUE(coordinator.Force().ok());

  Result<LogAddress> addr = coordinator.ForceWrite(LogEntry(MakeData(1)));
  ASSERT_TRUE(addr.ok());
  std::uint64_t forces_before = CounterValue("log.forces");
  // Already durable: no new physical force.
  EXPECT_TRUE(coordinator.ForceUpTo(addr.value()).ok());
  EXPECT_TRUE(coordinator.Force().ok());
  EXPECT_EQ(CounterValue("log.forces"), forces_before);
}

TEST(FlushCoordinator, StagedWritersShareOneFlush) {
  // Deterministic single-thread shape: stage K entries, then one ForceUpTo
  // of the last covers all of them (§3.1).
  const obs::Scope scope{.guardian = 12, .shard = 0};
  const obs::Histogram* batch_entries = scope.GetHistogram("log.force.batch_entries");
  const std::uint64_t forces_before = CounterValue("log.forces", scope);
  const std::uint64_t batches_before = batch_entries->Count();
  const std::uint64_t batched_before = batch_entries->Sum();
  StableLog log(std::make_unique<InMemoryStableMedium>(), scope);
  FlushCoordinator coordinator(&log);
  std::vector<LogAddress> addrs;
  for (std::uint64_t i = 0; i < 5; ++i) {
    addrs.push_back(log.Write(LogEntry(MakeData(i))));
  }
  ASSERT_TRUE(coordinator.ForceUpTo(addrs.back()).ok());
  // One force, and it carried all five entries.
  EXPECT_EQ(CounterValue("log.forces", scope) - forces_before, 1u);
  EXPECT_EQ(batch_entries->Count() - batches_before, 1u);
  EXPECT_EQ(batch_entries->Sum() - batched_before, 5u);
  for (LogAddress a : addrs) {
    EXPECT_LT(a.offset, log.durable_size());
  }
}

TEST(GroupCommit, ConcurrentWorkloadCommitsAreDurableAndCoalesced) {
  constexpr std::size_t kThreads = 8;

  SimWorldConfig world_config;
  world_config.guardian_count = 2;
  world_config.mode = LogMode::kHybrid;
  world_config.medium = MediumKind::kInMemory;
  world_config.seed = 99;
  FlushCoordinatorConfig gc;
  gc.batch_window = std::chrono::microseconds(300);
  gc.max_batch = kThreads;
  world_config.group_commit = gc;
  // Guardian g's one log counts under {guardian=g, shard=0}.
  auto scope = [](std::uint32_t g) { return obs::Scope{.guardian = g, .shard = 0}; };
  std::vector<std::uint64_t> forces_before;
  std::vector<std::uint64_t> coalesced_before;
  for (std::uint32_t g = 0; g < world_config.guardian_count; ++g) {
    forces_before.push_back(CounterValue("log.forces", scope(g)));
    coalesced_before.push_back(CounterValue("log.force.coalesced", scope(g)));
  }
  const std::uint64_t total_forces_before = CounterValue("log.forces");
  SimWorld world(world_config);

  WorkloadConfig config;
  config.seed = 99;
  config.abort_probability = 0.2;
  config.early_prepare_probability = 0.2;
  config.threads = kThreads;
  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());
  ASSERT_TRUE(driver.Run(400).ok());

  EXPECT_EQ(driver.stats().attempted, 400u);
  EXPECT_GT(driver.stats().committed, 100u);

  std::uint64_t total_forces = 0;
  std::uint64_t total_entries = 0;
  for (std::uint32_t g = 0; g < world.guardian_count(); ++g) {
    total_forces += CounterValue("log.forces", scope(g)) - forces_before[g];
    total_entries += world.guardian(g).recovery().log().entries_written();
    EXPECT_GT(CounterValue("log.force.coalesced", scope(g)) - coalesced_before[g],
              std::uint64_t{0})
        << "guardian " << g;
  }
  // The labelled entries add up to the unlabelled total.
  EXPECT_EQ(CounterValue("log.forces") - total_forces_before, total_forces);
  EXPECT_LT(total_forces, driver.stats().committed)
      << "group commit must need fewer physical forces than commits";
  EXPECT_GT(static_cast<double>(total_entries) / static_cast<double>(total_forces), 2.0);

  // Everything the model recorded survives full-world crash recovery.
  Result<std::size_t> checked = driver.VerifyAfterCrash();
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_GT(checked.value(), 0u);
}

TEST(GroupCommit, ConcurrentWorkloadWithoutCoordinatorStaysCorrect) {
  // The same concurrent driver against plain per-request forces: correctness
  // must not depend on the coordinator being present.
  SimWorldConfig world_config;
  world_config.guardian_count = 2;
  world_config.seed = 7;
  SimWorld world(world_config);

  WorkloadConfig config;
  config.seed = 7;
  config.abort_probability = 0.1;
  config.threads = 4;
  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());
  ASSERT_TRUE(driver.Run(200).ok());
  Result<std::size_t> checked = driver.VerifyAfterCrash();
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
}

TEST(GroupCommit, ConcurrentCheckpointsStillRequireGroupCommit) {
  // Crash injection is now supported concurrently (see
  // crash_storm_property_test.cc), but checkpointing still needs the
  // coordinator's epoch check to resolve waits that race a log swap.
  SimWorldConfig world_config;
  world_config.guardian_count = 1;
  SimWorld world(world_config);  // no group commit

  WorkloadConfig config;
  config.threads = 2;
  config.checkpoint = CheckpointPolicyConfig{};
  WorkloadDriver checkpoint_driver(&world, config);
  ASSERT_TRUE(checkpoint_driver.Setup().ok());
  EXPECT_EQ(checkpoint_driver.Run(1).code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace argus
