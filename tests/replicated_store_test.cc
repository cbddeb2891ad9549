// The N-way replicated page store and its online repair loop.
//
// Three layers:
//   1. Quorum semantics — in-order write-all, fixed-order careful reads, the
//      dirty queue fed by fallback reads, crash-time Repair vs the online
//      RepairPage/ScrubRange pass (which also re-silvers blank replicas).
//   2. ReplicaRepairService — the background thread that drains the dirty
//      queue, advances re-silvers, and scrubs the full range while commits
//      keep flowing.
//   3. The N=2 equivalence oracle — a verbatim transcription of the historical
//      DuplexedStore driven op-for-op against ReplicatedStore(2) over seeded
//      random scripts: every result, every per-disk read/write count, and
//      every final platter byte must match bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/stable/replicated_store.h"
#include "tests/test_support.h"

namespace argus {
namespace {

std::vector<std::byte> Page(std::uint8_t fill) {
  return std::vector<std::byte>(kDiskPageSize, std::byte{fill});
}

// ---------------------------------------------------------------------------
// Quorum semantics
// ---------------------------------------------------------------------------

TEST(ReplicatedStore, WriteAllLandsOnEveryReplica) {
  ReplicatedStore store(4, 3, 9);
  ASSERT_TRUE(store.AtomicWrite(1, AsSpan(Page(0x5a))).ok());
  for (std::uint32_t r = 0; r < 3; ++r) {
    const DiskPage& p = store.disk(r).PeekPage(1);
    EXPECT_TRUE(p.ever_written) << "replica " << r;
    EXPECT_TRUE(p.IntactCrc()) << "replica " << r;
    EXPECT_EQ(p.data, Page(0x5a)) << "replica " << r;
  }
  Result<std::vector<std::byte>> back = store.AtomicRead(1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), Page(0x5a));
  EXPECT_EQ(store.dirty_pages(), 0u);  // replica 0 answered; nothing to heal
}

TEST(ReplicatedStore, QuorumReadFallsPastCorruptReplicasAndQueuesRepair) {
  ReplicatedStore store(4, 3, 10);
  ASSERT_TRUE(store.AtomicWrite(2, AsSpan(Page(0x66))).ok());
  store.disk(0).CorruptPage(2);
  store.disk(1).CorruptPage(2);
  Result<std::vector<std::byte>> back = store.AtomicRead(2);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), Page(0x66));
  // The fallback read queued the page for the online repair loop.
  EXPECT_EQ(store.dirty_pages(), 1u);
}

TEST(ReplicatedStore, AllReplicaLossIsDetectedNotSilent) {
  ReplicatedStore store(4, 3, 11);
  ASSERT_TRUE(store.AtomicWrite(0, AsSpan(Page(0x77))).ok());
  for (std::uint32_t r = 0; r < 3; ++r) {
    store.disk(r).CorruptPage(0);
  }
  Result<std::vector<std::byte>> back = store.AtomicRead(0);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), ErrorCode::kCorruption);
}

TEST(ReplicatedStore, NeverWrittenReadsNotFound) {
  ReplicatedStore store(4, 5, 12);
  Result<std::vector<std::byte>> back = store.AtomicRead(3);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), ErrorCode::kNotFound);
}

TEST(ReplicatedStore, TornWriteMidChainLeavesPrefixAsWinner) {
  ReplicatedStore store(4, 3, 13);
  ASSERT_TRUE(store.AtomicWrite(1, AsSpan(Page(0x01))).ok());
  // Tear the next write on replica 1: the chain is 0=new, 1=garbage, 2=old.
  DiskFaultPlan tear;
  tear.tear_write_at = 0;
  store.SetReplicaFaultPlan(1, tear);
  Status s = store.AtomicWrite(1, AsSpan(Page(0x02)));
  EXPECT_FALSE(s.ok());
  store.SetReplicaFaultPlan(1, DiskFaultPlan{});
  // Replica 0 holds the new value and wins the quorum read: the logical page
  // moved forward atomically even though the chain tore mid-flight.
  Result<std::vector<std::byte>> back = store.AtomicRead(1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), Page(0x02));
  // Crash-time repair propagates the winner to the torn and stale replicas.
  Result<std::size_t> repaired = store.Repair();
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired.value(), 2u);
  ASSERT_TRUE(store.VerifyConverged().ok());
}

TEST(ReplicatedStore, CrashTimeRepairHealsReplicaBelowWinner) {
  // The winner can sit above a corrupt replica (decay on replica 0, intact
  // copy on replica 1): repair must heal downward too, exactly as the
  // historical duplexed store re-duplexed A from B.
  ReplicatedStore store(4, 3, 14);
  ASSERT_TRUE(store.AtomicWrite(2, AsSpan(Page(0x33))).ok());
  store.disk(0).CorruptPage(2);
  Result<std::size_t> repaired = store.Repair();
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired.value(), 1u);
  EXPECT_FALSE(store.disk(0).PageIsBad(2));
  ASSERT_TRUE(store.VerifyConverged().ok());
}

TEST(ReplicatedStore, CrashTimeRepairReportsPageLostEverywhere) {
  ReplicatedStore store(4, 3, 15);
  ASSERT_TRUE(store.AtomicWrite(1, AsSpan(Page(0x99))).ok());
  for (std::uint32_t r = 0; r < 3; ++r) {
    store.disk(r).CorruptPage(1);
  }
  Result<std::size_t> repaired = store.Repair();
  ASSERT_FALSE(repaired.ok());
  EXPECT_EQ(repaired.status().code(), ErrorCode::kCorruption);
}

TEST(ReplicatedStore, OnlineRepairFillsReplicaThatMissedTheWrite) {
  // Crash-time Repair leaves kNotFound replicas alone (historical semantics);
  // the online pass fills them — the catch-up path for a chain torn before
  // first reaching a replica, and the unit of re-silvering.
  ReplicatedStore store(4, 3, 16);
  ASSERT_TRUE(store.AtomicWrite(3, AsSpan(Page(0x42))).ok());
  store.ReplaceReplica(1, 777);  // whole-disk loss: replica 1 is blank
  EXPECT_TRUE(store.resilver_pending());
  EXPECT_FALSE(store.disk(1).PeekPage(3).ever_written);

  Result<std::size_t> healed = store.ScrubRange(0, store.page_count());
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed.value(), 1u);  // one written page to re-silver
  store.FinishResilver();
  EXPECT_FALSE(store.resilver_pending());
  EXPECT_EQ(store.disk(1).PeekPage(3).data, Page(0x42));
  ASSERT_TRUE(store.VerifyConverged().ok());
}

TEST(ReplicatedStore, ScrubKeepsHealingPastLostPages) {
  ReplicatedStore store(4, 2, 17);
  ASSERT_TRUE(store.AtomicWrite(0, AsSpan(Page(0x01))).ok());
  ASSERT_TRUE(store.AtomicWrite(2, AsSpan(Page(0x03))).ok());
  // Page 0: lost on both replicas. Page 2: healable (one corrupt copy).
  store.disk(0).CorruptPage(0);
  store.disk(1).CorruptPage(0);
  store.disk(0).CorruptPage(2);
  Result<std::size_t> r = store.ScrubRange(0, store.page_count());
  // The lost page surfaces as the scan's error...
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorruption);
  // ...but the healable page was still healed.
  EXPECT_FALSE(store.disk(0).PageIsBad(2));
}

// ---------------------------------------------------------------------------
// ReplicaRepairService
// ---------------------------------------------------------------------------

TEST(ReplicaRepairService, PassDrainsDirtyQueueAndHeals) {
  ReplicatedStore store(8, 3, 20);
  for (std::size_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(store.AtomicWrite(p, AsSpan(Page(static_cast<std::uint8_t>(p + 1)))).ok());
  }
  store.disk(0).CorruptPage(1);
  // The quorum read survives off replica 1 and queues page 1 as dirty.
  ASSERT_TRUE(store.AtomicRead(1).ok());
  ASSERT_EQ(store.dirty_pages(), 1u);

  ReplicaRepairConfig config;
  config.scrub_pages_per_pass = 0;  // isolate the dirty-queue path
  // The service counts under its scope; healed copies are the store's
  // (unlabelled) repaired and re-silvered pages.
  const obs::Scope scope{.guardian = 20, .shard = 0};
  const std::uint64_t passes_before = CounterValue("stable.repair.scans", scope);
  const std::uint64_t drained_before = CounterValue("stable.repair.dirty_drained", scope);
  const std::uint64_t copies_before =
      CounterValue("stable.repair.pages_repaired") + CounterValue("stable.repair.resilver_pages");
  ReplicaRepairService service(&store, config, scope);
  ASSERT_TRUE(service.RunPass().ok());
  EXPECT_EQ(CounterValue("stable.repair.scans", scope) - passes_before, 1u);
  EXPECT_EQ(CounterValue("stable.repair.dirty_drained", scope) - drained_before, 1u);
  EXPECT_EQ(CounterValue("stable.repair.pages_repaired") +
                CounterValue("stable.repair.resilver_pages") - copies_before,
            1u);
  EXPECT_EQ(store.dirty_pages(), 0u);
  EXPECT_FALSE(store.disk(0).PageIsBad(1));
  ASSERT_TRUE(store.VerifyConverged().ok());
}

TEST(ReplicaRepairService, ResilverCompletesAcrossPasses) {
  ReplicatedStore store(64, 2, 21);
  for (std::size_t p = 0; p < 64; ++p) {
    ASSERT_TRUE(store.AtomicWrite(p, AsSpan(Page(static_cast<std::uint8_t>(p)))).ok());
  }
  std::uint32_t added = store.AttachReplica(4242);
  EXPECT_EQ(added, 2u);
  EXPECT_TRUE(store.resilver_pending());

  ReplicaRepairConfig config;
  config.scrub_pages_per_pass = 16;  // four passes to cover the range
  const obs::Scope scope{.guardian = 21, .shard = 0};
  const std::uint64_t resilvers_before = CounterValue("stable.repair.resilvers", scope);
  ReplicaRepairService service(&store, config, scope);
  int passes = 0;
  while (store.resilver_pending() && passes < 16) {
    ASSERT_TRUE(service.RunPass().ok());
    ++passes;
  }
  EXPECT_FALSE(store.resilver_pending());
  EXPECT_EQ(passes, 4);
  EXPECT_EQ(CounterValue("stable.repair.resilvers", scope) - resilvers_before, 1u);
  // The attached replica now holds every page; the strict all-or-none
  // convergence check applies again.
  for (std::size_t p = 0; p < 64; ++p) {
    EXPECT_EQ(store.disk(added).PeekPage(p).data, Page(static_cast<std::uint8_t>(p)));
  }
  ASSERT_TRUE(store.VerifyConverged().ok());
}

TEST(ReplicaRepairService, BackgroundThreadHealsWhileWritesContinue) {
  // The RADON property in miniature: a mutator thread keeps writing while the
  // repair thread scrubs a decaying replica; after the storm clears, one
  // final scrub converges the store.
  ReplicatedStore store(32, 3, 22);
  for (std::size_t p = 0; p < 32; ++p) {
    ASSERT_TRUE(store.AtomicWrite(p, AsSpan(Page(0xab))).ok());
  }
  DiskFaultPlan decay;
  decay.decay_on_read_probability = 0.05;
  store.SetReplicaFaultPlan(0, decay);

  ReplicaRepairConfig config;
  config.scrub_pages_per_pass = 8;
  const obs::Scope scope{.guardian = 22, .shard = 0};
  const std::uint64_t passes_before = CounterValue("stable.repair.scans", scope);
  ReplicaRepairService service(&store, config, scope);
  service.Start();

  Rng rng(22);
  for (int i = 0; i < 400; ++i) {
    std::size_t page = rng.NextBelow(32);
    if (rng.NextBool(0.5)) {
      ASSERT_TRUE(store.AtomicWrite(page, AsSpan(Page(static_cast<std::uint8_t>(i)))).ok());
    } else {
      Result<std::vector<std::byte>> r = store.AtomicRead(page);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }
  // On a loaded (or single-core) machine the mutator loop can finish before
  // the repair thread ever wakes; wait for at least one pass so the "heals
  // while writes continue" claim is actually exercised.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (CounterValue("stable.repair.scans", scope) == passes_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.Stop();
  EXPECT_GE(CounterValue("stable.repair.scans", scope) - passes_before, 1u);

  store.SetReplicaFaultPlan(0, DiskFaultPlan{});
  ASSERT_TRUE(store.ScrubRange(0, store.page_count()).ok());
  ASSERT_TRUE(store.VerifyConverged().ok());
}

// ---------------------------------------------------------------------------
// N=2 equivalence with the historical DuplexedStore
// ---------------------------------------------------------------------------

// Verbatim transcription of the pre-replication DuplexedStore (same careful
// layers, same A-then-B orders, same status taxonomy), minus the obs counters.
// The contract under test: ReplicatedStore(page_count, 2, seed) performs the
// identical sequence of disk operations, so every result and every platter
// byte matches bit for bit — including the fault rng streams, which advance
// once per physical read.
class LegacyDuplexedStore {
 public:
  LegacyDuplexedStore(std::size_t page_count, std::uint64_t seed)
      : page_count_(page_count),
        disk_a_(std::make_unique<SimulatedDisk>(page_count, seed * 2 + 1)),
        disk_b_(std::make_unique<SimulatedDisk>(page_count, seed * 2 + 2)),
        careful_a_(disk_a_.get()),
        careful_b_(disk_b_.get()) {}

  Status AtomicWrite(std::size_t page_index, std::span<const std::byte> data) {
    Status a = careful_a_.CarefulWrite(page_index, data);
    if (!a.ok()) {
      return a;
    }
    return careful_b_.CarefulWrite(page_index, data);
  }

  Result<std::vector<std::byte>> AtomicRead(std::size_t page_index) {
    Result<std::vector<std::byte>> a = careful_a_.CarefulRead(page_index);
    if (a.ok()) {
      return a;
    }
    Result<std::vector<std::byte>> b = careful_b_.CarefulRead(page_index);
    if (b.ok()) {
      return b;
    }
    if (a.status().code() == ErrorCode::kNotFound && b.status().code() == ErrorCode::kNotFound) {
      return Status::NotFound("page never written");
    }
    return Status::Corruption("both replicas unreadable");
  }

  Result<std::size_t> Repair() {
    std::size_t repaired = 0;
    for (std::size_t i = 0; i < page_count_; ++i) {
      Result<std::vector<std::byte>> a = careful_a_.CarefulRead(i);
      Result<std::vector<std::byte>> b = careful_b_.CarefulRead(i);
      if (a.ok() && b.ok()) {
        if (!std::equal(a.value().begin(), a.value().end(), b.value().begin())) {
          Status s = careful_b_.CarefulWrite(i, AsSpan(a.value()));
          if (!s.ok()) {
            return s;
          }
          ++repaired;
        }
        continue;
      }
      if (a.ok() && b.status().code() == ErrorCode::kCorruption) {
        Status s = careful_b_.CarefulWrite(i, AsSpan(a.value()));
        if (!s.ok()) {
          return s;
        }
        ++repaired;
      } else if (b.ok() && a.status().code() == ErrorCode::kCorruption) {
        Status s = careful_a_.CarefulWrite(i, AsSpan(b.value()));
        if (!s.ok()) {
          return s;
        }
        ++repaired;
      } else if (!a.ok() && !b.ok() && a.status().code() == ErrorCode::kCorruption &&
                 b.status().code() == ErrorCode::kCorruption) {
        return Status::Corruption("page lost on both replicas");
      }
    }
    return repaired;
  }

  SimulatedDisk& disk_a() { return *disk_a_; }
  SimulatedDisk& disk_b() { return *disk_b_; }

 private:
  std::size_t page_count_;
  std::unique_ptr<SimulatedDisk> disk_a_;
  std::unique_ptr<SimulatedDisk> disk_b_;
  CarefulDisk careful_a_;
  CarefulDisk careful_b_;
};

void ExpectDisksIdentical(SimulatedDisk& legacy, SimulatedDisk& current, const char* which,
                          std::uint64_t seed) {
  ASSERT_EQ(legacy.page_count(), current.page_count());
  EXPECT_EQ(legacy.reads(), current.reads()) << which << " seed " << seed;
  EXPECT_EQ(legacy.writes(), current.writes()) << which << " seed " << seed;
  for (std::size_t p = 0; p < legacy.page_count(); ++p) {
    const DiskPage& lp = legacy.PeekPage(p);
    const DiskPage& cp = current.PeekPage(p);
    ASSERT_EQ(lp.ever_written, cp.ever_written) << which << " page " << p << " seed " << seed;
    if (!lp.ever_written) {
      continue;
    }
    EXPECT_EQ(lp.stored_crc, cp.stored_crc) << which << " page " << p << " seed " << seed;
    EXPECT_EQ(lp.data, cp.data) << which << " page " << p << " seed " << seed;
  }
}

class DuplexedEquivalenceSweep : public testing::TestWithParam<std::uint64_t> {};

// The seeds the pre-replication suites ran on (stable_storage_test used the
// default seed 0 and 77; media_fault_test pinned 1234 and 88), plus a spread
// of fresh ones.
INSTANTIATE_TEST_SUITE_P(Seeds, DuplexedEquivalenceSweep,
                         testing::Values<std::uint64_t>(0, 77, 88, 1234, 5, 6, 7, 8));

TEST_P(DuplexedEquivalenceSweep, BitIdenticalToLegacyDuplexedStore) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kPages = 16;
  LegacyDuplexedStore legacy(kPages, seed);
  ReplicatedStore current(kPages, /*replicas=*/2, seed);

  // One script, two stores: writes, reads, deterministic decay, torn writes,
  // probabilistic decay storms, and crash-time repairs, drawn from a seeded
  // rng that is consulted identically for both.
  Rng script(seed * 31 + 7);
  for (int op = 0; op < 300; ++op) {
    std::size_t page = script.NextBelow(kPages);
    std::uint64_t kind = script.NextBelow(100);
    if (kind < 45) {
      std::vector<std::byte> data = Page(static_cast<std::uint8_t>(script.NextBelow(256)));
      Status l = legacy.AtomicWrite(page, AsSpan(data));
      Status c = current.AtomicWrite(page, AsSpan(data));
      ASSERT_EQ(l.code(), c.code()) << "op " << op << " seed " << seed;
    } else if (kind < 80) {
      Result<std::vector<std::byte>> l = legacy.AtomicRead(page);
      Result<std::vector<std::byte>> c = current.AtomicRead(page);
      ASSERT_EQ(l.ok(), c.ok()) << "op " << op << " seed " << seed;
      if (l.ok()) {
        ASSERT_EQ(l.value(), c.value()) << "op " << op << " seed " << seed;
      } else {
        ASSERT_EQ(l.status().code(), c.status().code()) << "op " << op << " seed " << seed;
      }
    } else if (kind < 88) {
      bool on_a = script.NextBool(0.5);
      (on_a ? legacy.disk_a() : legacy.disk_b()).CorruptPage(page);
      (on_a ? current.disk_a() : current.disk_b()).CorruptPage(page);
    } else if (kind < 94) {
      // A short probabilistic storm: identical plans on corresponding disks.
      DiskFaultPlan plan;
      plan.decay_on_read_probability = 0.1;
      plan.transient_read_error_probability = 0.1;
      bool on_a = script.NextBool(0.5);
      (on_a ? legacy.disk_a() : legacy.disk_b()).set_fault_plan(plan);
      (on_a ? current.disk_a() : current.disk_b()).set_fault_plan(plan);
    } else if (kind < 97) {
      legacy.disk_a().set_fault_plan(DiskFaultPlan{});
      legacy.disk_b().set_fault_plan(DiskFaultPlan{});
      current.disk_a().set_fault_plan(DiskFaultPlan{});
      current.disk_b().set_fault_plan(DiskFaultPlan{});
    } else {
      Result<std::size_t> l = legacy.Repair();
      Result<std::size_t> c = current.Repair();
      ASSERT_EQ(l.ok(), c.ok()) << "op " << op << " seed " << seed;
      if (l.ok()) {
        ASSERT_EQ(l.value(), c.value()) << "op " << op << " seed " << seed;
      } else {
        ASSERT_EQ(l.status().code(), c.status().code()) << "op " << op << " seed " << seed;
      }
    }
  }

  // Quiesce: clear plans, run one final repair on both, then compare the
  // platters byte for byte (reads/writes counters included, so the disk-op
  // sequences — not just the outcomes — were identical).
  legacy.disk_a().set_fault_plan(DiskFaultPlan{});
  legacy.disk_b().set_fault_plan(DiskFaultPlan{});
  current.disk_a().set_fault_plan(DiskFaultPlan{});
  current.disk_b().set_fault_plan(DiskFaultPlan{});
  Result<std::size_t> lr = legacy.Repair();
  Result<std::size_t> cr = current.Repair();
  ASSERT_EQ(lr.ok(), cr.ok());
  if (lr.ok()) {
    ASSERT_EQ(lr.value(), cr.value());
  }
  ExpectDisksIdentical(legacy.disk_a(), current.disk_a(), "disk A", seed);
  ExpectDisksIdentical(legacy.disk_b(), current.disk_b(), "disk B", seed);
}

}  // namespace
}  // namespace argus
