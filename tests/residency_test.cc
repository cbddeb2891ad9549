// Tests for the residency subsystem: clock eviction of committed base
// versions to log-address stubs, fault-in through the batched read path,
// pinning by in-flight actions, and the interplay with recovery and
// checkpointing. See src/residency/residency_manager.h.

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/object/subaction.h"
#include "src/obs/metrics.h"
#include "src/residency/residency_manager.h"
#include "src/residency/residency_service.h"
#include "tests/test_support.h"

namespace argus {
namespace {

// A payload big enough that a handful of objects dwarfs a ~1KB budget.
Value BigPayload(char fill, std::size_t n = 2048) { return Value::Str(std::string(n, fill)); }

// A StorageHarness is guardian 0: its residency manager counts under
// {guardian=0} and its one log and read cache under {guardian=0, shard=0}.
const obs::Scope kGuardian{.guardian = 0};
const obs::Scope kShard{.guardian = 0, .shard = 0};

RecoverySystemConfig ResidencyConfigWith(std::uint64_t budget) {
  RecoverySystemConfig config = MemConfig(LogMode::kHybrid);
  config.residency.mem_budget_bytes = budget;
  return config;
}

TEST(Residency, DisabledWhenBudgetIsZero) {
  StorageHarness h(MemConfig(LogMode::kHybrid));
  EXPECT_EQ(h.rs().residency(), nullptr);
}

TEST(Residency, EvictAndFaultRoundTrip) {
  const std::uint64_t evictions_before = CounterValue("residency.evictions", kGuardian);
  const std::uint64_t faults_before = CounterValue("residency.faults", kGuardian);
  const std::uint64_t batches_before = CounterValue("residency.fault_batches", kGuardian);
  StorageHarness h(ResidencyConfigWith(1024));
  ResidencyManager* rm = h.rs().residency();
  ASSERT_NE(rm, nullptr);

  ActionId a1 = Aid(1);
  RecoverableObject* obj = h.ctx(a1).CreateAtomic(h.heap(), BigPayload('a'));
  ASSERT_TRUE(h.BindStable(a1, "x", obj).ok());
  ASSERT_TRUE(h.PrepareAndCommit(a1).ok());

  ASSERT_GT(rm->RunEvictionPass(), 0u);
  EXPECT_TRUE(obj->evicted());
  EXPECT_GE(CounterValue("residency.evictions", kGuardian) - evictions_before, 1u);
  EXPECT_LT(rm->resident_bytes(), 2048u) << "the 2KB payload should be gone";

  // First touch through a bound context faults the value back in.
  ActionId a2 = Aid(2);
  h.ctx(a2).BindResidency(rm);
  Result<const Value*> v = h.ctx(a2).ReadObject(obj);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v.value(), BigPayload('a'));
  EXPECT_FALSE(obj->evicted());
  EXPECT_EQ(v.value(), &obj->base_version()) << "the view is the faulted-in version itself";
  EXPECT_GE(CounterValue("residency.faults", kGuardian) - faults_before, 1u);
  EXPECT_GE(CounterValue("residency.fault_batches", kGuardian) - batches_before, 1u);
  // The read pinned the object: a pass under pressure leaves the view intact.
  rm->RunEvictionPass();
  EXPECT_FALSE(obj->evicted());
  EXPECT_EQ(*v.value(), BigPayload('a'));
  h.ctx(a2).AbortVolatile(h.heap());
}

TEST(Residency, LockedAndPinnedObjectsAreSkipped) {
  StorageHarness h(ResidencyConfigWith(512));
  ResidencyManager* rm = h.rs().residency();
  ASSERT_NE(rm, nullptr);

  ActionId a1 = Aid(1);
  RecoverableObject* obj = h.ctx(a1).CreateAtomic(h.heap(), BigPayload('b'));
  ASSERT_TRUE(h.BindStable(a1, "x", obj).ok());
  ASSERT_TRUE(h.PrepareAndCommit(a1).ok());

  // A write lock (and the pin the touch installed) blocks demotion.
  ActionId a2 = Aid(2);
  h.ctx(a2).BindResidency(rm);
  ASSERT_TRUE(h.ctx(a2).WriteObject(obj, BigPayload('c')).ok());
  std::uint64_t skips_before = CounterValue("residency.pinned_skips", kGuardian);
  rm->RunEvictionPass();
  EXPECT_FALSE(obj->evicted());
  EXPECT_GT(CounterValue("residency.pinned_skips", kGuardian), skips_before);

  // Abort releases lock and pin; the object becomes evictable again.
  h.ctx(a2).AbortVolatile(h.heap());
  ASSERT_GT(rm->RunEvictionPass(), 0u);
  EXPECT_TRUE(obj->evicted());
}

TEST(Residency, PassConvergesBelowHighWatermark) {
  const std::uint64_t passes_before = CounterValue("residency.eviction_passes", kGuardian);
  StorageHarness h(ResidencyConfigWith(4096));
  ResidencyManager* rm = h.rs().residency();
  ASSERT_NE(rm, nullptr);

  // 16 x 2KB objects: working set ~8x the budget.
  ActionId a1 = Aid(1);
  for (int i = 0; i < 16; ++i) {
    RecoverableObject* obj =
        h.ctx(a1).CreateAtomic(h.heap(), BigPayload(static_cast<char>('a' + i)));
    ASSERT_TRUE(h.BindStable(a1, "slot" + std::to_string(i), obj).ok());
  }
  ASSERT_TRUE(h.PrepareAndCommit(a1).ok());

  ASSERT_GT(rm->RunEvictionPass(), 0u);
  EXPECT_LE(rm->resident_bytes(), rm->high_watermark_bytes());
  EXPECT_GE(CounterValue("residency.eviction_passes", kGuardian) - passes_before, 1u);

  // Every slot still reads back correctly through faults.
  ActionId a2 = Aid(2);
  h.ctx(a2).BindResidency(rm);
  for (int i = 0; i < 16; ++i) {
    RecoverableObject* obj = h.StableVar("slot" + std::to_string(i));
    ASSERT_NE(obj, nullptr) << i;
    Result<const Value*> v = h.ctx(a2).ReadObject(obj);
    ASSERT_TRUE(v.ok()) << i << ": " << v.status().ToString();
    EXPECT_EQ(*v.value(), BigPayload(static_cast<char>('a' + i))) << i;
  }
  h.ctx(a2).AbortVolatile(h.heap());
}

TEST(Residency, SecondChanceSparesRecentlyReferencedObjects) {
  RecoverySystemConfig config = ResidencyConfigWith(256);  // permanent pressure
  config.residency.max_evictions_per_pass = 1;
  StorageHarness h(config);
  ResidencyManager* rm = h.rs().residency();
  ASSERT_NE(rm, nullptr);

  ActionId a1 = Aid(1);
  RecoverableObject* hot = h.ctx(a1).CreateAtomic(h.heap(), BigPayload('h', 512));
  RecoverableObject* cold = h.ctx(a1).CreateAtomic(h.heap(), BigPayload('c', 512));
  ASSERT_TRUE(h.BindStable(a1, "hot", hot).ok());
  ASSERT_TRUE(h.BindStable(a1, "cold", cold).ok());
  ASSERT_TRUE(h.PrepareAndCommit(a1).ok());

  // The creating action referenced both, so the first pass burns both bits
  // on lap one and second-laps into the lowest uid (`hot`).
  ASSERT_EQ(rm->RunEvictionPass(), 1u);
  EXPECT_TRUE(hot->evicted());
  EXPECT_FALSE(cold->evicted());

  // Fault `hot` back: the read marks it referenced; `cold`'s bit stays clear.
  ActionId a2 = Aid(2);
  h.ctx(a2).BindResidency(rm);
  ASSERT_TRUE(h.ctx(a2).ReadObject(hot).ok());
  h.ctx(a2).AbortVolatile(h.heap());

  // The set bit buys the recently-read object a lap — the clock demotes the
  // unreferenced one instead.
  ASSERT_EQ(rm->RunEvictionPass(), 1u);
  EXPECT_TRUE(cold->evicted());
  EXPECT_FALSE(hot->evicted());

  // The spared object's bit was consumed; the next pass takes it.
  ASSERT_EQ(rm->RunEvictionPass(), 1u);
  EXPECT_TRUE(hot->evicted());
}

TEST(Residency, MutexObjectsEvictAndRefault) {
  StorageHarness h(ResidencyConfigWith(1024));
  ResidencyManager* rm = h.rs().residency();
  ASSERT_NE(rm, nullptr);

  ActionId a1 = Aid(1);
  RecoverableObject* mtx = h.ctx(a1).CreateMutex(h.heap(), BigPayload('m'));
  ASSERT_TRUE(h.BindStable(a1, "m", mtx).ok());
  ASSERT_TRUE(h.PrepareAndCommit(a1).ok());

  ASSERT_GT(rm->RunEvictionPass(), 0u);
  EXPECT_TRUE(mtx->evicted());

  ActionId a2 = Aid(2);
  h.ctx(a2).BindResidency(rm);
  Value seen;
  ASSERT_TRUE(h.ctx(a2).MutateMutex(mtx, [&](Value& v) { seen = v; }).ok());
  EXPECT_EQ(seen, BigPayload('m'));
  EXPECT_FALSE(mtx->evicted());
  h.ctx(a2).AbortVolatile(h.heap());
}

TEST(Residency, StubsKeepTheReferenceGraphTraversable) {
  StorageHarness h(ResidencyConfigWith(1024));
  ResidencyManager* rm = h.rs().residency();
  ASSERT_NE(rm, nullptr);

  ActionId a1 = Aid(1);
  RecoverableObject* inner = h.ctx(a1).CreateAtomic(h.heap(), BigPayload('i'));
  RecoverableObject* outer = h.ctx(a1).CreateAtomic(
      h.heap(), Value::OfList({Value::Str("pad"), Value::Ref(inner)}));
  ASSERT_TRUE(h.BindStable(a1, "outer", outer).ok());
  ASSERT_TRUE(h.PrepareAndCommit(a1).ok());

  ASSERT_GT(rm->RunEvictionPass(), 0u);
  EXPECT_TRUE(inner->evicted() || outer->evicted());

  // Accessibility traversal must see through stubs: both objects stay
  // reachable from the stable variables even while demoted.
  std::unordered_set<Uid> accessible = h.heap().ComputeAccessibleUids();
  EXPECT_GT(accessible.count(outer->uid()), 0u);
  EXPECT_GT(accessible.count(inner->uid()), 0u);
}

TEST(Residency, BatchFaultReadsEveryStubInOneSubmission) {
  StorageHarness h(ResidencyConfigWith(1024));
  ResidencyManager* rm = h.rs().residency();
  ASSERT_NE(rm, nullptr);

  ActionId a1 = Aid(1);
  std::vector<RecoverableObject*> objs;
  for (int i = 0; i < 8; ++i) {
    objs.push_back(
        h.ctx(a1).CreateAtomic(h.heap(), BigPayload(static_cast<char>('a' + i), 1024)));
    ASSERT_TRUE(h.BindStable(a1, "slot" + std::to_string(i), objs.back()).ok());
  }
  ASSERT_TRUE(h.PrepareAndCommit(a1).ok());
  ASSERT_GT(rm->RunEvictionPass(), 0u);
  std::uint64_t stubbed = 0;
  for (RecoverableObject* obj : objs) {
    stubbed += obj->evicted() ? 1u : 0u;
  }
  ASSERT_GT(stubbed, 1u) << "need several stubs to exercise batching";

  std::uint64_t batches_before = CounterValue("residency.fault_batches", kGuardian);
  std::uint64_t faults_before = CounterValue("residency.faults", kGuardian);
  std::uint64_t reads_before = CounterValue("residency.fault_reads", kGuardian);
  ASSERT_TRUE(rm->MaterializeAll().ok());

  // Single shard: every stub comes back through ONE ReadMany submission, one
  // frame per object — no per-object round trips, no read amplification.
  EXPECT_EQ(CounterValue("residency.faults", kGuardian) - faults_before, stubbed);
  EXPECT_EQ(CounterValue("residency.fault_batches", kGuardian) - batches_before, 1u);
  EXPECT_EQ(CounterValue("residency.fault_reads", kGuardian) - reads_before, stubbed);
  for (RecoverableObject* obj : objs) {
    EXPECT_FALSE(obj->evicted());
  }
}

TEST(Residency, FaultPathTrafficShowsInSnapshotRollupOnly) {
  StorageHarness h(ResidencyConfigWith(1024));
  ResidencyManager* rm = h.rs().residency();
  ASSERT_NE(rm, nullptr);

  ActionId a1 = Aid(1);
  for (int i = 0; i < 4; ++i) {
    RecoverableObject* obj =
        h.ctx(a1).CreateAtomic(h.heap(), BigPayload(static_cast<char>('a' + i), 1024));
    ASSERT_TRUE(h.BindStable(a1, "slot" + std::to_string(i), obj).ok());
  }
  ASSERT_TRUE(h.PrepareAndCommit(a1).ok());
  ASSERT_GT(rm->RunEvictionPass(), 0u);
  auto cache_reads = [](const obs::Scope& scope) {
    return CounterValue("stable.cache.hits", scope) + CounterValue("stable.cache.misses", scope);
  };
  const std::uint64_t shard_before = cache_reads(kShard);
  const std::uint64_t total_before = cache_reads({});
  const std::uint64_t batches_before = CounterValue("residency.fault_batches", kGuardian);
  ASSERT_TRUE(rm->MaterializeAll().ok());

  // The fault path's cache traffic shows in the shard's row of the registry
  // snapshot, and the rollup (the unlabelled total) includes it.
  const std::uint64_t shard_reads = cache_reads(kShard) - shard_before;
  EXPECT_GT(shard_reads, 0u);
  EXPECT_GE(cache_reads({}) - total_before, shard_reads);
  EXPECT_GE(CounterValue("residency.fault_batches", kGuardian) - batches_before, 1u);
  const std::string snapshot = obs::Registry::Global().ToJson();
  EXPECT_NE(snapshot.find("\"" + kShard.Name("stable.cache.misses") + "\""), std::string::npos);
}

TEST(Residency, RecoveryPrimesStableAddressesForEviction) {
  StorageHarness h(ResidencyConfigWith(1024));

  ActionId a1 = Aid(1);
  RecoverableObject* obj = h.ctx(a1).CreateAtomic(h.heap(), BigPayload('r'));
  ASSERT_TRUE(h.BindStable(a1, "x", obj).ok());
  ASSERT_TRUE(h.PrepareAndCommit(a1).ok());

  ASSERT_TRUE(h.CrashAndRecover().ok());
  ResidencyManager* rm = h.rs().residency();
  ASSERT_NE(rm, nullptr);

  // The recovered object was restored from a durable frame (here the chained
  // base_committed entry of its creating action), so it must be demotable
  // without ever being re-logged.
  ASSERT_GT(rm->RunEvictionPass(), 0u);
  RecoverableObject* recovered = h.StableVar("x");
  ASSERT_NE(recovered, nullptr);
  EXPECT_TRUE(recovered->evicted());

  ActionId a2 = Aid(2);
  h.ctx(a2).BindResidency(rm);
  Result<const Value*> v = h.ctx(a2).ReadObject(recovered);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v.value(), BigPayload('r'));
  h.ctx(a2).AbortVolatile(h.heap());
}

TEST(Residency, CheckpointMaterializesStubsAndSurvivesTheSwap) {
  StorageHarness h(ResidencyConfigWith(1024));
  ResidencyManager* rm = h.rs().residency();
  ASSERT_NE(rm, nullptr);

  ActionId a1 = Aid(1);
  RecoverableObject* obj = h.ctx(a1).CreateAtomic(h.heap(), BigPayload('k'));
  ASSERT_TRUE(h.BindStable(a1, "x", obj).ok());
  ASSERT_TRUE(h.PrepareAndCommit(a1).ok());
  ASSERT_GT(rm->RunEvictionPass(), 0u);
  ASSERT_TRUE(obj->evicted());

  // The checkpoint must rematerialize the stub (old-log addresses die at the
  // swap) and the swapped world keeps working.
  ASSERT_TRUE(h.rs().Housekeep(HousekeepingMethod::kSnapshot).ok());
  EXPECT_FALSE(obj->evicted());
  EXPECT_EQ(obj->base_version(), BigPayload('k'));

  // Immediately after the swap nothing carries a stable address, so a pass
  // demotes nothing...
  EXPECT_EQ(rm->RunEvictionPass(), 0u);
  EXPECT_FALSE(obj->evicted());

  // ...but the next committed write re-addresses the object on the new log
  // and eviction resumes.
  ActionId a2 = Aid(2);
  h.ctx(a2).BindResidency(rm);
  ASSERT_TRUE(h.ctx(a2).WriteObject(obj, BigPayload('K')).ok());
  ASSERT_TRUE(h.PrepareAndCommit(a2).ok());
  ASSERT_GT(rm->RunEvictionPass(), 0u);
  EXPECT_TRUE(obj->evicted());

  ActionId a3 = Aid(3);
  h.ctx(a3).BindResidency(rm);
  Result<const Value*> v = h.ctx(a3).ReadObject(obj);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v.value(), BigPayload('K'));
  h.ctx(a3).AbortVolatile(h.heap());
}

TEST(Residency, BackgroundServiceShedsPressure) {
  const std::uint64_t evictions_before = CounterValue("residency.evictions", kGuardian);
  auto evictions = [&] {
    return CounterValue("residency.evictions", kGuardian) - evictions_before;
  };
  StorageHarness h(ResidencyConfigWith(2048));
  ResidencyManager* rm = h.rs().residency();
  ASSERT_NE(rm, nullptr);

  ActionId a1 = Aid(1);
  for (int i = 0; i < 8; ++i) {
    RecoverableObject* obj =
        h.ctx(a1).CreateAtomic(h.heap(), BigPayload(static_cast<char>('a' + i)));
    ASSERT_TRUE(h.BindStable(a1, "slot" + std::to_string(i), obj).ok());
  }
  ASSERT_TRUE(h.PrepareAndCommit(a1).ok());

  std::mutex mu;
  ResidencyService service(rm, [&mu](const std::function<void()>& fn) {
    std::lock_guard<std::mutex> l(mu);
    fn();
  });
  service.Start();
  for (int spins = 0; spins < 2000 && evictions() == 0; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.Stop();
  EXPECT_GT(evictions(), 0u);
  {
    std::lock_guard<std::mutex> l(mu);
    EXPECT_LE(rm->resident_bytes(), rm->high_watermark_bytes());
  }
}

// The reference implementation of the heap's running count: ApproxBytes of
// every version in memory, summed over the whole heap.
std::uint64_t RecountResidentBytes(const VolatileHeap& heap) {
  std::uint64_t total = 0;
  for (const auto& [uid, obj] : heap) {
    if (!obj->evicted()) {
      total += obj->base_version().ApproxBytes();
    }
    if (obj->is_atomic() && obj->has_current()) {
      total += obj->current_version().ApproxBytes();
    }
  }
  return total;
}

// The manager publishes its count two ways; after a pass or a fault batch
// both must equal the recount.
void ExpectPublished(const ResidencyManager& rm, const VolatileHeap& heap,
                     const std::string& step) {
  const std::uint64_t want = RecountResidentBytes(heap);
  EXPECT_EQ(rm.resident_bytes(), want) << step;
  EXPECT_EQ(obs::GetGauge("residency.resident_bytes")->Value(), static_cast<double>(want))
      << step;
}

TEST(Residency, FaultBatchThatFailsMidwayStillPublishesItsCount) {
  StorageHarness h(ResidencyConfigWith(1024));
  ResidencyManager* rm = h.rs().residency();
  ASSERT_NE(rm, nullptr);

  ActionId a1 = Aid(1);
  std::vector<RecoverableObject*> objs;
  for (int i = 0; i < 3; ++i) {
    objs.push_back(h.ctx(a1).CreateAtomic(h.heap(), BigPayload(static_cast<char>('a' + i))));
    ASSERT_TRUE(h.BindStable(a1, "slot" + std::to_string(i), objs.back()).ok());
  }
  ASSERT_TRUE(h.PrepareAndCommit(a1).ok());
  ASSERT_EQ(rm->RunEvictionPass(), 3u);

  // The second stub names an address past the end of the log, so the batch
  // materializes the first object and then fails.
  const LogAddress good = objs[1]->stable_address();
  objs[1]->set_stable_address(LogAddress{h.rs().log().durable_size() + 4096});
  EXPECT_FALSE(rm->FaultInBatch(objs).ok());
  EXPECT_FALSE(objs[0]->evicted());
  EXPECT_TRUE(objs[1]->evicted());
  EXPECT_TRUE(objs[2]->evicted());
  ExpectPublished(*rm, h.heap(), "after the failed batch");

  objs[1]->set_stable_address(good);
  ASSERT_TRUE(rm->FaultInBatch(objs).ok());
  for (RecoverableObject* obj : objs) {
    EXPECT_FALSE(obj->evicted());
  }
  ExpectPublished(*rm, h.heap(), "after the retry");
}

// Drives every path that changes an object's versions, in a seeded order, and
// after every step holds the heap's running count (and, after passes and
// faults, the manager's published count) to a full recount.
class RunningCount {
 public:
  explicit RunningCount(std::uint64_t seed) : h_(ResidencyConfigWith(kBudget)), rng_(seed) {
    ActionId aid = Next();
    for (int i = 0; i < kAtomics; ++i) {
      Bind(aid, "a" + std::to_string(i), h_.ctx(aid).CreateAtomic(h_.heap(), Payload()));
    }
    for (int i = 0; i < kMutexes; ++i) {
      Bind(aid, "m" + std::to_string(i), h_.ctx(aid).CreateMutex(h_.heap(), Payload()));
    }
    EXPECT_TRUE(h_.PrepareAndCommit(aid).ok());
    Check("set-up");
  }

  void Run(int rounds) {
    std::vector<std::pair<const char*, void (RunningCount::*)()>> steps = {
        {"write", &RunningCount::WriteAndCommit},
        {"update", &RunningCount::UpdateAndAbort},
        {"subaction abort", &RunningCount::SubactionAbort},
        {"early prepare", &RunningCount::EarlyPrepare},
        {"mutex", &RunningCount::MutateMutex},
        {"pass", &RunningCount::Pass},
        {"fault", &RunningCount::FaultOne},
        {"fault batch", &RunningCount::FaultBatch},
        {"fault inside an edit", &RunningCount::FaultInsideEdit},
        {"writer fault", &RunningCount::WriterFault},
        {"checkpoint", &RunningCount::Checkpoint},
        {"crash", &RunningCount::CrashAndRecover},
        {"create", &RunningCount::Create},
    };
    for (int round = 0; round < rounds && !testing::Test::HasFailure(); ++round) {
      for (std::size_t i = steps.size(); i > 1; --i) {
        std::swap(steps[i - 1], steps[rng_.NextBelow(i)]);
      }
      for (const auto& [name, step] : steps) {
        step_ = std::string(name) + " (round " + std::to_string(round) + ")";
        (this->*step)();
      }
    }
    // The fault paths need a stub to work on; make sure they found one.
    if (!testing::Test::HasFailure()) {
      EXPECT_GT(faults_, 0);
      EXPECT_GT(writer_faults_, 0);
    }
  }

 private:
  static constexpr std::uint64_t kBudget = 4096;
  static constexpr int kAtomics = 8;
  static constexpr int kMutexes = 2;

  ResidencyManager& rm() { return *h_.rs().residency(); }
  ActionId Next() { return Aid(++sequence_); }
  ActionContext& Bound(ActionId aid) {
    h_.ctx(aid).BindResidency(&rm());
    return h_.ctx(aid);
  }
  void Bind(ActionId aid, const std::string& name, RecoverableObject* obj) {
    EXPECT_TRUE(h_.BindStable(aid, name, obj).ok()) << step_;
    names_.push_back(name);
  }
  RecoverableObject* Atomic() {
    return h_.StableVar("a" + std::to_string(rng_.NextBelow(kAtomics)));
  }
  RecoverableObject* Mutex() {
    return h_.StableVar("m" + std::to_string(rng_.NextBelow(kMutexes)));
  }
  std::vector<RecoverableObject*> Evicted() {
    std::vector<RecoverableObject*> out;
    for (const std::string& name : names_) {
      if (RecoverableObject* obj = h_.StableVar(name); obj->evicted()) {
        out.push_back(obj);
      }
    }
    return out;
  }
  // Strings of either side of the short-string cutoff, lists and records.
  Value Payload() {
    const char fill = static_cast<char>('a' + rng_.NextBelow(26));
    switch (rng_.NextBelow(3)) {
      case 0:
        return Value::Str(std::string(rng_.NextBelow(1024), fill));
      case 1:
        return Value::OfList(
            {Value::Int(1), Value::Str(std::string(rng_.NextBelow(512), fill))});
      default:
        return Value::OfRecord({{std::string(1, fill), Value::Str(std::string(300, fill))}});
    }
  }
  void Edit(Value& v) {
    v = Value::OfList({std::move(v), Value::Str(std::string(rng_.NextBelow(256), 'e'))});
  }

  void Check(const std::string& what) {
    EXPECT_EQ(h_.heap().SettleResidentBytes(), RecountResidentBytes(h_.heap()))
        << step_ << ": " << what;
  }
  void CheckPublished(const std::string& what) {
    ExpectPublished(rm(), h_.heap(), step_ + ": " + what);
    Check(what);
  }

  void WriteAndCommit() {
    ActionId aid = Next();
    ASSERT_TRUE(Bound(aid).WriteObject(Atomic(), Payload()).ok()) << step_;
    Check("written");
    ASSERT_TRUE(h_.PrepareAndCommit(aid).ok()) << step_;
    Check("committed");
  }

  void UpdateAndAbort() {
    ActionId aid = Next();
    ASSERT_TRUE(Bound(aid).UpdateObject(Atomic(), [&](Value& v) { Edit(v); }).ok()) << step_;
    Check("updated");
    if (rng_.NextBool(0.5)) {
      ASSERT_TRUE(h_.PrepareOnly(aid).ok()) << step_;
      Check("prepared");
      ASSERT_TRUE(h_.AbortPrepared(aid).ok()) << step_;
    } else {
      h_.ctx(aid).AbortVolatile(h_.heap());
    }
    Check("aborted");
  }

  void SubactionAbort() {
    ActionId aid = Next();
    ActionContext& ctx = Bound(aid);
    RecoverableObject* kept = Atomic();
    ASSERT_TRUE(ctx.WriteObject(kept, Payload()).ok()) << step_;
    {
      SubactionScope sub(&ctx, &h_.heap());
      ASSERT_TRUE(sub.WriteObject(kept, Payload()).ok()) << step_;
      ASSERT_TRUE(sub.UpdateObject(Atomic(), [&](Value& v) { Edit(v); }).ok()) << step_;
      Check("subaction wrote");
      sub.Abort();
    }
    Check("subaction aborted");
    ASSERT_TRUE(h_.PrepareAndCommit(aid).ok()) << step_;
    Check("top committed");
  }

  void EarlyPrepare() {
    ActionId aid = Next();
    ActionContext& ctx = Bound(aid);
    ASSERT_TRUE(ctx.WriteObject(Atomic(), Payload()).ok()) << step_;
    Result<ModifiedObjectsSet> leftover = h_.rs().WriteEntry(aid, ctx.TakeMos());
    ASSERT_TRUE(leftover.ok()) << step_;
    ctx.AddToMos(leftover.value());
    Check("early prepared");
    ASSERT_TRUE(ctx.UpdateObject(Atomic(), [&](Value& v) { Edit(v); }).ok()) << step_;
    ASSERT_TRUE(h_.PrepareAndCommit(aid).ok()) << step_;
    Check("committed");
  }

  void MutateMutex() {
    ActionId aid = Next();
    ASSERT_TRUE(Bound(aid).MutateMutex(Mutex(), [&](Value& v) { Edit(v); }).ok()) << step_;
    Check("mutated");
    ASSERT_TRUE(h_.PrepareAndCommit(aid).ok()) << step_;
    Check("committed");
  }

  void Pass() {
    rm().RunEvictionPass();
    CheckPublished("pass");
  }

  void FaultOne() {
    std::vector<RecoverableObject*> evicted = Evicted();
    if (evicted.empty()) {
      Pass();
      evicted = Evicted();
    }
    if (evicted.empty()) {
      return;
    }
    RecoverableObject* obj = evicted[rng_.NextBelow(evicted.size())];
    ActionId aid = Next();
    if (obj->is_mutex()) {
      // The edit runs after the fault, so only the heap's count is current.
      ASSERT_TRUE(Bound(aid).MutateMutex(obj, [&](Value& v) { Edit(v); }).ok()) << step_;
      Check("faulted and mutated");
    } else {
      ASSERT_TRUE(Bound(aid).ReadObject(obj).ok()) << step_;
      CheckPublished("faulted");
    }
    EXPECT_FALSE(obj->evicted()) << step_;
    ASSERT_TRUE(h_.PrepareAndCommit(aid).ok()) << step_;
    Check("committed");
    ++faults_;
  }

  void FaultBatch() {
    std::vector<RecoverableObject*> batch;
    bool any_evicted = false;
    for (const std::string& name : names_) {
      if (rng_.NextBool(0.5)) {
        batch.push_back(h_.StableVar(name));
        any_evicted = any_evicted || batch.back()->evicted();
      }
    }
    ASSERT_TRUE(rm().FaultInBatch(batch).ok()) << step_;
    if (any_evicted) {
      CheckPublished("batch faulted");
    } else {
      Check("nothing to fault");
    }
  }

  // A fault taken while an edit is open settles the count before the edit
  // lands; the edited object must still be recounted afterwards.
  void FaultInsideEdit() {
    std::vector<RecoverableObject*> evicted = Evicted();
    if (evicted.empty()) {
      return;
    }
    RecoverableObject* stub = evicted[rng_.NextBelow(evicted.size())];
    ActionId aid = Next();
    ASSERT_TRUE(Bound(aid)
                    .UpdateObject(Atomic(),
                                  [&](Value& v) {
                                    EXPECT_TRUE(rm().FaultIn(stub).ok()) << step_;
                                    Edit(v);
                                  })
                    .ok())
        << step_;
    Check("edited across a fault");
    ASSERT_TRUE(h_.PrepareAndCommit(aid).ok()) << step_;
    Check("committed");
  }

  // A MOS that names an evicted object reaches the log writer with no bound
  // context to fault it in; the writer rematerializes it itself.
  void WriterFault() {
    std::vector<RecoverableObject*> evicted = Evicted();
    if (evicted.empty()) {
      return;
    }
    RecoverableObject* obj = evicted[rng_.NextBelow(evicted.size())];
    ActionId aid = Next();
    h_.ctx(aid).AddToMos({obj->uid()});
    ASSERT_TRUE(h_.PrepareAndCommit(aid).ok()) << step_;
    EXPECT_FALSE(obj->evicted()) << step_;
    Check("writer rematerialized");
    ++writer_faults_;
  }

  void Checkpoint() {
    ASSERT_TRUE(h_.rs().Housekeep(HousekeepingMethod::kSnapshot).ok()) << step_;
    Check("checkpoint swapped");
  }

  // Sometimes with an action prepared but undecided, so recovery restores
  // its tentative version too.
  void CrashAndRecover() {
    std::optional<ActionId> in_doubt;
    if (rng_.NextBool(0.5)) {
      in_doubt = Next();
      ASSERT_TRUE(Bound(*in_doubt).WriteObject(Atomic(), Payload()).ok()) << step_;
      ASSERT_TRUE(h_.PrepareOnly(*in_doubt).ok()) << step_;
    }
    ASSERT_TRUE(h_.CrashAndRecover().ok()) << step_;
    Check("recovered");
    if (in_doubt.has_value()) {
      ASSERT_TRUE(h_.rs().Commit(*in_doubt).ok()) << step_;
      for (const auto& [uid, obj] : h_.heap()) {
        if (obj->HoldsWriteLock(*in_doubt)) {
          h_.ctx(*in_doubt).AdoptTouched(uid);
        }
      }
      h_.ctx(*in_doubt).CommitVolatile(h_.heap());
      Check("in-doubt action committed");
    }
    Pass();
  }

  // An object bigger than the whole budget, created after the ring was
  // built: the next pass can only get under the watermark by evicting it.
  void Create() {
    ActionId aid = Next();
    ActionContext& ctx = Bound(aid);
    RecoverableObject* obj = ctx.CreateAtomic(h_.heap(), BigPayload('n', 2 * kBudget));
    Bind(aid, "c" + std::to_string(sequence_), obj);
    Check("created");
    ASSERT_TRUE(h_.PrepareAndCommit(aid).ok()) << step_;
    Check("committed");
    Pass();
    EXPECT_TRUE(obj->evicted()) << step_ << ": the ring missed a new object";
  }

  StorageHarness h_;
  Rng rng_;
  std::uint64_t sequence_ = 0;
  std::vector<std::string> names_;
  std::string step_ = "set-up";
  int faults_ = 0;
  int writer_faults_ = 0;
};

TEST(Residency, RunningCountMatchesARecountOnEveryPath) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunningCount(seed).Run(6);
  }
}

}  // namespace
}  // namespace argus
