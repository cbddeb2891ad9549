// Recovery-equivalence property test for the hybrid restart's read pipeline.
// In the case names, "pipelined" reads go through the block read cache (its
// read-ahead, validated-frame memo and zero-copy frame views); "serial" reads
// bypass it, two medium reads per frame.
//
// Property: for any seeded crash scenario — committed/aborted/undecided
// actions, mutex objects, coordinator entries, early-prepared trailing data,
// housekeeping reorganizations, and decayed duplexed pages — RecoverHybridLog
// must produce OT/PT/CT/MT/AS, last_outcome, and the entries_examined /
// data_entries_read counters exactly equal with and without the cache, cold
// or warm. And the cache must never mask a decayed page a cache-less
// CarefulRead path would have reported: a fully uncached twin log over an
// identically decayed medium must see the same recovery outcome.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/rng.h"
#include "src/object/flatten.h"
#include "src/recovery/recovery_algorithms.h"
#include "src/stable/duplexed_medium.h"
#include "tests/test_support.h"

namespace argus {
namespace {

// ---- Seeded history builder ---------------------------------------------

// No padding: EquivalenceParam below embeds it (see there).
struct HistoryConfig {
  std::uint64_t seed = 1;
  bool duplexed = false;
  bool housekeep = false;
  std::uint16_t reserved = 0;
  std::uint32_t disk_seed = 9000;
  HousekeepingMethod method = HousekeepingMethod::kSnapshot;
  std::uint32_t reserved2 = 0;
  std::size_t steps = 40;
};

// A guardian stack that runs a deterministic random workload, then crashes
// and hands over the surviving log. Identical configs build bit-identical
// logs (all randomness flows from the seeds), which lets the decay tests
// compare a cached log against an uncached twin.
class HistoryBuilder {
 public:
  explicit HistoryBuilder(const HistoryConfig& config) : config_(config) {
    RecoverySystemConfig rs_config;
    rs_config.mode = LogMode::kHybrid;
    if (config.duplexed) {
      std::uint32_t disk_seed = config.disk_seed;
      rs_config.medium_factory = [disk_seed] {
        return std::make_unique<DuplexedStableMedium>(disk_seed);
      };
    } else {
      rs_config.medium_factory = [] { return std::make_unique<InMemoryStableMedium>(); };
    }
    harness_ = std::make_unique<StorageHarness>(rs_config);
  }

  // Runs the workload; returns the post-crash log (staged tail discarded by
  // the caller via RecoverAfterCrash, as a real restart would).
  std::unique_ptr<StableLog> BuildAndCrash() {
    Rng rng(config_.seed);
    StorageHarness& h = *harness_;

    // A starting population of atomic and mutex objects.
    ActionId t0 = Aid(next_seq_++);
    for (int i = 0; i < 4; ++i) {
      RecoverableObject* a = h.ctx(t0).CreateAtomic(h.heap(), Value::Int(i));
      EXPECT_TRUE(h.BindStable(t0, "a" + std::to_string(i), a).ok());
    }
    for (int i = 0; i < 2; ++i) {
      RecoverableObject* m = h.ctx(t0).CreateMutex(h.heap(), Value::Int(100 + i));
      EXPECT_TRUE(h.BindStable(t0, "m" + std::to_string(i), m).ok());
    }
    EXPECT_TRUE(h.PrepareAndCommit(t0).ok());

    for (std::size_t step = 0; step < config_.steps; ++step) {
      if (config_.housekeep && step == config_.steps / 2) {
        EXPECT_TRUE(h.rs().Housekeep(config_.method).ok());
      }
      switch (rng.NextBelow(10)) {
        case 0:
        case 1:
        case 2:
        case 3:
          CommitRandomWrites(rng);
          break;
        case 4:
          MutateRandomMutex(rng);
          break;
        case 5:
          PrepareUndecided(rng);
          break;
        case 6:
          PrepareThenAbort(rng);
          break;
        case 7:
          CoordinatorActivity(rng);
          break;
        case 8:
          CreateAndCommitObject(rng);
          break;
        case 9:
          EarlyPrepareTrailingData(rng);
          break;
      }
    }
    // Leave some staged-but-unforced writes behind so the crash has a
    // volatile tail to discard.
    if (rng.NextBool(0.5)) {
      EarlyPrepareTrailingData(rng);
    }
    return h.rs().TakeLog();
  }

 private:
  RecoverableObject* PickUnlocked(Rng& rng, bool mutex) {
    std::vector<RecoverableObject*> candidates;
    const Value& root = harness_->heap().root()->base_version();
    if (!root.is_record()) {
      return nullptr;
    }
    for (const auto& [name, value] : root.as_record()) {
      if (!value.is_ref()) {
        continue;
      }
      RecoverableObject* obj = value.as_ref();
      if (obj->is_mutex() == mutex && !obj->locked()) {
        candidates.push_back(obj);
      }
    }
    if (candidates.empty()) {
      return nullptr;
    }
    return candidates[rng.NextBelow(candidates.size())];
  }

  void CommitRandomWrites(Rng& rng) {
    StorageHarness& h = *harness_;
    ActionId aid = Aid(next_seq_++);
    std::size_t writes = 1 + rng.NextBelow(3);
    bool wrote = false;
    for (std::size_t i = 0; i < writes; ++i) {
      RecoverableObject* obj = PickUnlocked(rng, false);
      if (obj == nullptr) {
        continue;
      }
      wrote |= h.ctx(aid)
                   .WriteObject(obj, Value::Int(static_cast<std::int64_t>(rng.NextU64() % 1000)))
                   .ok();
    }
    if (!wrote) {
      return;
    }
    EXPECT_TRUE(h.PrepareAndCommit(aid).ok());
  }

  void MutateRandomMutex(Rng& rng) {
    StorageHarness& h = *harness_;
    RecoverableObject* m = PickUnlocked(rng, true);
    if (m == nullptr) {
      return;
    }
    ActionId aid = Aid(next_seq_++);
    std::int64_t v = static_cast<std::int64_t>(rng.NextU64() % 1000);
    EXPECT_TRUE(h.ctx(aid).MutateMutex(m, [v](Value& value) { value = Value::Int(v); }).ok());
    EXPECT_TRUE(h.PrepareAndCommit(aid).ok());
  }

  void PrepareUndecided(Rng& rng) {
    StorageHarness& h = *harness_;
    RecoverableObject* obj = PickUnlocked(rng, false);
    if (obj == nullptr) {
      return;
    }
    ActionId aid = Aid(next_seq_++);
    if (!h.ctx(aid).WriteObject(obj, Value::Int(-7)).ok()) {
      return;
    }
    EXPECT_TRUE(h.PrepareOnly(aid).ok());  // stays undecided at the crash
  }

  void PrepareThenAbort(Rng& rng) {
    StorageHarness& h = *harness_;
    ActionId aid = Aid(next_seq_++);
    RecoverableObject* obj = PickUnlocked(rng, false);
    RecoverableObject* m = PickUnlocked(rng, true);
    bool any = false;
    if (obj != nullptr) {
      any |= h.ctx(aid).WriteObject(obj, Value::Int(-13)).ok();
    }
    if (m != nullptr && rng.NextBool(0.5)) {
      any |= h.ctx(aid).MutateMutex(m, [](Value& value) { value = Value::Int(-14); }).ok();
    }
    if (!any) {
      return;
    }
    EXPECT_TRUE(h.PrepareOnly(aid).ok());
    EXPECT_TRUE(h.AbortPrepared(aid).ok());
  }

  void CoordinatorActivity(Rng& rng) {
    StorageHarness& h = *harness_;
    ActionId aid = Aid(next_seq_++);
    std::vector<GuardianId> participants{GuardianId{1}, GuardianId{2}};
    EXPECT_TRUE(h.rs().WaitDurable(h.rs().StageCommitting(aid, participants)).ok());
    if (rng.NextBool(0.5)) {
      h.rs().StageDone(aid);  // durable with the next force, lost by a crash before it
    }
  }

  void CreateAndCommitObject(Rng& rng) {
    StorageHarness& h = *harness_;
    ActionId aid = Aid(next_seq_++);
    std::string name = "x" + std::to_string(next_seq_);
    RecoverableObject* obj =
        rng.NextBool(0.3)
            ? h.ctx(aid).CreateMutex(h.heap(), Value::Int(1))
            : h.ctx(aid).CreateAtomic(
                  h.heap(), Value::OfRecord({{"n", Value::Int(static_cast<std::int64_t>(
                                                      rng.NextU64() % 100))}}));
    EXPECT_TRUE(h.BindStable(aid, name, obj).ok());
    EXPECT_TRUE(h.PrepareAndCommit(aid).ok());
  }

  // Stages data entries (early prepare) without an outcome entry; half the
  // time forces them so the chain head has trailing data to skip.
  void EarlyPrepareTrailingData(Rng& rng) {
    StorageHarness& h = *harness_;
    RecoverableObject* obj = PickUnlocked(rng, false);
    if (obj == nullptr) {
      return;
    }
    ActionId aid = Aid(next_seq_++);
    if (!h.ctx(aid).WriteObject(obj, Value::Int(-99)).ok()) {
      return;
    }
    Result<ModifiedObjectsSet> leftover = h.rs().WriteEntry(aid, h.ctx(aid).TakeMos());
    EXPECT_TRUE(leftover.ok());
    if (rng.NextBool(0.5)) {
      EXPECT_TRUE(h.rs().log().Force().ok());
    }
    // Release the volatile locks so later steps can write these objects; the
    // staged entries stay in the log either way.
    h.ctx(aid).AbortVolatile(h.heap());
  }

  HistoryConfig config_;
  std::unique_ptr<StorageHarness> harness_;
  std::uint64_t next_seq_ = 1;
};

// ---- Result comparison ---------------------------------------------------

// One recovery run: its own heap (the OT points into it) plus the result.
struct RecoveryRun {
  std::string label;
  std::unique_ptr<VolatileHeap> heap;
  Result<RecoveryResult> result = Status::Unavailable("recovery not run");
};

RecoveryRun RunRecovery(const StableLog& log, const std::string& label, bool cache_enabled) {
  RecoveryRun run;
  run.label = label;
  run.heap = std::make_unique<VolatileHeap>();
  log.read_cache().SetEnabled(cache_enabled);
  run.result = RecoverHybridLog(log, *run.heap);
  return run;
}

void ExpectObjectEquivalent(Uid uid, const ObjectTableEntry& a, const ObjectTableEntry& b,
                            const std::string& label) {
  EXPECT_EQ(a.state, b.state) << label << " OT state of " << to_string(uid);
  EXPECT_EQ(a.mutex_address, b.mutex_address) << label << " mutex_address of " << to_string(uid);
  ASSERT_NE(a.object, nullptr);
  ASSERT_NE(b.object, nullptr);
  EXPECT_EQ(a.object->kind(), b.object->kind()) << label << " kind of " << to_string(uid);
  // Flatten turns references back into uids, so versions compare across
  // heaps byte for byte.
  EXPECT_EQ(FlattenValue(a.object->base_version(), nullptr),
            FlattenValue(b.object->base_version(), nullptr))
      << label << " base version of " << to_string(uid);
  EXPECT_EQ(a.object->has_current(), b.object->has_current())
      << label << " has_current of " << to_string(uid);
  if (a.object->has_current() && b.object->has_current()) {
    EXPECT_EQ(FlattenValue(a.object->current_version(), nullptr),
              FlattenValue(b.object->current_version(), nullptr))
        << label << " current version of " << to_string(uid);
  }
  EXPECT_EQ(a.object->write_locker(), b.object->write_locker())
      << label << " write locker of " << to_string(uid);
}

void ExpectEquivalent(const RecoveryRun& reference, const RecoveryRun& candidate) {
  std::string label = reference.label + " vs " + candidate.label + ":";
  ASSERT_EQ(reference.result.ok(), candidate.result.ok())
      << label << " " << reference.result.status().ToString() << " / "
      << candidate.result.status().ToString();
  if (!reference.result.ok()) {
    EXPECT_EQ(reference.result.status().code(), candidate.result.status().code()) << label;
    EXPECT_EQ(reference.result.status().message(), candidate.result.status().message()) << label;
    return;
  }
  const RecoveryResult& a = reference.result.value();
  const RecoveryResult& b = candidate.result.value();

  EXPECT_EQ(a.last_outcome, b.last_outcome) << label;
  EXPECT_EQ(a.entries_examined, b.entries_examined) << label;
  EXPECT_EQ(a.data_entries_read, b.data_entries_read) << label;
  EXPECT_EQ(a.pt, b.pt) << label << " PT differs";
  EXPECT_EQ(a.mt, b.mt) << label << " MT differs";
  EXPECT_EQ(a.as, b.as) << label << " AS differs";

  ASSERT_EQ(a.ct.size(), b.ct.size()) << label << " CT size";
  for (const auto& [aid, entry_a] : a.ct) {
    auto it = b.ct.find(aid);
    ASSERT_NE(it, b.ct.end()) << label << " CT missing " << to_string(aid);
    EXPECT_EQ(entry_a.phase, it->second.phase) << label << " CT phase of " << to_string(aid);
    EXPECT_EQ(entry_a.participants, it->second.participants)
        << label << " CT participants of " << to_string(aid);
  }

  ASSERT_EQ(a.ot.size(), b.ot.size()) << label << " OT size";
  for (const auto& [uid, entry_a] : a.ot) {
    auto it = b.ot.find(uid);
    ASSERT_NE(it, b.ot.end()) << label << " OT missing " << to_string(uid);
    ExpectObjectEquivalent(uid, entry_a, it->second, label);
  }
}

// ---- The property test ---------------------------------------------------

// gtest prints a byte dump of this struct into the test listing that ctest
// names its tests by, so every byte is fixed: a zero-filled name buffer
// instead of a std::string, whose bytes hold a pointer, and a HistoryConfig
// without padding.
struct EquivalenceParam {
  EquivalenceParam(const std::string& case_name, const HistoryConfig& config) : history(config) {
    case_name.copy(name.data(), name.size() - 1);
  }
  std::array<char, 32> name{};
  HistoryConfig history;
};
static_assert(std::has_unique_object_representations_v<EquivalenceParam>);

class RecoveryPipelineEquivalenceTest : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(RecoveryPipelineEquivalenceTest, PipelinedEqualsSerial) {
  HistoryBuilder builder(GetParam().history);
  std::unique_ptr<StableLog> log = builder.BuildAndCrash();
  Status recovered = log->RecoverAfterCrash();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();

  RecoveryRun reference = RunRecovery(*log, "uncached", false);
  ASSERT_TRUE(reference.result.ok()) << reference.result.status().ToString();

  RecoveryRun cold = RunRecovery(*log, "cached-cold", true);
  ExpectEquivalent(reference, cold);

  // Re-running recovery against the now-warm cache (memoized frames, no
  // medium reads) must not change anything either.
  RecoveryRun warm = RunRecovery(*log, "cached-warm", true);
  ExpectEquivalent(reference, warm);
}

std::vector<EquivalenceParam> EquivalenceParams() {
  std::vector<EquivalenceParam> params;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    params.push_back({"mem_seed" + std::to_string(seed), HistoryConfig{.seed = seed}});
  }
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    params.push_back({"duplexed_seed" + std::to_string(seed),
                      HistoryConfig{.seed = 50 + seed, .duplexed = true,
                                    .disk_seed = 9000 + static_cast<std::uint32_t>(seed)}});
  }
  params.push_back({"snapshot_housekept",
                    HistoryConfig{.seed = 77, .housekeep = true,
                                  .method = HousekeepingMethod::kSnapshot, .steps = 50}});
  params.push_back({"compaction_housekept",
                    HistoryConfig{.seed = 78, .housekeep = true,
                                  .method = HousekeepingMethod::kCompaction, .steps = 50}});
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RecoveryPipelineEquivalenceTest,
                         ::testing::ValuesIn(EquivalenceParams()),
                         [](const ::testing::TestParamInfo<EquivalenceParam>& param_info) {
                           return std::string(param_info.param.name.data());
                         });

// ---- Decay profiles ------------------------------------------------------

// Builds the same duplexed history twice (bit-identical media), corrupts the
// same pages on both, and compares a fully UNCACHED recovery on twin 1
// against a cached recovery on twin 2. Whatever CarefulRead reports without
// a cache, the cached read path must report too.
void RunDecayProfile(std::uint64_t seed, bool both_replicas, std::size_t pages_to_corrupt) {
  HistoryConfig config{.seed = seed, .duplexed = true,
                       .disk_seed = 4000 + static_cast<std::uint32_t>(seed)};
  std::unique_ptr<StableLog> uncached_log = HistoryBuilder(config).BuildAndCrash();
  std::unique_ptr<StableLog> cached_log = HistoryBuilder(config).BuildAndCrash();
  uncached_log->read_cache().SetEnabled(false);

  Rng rng(seed * 31 + 7);
  auto corrupt = [&](StableLog& log, std::size_t page) {
    auto& medium = static_cast<DuplexedStableMedium&>(log.medium());
    medium.store().disk_a().CorruptPage(page);
    if (both_replicas) {
      medium.store().disk_b().CorruptPage(page);
    }
  };
  std::size_t page_count =
      static_cast<DuplexedStableMedium&>(uncached_log->medium()).store().page_count();
  ASSERT_EQ(page_count,
            static_cast<DuplexedStableMedium&>(cached_log->medium()).store().page_count())
      << "twin histories diverged";
  for (std::size_t i = 0; i < pages_to_corrupt && page_count > 1; ++i) {
    // Deterministic decay profile: the page set depends only on the seed,
    // never on read order (probabilistic decay-on-read would make outcomes
    // depend on how many reads each configuration issues).
    std::size_t page = 1 + rng.NextBelow(page_count - 1);
    corrupt(*uncached_log, page);
    corrupt(*cached_log, page);
  }

  Status r1 = uncached_log->RecoverAfterCrash();
  Status r2 = cached_log->RecoverAfterCrash();
  ASSERT_EQ(r1.ok(), r2.ok()) << r1.ToString() << " / " << r2.ToString();
  if (!r1.ok()) {
    EXPECT_EQ(r1.code(), r2.code());
    return;  // both sides report the stable-storage loss: nothing masked
  }
  EXPECT_EQ(uncached_log->GetTop(), cached_log->GetTop()) << "recovered tops diverged after decay";
  Result<std::uint64_t> w1 = CountEntriesBackward(*uncached_log);
  Result<std::uint64_t> w2 = CountEntriesBackward(*cached_log);
  ASSERT_EQ(w1.ok(), w2.ok()) << w1.status().ToString() << " / " << w2.status().ToString();
  if (w1.ok()) {
    EXPECT_EQ(w1.value(), w2.value()) << "durable entry counts diverged after decay";
  } else {
    EXPECT_EQ(w1.status().code(), w2.status().code());
  }

  RecoveryRun reference = RunRecovery(*uncached_log, "uncached", false);
  RecoveryRun cached = RunRecovery(*cached_log, "cached", true);
  ExpectEquivalent(reference, cached);
}

TEST(RecoveryPipelineDecay, SingleReplicaDecayIsHealedIdentically) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RunDecayProfile(seed, /*both_replicas=*/false, /*pages_to_corrupt=*/4);
  }
}

TEST(RecoveryPipelineDecay, DoubleReplicaDecayIsReportedIdentically) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RunDecayProfile(seed, /*both_replicas=*/true, /*pages_to_corrupt=*/2);
  }
}

}  // namespace
}  // namespace argus
