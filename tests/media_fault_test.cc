// Fault-injection tests at the media boundary: guardians running on the full
// duplexed Lampson-Sturgis stack, decayed pages healed at recovery, torn
// forces on plain-file logs cut off before the next force, and damaged
// frames reported instead of cut.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

#include "src/log/stable_log.h"
#include "src/stable/duplexed_medium.h"
#include "src/stable/file_medium.h"
#include "src/stable/replicated_medium.h"
#include "src/tpc/workload.h"
#include "tests/test_support.h"

namespace argus {
namespace {

RecoverySystemConfig DuplexedConfig() {
  RecoverySystemConfig config;
  config.mode = LogMode::kHybrid;
  config.medium_factory = [] { return std::make_unique<DuplexedStableMedium>(1234); };
  return config;
}

// N-way variant; `online_repair` additionally attaches a ReplicaRepairService
// to the incarnation so decayed pages heal while commits continue.
RecoverySystemConfig ReplicatedNConfig(std::uint32_t replicas, bool online_repair = false) {
  RecoverySystemConfig config;
  config.mode = LogMode::kHybrid;
  config.medium_factory = [replicas] {
    return std::make_unique<ReplicatedStableMedium>(replicas, 1234);
  };
  if (online_repair) {
    config.repair = ReplicaRepairConfig{};
  }
  return config;
}

// A storage harness variant on the duplexed / N-way replicated medium.
class DuplexedHarness {
 public:
  explicit DuplexedHarness(RecoverySystemConfig config = DuplexedConfig())
      : config_(std::move(config)) {
    heap_ = std::make_unique<VolatileHeap>();
    rs_ = std::make_unique<RecoverySystem>(config_, heap_.get());
  }

  VolatileHeap& heap() { return *heap_; }
  RecoverySystem& rs() { return *rs_; }

  Result<RecoveryInfo> CrashAndRecover() {
    std::unique_ptr<StableLog> log = rs_->TakeLog();
    rs_.reset();
    heap_.reset();
    heap_ = std::make_unique<VolatileHeap>();
    rs_ = std::make_unique<RecoverySystem>(config_, heap_.get(), std::move(log));
    return rs_->Recover();
  }

  ReplicatedStableMedium& medium() {
    return static_cast<ReplicatedStableMedium&>(rs_->log().medium());
  }

 private:
  RecoverySystemConfig config_;
  std::unique_ptr<VolatileHeap> heap_;
  std::unique_ptr<RecoverySystem> rs_;
};

void CommitValue(DuplexedHarness& h, std::uint64_t seq, std::int64_t value) {
  ActionId aid = Aid(seq);
  ActionContext ctx(aid);
  const Value& root = h.heap().root()->base_version();
  RecoverableObject* obj = nullptr;
  if (root.is_record() && root.as_record().contains("v")) {
    obj = root.as_record().at("v").as_ref();
    ASSERT_TRUE(ctx.WriteObject(obj, Value::Int(value)).ok());
  } else {
    obj = ctx.CreateAtomic(h.heap(), Value::Int(value));
    ASSERT_TRUE(ctx.UpdateObject(h.heap().root(), [&](Value& r) {
      r.as_record()["v"] = Value::Ref(obj);
    }).ok());
  }
  ASSERT_TRUE(h.rs().Prepare(aid, ctx.TakeMos()).ok());
  ASSERT_TRUE(h.rs().Commit(aid).ok());
  ctx.CommitVolatile(h.heap());
}

std::int64_t ReadValue(DuplexedHarness& h) {
  return h.heap().root()->base_version().as_record().at("v").as_ref()
      ->base_version().as_int();
}

TEST(DuplexedGuardian, CommitsSurviveCrash) {
  DuplexedHarness h;
  CommitValue(h, 1, 11);
  CommitValue(h, 2, 22);
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(ReadValue(h), 22);
}

TEST(DuplexedGuardian, SurvivesDecayOnOneReplica) {
  DuplexedHarness h;
  CommitValue(h, 1, 33);
  // Decay a handful of pages on disk A; B still has them, and recovery's
  // repair pass re-duplexes.
  ReplicatedStableMedium& medium = h.medium();
  for (std::size_t page = 1; page <= 3 && page < medium.store().page_count(); ++page) {
    medium.store().disk_a().CorruptPage(page);
  }
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(ReadValue(h), 33);
}

TEST(DuplexedGuardian, SurvivesDecayOnOtherReplica) {
  DuplexedHarness h;
  CommitValue(h, 1, 44);
  ReplicatedStableMedium& medium = h.medium();
  for (std::size_t page = 1; page <= 3 && page < medium.store().page_count(); ++page) {
    medium.store().disk_b().CorruptPage(page);
  }
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(ReadValue(h), 44);
}

TEST(DuplexedGuardian, DoubleReplicaLossIsDetectedNotSilent) {
  DuplexedHarness h;
  CommitValue(h, 1, 55);
  ReplicatedStableMedium& medium = h.medium();
  medium.store().disk_a().CorruptPage(1);
  medium.store().disk_b().CorruptPage(1);
  Result<RecoveryInfo> info = h.CrashAndRecover();
  // Stable storage failed for real; the system must say so, not fabricate.
  EXPECT_FALSE(info.ok());
}

TEST(DuplexedGuardian, ManyCommitsManyCrashes) {
  DuplexedHarness h;
  for (int round = 1; round <= 5; ++round) {
    CommitValue(h, static_cast<std::uint64_t>(round), round * 100);
    Result<RecoveryInfo> info = h.CrashAndRecover();
    ASSERT_TRUE(info.ok()) << "round " << round;
    EXPECT_EQ(ReadValue(h), round * 100);
  }
}

TEST(DuplexedMedium, TornAppendIsInvisibleAfterRecovery) {
  // A crash mid-append (torn page write) must leave the durable extent at its
  // pre-append value: the §1.1 atomicity property, derived not assumed.
  DuplexedStableMedium medium(77);
  std::vector<std::byte> first(300, std::byte{0x11});
  ASSERT_TRUE(medium.Append(AsSpan(first)).ok());

  DiskFaultPlan plan;
  plan.tear_write_at = 0;  // the very next write to disk A tears
  medium.store().disk_a().set_fault_plan(plan);
  std::vector<std::byte> second(300, std::byte{0x22});
  Status s = medium.Append(AsSpan(second));
  EXPECT_FALSE(s.ok());
  medium.store().disk_a().set_fault_plan(DiskFaultPlan{});

  ASSERT_TRUE(medium.RecoverAfterCrash().ok());
  EXPECT_EQ(medium.durable_size(), 300u);
  Result<std::vector<std::byte>> back = medium.Read(0, 300);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), first);
  // And the medium keeps working.
  ASSERT_TRUE(medium.Append(AsSpan(second)).ok());
  EXPECT_EQ(medium.durable_size(), 600u);
}

TEST(DuplexedGuardian, TornForceDuringPrepareActsLikeCrash) {
  DuplexedHarness h;
  CommitValue(h, 1, 10);

  // Arrange for the NEXT force (the prepare) to tear.
  ActionId t2 = Aid(2);
  ActionContext ctx(t2);
  RecoverableObject* v =
      h.heap().root()->base_version().as_record().at("v").as_ref();
  ASSERT_TRUE(ctx.WriteObject(v, Value::Int(20)).ok());
  DiskFaultPlan plan;
  plan.tear_write_at = 0;
  h.medium().store().disk_a().set_fault_plan(plan);
  Status s = h.rs().Prepare(t2, ctx.TakeMos());
  EXPECT_FALSE(s.ok());  // the machine "crashed" mid-force
  h.medium().store().disk_a().set_fault_plan(DiskFaultPlan{});

  // Restart: the action never prepared, so it aborts by default.
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_FALSE(info.value().pt.contains(t2));
  EXPECT_EQ(ReadValue(h), 10);
}

TEST(DuplexedGuardian, ConcurrentCommitsSurviveDecayOnOneReplica) {
  // Multi-threaded variant of the decay tests above: worker threads commit
  // through the full duplexed stack while disk A decays pages on every read
  // (CarefulRead falls back to the intact replica B mid-traffic), and the
  // recovery repair pass afterwards re-duplexes what decayed.
  SimWorldConfig world_config;
  world_config.guardian_count = 2;
  world_config.mode = LogMode::kHybrid;
  world_config.medium = MediumKind::kDuplexed;
  world_config.seed = 88;
  SimWorld world(world_config);

  WorkloadConfig config;
  config.seed = 88;
  config.threads = 3;
  config.abort_probability = 0.1;
  WorkloadDriver driver(&world, config);
  ASSERT_TRUE(driver.Setup().ok());

  auto store_of = [&](std::uint32_t g) -> ReplicatedStore& {
    return static_cast<DuplexedStableMedium&>(world.guardian(g).recovery().log().medium())
        .store();
  };
  DiskFaultPlan decay;
  decay.decay_on_read_probability = 0.05;
  for (std::uint32_t g = 0; g < world.guardian_count(); ++g) {
    store_of(g).disk_a().set_fault_plan(decay);
  }
  Status s = driver.Run(120);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(driver.stats().committed, 0u);
  for (std::uint32_t g = 0; g < world.guardian_count(); ++g) {
    store_of(g).disk_a().set_fault_plan(DiskFaultPlan{});
  }

  // Deterministically decay a few written pages too, so there is provably
  // something for the repair pass to heal.
  std::vector<std::pair<std::uint32_t, std::size_t>> corrupted;
  for (std::uint32_t g = 0; g < world.guardian_count(); ++g) {
    ReplicatedStore& store = store_of(g);
    for (std::size_t page = 1; page <= 3 && page < store.page_count(); ++page) {
      if (!store.disk_a().PageIsBad(page)) {
        store.disk_a().CorruptPage(page);
        corrupted.emplace_back(g, page);
      }
    }
  }
  ASSERT_FALSE(corrupted.empty());

  // VerifyAfterCrash crashes and restarts every guardian: recovery's repair
  // pass must re-duplex from B, and the committed state must match the model.
  Result<std::size_t> checked = driver.VerifyAfterCrash();
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  for (const auto& [g, page] : corrupted) {
    EXPECT_FALSE(store_of(g).disk_a().PageIsBad(page))
        << "guardian " << g << " page " << page << " was not re-duplexed";
  }
}

// ---------------------------------------------------------------------------
// N-way replicated guardians: the decay matrix at N ∈ {3, 5}
// ---------------------------------------------------------------------------

class ReplicatedGuardianMatrix : public testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Replicas, ReplicatedGuardianMatrix, testing::Values(3u, 5u));

TEST_P(ReplicatedGuardianMatrix, SurvivesDecayOnAllButOneReplica) {
  const std::uint32_t n = GetParam();
  DuplexedHarness h(ReplicatedNConfig(n));
  CommitValue(h, 1, 66);
  ReplicatedStore& store = h.medium().store();
  std::vector<std::size_t> corrupted;
  for (std::size_t page = 1; page < store.page_count() && corrupted.size() < 3;
       ++page) {
    // Only decay genuinely-written pages: a blank page corrupted on n-1
    // replicas has no valid copy anywhere, and repair rightly leaves it.
    if (!store.disk(n - 1).PeekPage(page).ever_written) {
      continue;
    }
    for (std::uint32_t r = 0; r + 1 < n; ++r) {
      store.disk(r).CorruptPage(page);
    }
    corrupted.push_back(page);
  }
  ASSERT_FALSE(corrupted.empty());
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok()) << "n=" << n << ": " << info.status().ToString();
  EXPECT_EQ(ReadValue(h), 66);
  // Recovery's repair pass re-replicated the decayed copies.
  ReplicatedStore& after = h.medium().store();
  for (std::uint32_t r = 0; r + 1 < n; ++r) {
    for (std::size_t page : corrupted) {
      EXPECT_FALSE(after.disk(r).PageIsBad(page)) << "n=" << n << " replica " << r;
    }
  }
}

TEST_P(ReplicatedGuardianMatrix, DecayMatrixAnySingleSurvivorSuffices) {
  // Rotate which replica survives: page p keeps only replica p % n intact, so
  // the repair pass must find winners at every probe position, not just the
  // low indices.
  const std::uint32_t n = GetParam();
  DuplexedHarness h(ReplicatedNConfig(n));
  CommitValue(h, 1, 77);
  CommitValue(h, 2, 88);
  ReplicatedStore& store = h.medium().store();
  std::size_t matrixed = 0;
  for (std::size_t page = 1; page < store.page_count(); ++page) {
    if (!store.disk(0).PeekPage(page).ever_written) {
      continue;
    }
    const std::uint32_t survivor = static_cast<std::uint32_t>(page % n);
    for (std::uint32_t r = 0; r < n; ++r) {
      if (r != survivor) {
        store.disk(r).CorruptPage(page);
      }
    }
    ++matrixed;
  }
  ASSERT_GT(matrixed, 0u);
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok()) << "n=" << n << ": " << info.status().ToString();
  EXPECT_EQ(ReadValue(h), 88);
  ASSERT_TRUE(h.medium().store().VerifyConverged().ok());
}

TEST_P(ReplicatedGuardianMatrix, TotalReplicaLossIsDetectedNotSilent) {
  const std::uint32_t n = GetParam();
  DuplexedHarness h(ReplicatedNConfig(n));
  CommitValue(h, 1, 55);
  ReplicatedStore& store = h.medium().store();
  for (std::uint32_t r = 0; r < n; ++r) {
    store.disk(r).CorruptPage(1);
  }
  Result<RecoveryInfo> info = h.CrashAndRecover();
  EXPECT_FALSE(info.ok());
}

TEST(ReplicatedGuardian, OnlineRepairHealsDecayWithoutRestart) {
  // With config.repair set, the incarnation runs a ReplicaRepairService: a
  // decayed page heals in the background — no crash, no Recover() — while
  // commits keep flowing.
  // The harness is guardian 0; its shard's repair service counts there.
  const obs::Scope shard0{.guardian = 0, .shard = 0};
  const std::uint64_t passes_before = CounterValue("stable.repair.scans", shard0);
  DuplexedHarness h(ReplicatedNConfig(3, /*online_repair=*/true));
  ASSERT_NE(h.rs().repair_service(), nullptr);
  CommitValue(h, 1, 99);
  ReplicatedStore& store = h.medium().store();
  store.disk(0).CorruptPage(1);
  for (int i = 0; i < 5000 && store.disk(0).PageIsBad(1); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(store.disk(0).PageIsBad(1)) << "scrub never healed the page";
  CommitValue(h, 2, 100);
  EXPECT_EQ(ReadValue(h), 100);
  EXPECT_GE(CounterValue("stable.repair.scans", shard0) - passes_before, 1u);
}

TEST(FileLog, ReopenResumesDurableEntries) {
  std::string path = testing::TempDir() + "/argus_file_log_test.log";
  std::remove(path.c_str());
  LogAddress a2;
  {
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
    ASSERT_TRUE(medium.ok());
    StableLog log(std::move(medium).value());
    ASSERT_TRUE(log.ForceWrite(LogEntry(CommittedEntry{Aid(1)})).ok());
    Result<LogAddress> r = log.ForceWrite(LogEntry(CommittedEntry{Aid(2)}));
    ASSERT_TRUE(r.ok());
    a2 = r.value();
  }
  {
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
    ASSERT_TRUE(medium.ok());
    StableLog log(std::move(medium).value());
    // Opening reads nothing: the top stays unknown, and forcing is refused,
    // until the recovery scan has run.
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(log.Force().code(), ErrorCode::kUnavailable);
    ASSERT_TRUE(log.RecoverAfterCrash().ok());
    ASSERT_FALSE(log.empty());
    EXPECT_EQ(log.GetTop().value(), a2);
    Result<LogEntry> top = log.Read(a2);
    ASSERT_TRUE(top.ok());
    EXPECT_EQ(std::get<CommittedEntry>(top.value()).aid.sequence, 2u);
  }
  std::remove(path.c_str());
}

TEST(FileLog, TornTailIsLogicallyTruncated) {
  std::string path = testing::TempDir() + "/argus_torn_tail_test.log";
  std::remove(path.c_str());
  {
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
    ASSERT_TRUE(medium.ok());
    StableLog log(std::move(medium).value());
    ASSERT_TRUE(log.ForceWrite(LogEntry(CommittedEntry{Aid(1)})).ok());
    ASSERT_TRUE(log.ForceWrite(LogEntry(CommittedEntry{Aid(2)})).ok());
  }
  // Tear the last frame: chop a few bytes off the file.
  {
    FILE* f = std::fopen(path.c_str(), "r+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(::truncate(path.c_str(), size - 5), 0);
  }
  {
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
    ASSERT_TRUE(medium.ok());
    StableLog log(std::move(medium).value());
    ASSERT_TRUE(log.RecoverAfterCrash().ok());
    // Only the first entry survives; the torn one is invisible.
    Result<LogEntry> top = log.Read(log.GetTop().value());
    ASSERT_TRUE(top.ok());
    EXPECT_EQ(std::get<CommittedEntry>(top.value()).aid.sequence, 1u);
  }
  std::remove(path.c_str());
}

std::uint64_t FileSize(const std::string& path) {
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<std::uint64_t>(st.st_size);
}

// Expects a backward walk from the top of `log` to find exactly the
// committed sequences `count` down to 1.
void ExpectWalksBack(const StableLog& log, std::uint64_t count) {
  StableLog::BackwardCursor cursor = log.ReadBackwardFromTop();
  for (std::uint64_t i = count; i >= 1; --i) {
    auto next = cursor.Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(next.value().has_value()) << "acknowledged entry " << i << " lost";
    EXPECT_EQ(std::get<CommittedEntry>(next.value()->second).aid.sequence, i);
  }
  auto end = cursor.Next();
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  EXPECT_FALSE(end.value().has_value());
}

// Expects the log file at `path`, reopened and recovered, to walk back
// exactly the committed sequences `count` down to 1, and the file to hold
// nothing past the durable extent.
void ExpectFileLogHolds(const std::string& path, std::uint64_t count) {
  Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
  ASSERT_TRUE(medium.ok());
  StableLog log(std::move(medium).value());
  ASSERT_TRUE(log.RecoverAfterCrash().ok());
  ExpectWalksBack(log, count);
  EXPECT_EQ(FileSize(path), log.durable_size());
}

TEST(FileLog, TornTailIsCutOffBeforeTheNextForce) {
  std::string path = testing::TempDir() + "/argus_torn_reforce_test.log";
  std::remove(path.c_str());
  {
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
    ASSERT_TRUE(medium.ok());
    StableLog log(std::move(medium).value());
    for (std::uint64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(log.ForceWrite(LogEntry(CommittedEntry{Aid(i)})).ok());
    }
  }
  // A torn append left 7 bytes of a frame behind the last whole one.
  {
    FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[7] = {'\x21', '\x43', '\x65', '\x07', '\x09', '\x0b', '\x0d'};
    ASSERT_EQ(std::fwrite(garbage, 1, sizeof(garbage), f), sizeof(garbage));
    ASSERT_EQ(std::fclose(f), 0);
  }
  {
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
    ASSERT_TRUE(medium.ok());
    StableLog log(std::move(medium).value());
    ASSERT_TRUE(log.RecoverAfterCrash().ok());
    for (std::uint64_t i = 4; i <= 5; ++i) {
      ASSERT_TRUE(log.ForceWrite(LogEntry(CommittedEntry{Aid(i)})).ok());
    }
  }
  ExpectFileLogHolds(path, 5);
  std::remove(path.c_str());
}

TEST(FileLog, ZeroFilledTailIsCutOff) {
  // A crash during an extending write can leave zeros past the last whole
  // frame. They read as empty frames whose CRC (of no bytes) is 0, which the
  // scan must cut off like any other torn bytes before the next force.
  std::string path = testing::TempDir() + "/argus_zero_tail_test.log";
  std::remove(path.c_str());
  std::uint64_t whole = 0;
  {
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
    ASSERT_TRUE(medium.ok());
    StableLog log(std::move(medium).value());
    for (std::uint64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(log.ForceWrite(LogEntry(CommittedEntry{Aid(i)})).ok());
    }
    whole = log.durable_size();
  }
  {
    FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char zeros[24] = {};
    ASSERT_EQ(std::fwrite(zeros, 1, sizeof(zeros), f), sizeof(zeros));
    ASSERT_EQ(std::fclose(f), 0);
  }
  {
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
    ASSERT_TRUE(medium.ok());
    StableLog log(std::move(medium).value());
    ASSERT_TRUE(log.RecoverAfterCrash().ok());
    EXPECT_EQ(log.durable_size(), whole);
    EXPECT_EQ(FileSize(path), whole);
    for (std::uint64_t i = 4; i <= 5; ++i) {
      ASSERT_TRUE(log.ForceWrite(LogEntry(CommittedEntry{Aid(i)})).ok());
    }
  }
  ExpectFileLogHolds(path, 5);
  std::remove(path.c_str());
}

std::vector<char> FileBytes(const std::string& path) {
  std::vector<char> bytes(FileSize(path));
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f != nullptr) {
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(FileLog, TornForceAtEveryByteOffsetKeepsEveryAcknowledgedEntry) {
  // Three entries forced one at a time are acknowledged; three more staged
  // and forced in one append make the torn force. The force is torn at every
  // byte offset k inside it, in two shapes: the file cut at k, and the file's
  // length kept with every byte from k on zeroed. Each restart must find the
  // last frame that ends at or before k, keep every acknowledged entry, force
  // again, and keep those forces across one more restart.
  const std::string path = testing::TempDir() + "/argus_torn_every_byte_test.log";
  std::remove(path.c_str());
  std::vector<LogAddress> addresses;   // entry i + 1's frame
  std::vector<std::uint64_t> ends;     // where that frame ends
  {
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
    ASSERT_TRUE(medium.ok());
    StableLog log(std::move(medium).value());
    for (std::uint64_t i = 1; i <= 3; ++i) {
      Result<LogAddress> forced = log.ForceWrite(LogEntry(CommittedEntry{Aid(i)}));
      ASSERT_TRUE(forced.ok());
      addresses.push_back(forced.value());
      ends.push_back(log.durable_size());
    }
    for (std::uint64_t i = 4; i <= 6; ++i) {
      addresses.push_back(log.Write(LogEntry(CommittedEntry{Aid(i)})));
      ends.push_back(log.end_offset());
    }
    ASSERT_TRUE(log.Force().ok());
  }
  const std::vector<char> whole = FileBytes(path);
  ASSERT_EQ(whole.size(), ends.back());
  const std::uint64_t acknowledged = ends[2];

  for (std::uint64_t k = acknowledged; k < whole.size(); ++k) {
    for (const bool zero_filled : {false, true}) {
      SCOPED_TRACE("torn at byte " + std::to_string(k) +
                   (zero_filled ? ", zero-filled" : ", cut"));
      std::vector<char> torn(whole.begin(), whole.begin() + static_cast<std::ptrdiff_t>(k));
      // Zeroing a byte that was already zero changes nothing: the zero-filled
      // file is torn from the first byte the zeroing changed.
      std::uint64_t tear = k;
      if (zero_filled) {
        torn.resize(whole.size(), '\0');
        while (tear < whole.size() && whole[tear] == '\0') {
          ++tear;
        }
      }
      WriteFileBytes(path, torn);
      const std::uint64_t survivors = static_cast<std::uint64_t>(std::count_if(
          ends.begin(), ends.end(), [tear](std::uint64_t end) { return end <= tear; }));
      ASSERT_GE(survivors, 3u);
      {
        Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
        ASSERT_TRUE(medium.ok());
        StableLog log(std::move(medium).value());
        ASSERT_TRUE(log.RecoverAfterCrash().ok());
        ASSERT_TRUE(log.GetTop().has_value());
        EXPECT_EQ(*log.GetTop(), addresses[survivors - 1]);
        ExpectWalksBack(log, survivors);
        for (std::uint64_t i = survivors + 1; i <= survivors + 2; ++i) {
          ASSERT_TRUE(log.ForceWrite(LogEntry(CommittedEntry{Aid(i)})).ok());
        }
      }
      ExpectFileLogHolds(path, survivors + 2);
      if (testing::Test::HasFailure()) {
        break;
      }
    }
    if (testing::Test::HasFailure()) {
      break;
    }
  }
  std::remove(path.c_str());
}

// Reopens the log file at `path` and runs its restart scan; nullptr (with a
// test failure) if either step fails.
std::unique_ptr<StableLog> ReopenFileLog(const std::string& path) {
  Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
  EXPECT_TRUE(medium.ok()) << medium.status().ToString();
  if (!medium.ok()) {
    return nullptr;
  }
  auto log = std::make_unique<StableLog>(std::move(medium).value());
  Status scan = log->RecoverAfterCrash();
  EXPECT_TRUE(scan.ok()) << scan.ToString();
  return scan.ok() ? std::move(log) : nullptr;
}

// Expects a backward walk from the top of `log` to find exactly the data
// entries `payloads` (entry i + 1 carries payloads[i] and action sequence
// i + 1), each at its recorded address.
void ExpectPayloadsWalkBack(const StableLog& log, const std::vector<LogAddress>& addresses,
                            const std::vector<std::vector<std::byte>>& payloads) {
  StableLog::BackwardCursor cursor = log.ReadBackwardFromTop();
  for (std::size_t i = payloads.size(); i >= 1; --i) {
    auto next = cursor.Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(next.value().has_value()) << "acknowledged entry " << i << " lost";
    EXPECT_EQ(next.value()->first, addresses[i - 1]);
    const auto* data = std::get_if<DataEntry>(&next.value()->second);
    ASSERT_NE(data, nullptr) << "entry " << i;
    EXPECT_EQ(data->aid.sequence, i);
    EXPECT_EQ(data->value, payloads[i - 1]) << "entry " << i;
  }
  auto end = cursor.Next();
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  EXPECT_FALSE(end.value().has_value());
}

TEST(FileLog, TornForcesRoundAfterRoundKeepEveryAcknowledgedEntry) {
  // One file per seed, torn again in every round. A round forces data
  // entries of random size one at a time (acknowledged), then forces a few
  // more in one append and tears that append at a random byte: the file is
  // either cut there or keeps its length with every byte from there on
  // zeroed. Each reopen must scan Ok, find the last frame that ends at or
  // before the tear, and walk back every acknowledged entry; the next round
  // forces on the log that scan cut. A final clean restart keeps every
  // acknowledged entry, and the file holds nothing past the durable size.
  constexpr std::uint64_t kSeeds = 24;
  constexpr int kRounds = 8;
  const std::string path = testing::TempDir() + "/argus_torn_rounds_test.log";
  for (std::uint64_t seed = 1; seed <= kSeeds && !testing::Test::HasFailure(); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919 + 11);
    auto random_payload = [&rng] {
      std::vector<std::byte> payload(rng.NextBelow(700));
      for (std::byte& b : payload) {
        b = static_cast<std::byte>(rng.NextBelow(256));
      }
      return payload;
    };
    std::remove(path.c_str());
    std::vector<LogAddress> addresses;              // of every surviving entry
    std::vector<std::vector<std::byte>> payloads;  // entry i + 1's payload
    std::unique_ptr<StableLog> log = ReopenFileLog(path);
    ASSERT_NE(log, nullptr);
    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const std::uint64_t acknowledged_forces = 1 + rng.NextBelow(3);
      for (std::uint64_t i = 0; i < acknowledged_forces; ++i) {
        payloads.push_back(random_payload());
        Result<LogAddress> forced = log->ForceWrite(
            LogEntry(DataEntry{Uid::Invalid(), ObjectKind::kAtomic, Aid(payloads.size()),
                               payloads.back()}));
        ASSERT_TRUE(forced.ok()) << forced.status().ToString();
        addresses.push_back(forced.value());
      }
      const std::uint64_t acknowledged = log->durable_size();
      std::vector<LogAddress> batch_addresses;
      std::vector<std::vector<std::byte>> batch_payloads;
      std::vector<std::uint64_t> batch_ends;
      const std::uint64_t batch = 2 + rng.NextBelow(3);
      for (std::uint64_t i = 0; i < batch; ++i) {
        batch_payloads.push_back(random_payload());
        batch_addresses.push_back(log->Write(LogEntry(
            DataEntry{Uid::Invalid(), ObjectKind::kAtomic,
                      Aid(payloads.size() + batch_payloads.size()), batch_payloads.back()})));
        batch_ends.push_back(log->end_offset());
      }
      ASSERT_TRUE(log->Force().ok());
      log.reset();

      const std::vector<char> whole = FileBytes(path);
      ASSERT_EQ(whole.size(), batch_ends.back());
      const std::uint64_t k = acknowledged + rng.NextBelow(whole.size() - acknowledged);
      const bool zero_filled = rng.NextBool(0.5);
      SCOPED_TRACE("torn at byte " + std::to_string(k) +
                   (zero_filled ? ", zero-filled" : ", cut"));
      std::vector<char> torn(whole.begin(), whole.begin() + static_cast<std::ptrdiff_t>(k));
      // Zeroing a byte that was already zero changes nothing: the zero-filled
      // file is torn from the first byte the zeroing changed.
      std::uint64_t tear = k;
      if (zero_filled) {
        torn.resize(whole.size(), '\0');
        while (tear < whole.size() && whole[tear] == '\0') {
          ++tear;
        }
      }
      WriteFileBytes(path, torn);
      const std::size_t survivors = static_cast<std::size_t>(std::count_if(
          batch_ends.begin(), batch_ends.end(), [tear](std::uint64_t end) { return end <= tear; }));
      addresses.insert(addresses.end(), batch_addresses.begin(),
                       batch_addresses.begin() + static_cast<std::ptrdiff_t>(survivors));
      payloads.insert(payloads.end(), batch_payloads.begin(),
                      batch_payloads.begin() + static_cast<std::ptrdiff_t>(survivors));

      log = ReopenFileLog(path);
      ASSERT_NE(log, nullptr);
      ASSERT_TRUE(log->GetTop().has_value());
      EXPECT_EQ(*log->GetTop(), addresses.back());
      ExpectPayloadsWalkBack(*log, addresses, payloads);
      if (testing::Test::HasFailure()) {
        break;
      }
    }
    log.reset();
    std::unique_ptr<StableLog> clean = ReopenFileLog(path);
    ASSERT_NE(clean, nullptr);
    ExpectPayloadsWalkBack(*clean, addresses, payloads);
    EXPECT_EQ(FileSize(path), clean->durable_size());
  }
  std::remove(path.c_str());
}

TEST(FileLog, DamagedFrameBeforeWholeFramesIsReportedAndKept) {
  // A bad frame followed by whole frames is damage, not a torn force: the
  // restart must fail and leave every byte, acknowledged frames included.
  std::string path = testing::TempDir() + "/argus_damaged_frame_test.log";
  std::remove(path.c_str());
  {
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
    ASSERT_TRUE(medium.ok());
    StableLog log(std::move(medium).value());
    for (std::uint64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(log.ForceWrite(LogEntry(CommittedEntry{Aid(i)})).ok());
    }
  }
  {
    // Flip a payload byte of the first frame.
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 5, SEEK_SET), 0);
    const int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, 5, SEEK_SET), 0);
    ASSERT_NE(std::fputc(byte ^ 0x40, f), EOF);
    ASSERT_EQ(std::fclose(f), 0);
  }
  const std::vector<char> damaged = FileBytes(path);
  {
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
    ASSERT_TRUE(medium.ok());
    StableLog log(std::move(medium).value());
    EXPECT_EQ(log.RecoverAfterCrash().code(), ErrorCode::kCorruption);
    EXPECT_EQ(log.ForceWrite(LogEntry(CommittedEntry{Aid(4)})).status().code(),
              ErrorCode::kUnavailable);
  }
  EXPECT_EQ(FileBytes(path), damaged);
  std::remove(path.c_str());
}

// Caps the process's file size for one scope, ignoring SIGXFSZ so that a
// write past the cap fails with EFBIG instead of killing the process.
class ScopedFileSizeLimit {
 public:
  explicit ScopedFileSizeLimit(std::uint64_t bytes) {
    previous_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_), 0);
    rlimit limited = saved_;
    limited.rlim_cur = static_cast<rlim_t>(bytes);
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
  }
  ~ScopedFileSizeLimit() {
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &saved_), 0);
    std::signal(SIGXFSZ, previous_handler_);
  }
  ScopedFileSizeLimit(const ScopedFileSizeLimit&) = delete;
  ScopedFileSizeLimit& operator=(const ScopedFileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*previous_handler_)(int) = nullptr;
};

TEST(FileLog, FailedAppendIsCutOffAndLaterAppendsAreRefused) {
  std::string path = testing::TempDir() + "/argus_failed_append_test.log";
  std::remove(path.c_str());
  {
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
    ASSERT_TRUE(medium.ok());
    StableLog log(std::move(medium).value());
    for (std::uint64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(log.ForceWrite(LogEntry(CommittedEntry{Aid(i)})).ok());
    }
    Result<LogAddress> failed = LogAddress::Null();
    {
      // The next force's write stops 10 bytes in.
      ScopedFileSizeLimit limit(FileSize(path) + 10);
      failed = log.ForceWrite(LogEntry(CommittedEntry{Aid(4)}));
    }
    EXPECT_FALSE(failed.ok()) << "the torn force was acknowledged";
    // A failed write may have left dirty pages the kernel already dropped:
    // the medium refuses every later append, even with the cap lifted.
    EXPECT_FALSE(log.ForceWrite(LogEntry(CommittedEntry{Aid(5)})).ok())
        << "a force after a failed append was acknowledged";
    EXPECT_EQ(FileSize(path), log.durable_size()) << "the partial write stayed in the file";
  }
  ExpectFileLogHolds(path, 3);
  std::remove(path.c_str());
}

TEST(FileLog, GuardianOnFileMediumRoundTrip) {
  std::string path = testing::TempDir() + "/argus_file_guardian_test.log";
  std::remove(path.c_str());
  RecoverySystemConfig config;
  config.mode = LogMode::kHybrid;
  config.medium_factory = [path] {
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
    ARGUS_CHECK(medium.ok());
    return std::move(medium).value();
  };

  {
    VolatileHeap heap;
    RecoverySystem rs(config, &heap);
    ActionId t1 = Aid(1);
    ActionContext ctx(t1);
    RecoverableObject* obj = ctx.CreateAtomic(heap, Value::Str("durable"));
    ASSERT_TRUE(ctx.UpdateObject(heap.root(), [&](Value& r) {
      r.as_record()["v"] = Value::Ref(obj);
    }).ok());
    ASSERT_TRUE(rs.Prepare(t1, ctx.TakeMos()).ok());
    ASSERT_TRUE(rs.Commit(t1).ok());
  }  // process "dies"; the file persists

  {
    VolatileHeap heap;
    // Reopen the SAME file as the surviving log.
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
    ASSERT_TRUE(medium.ok());
    RecoverySystem rs(config, &heap, std::make_unique<StableLog>(std::move(medium).value()));
    Result<RecoveryInfo> info = rs.Recover();
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    RecoverableObject* v = heap.root()->base_version().as_record().at("v").as_ref();
    EXPECT_EQ(v->base_version(), Value::Str("durable"));
  }
  std::remove(path.c_str());
}

TEST(LogCorruption, FlippedBitIsDetected) {
  // In-memory medium with a deliberately flipped byte: the CRC must catch it.
  auto medium = std::make_unique<InMemoryStableMedium>();
  InMemoryStableMedium* medium_ptr = medium.get();
  StableLog log(std::move(medium));
  Result<LogAddress> addr = log.ForceWrite(LogEntry(CommittedEntry{Aid(1)}));
  ASSERT_TRUE(addr.ok());
  // Corrupt a payload byte through a read-modify-write of the raw bytes.
  Result<std::vector<std::byte>> raw = medium_ptr->Read(0, log.durable_size());
  ASSERT_TRUE(raw.ok());
  // Rebuild the medium bytes with a flip in the middle of the payload.
  auto corrupted = std::make_unique<InMemoryStableMedium>();
  std::vector<std::byte> bytes = raw.value();
  bytes[8] ^= std::byte{0x40};
  ASSERT_TRUE(corrupted->Append(AsSpan(bytes)).ok());
  InMemoryStableMedium* corrupted_ptr = corrupted.get();
  StableLog bad(std::move(corrupted));
  EXPECT_FALSE(bad.Read(LogAddress{0}).ok());
  // Appends to this medium are atomic, so the bad frame cannot be a torn
  // force: the restart reports it, finds no top, keeps every byte and
  // refuses to force over it.
  EXPECT_EQ(bad.RecoverAfterCrash().code(), ErrorCode::kCorruption);
  EXPECT_FALSE(bad.GetTop().has_value());
  EXPECT_EQ(corrupted_ptr->Read(0, corrupted_ptr->durable_size()).value(), bytes);
  EXPECT_EQ(bad.ForceWrite(LogEntry(CommittedEntry{Aid(2)})).status().code(),
            ErrorCode::kUnavailable);
}

TEST(LogCorruption, DamageBeforeWholeFramesIsReported) {
  // On an atomic medium too, a bad frame with whole frames after it is decay,
  // not a torn tail: the restart reports it instead of ending the log there.
  StableLog log(std::make_unique<InMemoryStableMedium>());
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(log.ForceWrite(LogEntry(CommittedEntry{Aid(i)})).ok());
  }
  Result<std::vector<std::byte>> raw = log.medium().Read(0, log.durable_size());
  ASSERT_TRUE(raw.ok());
  std::vector<std::byte> bytes = raw.value();
  bytes[5] ^= std::byte{0x40};
  auto corrupted = std::make_unique<InMemoryStableMedium>();
  ASSERT_TRUE(corrupted->Append(AsSpan(bytes)).ok());
  InMemoryStableMedium* corrupted_ptr = corrupted.get();
  StableLog bad(std::move(corrupted));
  EXPECT_EQ(bad.RecoverAfterCrash().code(), ErrorCode::kCorruption);
  EXPECT_EQ(corrupted_ptr->Read(0, corrupted_ptr->durable_size()).value(), bytes);
}

}  // namespace
}  // namespace argus
