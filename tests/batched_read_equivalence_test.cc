// Scatter-read equivalence suite for the batched StableMedium interface.
//
// Property: the recovered tables are a function of the log's bytes, never of
// the I/O that fetched them. One seeded history, dumped to a real file, must
// recover bit-identically through every read gear — the simulated in-memory
// medium, file-backed preads with the cache off, and file-backed preadv
// scatter batches filling the cache. Also pins the SubmitReads contract
// itself: authoritative per-request completion statuses (Ok only over a fully
// read buffer, skipped/abandoned segments stamped non-Ok), and per-segment
// (not per-batch) careful-read fallback on a decayed duplexed replica. And it
// runs the lock-free frame-read path from several threads while the log
// forces.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/log/flush_coordinator.h"
#include "src/object/flatten.h"
#include "src/recovery/recovery_algorithms.h"
#include "src/stable/duplexed_medium.h"
#include "src/stable/file_medium.h"
#include "tests/test_support.h"

namespace argus {
namespace {

// ---- Seeded history builder ---------------------------------------------

struct HistoryConfig {
  std::uint64_t seed = 1;
  bool duplexed = false;
  std::uint32_t disk_seed = 9000;
  std::size_t steps = 40;
};

// Deterministic random workload over a guardian stack; identical configs
// build bit-identical logs. A compact sibling of the builder in
// recovery_cache_equivalence_test.cc, exercising the same entry mix:
// commits, mutex mutations, undecided prepares, aborts, coordinator records,
// and early-prepared trailing data.
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

  std::unique_ptr<StableLog> BuildAndCrash() {
    Rng rng(config_.seed);
    StorageHarness& h = *harness_;

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
      switch (rng.NextBelow(8)) {
        case 0:
        case 1:
        case 2:
          CommitRandomWrites(rng);
          break;
        case 3:
          MutateRandomMutex(rng);
          break;
        case 4:
          PrepareUndecided(rng);
          break;
        case 5:
          PrepareThenAbort(rng);
          break;
        case 6:
          CoordinatorActivity(rng);
          break;
        case 7:
          EarlyPrepareTrailingData(rng);
          break;
      }
    }
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
    EXPECT_TRUE(h.PrepareOnly(aid).ok());
  }

  void PrepareThenAbort(Rng& rng) {
    StorageHarness& h = *harness_;
    ActionId aid = Aid(next_seq_++);
    RecoverableObject* obj = PickUnlocked(rng, false);
    bool any = false;
    if (obj != nullptr) {
      any |= h.ctx(aid).WriteObject(obj, Value::Int(-13)).ok();
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
    h.ctx(aid).AbortVolatile(h.heap());
  }

  HistoryConfig config_;
  std::unique_ptr<StorageHarness> harness_;
  std::uint64_t next_seq_ = 1;
};

// ---- Result comparison ---------------------------------------------------

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

// Note: no last_outcome comparison across *different logs* — the file twin
// holds the same bytes at the same offsets, so addresses DO compare equal,
// and we assert exactly that (bit-identical tables including addresses).
void ExpectEquivalent(const RecoveryRun& reference, const RecoveryRun& candidate) {
  std::string label = reference.label + " vs " + candidate.label + ":";
  ASSERT_EQ(reference.result.ok(), candidate.result.ok())
      << label << " " << reference.result.status().ToString() << " / "
      << candidate.result.status().ToString();
  if (!reference.result.ok()) {
    EXPECT_EQ(reference.result.status().code(), candidate.result.status().code()) << label;
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

// ---- File-twin plumbing --------------------------------------------------

std::vector<std::byte> DumpDurableBytes(StableLog& log) {
  std::uint64_t size = log.medium().durable_size();
  std::vector<std::byte> raw(size);
  Status s = log.medium().ReadInto(0, std::span<std::byte>(raw.data(), raw.size()));
  EXPECT_TRUE(s.ok()) << s.ToString();
  return raw;
}

// Writes `raw` to a fresh file, opens a StableLog over it and derives the
// durable top from the bytes (the recovery scan).
std::unique_ptr<StableLog> MakeFileLog(const std::vector<std::byte>& raw, const std::string& path) {
  std::remove(path.c_str());
  {
    Result<std::unique_ptr<FileStableMedium>> writer = FileStableMedium::Open(path);
    EXPECT_TRUE(writer.ok());
    EXPECT_TRUE(writer.value()->Append(std::span<const std::byte>(raw.data(), raw.size())).ok());
  }
  Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
  EXPECT_TRUE(medium.ok());
  auto log = std::make_unique<StableLog>(std::move(medium).value());
  Status s = log->RecoverAfterCrash();
  EXPECT_TRUE(s.ok()) << s.ToString();
  return log;
}

// ---- The equivalence sweep ----------------------------------------------

class ScatterReadEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScatterReadEquivalenceTest, AllReadGearsRecoverIdentically) {
  ScopedFlightRecorderDumpOnFailure dump_guard;
  const std::uint64_t seed = GetParam();
  HistoryBuilder builder(HistoryConfig{.seed = seed});
  std::unique_ptr<StableLog> mem_log = builder.BuildAndCrash();
  Status recovered = mem_log->RecoverAfterCrash();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();

  RecoveryRun reference = RunRecovery(*mem_log, "mem-uncached", false);
  ASSERT_TRUE(reference.result.ok()) << reference.result.status().ToString();

  std::vector<std::byte> raw = DumpDurableBytes(*mem_log);
  ASSERT_FALSE(raw.empty());
  const std::string base =
      testing::TempDir() + "/argus_scatter_eq_" + std::to_string(seed) + "_";

  struct Gear {
    std::string name;
    bool cached;  // off: one pread per frame probe; on: preadv cache fills
  };
  const std::vector<Gear> gears = {{"file-pread", false}, {"file-preadv", true}};
  for (const Gear& gear : gears) {
    std::string path = base + gear.name + ".log";
    std::unique_ptr<StableLog> file_log = MakeFileLog(raw, path);
    ASSERT_NE(file_log, nullptr);
    ASSERT_FALSE(file_log->empty()) << gear.name;
    RecoveryRun run = RunRecovery(*file_log, gear.name, gear.cached);
    ExpectEquivalent(reference, run);
    std::remove(path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScatterReadEquivalenceTest, ::testing::Values(1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<std::uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

// ---- Mid-batch careful-read fault ---------------------------------------

// A duplexed log whose disk-A replica decays in the middle of the byte range
// a cache fill will batch: every segment of the scatter must run its own
// CarefulRead fallback to replica B, so the batch succeeds and the recovered
// tables match an uncached twin with the identical decay profile.
TEST(ScatterReadFault, MidBatchCarefulReadFallsBackPerSegment) {
  ScopedFlightRecorderDumpOnFailure dump_guard;
  HistoryConfig config{.seed = 11, .duplexed = true, .disk_seed = 4242};
  std::unique_ptr<StableLog> uncached_log = HistoryBuilder(config).BuildAndCrash();
  std::unique_ptr<StableLog> cached_log = HistoryBuilder(config).BuildAndCrash();
  uncached_log->read_cache().SetEnabled(false);

  Status r1 = uncached_log->RecoverAfterCrash();
  Status r2 = cached_log->RecoverAfterCrash();
  ASSERT_TRUE(r1.ok()) << r1.ToString();
  ASSERT_TRUE(r2.ok()) << r2.ToString();
  ASSERT_EQ(uncached_log->GetTop(), cached_log->GetTop()) << "twin histories diverged";
  Result<std::uint64_t> w1 = CountEntriesBackward(*uncached_log);
  Result<std::uint64_t> w2 = CountEntriesBackward(*cached_log);
  ASSERT_TRUE(w1.ok()) << w1.status().ToString();
  ASSERT_TRUE(w2.ok()) << w2.status().ToString();
  ASSERT_EQ(w1.value(), w2.value()) << "twin histories diverged";

  // Decay disk A *after* the restart repair pass, so the pages are bad at
  // cache-fill time — the middle of the log lands mid-batch in a fill run.
  auto corrupt_middle = [](StableLog& log) {
    auto& medium = static_cast<DuplexedStableMedium&>(log.medium());
    std::size_t page_count = medium.store().page_count();
    for (std::size_t page = page_count / 2; page < page_count / 2 + 4 && page < page_count;
         ++page) {
      if (page >= 1) {
        medium.store().disk_a().CorruptPage(page);
      }
    }
  };
  corrupt_middle(*uncached_log);
  corrupt_middle(*cached_log);
  // Drop blocks the restart scan already cached: the recoveries below must
  // fetch the decayed range from the medium again.
  cached_log->read_cache().Clear();

  RecoveryRun reference = RunRecovery(*uncached_log, "uncached-decayed", false);
  ASSERT_TRUE(reference.result.ok()) << reference.result.status().ToString();
  RecoveryRun cached = RunRecovery(*cached_log, "cached-decayed", true);
  ExpectEquivalent(reference, cached);

  // The fallback was exercised per segment, not masked by repair: disk A
  // still holds the bad pages (CarefulRead heals reads, not media).
  auto& medium = static_cast<DuplexedStableMedium&>(cached_log->medium());
  std::size_t page_count = medium.store().page_count();
  bool any_bad = false;
  for (std::size_t page = page_count / 2; page < page_count / 2 + 4 && page < page_count;
       ++page) {
    any_bad |= medium.store().disk_a().PageIsBad(page);
  }
  EXPECT_TRUE(any_bad) << "decay profile did not land on any data page";
}

// ---- The SubmitReads contract -------------------------------------------

TEST(SubmitReadsContract, DefaultImplementationAttemptsAllSegments) {
  InMemoryStableMedium medium;
  std::vector<std::byte> payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i);
  }
  ASSERT_TRUE(medium.Append(std::span<const std::byte>(payload.data(), payload.size())).ok());

  std::vector<std::byte> a(16), b(16), c(16);
  std::vector<ReadRequest> requests(3);
  requests[0] = {.offset = 0, .out = std::span<std::byte>(a.data(), a.size())};
  requests[1] = {.offset = 60, .out = std::span<std::byte>(b.data(), b.size())};  // past extent
  requests[2] = {.offset = 32, .out = std::span<std::byte>(c.data(), c.size())};

  Status s = medium.SubmitReads(std::span<ReadRequest>(requests.data(), requests.size()));
  // First (lowest-index) failure is surfaced; the other segments still ran.
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_TRUE(requests[0].status.ok());
  EXPECT_EQ(requests[1].status.code(), ErrorCode::kNotFound);
  EXPECT_TRUE(requests[2].status.ok());
  EXPECT_EQ(a[0], std::byte{0});
  EXPECT_EQ(a[15], std::byte{15});
  EXPECT_EQ(c[0], std::byte{32});
  EXPECT_EQ(c[15], std::byte{47});
}

TEST(SubmitReadsContract, FileMediumBatchesMatchSerialReads) {
  std::string path = testing::TempDir() + "/argus_submit_reads_contract.log";
  std::remove(path.c_str());
  std::vector<std::byte> payload(64 * 1024);
  Rng rng(99);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(rng.NextU64() & 0xff);
  }

  Result<std::unique_ptr<FileStableMedium>> opened = FileStableMedium::Open(path);
  ASSERT_TRUE(opened.ok());
  FileStableMedium& medium = *opened.value();
  ASSERT_TRUE(medium.Append(std::span<const std::byte>(payload.data(), payload.size())).ok());

  // A scatter with adjacent runs (coalesced into one preadv), gaps, and
  // out-of-order-looking strides. Every segment must equal the source.
  const std::vector<std::pair<std::uint64_t, std::size_t>> segments = {
      {0, 4096},     {4096, 4096},  {8192, 512},  // one adjacent run
      {20000, 100},                               // gap
      {32768, 4096}, {36864, 4096},               // second run
      {65000, 536},                               // tail
  };
  std::vector<std::vector<std::byte>> buffers;
  std::vector<ReadRequest> requests;
  for (const auto& [offset, len] : segments) {
    buffers.emplace_back(len);
    requests.push_back({.offset = offset, .out = std::span<std::byte>(buffers.back().data(), len)});
  }
  Status s = medium.SubmitReads(std::span<ReadRequest>(requests.data(), requests.size()));
  ASSERT_TRUE(s.ok()) << s.ToString();
  for (std::size_t i = 0; i < segments.size(); ++i) {
    ASSERT_TRUE(requests[i].status.ok()) << "segment " << i;
    EXPECT_TRUE(std::equal(buffers[i].begin(), buffers[i].end(),
                           payload.begin() + static_cast<std::ptrdiff_t>(segments[i].first)))
        << "segment " << i << " bytes diverged";
  }

  // Mixed batch with an out-of-extent segment: fail fast, nothing partial.
  // The in-bounds sibling was never attempted, so it must not keep Ok over
  // an unfilled buffer — the cache would install it as a valid block.
  std::vector<std::byte> bad(16);
  std::vector<ReadRequest> mixed(2);
  mixed[0] = {.offset = 0, .out = std::span<std::byte>(bad.data(), bad.size())};
  mixed[1] = {.offset = payload.size() - 8, .out = std::span<std::byte>(bad.data(), bad.size())};
  EXPECT_EQ(medium.SubmitReads(std::span<ReadRequest>(mixed.data(), mixed.size())).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(mixed[0].status.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(mixed[1].status.code(), ErrorCode::kNotFound);
  std::remove(path.c_str());
}

// A mid-run I/O failure (the file truncated behind the medium's back, so the
// batch passes the bounds check but hits EOF partway) must leave fully-read
// segments Ok and stamp the failure point and everything after it non-Ok —
// the same prefix state a serial loop would produce, and never a stale Ok
// over an unfilled buffer.
TEST(SubmitReadsContract, MidRunFailureKeepsFullyReadPrefixOk) {
  std::string path = testing::TempDir() + "/argus_submit_reads_midrun.log";
  std::remove(path.c_str());
  Result<std::unique_ptr<FileStableMedium>> opened = FileStableMedium::Open(path);
  ASSERT_TRUE(opened.ok());
  FileStableMedium& medium = *opened.value();
  std::vector<std::byte> payload(32 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i & 0xff);
  }
  ASSERT_TRUE(medium.Append(std::span<const std::byte>(payload.data(), payload.size())).ok());
  ASSERT_EQ(::truncate(path.c_str(), 12 * 1024), 0);

  // One adjacent run of 4KiB segments spanning the truncation point.
  std::vector<std::vector<std::byte>> buffers;
  std::vector<ReadRequest> requests;
  for (std::uint64_t offset = 0; offset < 24 * 1024; offset += 4096) {
    buffers.emplace_back(4096);
    requests.push_back({.offset = offset, .out = std::span<std::byte>(buffers.back().data(), 4096)});
  }
  Status s = medium.SubmitReads(std::span<ReadRequest>(requests.data(), requests.size()));
  EXPECT_FALSE(s.ok());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::uint64_t seg_end = (i + 1) * 4096;
    if (seg_end <= 12 * 1024) {
      ASSERT_TRUE(requests[i].status.ok()) << "fully-read segment " << i;
      EXPECT_TRUE(std::equal(buffers[i].begin(), buffers[i].end(),
                             payload.begin() + static_cast<std::ptrdiff_t>(i * 4096)))
          << "segment " << i << " bytes diverged";
    } else {
      EXPECT_FALSE(requests[i].status.ok()) << "segment " << i << " past the truncation kept Ok";
    }
  }
  std::remove(path.c_str());
}

TEST(SubmitReadsContract, ReadManyMatchesIndividualReadsOnFileMedium) {
  HistoryBuilder builder(HistoryConfig{.seed = 7});
  std::unique_ptr<StableLog> mem_log = builder.BuildAndCrash();
  ASSERT_TRUE(mem_log->RecoverAfterCrash().ok());
  std::vector<std::byte> raw = DumpDurableBytes(*mem_log);

  std::string path = testing::TempDir() + "/argus_readmany_eq.log";
  std::unique_ptr<StableLog> file_log = MakeFileLog(raw, path);
  ASSERT_NE(file_log, nullptr);

  // Collect every entry address by walking backward, then compare the batch
  // fetch against one-at-a-time reads.
  std::vector<LogAddress> addresses;
  auto cursor = file_log->ReadBackwardFromTop();
  while (true) {
    auto next = cursor.Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!next.value().has_value()) {
      break;
    }
    addresses.push_back(next.value()->first);
  }
  ASSERT_FALSE(addresses.empty());

  std::vector<Result<LogEntry>> batched =
      file_log->ReadMany(std::span<const LogAddress>(addresses.data(), addresses.size()));
  ASSERT_EQ(batched.size(), addresses.size());
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    Result<LogEntry> single = file_log->Read(addresses[i]);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    ASSERT_TRUE(batched[i].ok()) << batched[i].status().ToString();
    EXPECT_EQ(EncodeEntry(single.value()), EncodeEntry(batched[i].value()))
        << "entry " << i << " diverged";
  }
  std::remove(path.c_str());
}

// ---- Concurrent readers of one log ---------------------------------------

// ReadFrameView, Read and ReadMany fetch, validate and decode durable frames
// without holding the log mutex; only the cache mutex serializes the medium.
// Three readers run them on forced frames of one duplexed log while a writer
// keeps staging and forcing through a FlushCoordinator, so cache fills race
// appends. Every read must return exactly the bytes that were forced.
TEST(ConcurrentReads, DurableFramesReadBackWhileTheLogForces) {
  StableLog log(std::make_unique<DuplexedStableMedium>(/*seed=*/31));
  FlushCoordinator coordinator(&log);
  constexpr std::size_t kBatches = 150;
  constexpr std::size_t kEntriesPerBatch = 3;

  auto entry_for = [](std::size_t i) {
    DataEntry d;
    d.kind = ObjectKind::kAtomic;
    d.value = std::vector<std::byte>(16 + (i * 37) % 400, static_cast<std::byte>(i));
    return LogEntry(d);
  };

  struct Forced {
    LogAddress address;
    std::vector<std::byte> payload;
  };
  std::mutex forced_mu;
  std::vector<Forced> forced;  // grows only after a force returns Ok
  std::atomic<bool> writer_done{false};
  std::atomic<std::size_t> failures{0};

  std::thread writer([&] {
    for (std::size_t b = 0; b < kBatches; ++b) {
      std::vector<Forced> batch;
      for (std::size_t e = 0; e < kEntriesPerBatch; ++e) {
        LogEntry entry = entry_for(b * kEntriesPerBatch + e);
        batch.push_back({log.Write(entry), EncodeEntry(entry)});
      }
      if (!coordinator.ForceUpTo(batch.back().address).ok()) {
        failures.fetch_add(1);
        break;
      }
      std::lock_guard<std::mutex> l(forced_mu);
      forced.insert(forced.end(), batch.begin(), batch.end());
    }
    writer_done.store(true);
  });

  // Picks up to `n` forced frames at random (empty until the first force).
  auto pick = [&](Rng& rng, std::size_t n) {
    std::lock_guard<std::mutex> l(forced_mu);
    std::vector<Forced> out;
    for (std::size_t i = 0; i < n && !forced.empty(); ++i) {
      out.push_back(forced[rng.NextBelow(forced.size())]);
    }
    return out;
  };
  // A failed read or a byte mismatch counts as a failure.
  auto check = [&](const Forced& f, bool ok, std::span<const std::byte> got) {
    if (!ok || !std::equal(got.begin(), got.end(), f.payload.begin(), f.payload.end())) {
      failures.fetch_add(1);
    }
  };
  auto check_entry = [&](const Forced& f, const Result<LogEntry>& entry) {
    std::vector<std::byte> encoded;
    if (entry.ok()) {
      encoded = EncodeEntry(entry.value());
    }
    check(f, entry.ok(), std::span<const std::byte>(encoded.data(), encoded.size()));
  };

  std::vector<std::thread> readers;
  for (int kind = 0; kind < 3; ++kind) {
    readers.emplace_back([&, kind] {
      Rng rng(100 + static_cast<std::uint64_t>(kind));
      std::size_t reads = 0;
      while (!writer_done.load() || (reads < 200 && failures.load() == 0)) {
        std::vector<Forced> targets = pick(rng, kind == 2 ? 5 : 1);
        reads += targets.size();
        if (kind == 0) {
          for (const Forced& f : targets) {
            Result<StableLog::FrameView> view = log.ReadFrameView(f.address);
            check(f, view.ok(),
                  view.ok() ? view.value().payload() : std::span<const std::byte>());
          }
        } else if (kind == 1) {
          for (const Forced& f : targets) {
            check_entry(f, log.Read(f.address));
          }
        } else if (!targets.empty()) {
          std::vector<LogAddress> addresses;
          for (const Forced& f : targets) {
            addresses.push_back(f.address);
          }
          std::vector<Result<LogEntry>> entries = log.ReadMany(addresses);
          for (std::size_t i = 0; i < entries.size(); ++i) {
            check_entry(targets[i], entries[i]);
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(forced.size(), kBatches * kEntriesPerBatch);
  EXPECT_EQ(log.durable_size(), log.end_offset());
}

}  // namespace
}  // namespace argus
