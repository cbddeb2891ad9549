// Tests for the thesis-style table renderings.

#include <gtest/gtest.h>

#include "src/recovery/debug.h"
#include "tests/test_support.h"

namespace argus {
namespace {

TEST(DebugDump, ParticipantTable) {
  ParticipantTable pt;
  pt[Aid(2)] = ParticipantState::kPrepared;
  pt[Aid(1)] = ParticipantState::kCommitted;
  std::string out = DumpParticipantTable(pt);
  EXPECT_EQ(out, "PT\n  T1@G0  committed\n  T2@G0  prepared\n");
}

TEST(DebugDump, CoordinatorTable) {
  CoordinatorTable ct;
  ct[Aid(1)] = CoordinatorTableEntry{CoordinatorPhase::kCommitting,
                                     {GuardianId{1}, GuardianId{2}}};
  ct[Aid(2)] = CoordinatorTableEntry{CoordinatorPhase::kDone, {}};
  std::string out = DumpCoordinatorTable(ct);
  EXPECT_EQ(out, "CT\n  T1@G0  committing (G1,G2)\n  T2@G0  done\n");
}

TEST(DebugDump, EmptyTables) {
  EXPECT_EQ(DumpParticipantTable({}), "PT\n  (empty)\n");
  EXPECT_EQ(DumpCoordinatorTable({}), "CT\n  (empty)\n");
  EXPECT_EQ(DumpObjectTable({}), "OT\n  (empty)\n");
}

TEST(DebugDump, FullRecoveryInfoAfterScenario) {
  // Run the figure 3-7-like situation through the real system and render it.
  StorageHarness h(LogMode::kHybrid);
  ActionId t1 = Aid(1);
  RecoverableObject* v = h.ctx(t1).CreateAtomic(h.heap(), Value::Int(10));
  ASSERT_TRUE(h.BindStable(t1, "v", v).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());
  ActionId t2 = Aid(2);
  ASSERT_TRUE(h.ctx(t2).WriteObject(h.StableVar("v"), Value::Int(11)).ok());
  ASSERT_TRUE(h.PrepareOnly(t2).ok());

  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok());
  std::string out = DumpRecoveryInfo(info.value());
  // The rendering names both actions with their outcomes...
  EXPECT_NE(out.find("T1@G0  committed"), std::string::npos) << out;
  EXPECT_NE(out.find("T2@G0  prepared"), std::string::npos) << out;
  // ...and shows the object's base + write-locked tentative version.
  EXPECT_NE(out.find("base=10"), std::string::npos) << out;
  EXPECT_NE(out.find("current=11"), std::string::npos) << out;
  EXPECT_NE(out.find("[wlock T2@G0]"), std::string::npos) << out;
  EXPECT_NE(out.find("entries examined:"), std::string::npos) << out;
}

TEST(DebugDump, LogStatsShowsReadSideCounters) {
  // A shard's row of the log's counters is its labelled entries in the
  // registry snapshot. Drive the real read path so the cache counters are
  // live.
  const obs::Scope shard{.guardian = 0, .shard = 0};
  auto cache_reads = [&shard] {
    return CounterValue("stable.cache.hits", shard) + CounterValue("stable.cache.misses", shard);
  };
  const std::uint64_t reads_before = cache_reads();
  StorageHarness h(LogMode::kHybrid);
  ActionId t1 = Aid(1);
  RecoverableObject* v = h.ctx(t1).CreateAtomic(h.heap(), Value::Int(10));
  ASSERT_TRUE(h.BindStable(t1, "v", v).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok());

  const std::string out = obs::Registry::Global().ToJson();
  auto row = [&shard](const char* name) { return "\"" + shard.Name(name) + "\":"; };
  EXPECT_NE(out.find(row("log.entries_staged") +
                     std::to_string(CounterValue("log.entries_staged", shard))),
            std::string::npos)
      << out;
  EXPECT_NE(out.find(row("stable.cache.hits")), std::string::npos) << out;
  EXPECT_NE(out.find("\"stable.cache.hit_rate\":"), std::string::npos) << out;
  EXPECT_NE(out.find(row("stable.cache.readahead_blocks")), std::string::npos) << out;
  // Recovery went through the cache, so the medium was actually consulted.
  EXPECT_GT(cache_reads() - reads_before, 0u);
}

TEST(DebugDump, MutexRowShowsAddress) {
  StorageHarness h(LogMode::kHybrid);
  ActionId t1 = Aid(1);
  RecoverableObject* m = h.ctx(t1).CreateMutex(h.heap(), Value::Str("x"));
  ASSERT_TRUE(h.BindStable(t1, "m", m).ok());
  ASSERT_TRUE(h.PrepareAndCommit(t1).ok());
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok());
  std::string out = DumpObjectTable(info.value().ot);
  EXPECT_NE(out.find("mutex"), std::string::npos) << out;
  EXPECT_NE(out.find("value=\"x\" @L"), std::string::npos) << out;
}

}  // namespace
}  // namespace argus
