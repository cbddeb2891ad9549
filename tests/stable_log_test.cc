// Tests for the stable log abstraction (§3.1): write/force semantics,
// addressing, cursors, and crash behavior of the staged tail.

#include <gtest/gtest.h>

#include <cstring>

#include "src/common/crc32.h"
#include "src/log/stable_log.h"
#include "src/stable/duplexed_medium.h"
#include "src/stable/shard_map.h"
#include "tests/test_support.h"

namespace argus {
namespace {

LogEntry Committed(std::uint64_t seq) { return LogEntry(CommittedEntry{Aid(seq)}); }

DataEntry SmallData(std::uint8_t fill) {
  DataEntry d;
  d.kind = ObjectKind::kAtomic;
  d.value = std::vector<std::byte>(8, std::byte{fill});
  return d;
}

TEST(StableLog, EmptyLogHasNoTop) {
  auto log = MakeMemLog();
  EXPECT_TRUE(log->empty());
  EXPECT_FALSE(log->GetTop().has_value());
}

TEST(StableLog, WriteIsNotDurableUntilForce) {
  auto log = MakeMemLog();
  log->Write(Committed(1));
  EXPECT_FALSE(log->GetTop().has_value());
  EXPECT_EQ(log->durable_size(), 0u);
  ASSERT_TRUE(log->Force().ok());
  EXPECT_TRUE(log->GetTop().has_value());
  EXPECT_GT(log->durable_size(), 0u);
}

TEST(StableLog, ForceWriteFlushesOlderStagedEntries) {
  auto log = MakeMemLog();
  const std::uint64_t forces_before = CounterValue("log.forces");
  LogAddress a = log->Write(Committed(1));
  LogAddress b = log->Write(Committed(2));
  Result<LogAddress> c = log->ForceWrite(Committed(3));
  ASSERT_TRUE(c.ok());
  // All three are durable and readable.
  EXPECT_TRUE(log->Read(a).ok());
  EXPECT_TRUE(log->Read(b).ok());
  EXPECT_EQ(log->GetTop().value(), c.value());
  EXPECT_EQ(CounterValue("log.forces") - forces_before, 1u);
}

TEST(StableLog, ReadReturnsWrittenEntry) {
  auto log = MakeMemLog();
  Result<LogAddress> addr = log->ForceWrite(LogEntry(SmallData(0x5a)));
  ASSERT_TRUE(addr.ok());
  Result<LogEntry> entry = log->Read(addr.value());
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(std::get<DataEntry>(entry.value()), SmallData(0x5a));
}

TEST(StableLog, ReadServesStagedEntries) {
  auto log = MakeMemLog();
  LogAddress addr = log->Write(LogEntry(SmallData(0x77)));
  Result<LogEntry> entry = log->Read(addr);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(std::get<DataEntry>(entry.value()), SmallData(0x77));
}

TEST(StableLog, ReadPastEndFails) {
  auto log = MakeMemLog();
  ASSERT_TRUE(log->ForceWrite(Committed(1)).ok());
  EXPECT_FALSE(log->Read(LogAddress{100000}).ok());
}

TEST(StableLog, BackwardCursorVisitsAllEntriesNewestFirst) {
  auto log = MakeMemLog();
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(log->ForceWrite(Committed(i)).ok());
  }
  StableLog::BackwardCursor cursor = log->ReadBackwardFromTop();
  for (std::uint64_t i = 5; i >= 1; --i) {
    auto next = cursor.Next();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next.value().has_value());
    EXPECT_EQ(std::get<CommittedEntry>(next.value()->second).aid.sequence, i);
  }
  auto end = cursor.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end.value().has_value());
}

TEST(StableLog, ForwardCursorVisitsAllEntriesOldestFirst) {
  auto log = MakeMemLog();
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(log->ForceWrite(Committed(i)).ok());
  }
  log->Write(Committed(5));  // staged entries are iterated too
  StableLog::ForwardCursor cursor = log->ReadForwardFrom(0);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    auto next = cursor.Next();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next.value().has_value()) << i;
    EXPECT_EQ(std::get<CommittedEntry>(next.value()->second).aid.sequence, i);
  }
  auto end = cursor.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end.value().has_value());
}

TEST(StableLog, CrashDiscardsStagedTail) {
  auto log = MakeMemLog();
  ASSERT_TRUE(log->ForceWrite(Committed(1)).ok());
  LogAddress durable_top = log->GetTop().value();
  log->Write(Committed(2));
  log->Write(Committed(3));
  ASSERT_TRUE(log->RecoverAfterCrash().ok());
  EXPECT_EQ(log->GetTop().value(), durable_top);
  Result<std::uint64_t> walked = CountEntriesBackward(*log);
  ASSERT_TRUE(walked.ok()) << walked.status().ToString();
  EXPECT_EQ(walked.value(), 1u);
  // The staged entries are gone.
  EXPECT_FALSE(log->Read(LogAddress{durable_top.offset + 1000}).ok());
}

TEST(StableLog, RecoverAfterCrashFindsTopOnDuplexedMedium) {
  auto log = std::make_unique<StableLog>(std::make_unique<DuplexedStableMedium>());
  LogAddress a1;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    Result<LogAddress> r = log->ForceWrite(Committed(i));
    ASSERT_TRUE(r.ok());
    a1 = r.value();
  }
  ASSERT_TRUE(log->RecoverAfterCrash().ok());
  EXPECT_EQ(log->GetTop().value(), a1);
  Result<std::uint64_t> walked = CountEntriesBackward(*log);
  ASSERT_TRUE(walked.ok()) << walked.status().ToString();
  EXPECT_EQ(walked.value(), 3u);
  Result<LogEntry> top = log->Read(log->GetTop().value());
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(std::get<CommittedEntry>(top.value()).aid.sequence, 3u);
}

TEST(StableLog, BackwardCursorFromStagedFrameWalksIntoForcedFrames) {
  // The same entries twice: fully forced, and with the newest two still
  // staged. A walk from the newest frame must cross the durable/staged
  // boundary through the trailers and visit the same addresses.
  auto forced = MakeMemLog();
  auto mixed = MakeMemLog();
  std::vector<LogAddress> addrs;
  for (int i = 0; i < 6; ++i) {
    LogEntry entry = i % 2 == 0 ? Committed(static_cast<std::uint64_t>(i))
                                : LogEntry(SmallData(static_cast<std::uint8_t>(i)));
    addrs.push_back(forced->Write(entry));
    EXPECT_EQ(mixed->Write(entry), addrs.back());
    if (i == 3) {
      ASSERT_TRUE(mixed->Force().ok());
    }
  }
  ASSERT_TRUE(forced->Force().ok());
  ASSERT_EQ(mixed->staged_entries(), 2u);

  StableLog::BackwardCursor expected = forced->ReadBackwardFrom(addrs.back());
  StableLog::BackwardCursor actual = mixed->ReadBackwardFrom(addrs.back());
  for (int i = 5; i >= 0; --i) {
    auto want = expected.Next();
    auto got = actual.Next();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.value().has_value());
    ASSERT_TRUE(got.value().has_value()) << "walk ended early at entry " << i;
    EXPECT_EQ(want.value()->first, addrs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(got.value()->first, addrs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(got.value()->second, want.value()->second);
  }
  auto end = actual.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end.value().has_value());
}

TEST(StableLog, UndecodableFrameDoesNotEndTheLogAtTheScan) {
  // Three intact frames; the middle payload carries a valid CRC but names no
  // entry kind. The scan checks framing only, so the top lies past it; the
  // decode error surfaces when a reader reaches the frame.
  auto frame = [](const std::vector<std::byte>& payload) {
    std::vector<std::byte> out;
    auto put_u32 = [&out](std::uint32_t v) {
      for (int i = 0; i < 4; ++i) {
        out.push_back(std::byte{static_cast<std::uint8_t>(v >> (8 * i))});
      }
    };
    put_u32(static_cast<std::uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    put_u32(Crc32(AsSpan(payload)));
    put_u32(static_cast<std::uint32_t>(payload.size()));
    return out;
  };
  auto medium = std::make_unique<InMemoryStableMedium>();
  std::vector<LogAddress> addrs;
  for (const std::vector<std::byte>& payload :
       {EncodeEntry(Committed(1)), std::vector<std::byte>{std::byte{0xee}, std::byte{0x01}},
        EncodeEntry(Committed(3))}) {
    addrs.push_back(LogAddress{medium->durable_size()});
    ASSERT_TRUE(medium->Append(AsSpan(frame(payload))).ok());
  }
  StableLog log(std::move(medium));
  ASSERT_TRUE(log.RecoverAfterCrash().ok());
  ASSERT_TRUE(log.GetTop().has_value());
  EXPECT_EQ(log.GetTop().value(), addrs[2]);

  Result<LogEntry> newest = log.Read(addrs[2]);
  ASSERT_TRUE(newest.ok()) << newest.status().ToString();
  EXPECT_EQ(std::get<CommittedEntry>(newest.value()).aid.sequence, 3u);
  Result<LogEntry> bad = log.Read(addrs[1]);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kCorruption);

  StableLog::BackwardCursor cursor = log.ReadBackwardFromTop();
  auto first = cursor.Next();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.value().has_value());
  EXPECT_EQ(first.value()->first, addrs[2]);
  auto second = cursor.Next();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), ErrorCode::kCorruption);
}

TEST(StableLog, AddressesAreStableAcrossForce) {
  auto log = MakeMemLog();
  LogAddress staged = log->Write(LogEntry(SmallData(0x01)));
  ASSERT_TRUE(log->Force().ok());
  Result<LogEntry> entry = log->Read(staged);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(std::get<DataEntry>(entry.value()), SmallData(0x01));
}

TEST(StableLog, MixedEntrySizesBackwardWalk) {
  auto log = MakeMemLog();
  std::vector<LogAddress> addrs;
  for (int i = 0; i < 20; ++i) {
    DataEntry d;
    d.kind = ObjectKind::kAtomic;
    d.value = std::vector<std::byte>(static_cast<std::size_t>(1 + 37 * i), std::byte{1});
    addrs.push_back(log->Write(LogEntry(d)));
  }
  ASSERT_TRUE(log->Force().ok());
  StableLog::BackwardCursor cursor = log->ReadBackwardFromTop();
  for (int i = 19; i >= 0; --i) {
    auto next = cursor.Next();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next.value().has_value());
    EXPECT_EQ(next.value()->first, addrs[static_cast<std::size_t>(i)]);
  }
}

TEST(StableLog, StatsCountWritesAndForces) {
  // A scoped log counts into its labelled entries and into the unlabelled
  // totals alike.
  const obs::Scope scope{.guardian = 7, .shard = 1};
  EXPECT_EQ(scope.Name("log.forces"), "log.forces{guardian=7,shard=1}");
  const std::uint64_t staged_before = CounterValue("log.entries_staged", scope);
  const std::uint64_t forces_before = CounterValue("log.forces", scope);
  const std::uint64_t bytes_before = CounterValue("log.bytes_forced", scope);
  const std::uint64_t total_forces_before = CounterValue("log.forces");
  auto log = MakeMemLog(scope);
  log->Write(Committed(1));
  log->Write(Committed(2));
  ASSERT_TRUE(log->Force().ok());
  ASSERT_TRUE(log->ForceWrite(Committed(3)).ok());
  EXPECT_EQ(log->entries_written(), 3u);
  EXPECT_EQ(CounterValue("log.entries_staged", scope) - staged_before, 3u);
  EXPECT_EQ(CounterValue("log.forces", scope) - forces_before, 2u);
  EXPECT_EQ(CounterValue("log.forces") - total_forces_before, 2u);
  EXPECT_GT(log->durable_size(), 0u);
  EXPECT_EQ(CounterValue("log.bytes_forced", scope) - bytes_before, log->durable_size());
}

TEST(StableLog, EmptyForceIsANoop) {
  auto log = MakeMemLog();
  const std::uint64_t forces_before = CounterValue("log.forces");
  ASSERT_TRUE(log->Force().ok());
  EXPECT_EQ(CounterValue("log.forces") - forces_before, 0u);
}

// ---- Shard map (sharded guardians route uid -> log shard through this) ----

ShardMapRecord SampleRecord() {
  ShardMapRecord r;
  r.version = 7;
  r.num_shards = 4;
  r.salt = 0xfeedface12345678ull;
  r.overrides.emplace_back(Uid{42}, 3u);
  r.overrides.emplace_back(Uid{77}, 0u);
  return r;
}

TEST(ShardMap, CodecRoundTrip) {
  ShardMapRecord r = SampleRecord();
  std::vector<std::byte> bytes = EncodeShardMapRecord(r);
  Result<ShardMapRecord> decoded = DecodeShardMapRecord(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value(), r);
}

TEST(ShardMap, CodecRoundTripEmptyOverrides) {
  ShardMapRecord r;
  r.version = 0;
  r.num_shards = 1;
  r.salt = 0;
  Result<ShardMapRecord> decoded = DecodeShardMapRecord(EncodeShardMapRecord(r));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), r);
}

TEST(ShardMap, CodecRejectsEverySingleByteDecay) {
  // A decayed page can flip any byte; the CRC trailer must catch all of them.
  std::vector<std::byte> bytes = EncodeShardMapRecord(SampleRecord());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::byte> bad = bytes;
    bad[i] ^= std::byte{0x40};
    EXPECT_FALSE(DecodeShardMapRecord(bad).ok()) << "byte " << i << " flip went undetected";
  }
}

TEST(ShardMap, CodecRejectsTruncation) {
  std::vector<std::byte> bytes = EncodeShardMapRecord(SampleRecord());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        DecodeShardMapRecord(std::span<const std::byte>(bytes.data(), len)).ok())
        << "truncation to " << len << " bytes went undetected";
  }
}

TEST(ShardMap, StoreRecoversNewestVersion) {
  ShardMapStore store(std::make_unique<InMemoryStableMedium>());
  ShardMapRecord v0 = SampleRecord();
  v0.version = 0;
  ShardMapRecord v1 = SampleRecord();
  v1.version = 1;
  v1.overrides.clear();
  ASSERT_TRUE(store.Put(v0).ok());
  ASSERT_TRUE(store.Put(v1).ok());
  Result<ShardMapRecord> recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), v1);
}

TEST(ShardMap, StoreEmptyMediumIsNotFound) {
  ShardMapStore store(std::make_unique<InMemoryStableMedium>());
  Result<ShardMapRecord> recovered = store.Recover();
  EXPECT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), ErrorCode::kNotFound);
}

TEST(ShardMap, StoreTornTailFallsBackToPreviousRecord) {
  ShardMapStore store(std::make_unique<InMemoryStableMedium>());
  ShardMapRecord v0 = SampleRecord();
  ASSERT_TRUE(store.Put(v0).ok());
  // A torn append: a frame header promising more bytes than the medium holds
  // (the crash cut the write short). Recovery must stop there and keep v0.
  std::vector<std::byte> torn = {std::byte{0xff}, std::byte{0x00}, std::byte{0x00},
                                 std::byte{0x00}, std::byte{0xab}};
  ASSERT_TRUE(store.medium().Append(torn).ok());
  Result<ShardMapRecord> recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), v0);
}

TEST(ShardMap, StoreDecayedTailFallsBackToPreviousRecord) {
  ShardMapStore store(std::make_unique<InMemoryStableMedium>());
  ShardMapRecord v0 = SampleRecord();
  v0.version = 0;
  ASSERT_TRUE(store.Put(v0).ok());
  // A well-framed but decayed record: right length prefix, garbage payload.
  ShardMapRecord v1 = SampleRecord();
  v1.version = 1;
  std::vector<std::byte> payload = EncodeShardMapRecord(v1);
  payload[payload.size() / 2] ^= std::byte{0x01};
  std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::vector<std::byte> frame(4);
  std::memcpy(frame.data(), &len, 4);
  frame.insert(frame.end(), payload.begin(), payload.end());
  ASSERT_TRUE(store.medium().Append(frame).ok());
  Result<ShardMapRecord> recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), v0);
}

TEST(ShardRouter, RootPinsToShardZeroAndOverridesWin) {
  ShardMapRecord r = SampleRecord();
  ShardRouter router(r);
  EXPECT_EQ(router.ShardOf(Uid::Root()), 0u);
  EXPECT_EQ(router.ShardOf(Uid{42}), 3u);   // override
  EXPECT_EQ(router.ShardOf(Uid{77}), 0u);   // override
  for (std::uint64_t u = 1; u < 200; ++u) {
    std::uint32_t shard = router.ShardOf(Uid{u});
    EXPECT_LT(shard, r.num_shards);
    EXPECT_EQ(shard, router.ShardOf(Uid{u}));  // deterministic
  }
}

TEST(ShardRouter, HomeShardIsDeterministicAndInRange) {
  ShardRouter router(SampleRecord());
  for (std::uint64_t seq = 1; seq < 100; ++seq) {
    ActionId aid{GuardianId{2}, seq};
    std::uint32_t home = router.HomeShardOf(aid);
    EXPECT_LT(home, router.num_shards());
    EXPECT_EQ(home, router.HomeShardOf(aid));
  }
}

}  // namespace
}  // namespace argus
