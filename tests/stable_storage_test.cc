// Tests for the stable-storage substrate: simulated disk faults, careful
// operations, the duplexed atomic store, and the stable media.

#include <gtest/gtest.h>

#include "src/common/codec.h"
#include "src/stable/careful_disk.h"
#include "src/stable/duplexed_medium.h"
#include "src/stable/file_medium.h"
#include "src/stable/replicated_store.h"

namespace argus {
namespace {

std::vector<std::byte> Page(std::uint8_t fill) {
  return std::vector<std::byte>(kDiskPageSize, std::byte{fill});
}

TEST(SimulatedDisk, WriteThenRead) {
  SimulatedDisk disk(4);
  ASSERT_TRUE(disk.WritePage(0, AsSpan(Page(0xaa))).ok());
  Result<std::vector<std::byte>> r = disk.ReadPage(0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Page(0xaa));
}

TEST(SimulatedDisk, NeverWrittenPageIsNotFound) {
  SimulatedDisk disk(4);
  EXPECT_EQ(disk.ReadPage(1).status().code(), ErrorCode::kNotFound);
}

TEST(SimulatedDisk, OutOfRangeRejected) {
  SimulatedDisk disk(2);
  EXPECT_EQ(disk.ReadPage(5).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(disk.WritePage(5, AsSpan(Page(1))).code(), ErrorCode::kInvalidArgument);
}

TEST(SimulatedDisk, PartialWriteRejected) {
  SimulatedDisk disk(2);
  std::vector<std::byte> half(kDiskPageSize / 2, std::byte{1});
  EXPECT_EQ(disk.WritePage(0, AsSpan(half)).code(), ErrorCode::kInvalidArgument);
}

TEST(SimulatedDisk, TornWriteLeavesCorruptPage) {
  SimulatedDisk disk(2);
  ASSERT_TRUE(disk.WritePage(0, AsSpan(Page(0x11))).ok());
  DiskFaultPlan plan;
  plan.tear_write_at = 0;
  disk.set_fault_plan(plan);
  Status s = disk.WritePage(0, AsSpan(Page(0x22)));
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
  disk.set_fault_plan(DiskFaultPlan{});
  EXPECT_EQ(disk.ReadPage(0).status().code(), ErrorCode::kCorruption);
  EXPECT_TRUE(disk.PageIsBad(0));
}

TEST(SimulatedDisk, CorruptPageHelper) {
  SimulatedDisk disk(2);
  ASSERT_TRUE(disk.WritePage(0, AsSpan(Page(0x33))).ok());
  disk.CorruptPage(0);
  EXPECT_TRUE(disk.PageIsBad(0));
  EXPECT_FALSE(disk.ReadPage(0).ok());
}

TEST(CarefulDisk, MasksTransientReadFaults) {
  SimulatedDisk disk(2, 123);
  ASSERT_TRUE(disk.WritePage(0, AsSpan(Page(0x44))).ok());
  DiskFaultPlan plan;
  plan.transient_read_error_probability = 0.5;
  disk.set_fault_plan(plan);
  CarefulDisk careful(&disk, 16);
  int successes = 0;
  for (int i = 0; i < 20; ++i) {
    if (careful.CarefulRead(0).ok()) {
      ++successes;
    }
  }
  EXPECT_EQ(successes, 20);
}

TEST(CarefulDisk, ReportsGenuineCorruption) {
  SimulatedDisk disk(2);
  ASSERT_TRUE(disk.WritePage(0, AsSpan(Page(0x55))).ok());
  disk.CorruptPage(0);
  CarefulDisk careful(&disk);
  EXPECT_EQ(careful.CarefulRead(0).status().code(), ErrorCode::kCorruption);
}

TEST(DuplexedStore, ReadsPreferIntactReplica) {
  ReplicatedStore store(4, /*replicas=*/2);
  ASSERT_TRUE(store.AtomicWrite(1, AsSpan(Page(0x66))).ok());
  store.disk_a().CorruptPage(1);
  Result<std::vector<std::byte>> r = store.AtomicRead(1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Page(0x66));
}

TEST(DuplexedStore, SurvivesTornWriteOnFirstReplica) {
  ReplicatedStore store(4, /*replicas=*/2);
  ASSERT_TRUE(store.AtomicWrite(0, AsSpan(Page(0x01))).ok());
  // Crash during the write of replica A: B still holds the old value.
  DiskFaultPlan plan;
  plan.tear_write_at = 0;
  store.disk_a().set_fault_plan(plan);
  Status s = store.AtomicWrite(0, AsSpan(Page(0x02)));
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
  store.disk_a().set_fault_plan(DiskFaultPlan{});
  // After "restart": repair, then the OLD value must be readable.
  ASSERT_TRUE(store.Repair().ok());
  Result<std::vector<std::byte>> r = store.AtomicRead(0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Page(0x01));
}

TEST(DuplexedStore, SurvivesTornWriteOnSecondReplica) {
  ReplicatedStore store(4, /*replicas=*/2);
  ASSERT_TRUE(store.AtomicWrite(0, AsSpan(Page(0x01))).ok());
  DiskFaultPlan plan;
  plan.tear_write_at = 0;
  store.disk_b().set_fault_plan(plan);
  Status s = store.AtomicWrite(0, AsSpan(Page(0x02)));
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
  store.disk_b().set_fault_plan(DiskFaultPlan{});
  // A completed: the NEW value wins and repair re-duplexes it.
  Result<std::size_t> repaired = store.Repair();
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired.value(), 1u);
  Result<std::vector<std::byte>> r = store.AtomicRead(0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Page(0x02));
  // Both replicas agree afterwards.
  EXPECT_EQ(store.disk_b().ReadPage(0).value(), Page(0x02));
}

TEST(DuplexedStore, RepairHealsDecay) {
  ReplicatedStore store(4, /*replicas=*/2);
  ASSERT_TRUE(store.AtomicWrite(2, AsSpan(Page(0x77))).ok());
  store.disk_b().CorruptPage(2);
  Result<std::size_t> repaired = store.Repair();
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired.value(), 1u);
  EXPECT_EQ(store.disk_b().ReadPage(2).value(), Page(0x77));
}

TEST(DuplexedStore, DoubleFaultIsDetected) {
  ReplicatedStore store(4, /*replicas=*/2);
  ASSERT_TRUE(store.AtomicWrite(0, AsSpan(Page(0x88))).ok());
  store.disk_a().CorruptPage(0);
  store.disk_b().CorruptPage(0);
  EXPECT_EQ(store.AtomicRead(0).status().code(), ErrorCode::kCorruption);
  EXPECT_EQ(store.Repair().status().code(), ErrorCode::kCorruption);
}

TEST(InMemoryMedium, AppendAndRead) {
  InMemoryStableMedium medium;
  std::vector<std::byte> data = Page(0x12);
  ASSERT_TRUE(medium.Append(AsSpan(data)).ok());
  EXPECT_EQ(medium.durable_size(), kDiskPageSize);
  Result<std::vector<std::byte>> r = medium.Read(0, 16);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), std::vector<std::byte>(16, std::byte{0x12}));
  EXPECT_FALSE(medium.Read(kDiskPageSize - 4, 8).ok());
}

TEST(DuplexedMedium, AppendReadRoundTrip) {
  DuplexedStableMedium medium;
  std::vector<std::byte> a(100, std::byte{0x01});
  std::vector<std::byte> b(500, std::byte{0x02});  // spans pages
  ASSERT_TRUE(medium.Append(AsSpan(a)).ok());
  ASSERT_TRUE(medium.Append(AsSpan(b)).ok());
  EXPECT_EQ(medium.durable_size(), 600u);
  Result<std::vector<std::byte>> r = medium.Read(90, 20);
  ASSERT_TRUE(r.ok());
  std::vector<std::byte> expect(10, std::byte{0x01});
  expect.insert(expect.end(), 10, std::byte{0x02});
  EXPECT_EQ(r.value(), expect);
}

TEST(DuplexedMedium, RecoverAfterCrashKeepsDurableExtent) {
  DuplexedStableMedium medium;
  std::vector<std::byte> a(300, std::byte{0x03});
  ASSERT_TRUE(medium.Append(AsSpan(a)).ok());
  ASSERT_TRUE(medium.RecoverAfterCrash().ok());
  EXPECT_EQ(medium.durable_size(), 300u);
  Result<std::vector<std::byte>> r = medium.Read(0, 300);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), a);
}

TEST(DuplexedMedium, WriteAmplificationIsAtLeastTwofold) {
  DuplexedStableMedium medium;
  std::vector<std::byte> data(1024, std::byte{0x04});
  ASSERT_TRUE(medium.Append(AsSpan(data)).ok());
  EXPECT_GE(medium.physical_bytes_written(), 2 * 1024u);
}

TEST(FileMedium, RoundTripAndReopen) {
  std::string path = testing::TempDir() + "/argus_file_medium_test.log";
  ::remove(path.c_str());
  {
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
    ASSERT_TRUE(medium.ok()) << medium.status().ToString();
    std::vector<std::byte> data = Page(0x21);
    ASSERT_TRUE(medium.value()->Append(AsSpan(data)).ok());
    EXPECT_EQ(medium.value()->durable_size(), kDiskPageSize);
  }
  {
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
    ASSERT_TRUE(medium.ok());
    EXPECT_EQ(medium.value()->durable_size(), kDiskPageSize);
    Result<std::vector<std::byte>> r = medium.value()->Read(0, kDiskPageSize);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), Page(0x21));
  }
  ::remove(path.c_str());
}

}  // namespace
}  // namespace argus
