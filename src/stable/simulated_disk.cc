#include "src/stable/simulated_disk.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace argus {

namespace {

// Process-wide media counters (all disks aggregated); per-disk counts stay on
// the instance (reads()/writes()). Handles resolve once.
struct DiskObs {
  obs::Counter* reads;
  obs::Counter* writes;
  obs::Counter* fault_tear;
  obs::Counter* fault_decay;
  obs::Counter* fault_transient;

  static const DiskObs& Get() {
    static const DiskObs m{
        obs::GetCounter("stable.disk.reads"),
        obs::GetCounter("stable.disk.writes"),
        obs::GetCounter("stable.disk.faults.tear"),
        obs::GetCounter("stable.disk.faults.decay"),
        obs::GetCounter("stable.disk.faults.transient"),
    };
    return m;
  }
};

}  // namespace

SimulatedDisk::SimulatedDisk(std::size_t page_count, std::uint64_t seed)
    : pages_(page_count), rng_(seed ^ 0xd1b54a32d192ed03ull) {}

Result<const DiskPage*> SimulatedDisk::CheckedPage(std::size_t page_index) {
  if (page_index >= pages_.size()) {
    return Status::InvalidArgument("page index out of range");
  }
  ++reads_;
  DiskObs::Get().reads->Increment();
  DiskPage& page = pages_[page_index];
  if (!page.ever_written) {
    return Status::NotFound("page never written");
  }
  if (rng_.NextBool(fault_plan_.transient_read_error_probability)) {
    DiskObs::Get().fault_transient->Increment();
    return Status::IoError("transient read fault");
  }
  if (rng_.NextBool(fault_plan_.decay_on_read_probability)) {
    DiskObs::Get().fault_decay->Increment();
    CorruptPage(page_index);
  }
  if (!page.IntactCrc()) {
    return Status::Corruption("page crc mismatch");
  }
  return static_cast<const DiskPage*>(&page);
}

Result<std::vector<std::byte>> SimulatedDisk::ReadPage(std::size_t page_index) {
  Result<const DiskPage*> page = CheckedPage(page_index);
  if (!page.ok()) {
    return page.status();
  }
  return page.value()->data;
}

Status SimulatedDisk::ReadPageInto(std::size_t page_index, std::span<std::byte> out) {
  ARGUS_CHECK(out.size() >= kDiskPageSize);
  Result<const DiskPage*> page = CheckedPage(page_index);
  if (!page.ok()) {
    return page.status();
  }
  std::copy(page.value()->data.begin(), page.value()->data.end(), out.begin());
  return Status::Ok();
}

Status SimulatedDisk::WritePage(std::size_t page_index, std::span<const std::byte> data) {
  if (page_index >= pages_.size()) {
    return Status::InvalidArgument("page index out of range");
  }
  if (data.size() != kDiskPageSize) {
    return Status::InvalidArgument("partial page write");
  }
  bool torn = fault_plan_.tear_write_at >= 0 && writes_since_plan_ == fault_plan_.tear_write_at;
  ++writes_since_plan_;
  ++writes_;
  DiskObs::Get().writes->Increment();
  DiskPage& page = pages_[page_index];
  page.ever_written = true;
  if (torn) {
    DiskObs::Get().fault_tear->Increment();
    // A prefix lands; the CRC on the platter is stale/garbage.
    std::size_t landed = kDiskPageSize / 2;
    page.data.assign(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(landed));
    page.data.resize(kDiskPageSize, std::byte{0xee});
    page.stored_crc = 0xdeadbeef;
    return Status::Unavailable("crash during page write");
  }
  page.data.assign(data.begin(), data.end());
  page.stored_crc = Crc32(data);
  return Status::Ok();
}

void SimulatedDisk::CorruptPage(std::size_t page_index) {
  ARGUS_CHECK(page_index < pages_.size());
  DiskPage& page = pages_[page_index];
  page.ever_written = true;
  page.data.resize(kDiskPageSize, std::byte{0});
  page.data[0] ^= std::byte{0xff};
  page.stored_crc ^= 0x1;
}

bool SimulatedDisk::PageIsBad(std::size_t page_index) const {
  ARGUS_CHECK(page_index < pages_.size());
  const DiskPage& page = pages_[page_index];
  return page.ever_written && !page.IntactCrc();
}

}  // namespace argus
