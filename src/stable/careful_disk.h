// Lampson-Sturgis "careful" disk operations.
//
// CarefulRead retries a read a bounded number of times, so transient faults
// are masked; a persistent CRC mismatch is reported as corruption (the page
// has decayed or a write was torn). CarefulWrite writes and then reads back
// until the page verifies. These are the building blocks from which the
// duplexed (stable) store derives its atomicity.

#ifndef SRC_STABLE_CAREFUL_DISK_H_
#define SRC_STABLE_CAREFUL_DISK_H_

#include <memory>

#include "src/stable/simulated_disk.h"

namespace argus {

class CarefulDisk {
 public:
  // Does not take ownership of `disk`; the duplexed store owns the disks.
  explicit CarefulDisk(SimulatedDisk* disk, int max_retries = 4)
      : disk_(disk), max_retries_(max_retries) {
    ARGUS_CHECK(disk != nullptr);
  }

  // Retries through transient faults. Returns kCorruption only if the page is
  // genuinely bad (every attempt CRC-fails), kNotFound if never written.
  Result<std::vector<std::byte>> CarefulRead(std::size_t page_index);

  // CarefulRead without the allocation: retries into `out` (>= kDiskPageSize).
  Status CarefulReadInto(std::size_t page_index, std::span<std::byte> out);

  // Write-then-verify. Returns kUnavailable if the underlying write crashed
  // (the caller machine is gone; recovery will observe a possibly-bad page).
  Status CarefulWrite(std::size_t page_index, std::span<const std::byte> data);

 private:
  SimulatedDisk* disk_;
  int max_retries_;
};

}  // namespace argus

#endif  // SRC_STABLE_CAREFUL_DISK_H_
