// A simulated page-addressed disk with injectable faults.
//
// The thesis assumes "atomic stable storage" built the Lampson-Sturgis way
// (§1.1): conventional disks whose writes are NOT atomic — a crash in the
// middle of a write may leave the page garbage — plus spontaneous decay.
// This module supplies exactly that unreliable substrate so that the careful /
// duplexed layers above it can *derive* atomic stable storage, and so tests
// can prove they do.

#ifndef SRC_STABLE_SIMULATED_DISK_H_
#define SRC_STABLE_SIMULATED_DISK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/result.h"
#include "src/common/rng.h"

namespace argus {

inline constexpr std::size_t kDiskPageSize = 256;

struct DiskPage {
  std::vector<std::byte> data;  // exactly kDiskPageSize once written
  std::uint32_t stored_crc = 0; // what the platter holds; may disagree with data
  bool ever_written = false;

  bool IntactCrc() const {
    return ever_written && stored_crc == Crc32(std::span<const std::byte>(data.data(), data.size()));
  }
};

// Fault plan for one simulated disk. Counters tick per operation.
struct DiskFaultPlan {
  // If >= 0: the i-th write (0-based, counting from plan installation) is torn:
  // only a prefix lands and the CRC is garbage; the write returns kUnavailable.
  std::int64_t tear_write_at = -1;
  // Probability that a page decays (CRC becomes bad) when it is read.
  double decay_on_read_probability = 0.0;
  // Probability that a read transiently fails (returns kIoError) but the page
  // is fine; a retry may succeed. Models dust on the heads.
  double transient_read_error_probability = 0.0;
};

class SimulatedDisk {
 public:
  // `seed` drives probabilistic faults; deterministic given the op sequence.
  explicit SimulatedDisk(std::size_t page_count, std::uint64_t seed = 0);

  std::size_t page_count() const { return pages_.size(); }

  // Grows the disk to at least `n` pages (simulation convenience).
  void EnsurePageCount(std::size_t n) {
    if (pages_.size() < n) {
      pages_.resize(n);
    }
  }

  // Reads a page. Returns kCorruption if the stored CRC disagrees with the
  // data (torn write or decay), kIoError on transient faults.
  Result<std::vector<std::byte>> ReadPage(std::size_t page_index);

  // ReadPage without the allocation: copies the page into `out` (which must
  // hold at least kDiskPageSize bytes). Identical fault semantics and rng
  // stream — bulk readers (cache fills) use this to skip per-page vectors.
  Status ReadPageInto(std::size_t page_index, std::span<std::byte> out);

  // Writes a full page. Not atomic: a torn write leaves the page corrupt and
  // returns kUnavailable (the machine "crashed" mid-write).
  Status WritePage(std::size_t page_index, std::span<const std::byte> data);

  void set_fault_plan(const DiskFaultPlan& plan) {
    fault_plan_ = plan;
    writes_since_plan_ = 0;
  }

  // Forcibly corrupts a page (test hook for decay).
  void CorruptPage(std::size_t page_index);

  // True if the page would fail a CRC check right now.
  bool PageIsBad(std::size_t page_index) const;

  // Raw platter peek: no fault rng roll, no read counted. Repair-convergence
  // oracles use this to inspect replica state without perturbing the
  // deterministic fault stream a real read would advance.
  const DiskPage& PeekPage(std::size_t page_index) const {
    ARGUS_CHECK(page_index < pages_.size());
    return pages_[page_index];
  }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }

 private:
  // Shared fault path of the two read forms: bounds, transient-fault, decay,
  // and CRC checks, rolling the fault rng exactly once per read.
  Result<const DiskPage*> CheckedPage(std::size_t page_index);

  std::vector<DiskPage> pages_;
  DiskFaultPlan fault_plan_;
  std::int64_t writes_since_plan_ = 0;
  Rng rng_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace argus

#endif  // SRC_STABLE_SIMULATED_DISK_H_
