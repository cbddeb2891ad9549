// StableMedium over a ReplicatedStore.
//
// Layout: logical page 0 is the superblock: [durable_length u64][epoch u64],
// padded to the page size. Data bytes live on pages 1..N at
// page = 1 + offset / kDataPerPage. An Append writes the affected data pages
// (read-modify-write for the partial tail page), then atomically updates the
// superblock. A crash before the superblock update leaves the old durable
// length — the half-written tail is simply not part of the log, which is
// exactly the "write is atomic: completely written or not written at all"
// property of §1.1.
//
// The replica count is a constructor knob: N=2 is the historical
// Lampson-Sturgis duplexed pair (see DuplexedStableMedium in
// duplexed_medium.h, now a shim over this class), N>=3 buys decay tolerance
// proportional to N-1 and makes whole-disk replacement survivable via the
// store's online re-silver path.

#ifndef SRC_STABLE_REPLICATED_MEDIUM_H_
#define SRC_STABLE_REPLICATED_MEDIUM_H_

#include <memory>

#include "src/stable/replicated_store.h"
#include "src/stable/stable_medium.h"

namespace argus {

class ReplicatedStableMedium : public StableMedium {
 public:
  explicit ReplicatedStableMedium(std::uint32_t replicas, std::uint64_t seed = 0);

  Status Append(std::span<const std::byte> data) override;
  Result<std::vector<std::byte>> Read(std::uint64_t offset, std::uint64_t len) override;
  Status ReadInto(std::uint64_t offset, std::span<std::byte> out) override;
  std::uint64_t durable_size() const override { return durable_length_; }
  Status RecoverAfterCrash() override;
  std::uint64_t physical_bytes_written() const override {
    return store_.physical_writes() * kDiskPageSize;
  }

  ReplicatedStore& store() { return store_; }

 private:
  static constexpr std::size_t kDataPerPage = kDiskPageSize;

  Status WriteSuperblock();
  Status ReadSuperblock();

  ReplicatedStore store_;
  std::uint64_t durable_length_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace argus

#endif  // SRC_STABLE_REPLICATED_MEDIUM_H_
