// The durable byte store underneath a stable log.
//
// A StableMedium is an append-only sequence of bytes with the property that
// once Append returns Ok, the appended bytes survive node crashes. The stable
// log layer (src/log) implements the write/force_write buffering of §3.1 on
// top of this: `write` only stages entries in volatile memory; `force_write`
// turns them into one Append call.
//
// Three implementations:
//  - InMemoryStableMedium: a byte vector; "durable" within the simulation
//    (survives Guardian::Crash, which only discards volatile state). Fast path
//    for tests and algorithm benchmarks.
//  - DuplexedStableMedium: bytes striped over a DuplexedStore with an
//    atomically updated superblock holding the durable length. Gives the
//    realistic 2x write amplification of §1.1 and survives torn writes.
//  - FileStableMedium: a real file with fsync; the "straightforward
//    file-backed log" deployment path.

#ifndef SRC_STABLE_STABLE_MEDIUM_H_
#define SRC_STABLE_STABLE_MEDIUM_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/result.h"

namespace argus {

// One segment of a scatter-gather batch read (see StableMedium::SubmitReads).
// The caller owns `out`; `status` is the per-segment completion, written by
// the medium when the batch executes.
struct ReadRequest {
  std::uint64_t offset = 0;
  std::span<std::byte> out;
  Status status = Status::Ok();
};

class StableMedium {
 public:
  virtual ~StableMedium() = default;

  // Durably appends `data` at the current end of the medium.
  virtual Status Append(std::span<const std::byte> data) = 0;

  // Reads `len` bytes starting at `offset`; the range must lie within the
  // durable extent.
  virtual Result<std::vector<std::byte>> Read(std::uint64_t offset, std::uint64_t len) = 0;

  // Allocation-free variant: fills `out` from `offset`. Bulk readers (the
  // block cache's fills) use this so a medium read lands directly in the
  // destination buffer. Default falls back to Read + copy.
  virtual Status ReadInto(std::uint64_t offset, std::span<std::byte> out) {
    Result<std::vector<std::byte>> r = Read(offset, out.size());
    if (!r.ok()) {
      return r.status();
    }
    std::copy(r.value().begin(), r.value().end(), out.begin());
    return Status::Ok();
  }

  // Scatter-gather batch read: the submission-queue shape of the read path.
  // Each request completes independently through its `status`; the return
  // value is the first (lowest-index) failure, Ok when every segment
  // succeeded. On return, every request's `status` is authoritative: Ok means
  // its buffer was fully read, and any request an implementation skipped or
  // abandoned (a batch-level failure, a rejected mixed batch) carries a
  // non-Ok status — a request must never keep a stale Ok over an unfilled
  // buffer.
  //
  // The default executes requests synchronously in submission order, so
  // deterministic media (simulated disks roll a fault rng once per read)
  // behave bit-identically to the equivalent ReadInto sequence. Overrides may
  // reorder or coalesce the physical I/O (the file medium's preadv runs) but
  // must keep the per-request completion contract so callers can fall back
  // segment by segment, not per batch.
  virtual Status SubmitReads(std::span<ReadRequest> requests) {
    Status first = Status::Ok();
    for (ReadRequest& request : requests) {
      request.status = ReadInto(request.offset, request.out);
      if (!request.status.ok() && first.ok()) {
        first = request.status;
      }
    }
    return first;
  }

  // Number of durably stored bytes.
  virtual std::uint64_t durable_size() const = 0;

  // Crash-recovery hook (e.g. re-duplex pages). Default: nothing to do.
  virtual Status RecoverAfterCrash() { return Status::Ok(); }

  // Total bytes physically written (for write-amplification measurements).
  virtual std::uint64_t physical_bytes_written() const = 0;
};

class InMemoryStableMedium final : public StableMedium {
 public:
  Status Append(std::span<const std::byte> data) override {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
    physical_bytes_ += data.size();
    return Status::Ok();
  }

  Result<std::vector<std::byte>> Read(std::uint64_t offset, std::uint64_t len) override {
    if (offset + len > bytes_.size()) {
      return Status::NotFound("read past durable extent");
    }
    return std::vector<std::byte>(
        bytes_.begin() + static_cast<std::ptrdiff_t>(offset),
        bytes_.begin() + static_cast<std::ptrdiff_t>(offset + len));
  }

  Status ReadInto(std::uint64_t offset, std::span<std::byte> out) override {
    if (offset + out.size() > bytes_.size()) {
      return Status::NotFound("read past durable extent");
    }
    std::copy(bytes_.begin() + static_cast<std::ptrdiff_t>(offset),
              bytes_.begin() + static_cast<std::ptrdiff_t>(offset + out.size()), out.begin());
    return Status::Ok();
  }

  std::uint64_t durable_size() const override { return bytes_.size(); }
  std::uint64_t physical_bytes_written() const override { return physical_bytes_; }

 private:
  std::vector<std::byte> bytes_;
  std::uint64_t physical_bytes_ = 0;
};

}  // namespace argus

#endif  // SRC_STABLE_STABLE_MEDIUM_H_
