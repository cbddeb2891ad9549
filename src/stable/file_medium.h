// File-backed StableMedium: appends go to a regular file and are made durable
// with fdatasync. This is the deployment path for running the recovery system
// against a real filesystem; crash simulation in tests uses the in-memory and
// duplexed media instead (a real file cannot be "un-written").
//
// The file holds no bytes past the durable extent for long:
//  - Append writes with pwrite at durable_size(), never at the file's end.
//  - A failed write or fdatasync truncates the file back to durable_size()
//    and refuses every later Append until the file is reopened: after a
//    failed fdatasync the kernel may have dropped the dirty pages, so a retry
//    could report success without the data.
//  - A log's recovery scan cuts a torn force off with TruncateTornTail
//    (ftruncate + fdatasync) before the log forces again.
//
// Reads take one of two paths, visible in the stable.file.* counters:
//  - ReadInto: one pread per call (what the read cache issues when disabled).
//  - SubmitReads: byte-adjacent segments of a batch are coalesced into iovec
//    runs, one preadv syscall per contiguous run. The cache submits each
//    demand+readahead fill as one ascending batch, so a fill is usually one
//    preadv.

#ifndef SRC_STABLE_FILE_MEDIUM_H_
#define SRC_STABLE_FILE_MEDIUM_H_

#include <memory>
#include <mutex>
#include <string>

#include "src/stable/stable_medium.h"

namespace argus {

class FileStableMedium final : public StableMedium {
 public:
  // Opens (creating if needed, and then syncing its directory) the file at
  // `path`. Existing contents become the durable extent, so re-opening a log
  // file resumes it.
  static Result<std::unique_ptr<FileStableMedium>> Open(const std::string& path);

  ~FileStableMedium() override;

  FileStableMedium(const FileStableMedium&) = delete;
  FileStableMedium& operator=(const FileStableMedium&) = delete;

  Status Append(std::span<const std::byte> data) override;
  Result<std::vector<std::byte>> Read(std::uint64_t offset, std::uint64_t len) override;
  Status ReadInto(std::uint64_t offset, std::span<std::byte> out) override;
  // Thread-safe: batches from concurrent callers run one at a time on an
  // internal mutex. ReadInto stays lock-free (pread is reentrant).
  Status SubmitReads(std::span<ReadRequest> requests) override;
  std::uint64_t durable_size() const override { return durable_size_; }
  // ftruncate + fdatasync down to `size`. After a failed fdatasync, appends
  // are refused as after a failed Append.
  Status TruncateTornTail(std::uint64_t size) override;
  std::uint64_t physical_bytes_written() const override { return physical_bytes_; }

  // Always false: reads never go through io_uring. perfbench's `restart`
  // workload still calls this for its `io_uring` stamp field.
  bool io_uring_active() const { return false; }

 private:
  FileStableMedium(int fd, std::uint64_t size) : fd_(fd), durable_size_(size) {}

  Status SubmitPreadv(std::span<ReadRequest> requests);
  // Cuts the file back to durable_size_ after a failed write or sync and
  // refuses later appends; returns `error`.
  Status Fail(Status error);

  int fd_;
  std::mutex submit_mu_;  // serializes whole SubmitReads batches
  std::uint64_t durable_size_;
  std::uint64_t physical_bytes_ = 0;
  bool failed_ = false;  // a write or sync failed; appends are refused
};

}  // namespace argus

#endif  // SRC_STABLE_FILE_MEDIUM_H_
