#include "src/stable/file_medium.h"

#include <fcntl.h>
#include <limits.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>

#include "src/obs/metrics.h"

namespace argus {

namespace {

// Syscall-amortization ledger for the file backend: preadv_calls vs
// batched_blocks is the coalescing ratio, batch_ns the per-SubmitReads
// latency distribution the E15 bench snapshots, fsyncs the force count.
struct FileObs {
  obs::Counter* preads;
  obs::Counter* preadv_calls;
  obs::Counter* batched_blocks;
  obs::Counter* fsyncs;
  obs::Histogram* batch_ns;

  static const FileObs& Get() {
    static const FileObs m{
        obs::GetCounter("stable.file.preads"),
        obs::GetCounter("stable.file.preadv_calls"),
        obs::GetCounter("stable.file.batched_blocks"),
        obs::GetCounter("stable.file.fsyncs"),
        obs::GetHistogram("stable.file.batch_ns"),
    };
    return m;
  }
};

Status PreadFully(int fd, std::uint64_t offset, std::span<std::byte> out) {
  std::size_t got = 0;
  while (got < out.size()) {
    ssize_t n = ::pread(fd, out.data() + got, out.size() - got,
                        static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IoError(std::string("pread: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IoError("unexpected EOF");
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

// Makes a new directory entry durable: fsync the directory that holds `path`.
Status SyncParentDirectory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  const bool synced = fd >= 0 && ::fsync(fd) == 0;
  const int err = errno;
  if (fd >= 0) {
    ::close(fd);
  }
  return synced ? Status::Ok() : Status::IoError("fsync " + dir + ": " + std::strerror(err));
}

}  // namespace

Result<std::unique_ptr<FileStableMedium>> FileStableMedium::Open(const std::string& path) {
  bool created = true;
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd < 0 && errno == EEXIST) {
    created = false;
    fd = ::open(path.c_str(), O_RDWR);
  }
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IoError("fstat " + path + ": " + std::strerror(err));
  }
  if (created) {
    if (Status s = SyncParentDirectory(path); !s.ok()) {
      ::close(fd);
      return s;
    }
  }
  return std::unique_ptr<FileStableMedium>(
      new FileStableMedium(fd, static_cast<std::uint64_t>(st.st_size)));
}

FileStableMedium::~FileStableMedium() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status FileStableMedium::Append(std::span<const std::byte> data) {
  if (failed_) {
    return Status::IoError("append refused: an earlier write or sync failed; reopen the file");
  }
  std::size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::pwrite(fd_, data.data() + done, data.size() - done,
                         static_cast<off_t>(durable_size_ + done));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return Fail(Status::IoError(std::string("pwrite: ") +
                                  (n < 0 ? std::strerror(errno) : "no progress")));
    }
    done += static_cast<std::size_t>(n);
  }
  if (::fdatasync(fd_) != 0) {
    return Fail(Status::IoError(std::string("fdatasync: ") + std::strerror(errno)));
  }
  FileObs::Get().fsyncs->Increment();
  durable_size_ += data.size();
  physical_bytes_ += data.size();
  return Status::Ok();
}

Status FileStableMedium::Fail(Status error) {
  failed_ = true;
  if (::ftruncate(fd_, static_cast<off_t>(durable_size_)) != 0) {
    // The bytes stay; a reopen's recovery scan cuts them off as a torn tail.
    return Status::IoError(error.message() + "; ftruncate: " + std::strerror(errno));
  }
  return error;
}

Status FileStableMedium::TruncateTornTail(std::uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Status::IoError(std::string("ftruncate: ") + std::strerror(errno));
  }
  durable_size_ = size;
  if (::fdatasync(fd_) != 0) {
    // Not Fail(): the file already ends at `size`. Appends stay refused
    // until a reopen scans the file again.
    failed_ = true;
    return Status::IoError(std::string("fdatasync: ") + std::strerror(errno));
  }
  FileObs::Get().fsyncs->Increment();
  return Status::Ok();
}

Result<std::vector<std::byte>> FileStableMedium::Read(std::uint64_t offset, std::uint64_t len) {
  std::vector<std::byte> out(len);
  Status s = ReadInto(offset, std::span<std::byte>(out.data(), out.size()));
  if (!s.ok()) {
    return s;
  }
  return out;
}

Status FileStableMedium::ReadInto(std::uint64_t offset, std::span<std::byte> out) {
  if (offset + out.size() > durable_size_) {
    return Status::NotFound("read past durable extent");
  }
  FileObs::Get().preads->Increment();
  return PreadFully(fd_, offset, out);
}

Status FileStableMedium::SubmitReads(std::span<ReadRequest> requests) {
  // Bounds-check every segment up front so the batch never reads past the
  // durable extent (the kernel would happily serve bytes of a torn tail).
  Status first = Status::Ok();
  for (ReadRequest& request : requests) {
    if (request.offset + request.out.size() > durable_size_) {
      request.status = Status::NotFound("read past durable extent");
      if (first.ok()) {
        first = request.status;
      }
    } else {
      request.status = Status::Ok();
    }
  }
  if (!first.ok()) {
    // Mixed batches are a caller bug; fail fast rather than partially read.
    // The in-bounds siblings were never attempted, so they must not keep Ok —
    // callers trust per-request statuses and would install unfilled buffers.
    for (ReadRequest& request : requests) {
      if (request.status.ok()) {
        request.status = Status::Unavailable("batch not attempted");
      }
    }
    return first;
  }
  if (requests.empty()) {
    return Status::Ok();
  }

  std::lock_guard<std::mutex> l(submit_mu_);
  const auto start = std::chrono::steady_clock::now();
  first = SubmitPreadv(requests);
  FileObs::Get().batch_ns->Record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count()));
  return first;
}

Status FileStableMedium::SubmitPreadv(std::span<ReadRequest> requests) {
  // Coalesce byte-adjacent segments (the cache submits fills in ascending
  // block order, so a demand+readahead run is one contiguous extent) into a
  // single preadv each; discontinuities start a new vectored call.
  FileObs::Get().batched_blocks->Add(requests.size());
  Status first = Status::Ok();
  std::size_t run_start = 0;
  while (run_start < requests.size()) {
    std::size_t run_end = run_start + 1;
    std::uint64_t next_offset = requests[run_start].offset + requests[run_start].out.size();
    while (run_end < requests.size() && requests[run_end].offset == next_offset &&
           run_end - run_start < static_cast<std::size_t>(IOV_MAX)) {
      next_offset += requests[run_end].out.size();
      ++run_end;
    }

    std::size_t count = run_end - run_start;
    iovec iov_stack[16];
    std::vector<iovec> iov_heap;
    iovec* iov = iov_stack;
    if (count > 16) {
      iov_heap.resize(count);
      iov = iov_heap.data();
    }
    std::uint64_t run_bytes = 0;
    for (std::size_t i = 0; i < count; ++i) {
      iov[i].iov_base = requests[run_start + i].out.data();
      iov[i].iov_len = requests[run_start + i].out.size();
      run_bytes += requests[run_start + i].out.size();
    }
    FileObs::Get().preadv_calls->Increment();

    std::uint64_t done = 0;
    Status run_status = Status::Ok();
    std::uint64_t base = requests[run_start].offset;
    std::size_t iov_index = 0;
    while (done < run_bytes) {
      ssize_t n = ::preadv(fd_, iov + iov_index, static_cast<int>(count - iov_index),
                           static_cast<off_t>(base + done));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        run_status = Status::IoError(std::string("preadv: ") + std::strerror(errno));
        break;
      }
      if (n == 0) {
        run_status = Status::IoError("unexpected EOF");
        break;
      }
      done += static_cast<std::uint64_t>(n);
      // Advance the iovec window past fully consumed segments (short preadv:
      // resume mid-run without re-reading).
      std::uint64_t consumed = static_cast<std::uint64_t>(n);
      while (consumed > 0 && iov_index < count) {
        if (consumed >= iov[iov_index].iov_len) {
          consumed -= iov[iov_index].iov_len;
          ++iov_index;
        } else {
          iov[iov_index].iov_base = static_cast<char*>(iov[iov_index].iov_base) + consumed;
          iov[iov_index].iov_len -= consumed;
          consumed = 0;
        }
      }
    }
    // Segments wholly consumed before a mid-run failure keep Ok — the same
    // state the serial loop would have left — so the cache still installs the
    // prefix that really was read.
    std::uint64_t seg_end = 0;
    for (std::size_t i = run_start; i < run_end; ++i) {
      seg_end += requests[i].out.size();
      requests[i].status = (run_status.ok() || seg_end <= done) ? Status::Ok() : run_status;
    }
    if (!run_status.ok() && first.ok()) {
      first = run_status;
    }
    run_start = run_end;
  }
  return first;
}

}  // namespace argus
