#include "src/stable/replicated_medium.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/common/codec.h"

namespace argus {

ReplicatedStableMedium::ReplicatedStableMedium(std::uint32_t replicas, std::uint64_t seed)
    : store_(16, replicas, seed) {
  Status s = WriteSuperblock();
  ARGUS_CHECK_MSG(s.ok() || s.code() == ErrorCode::kUnavailable, "superblock init failed");
}

Status ReplicatedStableMedium::WriteSuperblock() {
  ByteWriter w;
  w.PutU64(durable_length_);
  w.PutU64(++epoch_);
  std::vector<std::byte> page(kDiskPageSize, std::byte{0});
  std::memcpy(page.data(), w.bytes().data(), w.bytes().size());
  return store_.AtomicWrite(0, std::span<const std::byte>(page.data(), page.size()));
}

Status ReplicatedStableMedium::ReadSuperblock() {
  std::array<std::byte, kDiskPageSize> page;
  Status s = store_.AtomicReadInto(0, std::span<std::byte>(page.data(), page.size()));
  if (!s.ok()) {
    return s;
  }
  ByteReader r(std::span<const std::byte>(page.data(), page.size()));
  Result<std::uint64_t> len = r.ReadU64();
  if (!len.ok()) {
    return len.status();
  }
  Result<std::uint64_t> epoch = r.ReadU64();
  if (!epoch.ok()) {
    return epoch.status();
  }
  durable_length_ = len.value();
  epoch_ = epoch.value();
  return Status::Ok();
}

Status ReplicatedStableMedium::Append(std::span<const std::byte> data) {
  std::uint64_t offset = durable_length_;
  std::uint64_t end = offset + data.size();
  std::size_t last_page = 1 + static_cast<std::size_t>((end == 0 ? 0 : end - 1) / kDataPerPage);
  store_.EnsurePageCount(last_page + 1);

  std::size_t consumed = 0;
  while (consumed < data.size()) {
    std::uint64_t abs = offset + consumed;
    std::size_t page_index = 1 + static_cast<std::size_t>(abs / kDataPerPage);
    std::size_t in_page = static_cast<std::size_t>(abs % kDataPerPage);
    std::size_t chunk = std::min(data.size() - consumed, kDataPerPage - in_page);

    std::array<std::byte, kDiskPageSize> page{};
    if (in_page != 0) {
      // Partial tail page: preserve the existing durable prefix. kNotFound
      // means the page was never written — keep the zero fill.
      Status existing =
          store_.AtomicReadInto(page_index, std::span<std::byte>(page.data(), page.size()));
      if (!existing.ok() && existing.code() != ErrorCode::kNotFound) {
        return existing;
      }
      if (!existing.ok()) {
        page.fill(std::byte{0});
      }
    }
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(consumed),
              data.begin() + static_cast<std::ptrdiff_t>(consumed + chunk),
              page.begin() + static_cast<std::ptrdiff_t>(in_page));
    Status w = store_.AtomicWrite(page_index, std::span<const std::byte>(page.data(), page.size()));
    if (!w.ok()) {
      return w;
    }
    consumed += chunk;
  }

  durable_length_ = end;
  Status sb = WriteSuperblock();
  if (!sb.ok()) {
    // Superblock update did not complete: the append is not durable.
    durable_length_ = offset;
    return sb;
  }
  return Status::Ok();
}

Result<std::vector<std::byte>> ReplicatedStableMedium::Read(std::uint64_t offset,
                                                            std::uint64_t len) {
  std::vector<std::byte> out(len);
  Status s = ReadInto(offset, std::span<std::byte>(out.data(), out.size()));
  if (!s.ok()) {
    return s;
  }
  return out;
}

Status ReplicatedStableMedium::ReadInto(std::uint64_t offset, std::span<std::byte> out) {
  const std::uint64_t len = out.size();
  if (offset + len > durable_length_) {
    return Status::NotFound("read past durable extent");
  }
  // Bulk path: page-aligned chunks land straight in the output buffer;
  // partial head/tail pages go through a stack bounce buffer. Multi-page
  // reads (the read cache's block fills) pay no per-page allocation.
  std::array<std::byte, kDiskPageSize> bounce;
  std::uint64_t got = 0;
  while (got < len) {
    std::uint64_t abs = offset + got;
    std::size_t page_index = 1 + static_cast<std::size_t>(abs / kDataPerPage);
    std::size_t in_page = static_cast<std::size_t>(abs % kDataPerPage);
    std::uint64_t chunk = std::min<std::uint64_t>(len - got, kDataPerPage - in_page);
    if (chunk == kDataPerPage) {
      Status s = store_.AtomicReadInto(
          page_index, std::span<std::byte>(out.data() + got, kDataPerPage));
      if (!s.ok()) {
        return s;
      }
    } else {
      Status s = store_.AtomicReadInto(page_index,
                                       std::span<std::byte>(bounce.data(), bounce.size()));
      if (!s.ok()) {
        return s;
      }
      std::memcpy(out.data() + got, bounce.data() + in_page, static_cast<std::size_t>(chunk));
    }
    got += chunk;
  }
  return Status::Ok();
}

Status ReplicatedStableMedium::RecoverAfterCrash() {
  Result<std::size_t> repaired = store_.Repair();
  if (!repaired.ok()) {
    return repaired.status();
  }
  return ReadSuperblock();
}

}  // namespace argus
